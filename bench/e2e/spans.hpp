// In-memory span recorder for steerbench's traced runs.
//
// A Span brackets one call into a steersim layer from the benchmark's own
// code ("isa.assemble", "core.run", "svc.call_once", ...): the part of the
// name before the first '.' is the layer. Spans nest per thread, so each
// records its parent; spans of one service request share a request id.
// With tracing off a Span reads no clock and records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace steerbench {

struct SpanRecord {
  const char* name = "";  ///< string literal, "layer.call"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< enclosing span on the same thread, or 0
  std::uint32_t thread = 0;  ///< small per-thread index
  std::uint64_t request = 0;
};

/// Turns recording on or off for spans opened afterwards.
void set_tracing(bool on);
bool tracing();

class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Every span closed so far, in closing order. Call once all recording
/// threads have been joined.
const std::vector<SpanRecord>& recorded_spans();

struct SpanTotals {
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time covered by child spans
};

/// Per span name; self time subtracts each span's children, which run on
/// the span's own thread and so never overlap one another.
std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans);

/// Self time summed per layer (the name before the first '.').
std::map<std::string, double> layer_self_ms(
    const std::map<std::string, SpanTotals>& totals);

/// Durations in microseconds of every span called `name`.
std::vector<double> span_durations_us(const std::vector<SpanRecord>& spans,
                                      const std::string& name);

/// Writes the spans as a Chrome trace-event document (loads in Perfetto
/// and chrome://tracing). Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans);

}  // namespace steerbench
