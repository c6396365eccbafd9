#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "common/strings.hpp"

namespace steerbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint32_t> g_next_span{1};
std::atomic<std::uint32_t> g_next_thread{1};

std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex

const auto g_epoch = std::chrono::steady_clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

struct ThreadState {
  std::uint32_t index = g_next_thread.fetch_add(1);
  std::uint32_t open = 0;  ///< innermost open span id on this thread
};
thread_local ThreadState t_state;

}  // namespace

void set_tracing(bool on) { g_tracing.store(on); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!tracing()) {
    return;
  }
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_state.open;
  t_state.open = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) {
    return;
  }
  const std::int64_t end = now_ns();
  t_state.open = parent_;
  const SpanRecord record{name_,   start_ns_,      end,     id_,
                          parent_, t_state.index, request_};
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(record);
}

const std::vector<SpanRecord>& recorded_spans() { return g_spans; }

std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& span : spans) {
    SpanTotals& t = totals[span.name];
    const std::int64_t dur = span.end_ns - span.start_ns;
    const auto child = child_ns.find(span.id);
    const std::int64_t covered = child == child_ns.end() ? 0 : child->second;
    ++t.calls;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - covered) / 1e6;
  }
  return totals;
}

std::map<std::string, double> layer_self_ms(
    const std::map<std::string, SpanTotals>& totals) {
  std::map<std::string, double> layers;
  for (const auto& [name, t] : totals) {
    layers[name.substr(0, name.find('.'))] += t.self_ms;
  }
  return layers;
}

std::vector<double> span_durations_us(const std::vector<SpanRecord>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& span : spans) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", file);
  bool first = true;
  for (const SpanRecord& span : spans) {
    std::string name;
    steersim::append_json_escaped(name, span.name);
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"request\":%llu}}",
                 first ? "" : ",\n", name.c_str(),
                 static_cast<int>(name.find('.')), name.c_str(), span.thread,
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.id, span.parent,
                 static_cast<unsigned long long>(span.request));
    first = false;
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace steerbench
