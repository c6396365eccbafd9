// Structured cycle-event tracer (docs/OBSERVABILITY.md).
//
// Emits Chrome trace-event JSON (the catapult format: load the file in
// Perfetto or chrome://tracing) for the pipeline stages, steering
// decisions, loader region rewrites, skip-ahead windows and
// fault/recovery events. One cycle of simulated time maps to one
// microsecond of trace time, so the timeline reads directly in cycles.
//
// The tracer is opt-in and observation-only: every call site guards on a
// null pointer, so a machine built without tracing pays one pointer
// compare per candidate event and produces bit-identical statistics.
// Filtering is two-dimensional: a category bitmask (trace_cat::*) and a
// [start_cycle, end_cycle] window, both checked before any recording
// work happens.
//
// Recording is batched: an accepted event becomes one POD TraceRecord in
// a fixed-capacity ring filled by the simulation thread — a few stores,
// no formatting, no I/O. JSON rendering happens in flush(), which runs
// when the ring fills, at sampler window boundaries (Processor wires
// this) and at close()/destruction; the rendered bytes gather in a large
// I/O buffer and reach the file in infrequent bulk writes (kIoBufferBytes)
// so page-cache writeback never stalls the simulation loop. Event order,
// and therefore the emitted document, is deterministic: records render in
// exactly the order they were recorded.
//
// Hot call sites use the typed emitters (instant_pc_id, complete_pc_id,
// instant_fetch, instant_steer, skip_span), whose name/intent strings
// must have static storage duration (opcode tables, literals). The
// generic instant()/complete()/counter()/ensure_lane() paths copy their
// strings into a small intern pool that is recycled on flush, so any
// lifetime is safe there.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace steersim {

/// Event-category bits for TraceConfig::categories.
namespace trace_cat {
inline constexpr std::uint32_t kFetch = 1u << 0;
inline constexpr std::uint32_t kDispatch = 1u << 1;
inline constexpr std::uint32_t kExecute = 1u << 2;
inline constexpr std::uint32_t kCommit = 1u << 3;
inline constexpr std::uint32_t kSteer = 1u << 4;
inline constexpr std::uint32_t kLoader = 1u << 5;
inline constexpr std::uint32_t kFault = 1u << 6;
inline constexpr std::uint32_t kRecovery = 1u << 7;
/// Numeric counter tracks (interval-sampler windows; "ph":"C" events).
inline constexpr std::uint32_t kCounter = 1u << 8;
/// Synthetic skip-ahead spans (one per proven-quiescent window).
inline constexpr std::uint32_t kSkip = 1u << 9;
inline constexpr std::uint32_t kAll = (1u << 10) - 1;

std::string_view name(std::uint32_t category);
}  // namespace trace_cat

/// Fixed lane (Chrome "tid") assignments. Execute events get one lane per
/// wake-up row and loader rewrites one lane per base slot, so concurrent
/// activity renders as parallel tracks.
namespace trace_lane {
inline constexpr unsigned kFetch = 0;
inline constexpr unsigned kDispatch = 1;
inline constexpr unsigned kCommit = 2;
inline constexpr unsigned kSteer = 3;
inline constexpr unsigned kFault = 4;
inline constexpr unsigned kRecovery = 5;
inline constexpr unsigned kLoaderTarget = 6;
inline constexpr unsigned kSkip = 7;
inline constexpr unsigned kExecuteBase = 16;  ///< + wake-up row
inline constexpr unsigned kSlotBase = 64;     ///< + region base slot
}  // namespace trace_lane

struct TraceConfig {
  bool enabled = false;
  std::string path = "steersim_trace.json";
  /// OR of trace_cat bits; events outside the mask are skipped.
  std::uint32_t categories = trace_cat::kAll;
  /// Only cycles in [start_cycle, end_cycle] are traced (inclusive).
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = ~0ull;
  /// Chrome trace-event "pid" stamped on every event. Single-core traces
  /// keep 0; the multi-core fabric gives each core its own pid so merged
  /// traces render one process group per core (plus one for the fabric).
  unsigned pid = 0;
};

/// Ordered key/value bag rendered as the event's "args" object. Keys must
/// be plain identifiers (no escaping is applied to keys).
class TraceArgs {
 public:
  TraceArgs& num(std::string_view key, std::uint64_t value);
  TraceArgs& num(std::string_view key, std::int64_t value);
  TraceArgs& num(std::string_view key, double value);
  TraceArgs& str(std::string_view key, std::string_view value);

  bool empty() const { return json_.empty(); }
  /// Comma-joined members, without the surrounding braces.
  const std::string& body() const { return json_; }

 private:
  void key(std::string_view k);
  std::string json_;
};

/// One buffered event. POD on purpose: recording an event is a handful of
/// stores into the ring, all formatting is deferred to flush().
struct TraceRecord {
  /// How the record's payload maps onto JSON at render time.
  enum class Shape : std::uint8_t {
    kLaneMeta,      ///< thread_name + thread_sort_index metadata pair
    kInstantBody,   ///< generic instant; interned name + pre-rendered args
    kCompleteBody,  ///< generic complete; interned name + pre-rendered args
    kInstantPcId,   ///< instant with args {"pc":a,"id":b}
    kCompletePcId,  ///< complete with args {"pc":a,"id":b}
    kFetch,         ///< instant "fetch": {"pc":a,"count":b,"from_trace":c}
    kSteer,         ///< instant "steer": selection/error/cost/streak/intent
    kCounter,       ///< counter sample; value double bits in `a`
    kSkip,          ///< complete "skip" span: {"cycles":dur}
  };

  static constexpr std::uint32_t kNoString = ~0u;

  std::uint64_t ts = 0;   ///< cycle (span start for complete shapes)
  std::uint64_t dur = 0;  ///< span duration; steer streak for kSteer
  std::uint64_t a = 0;    ///< shape-dependent payload
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  /// Static-storage name for typed shapes (intent string for kSteer).
  std::string_view name;
  std::uint32_t name_index = kNoString;  ///< intern-pool name (dynamic)
  std::uint32_t body_index = kNoString;  ///< intern-pool args body
  std::uint32_t category = 0;
  std::uint32_t lane = 0;
  Shape shape = Shape::kInstantBody;
};

class Tracer {
 public:
  /// Buffered records between flushes; bounds record memory regardless of
  /// run length. Sized so a typical sampler window's events fit without an
  /// intermediate ring-full flush: the drain then runs at window
  /// boundaries and destruction only.
  static constexpr std::size_t kRingCapacity = 32768;

  /// Rendered-output threshold: flush() renders into an accumulating
  /// buffer and only writes to the file once this many bytes are pending
  /// (plus once at close()). Small traces therefore reach the file in a
  /// single large sequential write after the run, keeping page-cache
  /// writeback stalls out of the simulation loop; long runs write in
  /// ~32 MiB chunks, which also bounds tracer memory.
  static constexpr std::size_t kIoBufferBytes = 32u << 20;

  explicit Tracer(const TraceConfig& config);
  /// Finalizes the JSON document (also done by close()).
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Fast pre-check: should an event of `category` at `cycle` be built at
  /// all? Call sites use this to skip argument formatting.
  bool wants(std::uint32_t category, std::uint64_t cycle) const {
    return (config_.categories & category) != 0 &&
           cycle >= config_.start_cycle && cycle <= config_.end_cycle;
  }
  /// Window-overlap variant for duration events.
  bool wants_span(std::uint32_t category, std::uint64_t start,
                  std::uint64_t duration) const {
    return (config_.categories & category) != 0 &&
           start <= config_.end_cycle &&
           start + duration >= config_.start_cycle;
  }

  /// Instant event ("ph":"i") at `cycle` on `lane`. Name and args are
  /// copied; any string lifetime is safe.
  void instant(std::string_view name, std::uint32_t category, unsigned lane,
               std::uint64_t cycle, const TraceArgs& args = {});

  /// Complete event ("ph":"X"): [start, start+duration] on `lane`.
  void complete(std::string_view name, std::uint32_t category, unsigned lane,
                std::uint64_t start, std::uint64_t duration,
                const TraceArgs& args = {});

  /// Counter sample ("ph":"C", category kCounter): one point on the named
  /// counter track at `cycle`. Perfetto renders each distinct `name` as its
  /// own numeric track under the process, alongside the event lanes.
  void counter(std::string_view name, std::uint64_t cycle, double value);

  /// Typed fast path for per-instruction instants (dispatch/commit):
  /// args {"pc":pc,"id":id}. `name` must have static storage duration.
  void instant_pc_id(std::string_view name, std::uint32_t category,
                     unsigned lane, std::uint64_t cycle, std::uint64_t pc,
                     std::uint64_t id);

  /// Typed fast path for execute spans: args {"pc":pc,"id":id} on the
  /// per-row lane. `name` must have static storage duration.
  void complete_pc_id(std::string_view name, unsigned lane,
                      std::uint64_t start, std::uint64_t duration,
                      std::uint64_t pc, std::uint64_t id);

  /// Typed fast path for fetch instants on trace_lane::kFetch.
  void instant_fetch(std::uint64_t cycle, std::uint64_t pc,
                     std::uint64_t count, bool from_trace);

  /// Typed fast path for steering-decision instants on trace_lane::kSteer
  /// (names the lane on first use). `intent` must have static storage
  /// duration (audit_intent_name).
  void instant_steer(std::uint64_t cycle, std::uint64_t selection,
                     double error, std::uint64_t cost, std::uint64_t streak,
                     std::string_view intent);

  /// Synthetic span covering a skipped proven-quiescent window
  /// (trace_cat::kSkip on trace_lane::kSkip; names the lane on first use).
  void skip_span(std::uint64_t start, std::uint64_t cycles);

  /// Names a lane in the viewer (thread_name metadata); idempotent.
  void ensure_lane(unsigned lane, std::string_view name);

  /// O(1) pre-check so hot call sites can skip building lane-name strings.
  bool lane_named(unsigned lane) const {
    return lane < named_lanes_.size() && named_lanes_[lane];
  }

  std::uint64_t events_emitted() const { return events_emitted_; }
  const TraceConfig& config() const { return config_; }

  /// True when the output path could not be opened: events are still
  /// accepted and counted, but rendering is discarded.
  bool null_sink() const { return !sink_ok_; }

  /// Renders and writes all buffered records; also recycles the intern
  /// pool. Runs automatically when the ring fills and on close().
  void flush();

  /// Flushes and terminates the JSON document; further events are dropped.
  void close();

 private:
  void emit_prefix();
  void emit_suffix();
  /// Flushes when the ring is full. Call before interning strings for a
  /// new record so pool indices never dangle across a flush.
  void reserve_record();
  std::uint32_t intern(std::string_view text);
  void begin_event(std::string& out);
  /// Renders one record at the render cursor (hot typed shapes) or via
  /// the checked scratch string (everything else).
  void render(const TraceRecord& rec);
  void render_general(const TraceRecord& rec, std::string& out);
  /// Guarantees `need` writable bytes at the render cursor.
  void ensure_render(std::size_t need);
  void grow_render(std::size_t need);
  char* put_ts(char* p, std::uint64_t ts);

  TraceConfig config_;
  /// Pre-rendered `,"pid":N` fragment every event embeds (byte-identical
  /// to the historical literal when pid == 0).
  std::string pid_frag_;
  std::ofstream out_;
  bool open_ = false;
  bool sink_ok_ = false;
  bool first_event_ = true;
  std::uint64_t events_emitted_ = 0;
  std::vector<bool> named_lanes_;
  /// Preconstructed record slots plus a fill cursor: recording reuses
  /// slots instead of re-initializing 64 bytes per event, so each
  /// emitter writes exactly the fields its shape renders (plus `name`
  /// for every typed shape, whose name render() checks).
  std::vector<TraceRecord> ring_;
  std::size_t ring_len_ = 0;
  std::vector<std::string> pool_;
  /// Flush-time render area: a flat byte buffer written through a raw
  /// cursor (one bounds check per record), handed to the sink in one
  /// write per flush.
  std::unique_ptr<char[]> render_buf_;
  std::size_t render_cap_ = 0;
  std::size_t render_len_ = 0;
  std::string scratch_;  ///< staging for the general (unbounded) shapes
  /// Steering error values repeat for long stretches (holds re-evaluate
  /// the same window); cache the last double's rendered digits. Likewise
  /// several events usually land on the same cycle, so cache the last
  /// timestamp's digits.
  std::uint64_t memo_bits_ = 0;
  unsigned memo_len_ = 0;
  char memo_buf_[40] = {};
  std::uint64_t memo_ts_ = 0;
  unsigned memo_ts_len_ = 0;
  char memo_ts_buf_[24] = {};
};

}  // namespace steersim
