#include "obs/trace.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace steersim {
namespace {

using namespace std::string_view_literals;

// TraceArgs' double format; render()'s kSteer case writes the same bytes
// inline, so a steer error reads alike in both places. to_chars with an
// explicit precision is specified to match printf "%.6g". JSON has no
// Inf/NaN literals; render those as strings.
void append_trace_double(std::string& out, double value) {
  if (std::isfinite(value)) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 6);
    out.append(buf, static_cast<std::size_t>(r.ptr - buf));
  } else {
    out += '"';
    out += std::isnan(value) ? "nan" : (value > 0 ? "inf" : "-inf");
    out += '"';
  }
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

// Unchecked cursor writes for the bounded typed shapes: the caller
// guarantees buffer capacity, so each literal inlines to a fixed-size
// memcpy and each number is one to_chars call.
inline char* put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

inline char* put_u64(char* p, std::uint64_t value) {
  return std::to_chars(p, p + 20, value).ptr;
}

bool name_clean(std::string_view text) {
  for (const char ch : text) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\' || c < 0x20) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view trace_cat::name(std::uint32_t category) {
  switch (category) {
    case kFetch:
      return "fetch";
    case kDispatch:
      return "dispatch";
    case kExecute:
      return "execute";
    case kCommit:
      return "commit";
    case kSteer:
      return "steer";
    case kLoader:
      return "loader";
    case kFault:
      return "fault";
    case kRecovery:
      return "recovery";
    case kCounter:
      return "counter";
    case kSkip:
      return "skip";
    default:
      return "misc";
  }
}

void TraceArgs::key(std::string_view k) {
  if (!json_.empty()) {
    json_ += ',';
  }
  json_ += '"';
  json_ += k;
  json_ += "\":";
}

TraceArgs& TraceArgs::num(std::string_view k, std::uint64_t value) {
  key(k);
  json_ += std::to_string(value);
  return *this;
}

TraceArgs& TraceArgs::num(std::string_view k, std::int64_t value) {
  key(k);
  json_ += std::to_string(value);
  return *this;
}

TraceArgs& TraceArgs::num(std::string_view k, double value) {
  key(k);
  append_trace_double(json_, value);
  return *this;
}

TraceArgs& TraceArgs::str(std::string_view k, std::string_view value) {
  key(k);
  json_ += '"';
  append_json_escaped(json_, value);
  json_ += '"';
  return *this;
}

Tracer::Tracer(const TraceConfig& config)
    : config_(config),
      pid_frag_(",\"pid\":" + std::to_string(config.pid)) {
  STEERSIM_EXPECTS(!config.path.empty());
  STEERSIM_EXPECTS(config.start_cycle <= config.end_cycle);
  out_.open(config_.path);
  sink_ok_ = out_.good();
  if (!sink_ok_) {
    // Warn once per process: a long sweep with a bad trace directory
    // should not print thousands of identical lines. The tracer keeps
    // accepting (and counting) events so sim behaviour is unchanged.
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "steersim: warning: cannot open trace output '%s'; "
                   "tracing degrades to a null sink\n",
                   config_.path.c_str());
    }
  }
  open_ = true;
  ring_.resize(kRingCapacity);
  if (sink_ok_) {
    // Pay the I/O buffer's allocation and page faults here, outside the
    // simulation loop: rendering then appends into warm, resident memory
    // for the whole run. Slack past the write threshold absorbs the last
    // ring batch so flush() never grows the buffer mid-run.
    render_cap_ = kIoBufferBytes + kRingCapacity * 192;
    render_buf_ = std::make_unique<char[]>(render_cap_);  // zeroing prefaults
    emit_prefix();
  }
}

Tracer::~Tracer() { close(); }

void Tracer::emit_prefix() { out_ << "{\"traceEvents\":[\n"; }

void Tracer::emit_suffix() { out_ << "\n]}\n"; }

void Tracer::close() {
  if (!open_) {
    return;
  }
  flush();
  if (sink_ok_) {
    if (render_len_ > 0) {
      out_.write(render_buf_.get(),
                 static_cast<std::streamsize>(render_len_));
      render_len_ = 0;
    }
    emit_suffix();
    out_.flush();
    STEERSIM_ENSURES(out_.good());
    out_.close();
  }
  open_ = false;
}

void Tracer::reserve_record() {
  if (ring_len_ == kRingCapacity) {
    flush();
  }
}

std::uint32_t Tracer::intern(std::string_view text) {
  pool_.emplace_back(text);
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Tracer::ensure_lane(unsigned lane, std::string_view name) {
  if (!open_ || lane_named(lane)) {
    return;
  }
  if (lane >= named_lanes_.size()) {
    named_lanes_.resize(lane + 1, false);
  }
  named_lanes_[lane] = true;
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kLaneMeta;
  rec.lane = lane;
  rec.name_index = intern(name);
}

void Tracer::instant(std::string_view name, std::uint32_t category,
                     unsigned lane, std::uint64_t cycle,
                     const TraceArgs& args) {
  if (!open_ || !wants(category, cycle)) {
    return;
  }
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kInstantBody;
  rec.ts = cycle;
  rec.category = category;
  rec.lane = lane;
  rec.name_index = intern(name);
  rec.body_index =
      args.empty() ? TraceRecord::kNoString : intern(args.body());
  ++events_emitted_;
}

void Tracer::complete(std::string_view name, std::uint32_t category,
                      unsigned lane, std::uint64_t start,
                      std::uint64_t duration, const TraceArgs& args) {
  if (!open_ || !wants_span(category, start, duration)) {
    return;
  }
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kCompleteBody;
  rec.ts = start;
  rec.dur = duration;
  rec.category = category;
  rec.lane = lane;
  rec.name_index = intern(name);
  rec.body_index =
      args.empty() ? TraceRecord::kNoString : intern(args.body());
  ++events_emitted_;
}

void Tracer::counter(std::string_view name, std::uint64_t cycle,
                     double value) {
  if (!open_ || !wants(trace_cat::kCounter, cycle)) {
    return;
  }
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kCounter;
  rec.ts = cycle;
  rec.a = std::bit_cast<std::uint64_t>(value);
  rec.name_index = intern(name);
  ++events_emitted_;
}

void Tracer::instant_pc_id(std::string_view name, std::uint32_t category,
                           unsigned lane, std::uint64_t cycle,
                           std::uint64_t pc, std::uint64_t id) {
  if (!open_ || !wants(category, cycle)) {
    return;
  }
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kInstantPcId;
  rec.ts = cycle;
  rec.a = pc;
  rec.b = id;
  rec.category = category;
  rec.lane = lane;
  rec.name = name;
  ++events_emitted_;
}

void Tracer::complete_pc_id(std::string_view name, unsigned lane,
                            std::uint64_t start, std::uint64_t duration,
                            std::uint64_t pc, std::uint64_t id) {
  if (!open_ || !wants_span(trace_cat::kExecute, start, duration)) {
    return;
  }
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kCompletePcId;
  rec.ts = start;
  rec.dur = duration;
  rec.a = pc;
  rec.b = id;
  rec.category = trace_cat::kExecute;
  rec.lane = lane;
  rec.name = name;
  ++events_emitted_;
}

void Tracer::instant_fetch(std::uint64_t cycle, std::uint64_t pc,
                           std::uint64_t count, bool from_trace) {
  if (!open_ || !wants(trace_cat::kFetch, cycle)) {
    return;
  }
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kFetch;
  rec.name = {};  // reused slot; render() checks every typed name
  rec.ts = cycle;
  rec.a = pc;
  rec.b = count;
  rec.c = from_trace ? 1 : 0;
  rec.category = trace_cat::kFetch;
  rec.lane = trace_lane::kFetch;
  ++events_emitted_;
}

void Tracer::instant_steer(std::uint64_t cycle, std::uint64_t selection,
                           double error, std::uint64_t cost,
                           std::uint64_t streak, std::string_view intent) {
  if (!open_ || !wants(trace_cat::kSteer, cycle)) {
    return;
  }
  ensure_lane(trace_lane::kSteer, "steer");
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kSteer;
  rec.ts = cycle;
  rec.dur = streak;
  rec.a = selection;
  rec.b = std::bit_cast<std::uint64_t>(error);
  rec.c = cost;
  rec.category = trace_cat::kSteer;
  rec.lane = trace_lane::kSteer;
  rec.name = intent;
  ++events_emitted_;
}

void Tracer::skip_span(std::uint64_t start, std::uint64_t cycles) {
  if (!open_ || !wants_span(trace_cat::kSkip, start, cycles)) {
    return;
  }
  ensure_lane(trace_lane::kSkip, "skip");
  reserve_record();
  TraceRecord& rec = ring_[ring_len_++];
  rec.shape = TraceRecord::Shape::kSkip;
  rec.name = {};  // reused slot; render() checks every typed name
  rec.ts = start;
  rec.dur = cycles;
  rec.category = trace_cat::kSkip;
  rec.lane = trace_lane::kSkip;
  ++events_emitted_;
}

void Tracer::begin_event(std::string& out) {
  if (!first_event_) {
    out += ",\n";
  }
  first_event_ = false;
}

void Tracer::ensure_render(std::size_t need) {
  if (render_cap_ - render_len_ < need) {
    grow_render(need);
  }
}

void Tracer::grow_render(std::size_t need) {
  std::size_t cap = render_cap_ == 0 ? (std::size_t{1} << 20) : render_cap_;
  while (cap - render_len_ < need) {
    cap *= 2;
  }
  std::unique_ptr<char[]> grown(new char[cap]);
  if (render_len_ != 0) {
    std::memcpy(grown.get(), render_buf_.get(), render_len_);
  }
  render_buf_ = std::move(grown);
  render_cap_ = cap;
}

/// Worst case for one hot typed record: every literal, six 20-digit
/// numbers, a 13-char double and a <=64-char name stay under this.
constexpr std::size_t kHotRecordBound = 384;

char* Tracer::put_ts(char* p, std::uint64_t ts) {
  if (memo_ts_len_ != 0 && ts == memo_ts_) {
    // Fixed-size copy; the record bound leaves slack past the digits.
    std::memcpy(p, memo_ts_buf_, sizeof(memo_ts_buf_));
    return p + memo_ts_len_;
  }
  char* const end = std::to_chars(p, p + 20, ts).ptr;
  memo_ts_ = ts;
  memo_ts_len_ = static_cast<unsigned>(end - p);
  std::memcpy(memo_ts_buf_, p, memo_ts_len_);
  return end;
}

void Tracer::render(const TraceRecord& rec) {
  using Shape = TraceRecord::Shape;
  // Hot typed shapes (the bulk of any machine-level trace) render through
  // unchecked cursor writes straight into the flush buffer — one bounds
  // check per record, then each literal inlines to a fixed-size memcpy
  // and each number is one to_chars call. Every component is bounded:
  // literals, <=20-digit numbers, and a short clean name (the typed
  // emitters only receive opcode mnemonics and audit intents). Shapes
  // carrying interned strings go through the checked path below.
  const bool typed_hot =
      rec.shape == Shape::kInstantPcId || rec.shape == Shape::kCompletePcId ||
      rec.shape == Shape::kFetch || rec.shape == Shape::kSteer ||
      rec.shape == Shape::kSkip;
  if (typed_hot) {
    STEERSIM_EXPECTS(rec.name.size() <= 64 && name_clean(rec.name));
    ensure_render(kHotRecordBound);
    char* const buf = render_buf_.get() + render_len_;
    char* p = buf;
    if (!first_event_) {
      p = put(p, ",\n"sv);
    }
    first_event_ = false;
    // One straight-line sequence per shape: constant name/cat/ph runs
    // merge into single fixed-size copies instead of a field-by-field
    // assembly, leaving one to_chars call per numeric field.
    switch (rec.shape) {
      case Shape::kInstantPcId: {
        p = put(p, R"({"name":")"sv);
        p = put(p, rec.name);
        if (rec.category == trace_cat::kDispatch) {
          p = put(p, R"(","cat":"dispatch","ph":"i","s":"t","ts":)"sv);
        } else if (rec.category == trace_cat::kCommit) {
          p = put(p, R"(","cat":"commit","ph":"i","s":"t","ts":)"sv);
        } else {
          p = put(p, R"(","cat":")"sv);
          p = put(p, trace_cat::name(rec.category));
          p = put(p, R"(","ph":"i","s":"t","ts":)"sv);
        }
        p = put_ts(p, rec.ts);
        p = put(p, pid_frag_);
        p = put(p, R"(,"tid":)"sv);
        p = put_u64(p, rec.lane);
        p = put(p, R"(,"args":{"pc":)"sv);
        p = put_u64(p, rec.a);
        p = put(p, R"(,"id":)"sv);
        p = put_u64(p, rec.b);
        p = put(p, "}}"sv);
        break;
      }
      case Shape::kCompletePcId: {
        p = put(p, R"({"name":")"sv);
        p = put(p, rec.name);
        p = put(p, R"(","cat":"execute","ph":"X","ts":)"sv);
        p = put_ts(p, rec.ts);
        p = put(p, R"(,"dur":)"sv);
        p = put_u64(p, rec.dur);
        p = put(p, pid_frag_);
        p = put(p, R"(,"tid":)"sv);
        p = put_u64(p, rec.lane);
        p = put(p, R"(,"args":{"pc":)"sv);
        p = put_u64(p, rec.a);
        p = put(p, R"(,"id":)"sv);
        p = put_u64(p, rec.b);
        p = put(p, "}}"sv);
        break;
      }
      case Shape::kFetch: {
        p = put(p, R"({"name":"fetch","cat":"fetch","ph":"i","s":"t","ts":)"sv);
        p = put_ts(p, rec.ts);
        p = put(p, pid_frag_);
        p = put(p, R"(,"tid":0,"args":{"pc":)"sv);
        p = put_u64(p, rec.a);
        p = put(p, R"(,"count":)"sv);
        p = put_u64(p, rec.b);
        p = put(p, R"(,"from_trace":)"sv);
        p = put_u64(p, rec.c);
        p = put(p, "}}"sv);
        break;
      }
      case Shape::kSteer: {
        p = put(p, R"({"name":"steer","cat":"steer","ph":"i","s":"t","ts":)"sv);
        p = put_ts(p, rec.ts);
        p = put(p, pid_frag_);
        p = put(p, R"(,"tid":3,"args":{"selection":)"sv);
        p = put_u64(p, rec.a);
        p = put(p, R"(,"error":)"sv);
        if (memo_len_ != 0 && rec.b == memo_bits_) {
          std::memcpy(p, memo_buf_, sizeof(memo_buf_));
          p += memo_len_;
        } else {
          char* const digits = p;
          const double error = std::bit_cast<double>(rec.b);
          if (std::isfinite(error)) {
            p = std::to_chars(p, p + 32, error, std::chars_format::general, 6)
                    .ptr;
          } else {
            *p++ = '"';
            p = put(p, std::isnan(error) ? "nan"sv
                                         : (error > 0 ? "inf"sv : "-inf"sv));
            *p++ = '"';
          }
          memo_bits_ = rec.b;
          memo_len_ = static_cast<unsigned>(p - digits);
          std::memcpy(memo_buf_, digits, memo_len_);
        }
        p = put(p, R"(,"cost":)"sv);
        p = put_u64(p, rec.c);
        p = put(p, R"(,"streak":)"sv);
        p = put_u64(p, rec.dur);
        p = put(p, R"(,"intent":")"sv);
        p = put(p, rec.name);
        p = put(p, "\"}}"sv);
        break;
      }
      case Shape::kSkip: {
        p = put(p, R"({"name":"skip","cat":"skip","ph":"X","ts":)"sv);
        p = put_ts(p, rec.ts);
        p = put(p, R"(,"dur":)"sv);
        p = put_u64(p, rec.dur);
        p = put(p, pid_frag_);
        p = put(p, R"(,"tid":7,"args":{"cycles":)"sv);
        p = put_u64(p, rec.dur);
        p = put(p, "}}"sv);
        break;
      }
      default:
        break;
    }
    render_len_ += static_cast<std::size_t>(p - buf);
    return;
  }
  scratch_.clear();
  render_general(rec, scratch_);
  ensure_render(scratch_.size());
  std::memcpy(render_buf_.get() + render_len_, scratch_.data(),
              scratch_.size());
  render_len_ += scratch_.size();
}

void Tracer::render_general(const TraceRecord& rec, std::string& out) {
  using Shape = TraceRecord::Shape;
  if (rec.shape == Shape::kLaneMeta) {
    begin_event(out);
    out += R"({"name":"thread_name","ph":"M")"sv;
    out += pid_frag_;
    out += R"(,"tid":)"sv;
    append_u64(out, rec.lane);
    out += R"(,"args":{"name":")"sv;
    append_json_escaped(out, pool_[rec.name_index]);
    out += "\"}}"sv;
    // Sort-index metadata keeps lanes in our numeric order in the viewer.
    begin_event(out);
    out += R"({"name":"thread_sort_index","ph":"M")"sv;
    out += pid_frag_;
    out += R"(,"tid":)"sv;
    append_u64(out, rec.lane);
    out += R"(,"args":{"sort_index":)"sv;
    append_u64(out, rec.lane);
    out += "}}"sv;
    return;
  }
  if (rec.shape == Shape::kCounter) {
    begin_event(out);
    out += R"({"name":")"sv;
    append_json_escaped(out, pool_[rec.name_index]);
    out += R"(","cat":"counter","ph":"C","ts":)"sv;
    append_u64(out, rec.ts);
    out += pid_frag_;
    out += R"(,"args":{"value":)"sv;
    out += json_number(std::bit_cast<double>(rec.a));
    out += "}}"sv;
    return;
  }

  // kInstantBody / kCompleteBody: interned name and pre-rendered args.
  begin_event(out);
  out += R"({"name":")"sv;
  append_json_escaped(out, pool_[rec.name_index]);
  out += R"(","cat":")"sv;
  out += trace_cat::name(rec.category);
  if (rec.shape == Shape::kCompleteBody) {
    out += R"(","ph":"X","ts":)"sv;
    append_u64(out, rec.ts);
    out += R"(,"dur":)"sv;
    append_u64(out, rec.dur);
  } else {
    out += R"(","ph":"i","s":"t","ts":)"sv;
    append_u64(out, rec.ts);
  }
  out += pid_frag_;
  out += R"(,"tid":)"sv;
  append_u64(out, rec.lane);
  if (rec.body_index != TraceRecord::kNoString) {
    out += R"(,"args":{)"sv;
    out += pool_[rec.body_index];
    out += '}';
  }
  out += '}';
}

void Tracer::flush() {
  if (ring_len_ == 0) {
    return;
  }
  if (sink_ok_) {
    // Size hint only — the typical record renders to ~120 bytes; the
    // per-record ensure_render still guards the worst case.
    ensure_render(ring_len_ * 160);
    for (std::size_t i = 0; i < ring_len_; ++i) {
      render(ring_[i]);
    }
    // Rendered bytes accumulate across flushes and hit the file only when
    // the I/O buffer overflows (and at close()): dirtying megabytes of
    // page cache mid-run stalls the simulation loop on writeback, so the
    // drain does the formatting work at window boundaries but defers the
    // write itself out of the hot loop whenever the document fits.
    if (render_len_ >= kIoBufferBytes) {
      out_.write(render_buf_.get(),
                 static_cast<std::streamsize>(render_len_));
      render_len_ = 0;
    }
  }
  ring_len_ = 0;
  pool_.clear();
}

}  // namespace steersim
