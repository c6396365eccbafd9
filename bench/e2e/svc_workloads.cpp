// Service workloads: svc_cold and svc_hot. Each round starts a fresh
// in-process SimService (2 workers) behind a SocketServer on a socket in
// the working directory and drives it with 2 SteersimClient connections in
// a closed loop, one call_once() per request so no retry can hide a
// failure.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <thread>

#include "common/rng.hpp"
#include "frontend/elf_loader.hpp"
#include "isa/assembler.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "spans.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "workload/kernels.hpp"
#include "workload/rv32_fixtures.hpp"
#include "workloads.hpp"

namespace steerbench {

using namespace steersim;
using namespace steersim::svc;

namespace {

constexpr unsigned kClients = 2;
/// A round's service, clients included, runs on this many CPUs: with two
/// requests in flight at most two threads are busy at once.
constexpr std::size_t kCpusPerRound = 2;
/// svc_cold: distinct knob settings per (program, policy) cell; 18
/// programs x 8 policies x 7 = 1008 requests per round.
constexpr std::size_t kColdPerCell = 7;
/// svc_hot replays E19's cache-hot pass (bench/bench_service.cpp): set-up
/// submits a batch of distinct points once, and the round resubmits the
/// whole batch, kHotPasses times in a fresh order each pass, so every
/// request hits. The batch is one layer of 18 programs x 8 policies = 144
/// points; 70 passes make 10,080 requests per round.
constexpr std::size_t kHotPasses = 70;
/// Stand-alone set-ups timed for `setup_s` before the rounds, each of
/// which times one more (svc_hot's take ~0.3 s each).
constexpr unsigned kSetups = 5;
/// The service's default cycle budget, which every request runs under.
constexpr std::uint64_t kJobBudget = 200'000;

const std::array<const char*, 8> kPolicies = {
    "steered",      "static-ffu",    "static-integer", "static-memory",
    "static-float", "full-reconfig", "oracle",         "greedy"};
constexpr std::array<unsigned, 4> kFetchWidth = {1, 2, 4, 8};
constexpr std::array<unsigned, 4> kQueueEntries = {4, 7, 12, 16};
constexpr std::array<unsigned, 3> kRuuEntries = {16, 32, 64};
constexpr std::array<unsigned, 4> kRetireWidth = {1, 2, 4, 8};

struct Source {
  std::string name;
  bool elf = false;
};

/// One design-space point: a program, a policy and the machine knobs.
struct Point {
  std::size_t source = 0;  ///< index into sources()
  std::size_t policy = 0;  ///< index into kPolicies
  std::uint64_t knobs = 0;  ///< mixed-radix index into the knob arrays

  bool operator==(const Point&) const = default;
};

/// All 15 library kernels, then the 3 RV32 ELF fixtures.
std::vector<Source> sources() {
  std::vector<Source> out;
  for (const Kernel& kernel : kernel_library()) {
    out.push_back({kernel.name, false});
  }
  for (const Rv32Fixture& fixture : rv32_fixture_library()) {
    out.push_back({fixture.name, true});
  }
  return out;
}

/// (knob name, value) pairs of `knobs`, sorted by name as the protocol
/// requires.
std::vector<std::pair<std::string, double>> knob_values(std::uint64_t knobs) {
  const auto pick = [&knobs](const auto& values) {
    const auto value = values[knobs % values.size()];
    knobs /= values.size();
    return static_cast<double>(value);
  };
  const double fetch = pick(kFetchWidth);
  const double queue = pick(kQueueEntries);
  const double ruu = pick(kRuuEntries);
  const double retire = pick(kRetireWidth);
  const double trace_cache = static_cast<double>(knobs % 2);
  return {{"fetch_width", fetch},
          {"queue_entries", queue},
          {"retire_width", retire},
          {"ruu_entries", ruu},
          {"use_trace_cache", trace_cache}};
}

Request make_request(const std::vector<Source>& all, const Point& point,
                     std::uint64_t id) {
  Request request;
  request.type = RequestType::kSubmit;
  request.id = std::to_string(id);
  (all[point.source].elf ? request.elf : request.kernel) =
      all[point.source].name;
  request.policy = kPolicies[point.policy];
  request.config = knob_values(point.knobs);
  return request;
}

template <typename T>
void shuffle(std::vector<T>& values, Xoshiro256& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.next_below(i)]);
  }
}

/// `n` values in [0, k), each as often as `n` allows, in shuffled order.
std::vector<std::uint64_t> balanced(std::size_t n, std::uint64_t k,
                                    Xoshiro256& rng) {
  std::vector<std::uint64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = i % k;
  }
  shuffle(values, rng);
  return values;
}

/// Knob settings for `n` points in which every knob takes each of its
/// values equally often; the seed decides which point gets which.
std::vector<std::uint64_t> balanced_knobs(std::size_t n, Xoshiro256& rng) {
  std::vector<std::uint64_t> knobs(n, 0);
  std::uint64_t radix = 1;
  // Digit order matches knob_values().
  for (const std::uint64_t size :
       {kFetchWidth.size(), kQueueEntries.size(), kRuuEntries.size(),
        kRetireWidth.size(), std::size_t{2}}) {
    const std::vector<std::uint64_t> digits = balanced(n, size, rng);
    for (std::size_t i = 0; i < n; ++i) {
      knobs[i] += digits[i] * radix;
    }
    radix *= size;
  }
  return knobs;
}

/// `layers` layers that each hold every (program, policy) cell once, in
/// shuffled order, with balanced knobs, and no point twice. The seed
/// varies knobs and order; the mix of programs, policies and knob values
/// — which sets a job's cost — is the same for every seed and every
/// whole layer.
std::vector<Point> stratified(std::size_t num_sources, std::size_t layers,
                              Xoshiro256& rng) {
  std::vector<Point> cells;
  for (std::size_t s = 0; s < num_sources; ++s) {
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      cells.push_back({s, p, 0});
    }
  }
  std::vector<Point> points;
  for (std::size_t layer = 0; layer < layers; ++layer) {
    std::vector<Point> drawn;
    do {  // redraw the layer if a cell repeats an earlier layer's knobs
      shuffle(cells, rng);
      const std::vector<std::uint64_t> knobs =
          balanced_knobs(cells.size(), rng);
      drawn = cells;
      for (std::size_t i = 0; i < drawn.size(); ++i) {
        drawn[i].knobs = knobs[i];
      }
    } while (std::any_of(drawn.begin(), drawn.end(), [&](const Point& p) {
      return std::find(points.begin(), points.end(), p) != points.end();
    }));
    points.insert(points.end(), drawn.begin(), drawn.end());
  }
  return points;
}

/// One round's requests. For svc_hot, `warm` is the batch the set-up
/// submits and `twin[i]` names the warm entry request i resubmits (-1 on
/// svc_cold: a distinct point, which must miss the cache).
struct Stream {
  std::vector<Source> sources;
  std::vector<Point> warm_points;
  std::vector<Point> points;
  std::vector<Request> warm;
  std::vector<Request> requests;
  std::vector<int> twin;
};

Stream make_stream(bool hot, std::uint64_t seed) {
  const Span span("workload.stream");
  Stream stream;
  stream.sources = sources();
  Xoshiro256 rng(seed);
  const std::size_t num_sources = stream.sources.size();
  if (!hot) {
    stream.points = stratified(num_sources, kColdPerCell, rng);
    stream.twin.assign(stream.points.size(), -1);
  } else {
    stream.warm_points = stratified(num_sources, 1, rng);
    std::vector<std::size_t> order(stream.warm_points.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    for (std::size_t pass = 0; pass < kHotPasses; ++pass) {
      shuffle(order, rng);
      for (const std::size_t w : order) {
        stream.points.push_back(stream.warm_points[w]);
        stream.twin.push_back(static_cast<int>(w));
      }
    }
  }
  for (std::size_t i = 0; i < stream.warm_points.size(); ++i) {
    stream.warm.push_back(
        make_request(stream.sources, stream.warm_points[i], 1'000'000 + i));
  }
  for (std::size_t i = 0; i < stream.points.size(); ++i) {
    stream.requests.push_back(
        make_request(stream.sources, stream.points[i], i));
  }
  return stream;
}

ServiceConfig service_config() {
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  // Holds every distinct point of a round, so no entry is ever evicted
  // and each request's hit or miss is fixed by the stream alone.
  config.cache_entries = 8192;
  config.default_max_cycles = kJobBudget;
  return config;
}

/// Why `reply` is wrong for request `i`, or "" when it is right.
std::string judge(const Stream& stream, std::size_t i,
                  const std::vector<Reply>& warm, const Reply& reply) {
  const std::string where = "request " + std::to_string(i) + ": ";
  if (reply.type != ReplyType::kResult) {
    return where + "error " + reply.code + ": " + reply.message;
  }
  if (reply.outcome != "halted") {
    return where + "outcome " + reply.outcome;
  }
  const int w = stream.twin[i];
  if (w < 0) {
    return reply.cache == "miss" ? "" : where + "distinct point hit the cache";
  }
  if (reply.cache != "hit") {
    return where + "resubmitted point missed the cache";
  }
  Reply twin = warm[static_cast<std::size_t>(w)];
  twin.id = reply.id;
  twin.cache = "hit";
  return twin == reply ? "" : where + "hit differs from its cold twin";
}

/// What one round of the stream measured.
struct Round {
  double setup_s = 0.0;
  double stream_s = 0.0;
  std::vector<double> latency_ms;  ///< per request
  std::vector<std::string> verdicts;  ///< per request, "" when correct
  std::vector<Reply> warm;
  /// Modelled cycles the stream's results answer for, hits included.
  std::uint64_t stream_cycles = 0;
  /// Every miss of the round, set-up included: the simulated work.
  std::uint64_t miss_cycles = 0;
  std::uint64_t miss_retired = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// metrics_json of every miss (when kept), keyed by request index;
  /// the warm replies are kept in `warm`.
  std::vector<std::string> miss_metrics;
  double worker_ms_mean = 0.0;  ///< from the service's stats reply
};

void tally(const Reply& reply, bool in_stream, Round& round) {
  if (reply.type != ReplyType::kResult) {
    return;
  }
  if (in_stream) {
    round.stream_cycles += reply.cycles;
  }
  if (reply.cache == "hit") {
    ++round.hits;
    return;
  }
  ++round.misses;
  round.miss_cycles += reply.cycles;
  round.miss_retired += reply.retired;
}

/// Sends the stream's requests split over kClients threads, closed loop.
/// `call(c, i, reply, error)` serves request i on client c and returns
/// false on transport failure.
template <typename Call>
void drive(const Stream& stream, bool keep_metrics, Round& round,
           Call&& call) {
  const std::size_t n = stream.requests.size();
  round.latency_ms.assign(n, 0.0);
  round.verdicts.assign(n, "");
  if (keep_metrics) {
    round.miss_metrics.assign(n, "");
  }
  std::array<Round, kClients> partial;
  const double t0 = now_seconds();
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < n; i += kClients) {
          Reply reply;
          std::string error;
          const double s0 = now_seconds();
          const bool ok = call(c, i, reply, error);
          round.latency_ms[i] = (now_seconds() - s0) * 1e3;
          round.verdicts[i] =
              ok ? judge(stream, i, round.warm, reply)
                 : "request " + std::to_string(i) + ": transport: " + error;
          tally(reply, true, partial[c]);
          if (keep_metrics && reply.cache == "miss") {
            round.miss_metrics[i] = std::move(reply.metrics_json);
          }
        }
      });
    }
  }
  round.stream_s = now_seconds() - t0;
  for (const Round& p : partial) {
    round.hits += p.hits;
    round.misses += p.misses;
    round.miss_cycles += p.miss_cycles;
    round.miss_retired += p.miss_retired;
    round.stream_cycles += p.stream_cycles;
  }
}

/// Parses svc.latency_ms_mean (worker time per completed job) out of a
/// stats reply.
double worker_ms_mean(const Reply& stats) {
  JsonValue root;
  if (!parse_json_strict(stats.stats_json, root)) {
    return 0.0;
  }
  const JsonValue* value = root.get("svc.latency_ms_mean");
  return value == nullptr ? 0.0 : value->number;
}

/// A fresh SimService behind a SocketServer on `socket_path`, served from
/// its own thread, with kClients connected clients; up() once a ping got
/// its pong. Stops and drains on destruction.
class LiveService {
 public:
  LiveService(const std::string& socket_path, Record& record)
      : server_(service_, ServerOptions{socket_path}) {
    {
      const Span span("svc.listen");
      if (!server_.listen()) {
        record.check(false, "cannot listen on " + socket_path);
        return;
      }
    }
    serving_ = std::jthread([this] { server_.serve(); });
    ClientOptions options;
    options.socket_path = socket_path;
    for (unsigned c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<SteersimClient>(options));
    }
    Request ping;
    ping.type = RequestType::kPing;
    Reply pong;
    std::string error;
    const Span span("svc.ping");
    up_ = clients_[0]->call_once(ping, pong, error) &&
          pong.type == ReplyType::kPong;
    record.check(up_, "ping: no pong (" + error + ")");
  }
  // serve() returns once stopped; the members then join it, close the
  // clients, remove the socket and drain the service, in that order.
  ~LiveService() { server_.stop(); }
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  bool up() const { return up_; }
  SteersimClient& client(unsigned c) { return *clients_[c]; }

 private:
  SimService service_{service_config()};
  SocketServer server_;
  std::vector<std::unique_ptr<SteersimClient>> clients_;
  std::jthread serving_;
  bool up_ = false;
};

/// Starts a service and submits svc_hot's batch once (the cold pass): the
/// set-up every round pays before its stream. Returns the service, or null
/// if it never came up.
std::unique_ptr<LiveService> set_up(const Stream& stream,
                                    const std::string& socket_path,
                                    Record& record, Round& round) {
  const double t0 = now_seconds();
  auto live = std::make_unique<LiveService>(socket_path, record);
  if (!live->up()) {
    return nullptr;
  }
  for (const Request& request : stream.warm) {
    Reply reply;
    std::string error;
    {
      const Span span("svc.call_once");
      const bool ok = live->client(0).call_once(request, reply, error);
      record.check(ok && reply.type == ReplyType::kResult &&
                       reply.outcome == "halted" && reply.cache == "miss",
                   "warm-up " + request.id + " did not simulate");
    }
    tally(reply, false, round);
    round.warm.push_back(std::move(reply));
  }
  round.setup_s = now_seconds() - t0;
  return live;
}

/// One round through the socket: set-up, then the stream.
void socket_round(const Stream& stream, const std::string& socket_path,
                  bool keep_metrics, Record& record, Round& round) {
  const auto live = set_up(stream, socket_path, record, round);
  if (live == nullptr) {
    return;
  }
  drive(stream, keep_metrics, round,
        [&](unsigned c, std::size_t i, Reply& reply, std::string& error) {
          const Span span("svc.call_once", i + 1);
          return live->client(c).call_once(stream.requests[i], reply, error);
        });
  if (tracing()) {
    Request stats;
    stats.type = RequestType::kStats;
    Reply reply;
    std::string error;
    if (live->client(0).call_once(stats, reply, error)) {
      round.worker_ms_mean = worker_ms_mean(reply);
    }
  }
}

/// The same warm-up and stream through SimService::handle() in process:
/// the service without its transport. `miss_ms` gets the handle() time of
/// every request that simulated.
void handle_round(const Stream& stream, Record& record, Round& round,
                  double& worker_ms, std::vector<double>& miss_ms) {
  SimService service(service_config());
  for (const Request& request : stream.warm) {
    const double t0 = now_seconds();
    {
      const Span span("svc.handle");
      round.warm.push_back(service.handle(request));
    }
    miss_ms.push_back((now_seconds() - t0) * 1e3);
  }
  drive(stream, false, round,
        [&](unsigned, std::size_t i, Reply& reply, std::string&) {
          const Span span("svc.handle", i + 1);
          reply = service.handle(stream.requests[i]);
          return true;
        });
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    record.check(round.verdicts[i].empty(), "in-process " + round.verdicts[i]);
    if (stream.twin[i] < 0) {
      miss_ms.push_back(round.latency_ms[i]);
    }
  }
  worker_ms = service.stats().latency_mean_ms;
}

/// Host time of the steps handle() takes for every request before the
/// queue, measured by calling the same public functions directly.
struct Direct {
  std::vector<double> resolve_digest_ms;  ///< per simulated request
  std::vector<double> ns_per_cycle;       ///< per simulated job
};

/// Replays the stream's requests through the library calls the service
/// makes: program resolution and digest for every request, and for every
/// miss the simulation and rendering, whose result must equal the
/// service's reply byte for byte.
void direct_replay(const Stream& stream, const Round& first, Record& record,
                   Direct& direct) {
  const auto replay = [&](const Point& point, const std::string* expected) {
    const double t0 = now_seconds();
    const Source& source = stream.sources[point.source];
    Program program;
    std::string bytes;
    if (source.elf) {
      std::vector<std::uint8_t> image;
      {
        const Span span("workload.rv32_fixture_elf");
        image = rv32_fixture_elf(rv32_fixture_by_name(source.name));
      }
      bytes.assign(image.begin(), image.end());
      const Span span("frontend.load_elf_program");
      program = elf::load_elf_program(
          std::span<const std::uint8_t>(image.data(), image.size()),
          source.name);
    } else {
      const Kernel& kernel = kernel_by_name(source.name);
      bytes = kernel.source;
      const Span span("isa.assemble");
      program = assemble(kernel.source, kernel.name);
    }
    {
      const Span span("svc.job_digest");
      const volatile std::uint64_t digest =
          SimService::job_digest(bytes, kPolicies[point.policy]);
      (void)digest;
    }
    if (expected == nullptr) {
      return;
    }
    direct.resolve_digest_ms.push_back((now_seconds() - t0) * 1e3);
    MachineConfig config;
    for (const auto& [knob, value] : knob_values(point.knobs)) {
      const auto v = static_cast<unsigned>(value);
      if (knob == "fetch_width") {
        config.fetch_width = v;
      } else if (knob == "queue_entries") {
        config.queue_entries = v;
      } else if (knob == "retire_width") {
        config.retire_width = v;
      } else if (knob == "ruu_entries") {
        config.ruu_entries = v;
      } else {
        config.use_trace_cache = v != 0;
      }
    }
    PolicySpec policy;
    parse_policy(kPolicies[point.policy], policy);
    std::unique_ptr<Processor> cpu;
    {
      const Span span("core.make_processor");
      cpu = make_processor(program, config, policy);
    }
    Windows job;
    const RunOutcome outcome =
        run_windows(*cpu, kJobBudget, kWindowCycles, job);
    direct.ns_per_cycle.push_back(ns_per_cycle(job, job.ms.size()).front());
    SimResult result;
    {
      const Span span("sim.collect_result");
      result = collect_result(*cpu, policy, outcome);
    }
    std::string rendered;
    {
      const Span span("svc.canonical_metrics_json");
      rendered = canonical_metrics_json(collect_metrics(result));
    }
    record.check(rendered == *expected,
                 source.name + ": library result differs from the "
                               "service's reply");
  };
  for (std::size_t i = 0; i < stream.warm_points.size(); ++i) {
    replay(stream.warm_points[i], &first.warm[i].metrics_json);
  }
  for (std::size_t i = 0; i < stream.points.size(); ++i) {
    replay(stream.points[i],
           stream.twin[i] < 0 ? &first.miss_metrics[i] : nullptr);
  }
}

/// Exact simulated counts summed over every miss of a round.
void report_counts(const Round& round, Record& record) {
  std::map<std::string, double> sums;
  const auto add = [&sums](const std::string& metrics_json) {
    JsonValue root;
    if (!parse_json_strict(metrics_json, root)) {
      return;
    }
    const auto take = [&](const char* key, const char* as) {
      if (const JsonValue* v = root.get(key)) {
        sums[as] += v->number;
      }
    };
    take("sim.cycles", "core.cycles");
    take("sim.retired", "core.retired");
    take("sim.resource_starved", "core.resource_starved");
    take("loader.slots_rewritten", "config.slots_rewritten");
    take("steer.steer_events", "config.steer_events");
  };
  for (const Reply& reply : round.warm) {
    add(reply.metrics_json);
  }
  for (const std::string& metrics : round.miss_metrics) {
    if (!metrics.empty()) {
      add(metrics);
    }
  }
  for (const char* name : {"core.cycles", "core.resource_starved"}) {
    record.exact[name] = single(sums[name], "cycles");
  }
  for (const char* name :
       {"core.retired", "config.slots_rewritten", "config.steer_events"}) {
    record.exact[name] = single(sums[name], "count");
  }
  record.exact["svc.cache_hits"] =
      single(static_cast<double>(round.hits), "count");
  record.exact["svc.cache_misses"] =
      single(static_cast<double>(round.misses), "count");
}

}  // namespace

void run_svc_workload(const RunOptions& options, Record& record) {
  const bool hot = options.workload == "svc_hot";
  set_tracing(options.trace);
  const Stream stream = make_stream(hot, options.seed);
  set_tracing(false);
  const std::string socket_path =
      ".steerbench-" + std::to_string(::getpid()) + ".sock";

  // setup_s: these set-ups plus the one each round pays.
  std::vector<double> setup_s;
  for (unsigned i = 0; i < kSetups; ++i) {
    Round scratch;
    if (set_up(stream, socket_path, record, scratch) != nullptr) {
      setup_s.push_back(scratch.setup_s);
    }
  }
  reset_peak_rss();

  /// What the timed rounds collect, one entry per round.
  struct Timed {
    std::vector<double> jobs_per_sec;
    std::vector<double> cycles_per_sec;
    std::vector<std::vector<double>> latency_ms;
    std::vector<double> worker_ms;
  };
  Round first;
  double first_rss_mb = 0.0;
  const auto measure = [&](double seconds, Timed& timed) {
    repeat_for(seconds, kCpusPerRound, [&] {
      const bool is_first = first.stream_s == 0.0;
      Round round;
      socket_round(stream, socket_path, is_first, record, round);
      for (const std::string& verdict : round.verdicts) {
        record.check(verdict.empty(), verdict);
      }
      if (round.stream_s == 0.0) {
        return;  // the service never came up; already counted
      }
      setup_s.push_back(round.setup_s);
      timed.latency_ms.push_back(round.latency_ms);
      timed.jobs_per_sec.push_back(
          static_cast<double>(stream.requests.size()) / round.stream_s);
      timed.cycles_per_sec.push_back(
          static_cast<double>(round.stream_cycles) / round.stream_s);
      timed.worker_ms.push_back(round.worker_ms_mean);
      if (is_first) {
        first_rss_mb = peak_rss_mb();
        first = std::move(round);
      } else {
        record.check(round.miss_cycles == first.miss_cycles &&
                         round.hits == first.hits,
                     "round's simulated cycles or cache hits differ from "
                     "round 1");
      }
    });
  };
  Timed timed;
  measure(options.trace ? options.seconds / 2 : options.seconds, timed);
  if (first.stream_s == 0.0) {
    return;  // nothing measured; the failed checks say why
  }

  record.e2e["setup_s"] = timing(setup_s, "s");
  // The stream with every request at its least time over the rounds, as
  // the clients' mean busy time: in the closed loop a client's time is the
  // sum of its requests' latencies plus its own checks of the replies,
  // which are left out (the sum came to 89-97% of a round's stream time).
  const double stream_s =
      sum(least_per_sample(timed.latency_ms)) / 1e3 / kClients;
  report_rates(static_cast<double>(first.stream_cycles) / stream_s,
               static_cast<double>(stream.requests.size()) / stream_s,
               timed.cycles_per_sec, timed.jobs_per_sec, record);
  report_latency(timed.latency_ms, record);
  record.e2e["peak_rss_mb"] = single(first_rss_mb, "MiB");
  record.exact["core.ipc"] =
      single(static_cast<double>(first.miss_retired) /
                 static_cast<double>(first.miss_cycles),
             "retired/cycle");
  report_counts(first, record);
  if (!options.trace) {
    return;
  }

  set_tracing(true);
  Timed traced;
  measure(options.seconds / 2, traced);
  std::vector<double> rtt_p50s;
  for (const std::vector<double>& samples : traced.latency_ms) {
    rtt_p50s.push_back(percentile(samples, 50.0));
  }
  const double rtt_p50 = percentile(rtt_p50s, 50.0);

  Round in_process;
  double replay_worker_ms = 0.0;
  std::vector<double> handle_miss_ms;
  handle_round(stream, record, in_process, replay_worker_ms, handle_miss_ms);
  Direct direct;
  direct_replay(stream, first, record, direct);
  ProbeTimes probes;
  for (const Source& source : stream.sources) {
    const Program program =
        source.elf ? rv32_fixture_program(rv32_fixture_by_name(source.name))
                   : kernel_by_name(source.name).assemble_program();
    skip_probe(program, MachineConfig{}, PolicySpec{}, kJobBudget, record,
               probes);
    n1_probe(program, kJobBudget, record, probes);
  }
  set_tracing(false);
  report_probes(probes, record);

  const double handle_p50 = percentile(in_process.latency_ms, 50.0);
  const double handle_miss_mean = mean(handle_miss_ms);
  const double queue_wait =
      handle_miss_mean - replay_worker_ms - mean(direct.resolve_digest_ms);
  std::map<std::string, Metric>& layer = record.layer;
  layer["svc.handle_ms_p50"] = single(handle_p50, "ms");
  layer["svc.handle_ms_p99"] =
      single(percentile(in_process.latency_ms, 99.0), "ms");
  layer["svc.rtt_ms_p50"] = single(rtt_p50, "ms");
  layer["svc.transport_ms_p50"] = single(rtt_p50 - handle_p50, "ms");
  layer["svc.transport_frac"] =
      single((rtt_p50 - handle_p50) / rtt_p50, "frac");
  layer["svc.worker_ms_mean"] = single(mean(traced.worker_ms), "ms");
  layer["svc.queue_wait_ms_mean"] = single(queue_wait, "ms");
  layer["svc.queue_wait_frac"] = single(queue_wait / handle_miss_mean, "frac");
  layer["svc.cache_hit_frac"] =
      single(static_cast<double>(first.hits) /
                 static_cast<double>(stream.requests.size()),
             "frac");
  layer["svc.digest_us_mean"] = single(span_mean_us("svc.job_digest"), "us");
  layer["isa.assemble_us_mean"] = single(span_mean_us("isa.assemble"), "us");
  layer["frontend.elf_load_us_mean"] =
      single(span_mean_us("frontend.load_elf_program"), "us");
  layer["core.build_us_mean"] =
      single(span_mean_us("core.make_processor"), "us");
  layer["sim.collect_us_mean"] =
      single(span_mean_us("sim.collect_result"), "us");
  layer["sim.render_us_mean"] =
      single(span_mean_us("svc.canonical_metrics_json"), "us");
  layer["core.ns_per_cycle_p50"] = timing(direct.ns_per_cycle, "ns");
  layer["core.ns_per_cycle_max"] =
      single(percentile(direct.ns_per_cycle, 100.0), "ns");
  layer["workload.generate_ms"] =
      single(span_total_ms("workload.stream"), "ms");
  const double untraced = percentile(timed.jobs_per_sec, 100.0);
  layer["bench.trace_overhead_frac"] = single(
      (untraced - percentile(traced.jobs_per_sec, 100.0)) / untraced, "frac");
}

}  // namespace steerbench
