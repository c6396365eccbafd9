#include "svc/service.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/fnv1a.hpp"
#include "common/strings.hpp"
#include "frontend/elf_loader.hpp"
#include "isa/assembler.hpp"
#include "isa/rv32.hpp"
#include "multicore/multicore.hpp"
#include "svc/chaos.hpp"
#include "obs/profile.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "workload/kernels.hpp"
#include "workload/rv32_fixtures.hpp"

namespace steersim::svc {

namespace {

/// Range- and integrality-checked knob conversion: MachineConfig widths
/// are small unsigneds, so 1e9 is already far past any meaningful value.
bool knob_to_unsigned(double value, unsigned& out) {
  if (value < 0.0 || value > 1e9 || value != std::floor(value)) {
    return false;
  }
  out = static_cast<unsigned>(value);
  return true;
}

bool knob_to_bool(double value, bool& out) {
  if (value != 0.0 && value != 1.0) {
    return false;
  }
  out = value == 1.0;
  return true;
}

/// The MachineConfig surface the protocol exposes. Anything else (fault
/// injection, tracing, recovery...) stays a server-side decision.
bool apply_knob(MachineConfig& machine, const std::string& name,
                double value, std::string& error) {
  bool ok = false;
  if (name == "fetch_width") {
    ok = knob_to_unsigned(value, machine.fetch_width);
  } else if (name == "queue_entries") {
    ok = knob_to_unsigned(value, machine.queue_entries);
  } else if (name == "ruu_entries") {
    ok = knob_to_unsigned(value, machine.ruu_entries);
  } else if (name == "retire_width") {
    ok = knob_to_unsigned(value, machine.retire_width);
  } else if (name == "issue_width") {
    ok = knob_to_unsigned(value, machine.issue_width);
  } else if (name == "trace_cache_lines") {
    ok = knob_to_unsigned(value, machine.trace_cache_lines);
  } else if (name == "trace_length") {
    ok = knob_to_unsigned(value, machine.trace_length);
  } else if (name == "pipelined_units") {
    ok = knob_to_bool(value, machine.pipelined_units);
  } else if (name == "use_trace_cache") {
    ok = knob_to_bool(value, machine.use_trace_cache);
  } else if (name == "use_dcache") {
    ok = knob_to_bool(value, machine.use_dcache);
  } else {
    error = "unknown config knob '" + name + "'";
    return false;
  }
  if (!ok) {
    error = "config knob '" + name + "' has an out-of-range value";
  }
  return ok;
}

/// Canonical rendering of everything that influences a job's simulated
/// outcome besides the program bytes: the digestable half of the cache
/// key. Field order is fixed; extending the knob surface extends this
/// list (and thereby invalidates old cache entries, which is correct).
std::string effective_config_key(const MachineConfig& machine,
                                 const PolicySpec& spec,
                                 std::uint64_t budget) {
  std::string key;
  const auto field = [&key](std::string_view name, std::uint64_t value) {
    key += name;
    key += '=';
    key += std::to_string(value);
    key += ';';
  };
  field("fetch_width", machine.fetch_width);
  field("queue_entries", machine.queue_entries);
  field("ruu_entries", machine.ruu_entries);
  field("retire_width", machine.retire_width);
  field("issue_width", machine.issue_width);
  field("pipelined_units", machine.pipelined_units ? 1 : 0);
  field("use_trace_cache", machine.use_trace_cache ? 1 : 0);
  field("trace_cache_lines", machine.trace_cache_lines);
  field("trace_length", machine.trace_length);
  field("use_dcache", machine.use_dcache ? 1 : 0);
  field("policy_kind", static_cast<std::uint64_t>(spec.kind));
  field("preset_index", spec.preset_index);
  field("cem", static_cast<std::uint64_t>(spec.cem));
  field("tie_break", static_cast<std::uint64_t>(spec.tie_break));
  field("interval", spec.interval);
  field("confirm", spec.confirm);
  field("lookahead", spec.lookahead ? 1 : 0);
  field("seed", spec.seed);
  field("max_cycles", budget);
  return key;
}

const Kernel* find_kernel(std::string_view name) {
  for (const Kernel& kernel : kernel_library()) {
    if (kernel.name == name) {
      return &kernel;
    }
  }
  return nullptr;
}

/// A submit naming a kernel or ELF fixture the service does not have.
struct UnknownName : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A submit's program, found but not yet built: the name it runs under
/// and the bytes the job digest covers — the asm text of a kernel or
/// inline asm program, or the image of an ELF fixture.
struct ProgramSource {
  std::string name;
  std::string_view text;  ///< kernel or asm source; empty for ELF
  std::span<const std::uint8_t> image;  ///< ELF fixture image
};

/// Resolve, the first of the two steps from a submit to a Program, for
/// the request itself and for each `multi` entry: finds the workload
/// kernel, inline asm or committed RV32 ELF fixture (the caller checked
/// that exactly one is named) and mixes its bytes into `digest`. ELF
/// fixtures digest the raw image, so identical binaries share one cache
/// entry whatever name they were submitted under. Throws UnknownName.
/// `text` views the kernel library or `asm_source`, `image` the fixture
/// library.
ProgramSource resolve_program(std::string_view kernel,
                              std::string_view asm_source,
                              std::string_view elf, Fnv1a& digest) {
  ProgramSource source;
  if (!kernel.empty()) {
    const Kernel* found = find_kernel(kernel);
    if (found == nullptr) {
      throw UnknownName("unknown kernel '" + std::string(kernel) + "'");
    }
    source.name = found->name;
    source.text = found->source;
  } else if (!elf.empty()) {
    const Rv32Fixture* fixture = rv32_fixture_find(std::string(elf));
    if (fixture == nullptr) {
      throw UnknownName("unknown elf fixture '" + std::string(elf) + "'");
    }
    source.name = fixture->name;
    source.image = fixture->elf;
    digest.mix(std::string_view(
        reinterpret_cast<const char*>(source.image.data()),
        source.image.size()));
    return source;
  } else {
    source.name = "asm";
    source.text = asm_source;
  }
  digest.mix(source.text);
  return source;
}

/// Build, the second step: assembles or loads and translates the source.
/// Only a cache miss gets here. Assembler, ELF and RV32 errors propagate.
Program build_program(const ProgramSource& source) {
  if (!source.image.empty()) {
    return elf::load_elf_program(source.image, source.name);
  }
  return assemble(source.text, source.name);
}

}  // namespace

std::string canonical_metrics_json(const MetricRegistry& registry) {
  std::string out = "{";
  std::array<char, 32> number;
  for (const std::uint32_t index : registry.by_name()) {
    const Metric& metric = registry.metrics()[index];
    if (out.size() > 1) {
      out += ',';
    }
    out += '"';
    append_json_escaped(out, metric.name);
    out += "\":";
    out += json_number(metric.value, number);
  }
  out += '}';
  return out;
}

struct SimService::Job {
  Request request;
  Program program;
  MachineConfig machine;
  PolicySpec spec;
  /// Multi-core workload (one CoreSpec per core); empty = single-core job
  /// using `program`/`spec` above.
  std::vector<CoreSpec> cores;
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;
  std::uint64_t budget = 0;
  std::uint64_t key = 0;
  std::string digest_hex;
  std::promise<Reply> promise;

  // --- wall-deadline / watchdog state ----------------------------------
  /// Copied from the request; 0 means the watchdog never sees this job.
  std::uint64_t wall_ms = 0;
  /// Watch-map key, assigned at admission.
  std::uint64_t serial = 0;
  std::chrono::steady_clock::time_point admitted_at;
  /// When the watchdog set `cancel` (grace period runs from here); only
  /// the watchdog thread touches it.
  std::chrono::steady_clock::time_point cancel_at;
  /// Cooperative wall-deadline cancellation, polled by the worker at its
  /// cycle-window boundary.
  std::atomic<bool> cancel{false};
  /// Deliver-once latch for the promise (worker vs watchdog vs crash
  /// handler).
  std::atomic<bool> replied{false};
  /// Slot of the worker running this job, for WorkerPool::replace when
  /// the worker ignores cancellation past the grace period.
  std::atomic<unsigned> worker_slot{WorkerPool<JobPtr>::kNoSlot};
};

std::uint64_t SimService::job_digest(std::string_view program_source,
                                     const std::string& config_key) {
  return Fnv1a().mix(program_source).mix(config_key).value();
}

SimService::SimService(ServiceConfig config)
    : config_(config),
      queue_(config.queue_capacity),
      cache_(config.cache_entries),
      pool_(queue_, [this](JobPtr& job) { run_job(*job); }) {
  if (config_.workers == 0) {
    config_.workers = default_worker_count();
  }
  if (config_.default_max_cycles == 0) {
    config_.default_max_cycles = 200'000;
  }
  if (config_.cancel_check_cycles == 0) {
    config_.cancel_check_cycles = 4096;
  }
  if (config_.watchdog_poll_ms == 0) {
    config_.watchdog_poll_ms = 20;
  }
  // A crash (exception escaping run_job, e.g. a chaos-injected one) must
  // still answer the blocked submitter: retriable, since the job itself
  // is not known to be at fault.
  pool_.set_crash_handler([this](JobPtr& job, std::exception_ptr) {
    on_worker_crash(*job);
  });
  pool_.start(config_.workers);
  watchdog_ = std::jthread([this](std::stop_token token) {
    watchdog_loop(std::move(token));
  });
}

SimService::~SimService() {
  begin_shutdown();
  drain();
}

void SimService::begin_shutdown() {
  draining_.store(true, std::memory_order_relaxed);
  queue_.close();
}

void SimService::drain() { pool_.stop(); }

Reply SimService::handle(const Request& request) {
  switch (request.type) {
    case RequestType::kPing: {
      Reply reply;
      reply.type = ReplyType::kPong;
      reply.id = request.id;
      return reply;
    }
    case RequestType::kStats: {
      Reply reply;
      reply.type = ReplyType::kStats;
      reply.id = request.id;
      reply.stats_json = canonical_metrics_json(metrics());
      return reply;
    }
    case RequestType::kShutdown: {
      begin_shutdown();
      Reply reply;
      reply.type = ReplyType::kGoodbye;
      reply.id = request.id;
      return reply;
    }
    case RequestType::kSubmit:
      return handle_submit(request);
  }
  return Reply::error(request.id, error_code::kBadRequest,
                      "unhandled request type");
}

Reply SimService::handle_submit(const Request& request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (draining()) {
    return Reply::error(request.id, error_code::kShuttingDown,
                        "service is draining");
  }

  const bool is_multi = !request.multi.empty();
  const int named = static_cast<int>(!request.kernel.empty()) +
                    static_cast<int>(!request.asm_source.empty()) +
                    static_cast<int>(!request.elf.empty());
  if (is_multi) {
    if (named != 0) {
      return bad_request(request.id,
                         "'multi' is exclusive with 'kernel', 'asm' and "
                         "'elf'");
    }
    if (request.multi.size() > 8) {
      return bad_request(request.id, "'multi' supports 1..8 cores");
    }
  } else if (named != 1) {
    return bad_request(request.id,
                       "exactly one of 'kernel', 'asm' and 'elf' is "
                       "required");
  }
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;
  if (is_multi && !parse_arbiter(request.arbiter, arbiter)) {
    return bad_request(request.id,
                       "unknown arbiter '" + request.arbiter + "'");
  }
  // The job digest covers the program bytes (resolve_program) and then
  // the effective config. Multi-core jobs digest every core's program and
  // policy label plus the arbiter.
  Fnv1a digest;
  std::vector<ProgramSource> sources;
  std::vector<CoreSpec> cores;
  try {
    if (!is_multi) {
      sources.push_back(resolve_program(request.kernel, request.asm_source,
                                        request.elf, digest));
    } else {
      digest.mix("multi");
      for (const MultiEntry& entry : request.multi) {
        if (entry.kernel.empty() == entry.elf.empty()) {
          return bad_request(request.id,
                             "each 'multi' entry needs exactly one of "
                             "'kernel' and 'elf'");
        }
        CoreSpec core;
        if (!parse_policy(entry.policy, core.policy)) {
          return bad_request(request.id,
                             "unknown policy '" + entry.policy + "'");
        }
        sources.push_back(resolve_program(entry.kernel, {}, entry.elf,
                                          digest));
        digest.mix(entry.policy);
        cores.push_back(std::move(core));
      }
      digest.mix(arbiter_name(arbiter));
    }
  } catch (const UnknownName& e) {
    return bad_request(request.id, e.what());
  }

  PolicySpec spec;
  if (!parse_policy(request.policy, spec)) {
    return bad_request(request.id,
                       "unknown policy '" + request.policy + "'");
  }
  if (request.interval < 1 || request.interval > 1'000'000 ||
      request.confirm < 1 || request.confirm > 1'000'000) {
    return bad_request(request.id,
                       "'interval' and 'confirm' must be in [1, 1e6]");
  }
  spec.interval = static_cast<unsigned>(request.interval);
  spec.confirm = static_cast<unsigned>(request.confirm);
  spec.lookahead = request.lookahead;
  spec.seed = request.seed;
  // Steering cadence / seed are shared across cores; only the policy kind
  // is per-core.
  for (CoreSpec& core : cores) {
    core.policy.interval = spec.interval;
    core.policy.confirm = spec.confirm;
    core.policy.lookahead = spec.lookahead;
    core.policy.seed = spec.seed;
  }

  MachineConfig machine;
  for (const auto& [name, value] : request.config) {
    std::string error;
    if (!apply_knob(machine, name, value, error)) {
      return bad_request(request.id, std::move(error));
    }
  }

  const std::uint64_t budget =
      request.max_cycles == 0
          ? config_.default_max_cycles
          : std::min(request.max_cycles, config_.max_cycles_ceiling);
  digest.mix(effective_config_key(machine, spec, budget));

  if (auto chaos = ChaosInjector::global()) {
    chaos->maybe_cache_slow();
  }
  if (auto hit = cache_.lookup(digest.value())) {
    hit->id = request.id;
    hit->cache = "hit";
    return *hit;
  }

  // A miss builds its job and programs here, on the connection thread, so
  // a bad program still answers bad_request before anything is queued.
  auto job = std::make_shared<Job>();
  job->request = request;
  job->wall_ms = request.wall_ms;
  job->machine = machine;
  job->spec = spec;
  job->cores = std::move(cores);
  job->arbiter = arbiter;
  job->budget = budget;
  job->key = digest.value();
  job->digest_hex = digest.hex();
  try {
    if (!is_multi) {
      job->program = build_program(sources.front());
    }
    for (std::size_t k = 0; k < job->cores.size(); ++k) {
      job->cores[k].program = build_program(sources[k]);
    }
  } catch (const AssemblyError& e) {
    return bad_request(request.id,
                       "assembly failed: " + std::string(e.what()));
  } catch (const elf::ElfError& e) {
    return bad_request(request.id,
                       "elf load failed: " + std::string(e.what()));
  } catch (const rv32::Rv32Error& e) {
    return bad_request(request.id, "rv32 translation failed: " +
                                       std::string(e.what()));
  }

  std::future<Reply> result = job->promise.get_future();
  job->admitted_at = std::chrono::steady_clock::now();
  const JobPtr watched = job->wall_ms > 0 ? job : nullptr;
  if (!queue_.try_push(std::move(job))) {
    if (draining()) {
      return Reply::error(request.id, error_code::kShuttingDown,
                          "service is draining");
    }
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    return Reply::error(
        request.id, error_code::kQueueFull,
        "job queue at capacity (" + std::to_string(queue_.capacity()) +
            "); retry with backoff",
        /*retriable=*/true);
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  if (watched) {
    register_watch(watched);
  }
  return result.get();
}

void SimService::run_job(Job& job) {
  job.worker_slot.store(pool_.current_slot(), std::memory_order_release);
  // The watchdog may already have answered this job (its deadline blew
  // while it sat in the queue and the grace period elapsed); then only the
  // bookkeeping below remains.
  if (!job.replied.load(std::memory_order_acquire)) {
    if (auto chaos = ChaosInjector::global()) {
      // Deliberately outside execute()'s try: a chaos crash models an
      // exception the job wrapper itself fails to absorb, so it must
      // reach the WorkerPool's crash isolation (and the crash handler's
      // `worker_crashed` reply), not the catch clauses there.
      chaos->maybe_worker_stall();
      chaos->maybe_worker_crash();
    }
    if (stop_now_.load(std::memory_order_relaxed)) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      deliver(job, Reply::error(job.request.id, error_code::kCancelled,
                                "cancelled before start"));
    } else if (job.cancel.load(std::memory_order_acquire)) {
      deliver(job, Reply::error(job.request.id, error_code::kWallDeadline,
                                "wall deadline " +
                                    std::to_string(job.wall_ms) +
                                    " ms exceeded before the job started; "
                                    "resubmit",
                                /*retriable=*/true));
    } else {
      WallTimer timer;
      if (deliver(job, execute(job))) {
        record_latency(timer.seconds());
      }
    }
  }
  job.worker_slot.store(WorkerPool<JobPtr>::kNoSlot,
                        std::memory_order_release);
  unregister_watch(job);
}

Reply SimService::execute(Job& job) {
  try {
    if (job.cores.empty()) {
      auto cpu = make_processor(job.program, job.machine, job.spec);
      return drive(job, *cpu, "HALT", [&](Reply& reply) {
        const SimResult result =
            collect_result(*cpu, job.spec, RunOutcome::kHalted);
        reply.policy = result.policy;
        reply.cycles = result.stats.cycles;
        reply.retired = result.stats.retired;
        reply.metrics_json = canonical_metrics_json(collect_metrics(result));
      });
    }
    MultiCoreParams params;
    params.arbiter = job.arbiter;
    params.machine = job.machine;
    MultiCoreSim sim(job.cores, params);
    return drive(job, sim, "every core halted", [&](Reply& reply) {
      const MultiCoreResult result = sim.collect();
      reply.policy = "multi:" + std::string(arbiter_name(job.arbiter));
      reply.cycles = result.cycles;
      reply.retired = result.fabric.total_retired;
      reply.metrics_json =
          canonical_metrics_json(collect_multicore_metrics(result));
    });
  } catch (const std::invalid_argument& e) {
    // Processor::validated rejected the override combination.
    return bad_request(job.request.id, e.what());
  } catch (const std::exception& e) {
    sim_faults_.fetch_add(1, std::memory_order_relaxed);
    return Reply::error(job.request.id, error_code::kSimFault, e.what());
  }
}

template <typename Sim, typename Render>
Reply SimService::drive(Job& job, Sim& sim, std::string_view goal,
                        Render&& render) {
  // Deadline via the cycle budget, cancellation every
  // cancel_check_cycles: run() is resumable on both machines (its argument
  // is an absolute target), so the worker advances one window at a time
  // and polls the stop flags between windows. A run() answering
  // kMaxCycles always reached its target, so `cycle` is where the machine
  // stands.
  const std::uint64_t window = config_.cancel_check_cycles;
  std::uint64_t cycle = std::min(job.budget, window);
  RunOutcome outcome = sim.run(cycle);
  while (outcome == RunOutcome::kMaxCycles && cycle < job.budget) {
    if (stop_now_.load(std::memory_order_relaxed)) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      return Reply::error(job.request.id, error_code::kCancelled,
                          "cancelled at cycle " + std::to_string(cycle));
    }
    if (job.cancel.load(std::memory_order_relaxed)) {
      // Counted by the watchdog when it set job.cancel.
      return Reply::error(job.request.id, error_code::kWallDeadline,
                          "wall deadline " + std::to_string(job.wall_ms) +
                              " ms exceeded at cycle " +
                              std::to_string(cycle) + "; resubmit",
                          /*retriable=*/true);
    }
    cycle = std::min(job.budget, cycle + window);
    outcome = sim.run(cycle);
  }
  switch (outcome) {
    case RunOutcome::kMaxCycles:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      return Reply::error(job.request.id, error_code::kDeadline,
                          "cycle budget " + std::to_string(job.budget) +
                              " exhausted before " + std::string(goal));
    case RunOutcome::kStalled:
    case RunOutcome::kFault:
      sim_faults_.fetch_add(1, std::memory_order_relaxed);
      return Reply::error(job.request.id, error_code::kSimFault,
                          sim.fault_message());
    case RunOutcome::kHalted:
      break;
  }
  Reply reply;
  reply.type = ReplyType::kResult;
  reply.id = job.request.id;
  reply.cache = "miss";
  reply.digest = job.digest_hex;
  reply.outcome = std::string(outcome_name(outcome));
  render(reply);
  cache_.insert(job.key, reply);
  completed_.fetch_add(1, std::memory_order_relaxed);
  return reply;
}

Reply SimService::bad_request(const std::string& id, std::string message) {
  bad_requests_.fetch_add(1, std::memory_order_relaxed);
  return Reply::error(id, error_code::kBadRequest, std::move(message));
}

bool SimService::deliver(Job& job, Reply reply) {
  if (job.replied.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  job.promise.set_value(std::move(reply));
  return true;
}

void SimService::on_worker_crash(Job& job) {
  deliver(job,
          Reply::error(job.request.id, error_code::kWorkerCrashed,
                       "worker crashed while running this job; resubmit",
                       /*retriable=*/true));
  unregister_watch(job);
}

void SimService::register_watch(const JobPtr& job) {
  job->serial = watch_serial_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watch_.emplace(job->serial, job);
  }
  watchdog_cv_.notify_all();
}

void SimService::unregister_watch(const Job& job) {
  if (job.wall_ms == 0) {
    return;  // never registered: plain jobs skip the watchdog lock
  }
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  watch_.erase(job.serial);
}

void SimService::watchdog_loop(std::stop_token token) {
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!token.stop_requested()) {
    if (watch_.empty()) {
      // Zero-overhead idle: no polling until a wall-deadline job shows
      // up (or shutdown stops us).
      watchdog_cv_.wait(lock, token, [this] { return !watch_.empty(); });
      continue;
    }
    watchdog_cv_.wait_for(lock, token,
                          std::chrono::milliseconds(config_.watchdog_poll_ms),
                          [] { return false; });
    if (token.stop_requested()) {
      return;
    }
    watchdog_scans_.fetch_add(1, std::memory_order_relaxed);
    watchdog_scan(std::chrono::steady_clock::now());
  }
}

void SimService::watchdog_scan(std::chrono::steady_clock::time_point now) {
  // Requires watchdog_mutex_ (held by watchdog_loop across the scan).
  for (auto it = watch_.begin(); it != watch_.end();) {
    Job& job = *it->second;
    if (job.replied.load(std::memory_order_acquire)) {
      it = watch_.erase(it);  // answered elsewhere; drop the stale entry
      continue;
    }
    if (!job.cancel.load(std::memory_order_relaxed)) {
      if (now - job.admitted_at >= std::chrono::milliseconds(job.wall_ms)) {
        // Phase 1: cooperative. The worker notices at its next cycle
        // window and answers wall_deadline itself.
        job.cancel_at = now;
        job.cancel.store(true, std::memory_order_release);
        wall_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      }
      ++it;
      continue;
    }
    if (now - job.cancel_at >=
        std::chrono::milliseconds(config_.watchdog_grace_ms)) {
      // Phase 2: the worker ignored cancellation past the grace period —
      // answer the client from here and evict the wedged worker so the
      // slot is reclaimed. The straggler's eventual reply loses the
      // deliver-once race and is dropped.
      const bool won = deliver(
          job, Reply::error(job.request.id, error_code::kWallDeadline,
                            "wall deadline " + std::to_string(job.wall_ms) +
                                " ms exceeded (worker unresponsive); "
                                "resubmit",
                            /*retriable=*/true));
      if (won) {
        const unsigned slot =
            job.worker_slot.load(std::memory_order_acquire);
        if (slot != WorkerPool<JobPtr>::kNoSlot && pool_.replace(slot)) {
          workers_poisoned_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      it = watch_.erase(it);
      continue;
    }
    ++it;
  }
}

void SimService::record_latency(double seconds) {
  const double ms = seconds * 1e3;
  std::lock_guard<std::mutex> lock(latency_mutex_);
  latency_ms_.add(ms);
  latency_hist_ms_.add(ms);
}

ServiceStats SimService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.sim_faults = sim_faults_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.wall_deadline_exceeded =
      wall_deadline_exceeded_.load(std::memory_order_relaxed);
  s.workers_poisoned = workers_poisoned_.load(std::memory_order_relaxed);
  s.watchdog_scans = watchdog_scans_.load(std::memory_order_relaxed);
  s.worker_crashes = pool_.crashes();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.cache_size = cache_.size();
  s.queue_depth = queue_.depth();
  s.workers = config_.workers;
  s.workers_live = pool_.workers();
  s.workers_replaced = pool_.replaced();
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    s.latency_count = latency_ms_.count();
    if (s.latency_count > 0) {
      s.latency_mean_ms = latency_ms_.mean();
      s.latency_p50_ms = latency_hist_ms_.quantile(0.5);
      s.latency_p90_ms = latency_hist_ms_.quantile(0.9);
      s.latency_p99_ms = latency_hist_ms_.quantile(0.99);
      s.latency_max_ms = latency_ms_.max();
    }
  }
  return s;
}

MetricRegistry SimService::metrics() const {
  MetricRegistry registry;
  stats().visit_metrics(registry.prefixed("svc."));
  return registry;
}

}  // namespace steersim::svc
