// Transport-independent simulation service core (docs/SERVICE.md).
//
// SimService::handle() is the whole request/reply contract of steersimd:
// the Unix-socket server (svc/server.hpp), the in-process throughput bench
// and the protocol tests all drive the same object. On the calling
// (connection) thread a submit is validated, digested (FNV-1a over the
// program's source text or ELF image + effective config) and looked up in
// the LRU result cache. A hit is answered from there; only a miss
// assembles or translates its program, then enters the bounded job queue
// — a full queue is an immediate retriable `queue_full` error, never a
// block or a drop — where the persistent worker pool simulates it under
// its cycle budget, checking cooperative cancellation at sampler-window
// granularity.
//
// Service health is exported through the same visit_metrics registry every
// machine subsystem uses (ServiceStats below; "svc." prefix), so the
// sampler/trace/bench layers and `stats` requests observe it for free.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "sim/runner.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "svc/queue.hpp"
#include "svc/worker_pool.hpp"

namespace steersim::svc {

struct ServiceConfig {
  /// Worker-pool size; 0 = default_worker_count() (honors the
  /// STEERSIM_WORKERS env override, shared with parallel_map).
  unsigned workers = 0;
  /// Job-queue high-water mark; submits past it get `queue_full`.
  std::size_t queue_capacity = 64;
  /// Result-cache entries; 0 disables caching.
  std::size_t cache_entries = 256;
  /// Cycle budget for submits that do not name one.
  std::uint64_t default_max_cycles = 200'000;
  /// Hard ceiling a client-supplied max_cycles is clamped to.
  std::uint64_t max_cycles_ceiling = 50'000'000;
  /// Cancellation-check window (cycles): a running job polls its stop
  /// flags once per window.
  std::uint64_t cancel_check_cycles = 4096;
  /// Watchdog sampling period while wall-deadline (`wall_ms`) jobs are in
  /// flight; with none in flight the watchdog sleeps on a condition
  /// variable, so plain jobs pay nothing.
  std::uint64_t watchdog_poll_ms = 20;
  /// After cooperatively cancelling an overdue job, how long the watchdog
  /// waits for the worker to notice before declaring it wedged: the reply
  /// is delivered from the watchdog and the worker is poisoned, detached,
  /// and replaced (WorkerPool::replace).
  std::uint64_t watchdog_grace_ms = 250;
};

/// One coherent snapshot of the service counters, shaped like every other
/// stats struct in the tree: visit_metrics() enumerates (name, value)
/// pairs that collect under the "svc." prefix.
struct ServiceStats {
  std::uint64_t submitted = 0;           ///< submit requests received
  std::uint64_t admitted = 0;            ///< entered the job queue
  std::uint64_t rejected_queue_full = 0;  ///< backpressure rejections
  std::uint64_t bad_requests = 0;        ///< validation failures
  std::uint64_t completed = 0;           ///< simulations that halted
  std::uint64_t deadline_exceeded = 0;   ///< budget elapsed before HALT
  std::uint64_t sim_faults = 0;          ///< stalled/faulted simulations
  std::uint64_t cancelled = 0;           ///< stopped by cancel_all()
  std::uint64_t wall_deadline_exceeded = 0;  ///< wall_ms elapsed in flight
  std::uint64_t workers_poisoned = 0;    ///< wedged workers replaced
  std::uint64_t watchdog_scans = 0;      ///< watchdog sampling passes
  std::uint64_t worker_crashes = 0;      ///< exceptions escaping run_job
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_size = 0;   ///< resident entries (gauge)
  std::uint64_t queue_depth = 0;  ///< jobs waiting (gauge)
  std::uint64_t workers = 0;      ///< configured pool size (gauge)
  std::uint64_t workers_live = 0;      ///< threads currently joinable (gauge)
  std::uint64_t workers_replaced = 0;  ///< poisoned workers respawned
  /// Completed-job wall latency, milliseconds (cache hits excluded).
  std::uint64_t latency_count = 0;
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  template <typename V>
  void visit_metrics(V&& visit) const {
    visit("submitted", static_cast<double>(submitted));
    visit("admitted", static_cast<double>(admitted));
    visit("rejected_queue_full", static_cast<double>(rejected_queue_full));
    visit("bad_requests", static_cast<double>(bad_requests));
    visit("completed", static_cast<double>(completed));
    visit("deadline_exceeded", static_cast<double>(deadline_exceeded));
    visit("sim_faults", static_cast<double>(sim_faults));
    visit("cancelled", static_cast<double>(cancelled));
    visit("watchdog.wall_deadline_exceeded",
          static_cast<double>(wall_deadline_exceeded));
    visit("watchdog.workers_poisoned",
          static_cast<double>(workers_poisoned));
    visit("watchdog.scans", static_cast<double>(watchdog_scans));
    visit("worker_crashes", static_cast<double>(worker_crashes));
    visit("cache_hits", static_cast<double>(cache_hits));
    visit("cache_misses", static_cast<double>(cache_misses));
    visit("cache_evictions", static_cast<double>(cache_evictions));
    visit("cache_size", static_cast<double>(cache_size));
    visit("queue_depth", static_cast<double>(queue_depth));
    visit("workers", static_cast<double>(workers));
    visit("workers_live", static_cast<double>(workers_live));
    visit("workers_replaced", static_cast<double>(workers_replaced));
    visit("latency_ms_count", static_cast<double>(latency_count));
    visit("latency_ms_mean", latency_mean_ms, true);
    visit("latency_ms_p50", latency_p50_ms, true);
    visit("latency_ms_p90", latency_p90_ms, true);
    visit("latency_ms_p99", latency_p99_ms, true);
    visit("latency_ms_max", latency_max_ms, true);
  }
};

/// Canonical (sorted-key, round-trip-number) JSON rendering of a metric
/// registry: the byte-stable form embedded in result and stats replies.
std::string canonical_metrics_json(const MetricRegistry& registry);

class SimService {
 public:
  explicit SimService(ServiceConfig config = {});
  /// Graceful: stops admission, drains every queued job, joins workers.
  ~SimService();

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Serves one request to completion (submit blocks the calling thread
  /// until its job finishes or is rejected). Thread-safe: one call per
  /// connection thread.
  Reply handle(const Request& request);

  /// Stops admission (submits now answer `shutting_down`); queued jobs
  /// still drain. handle() of a shutdown request calls this.
  void begin_shutdown();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  /// Cooperative hard-stop: in-flight simulations return a `cancelled`
  /// error at their next cancellation-check window.
  void cancel_all() { stop_now_.store(true, std::memory_order_relaxed); }
  /// Blocks until the queue is drained and every worker has exited.
  void drain();

  ServiceStats stats() const;
  /// stats() under the "svc." prefix, ready for reports and comparisons.
  MetricRegistry metrics() const;
  const ServiceConfig& config() const { return config_; }

  /// The single-core cache key recipe, exposed for tests: FNV-1a/64 over
  /// the program source bytes and the canonical effective-config
  /// rendering (machine knobs, policy spec, cycle budget). handle_submit
  /// mixes the same chunks incrementally, before anything is assembled.
  static std::uint64_t job_digest(std::string_view program_source,
                                  const std::string& config_key);

 private:
  struct Job;
  /// Shared between the queue/worker and the watchdog's watch map: a
  /// wall-deadline job must stay alive for whichever of the two answers
  /// it last.
  using JobPtr = std::shared_ptr<Job>;

  Reply handle_submit(const Request& request);
  /// Counts a validation failure and shapes its non-retriable reply.
  Reply bad_request(const std::string& id, std::string message);
  /// Worker entry: answers the job once, then releases its worker slot
  /// and watch entry.
  void run_job(Job& job);
  /// Builds the job's machine (a Processor, or a MultiCoreSim for the
  /// `multi` kind) and drives it to a reply.
  Reply execute(Job& job);
  /// The one cancellation-window loop and outcome->reply mapper for
  /// both job kinds. `goal` names what the budget ran out before;
  /// `render` fills a halted job's kind-specific result fields.
  template <typename Sim, typename Render>
  Reply drive(Job& job, Sim& sim, std::string_view goal, Render&& render);
  /// Deliver-once latch: sets the job's promise if nobody has yet.
  /// Returns true when this call won the race (worker vs watchdog vs
  /// crash handler).
  bool deliver(Job& job, Reply reply);
  void on_worker_crash(Job& job);
  void register_watch(const JobPtr& job);
  void unregister_watch(const Job& job);
  void watchdog_loop(std::stop_token token);
  void watchdog_scan(std::chrono::steady_clock::time_point now);
  void record_latency(double seconds);

  ServiceConfig config_;
  BoundedQueue<JobPtr> queue_;
  ResultCache cache_;
  WorkerPool<JobPtr> pool_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_now_{false};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> sim_faults_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> wall_deadline_exceeded_{0};
  std::atomic<std::uint64_t> workers_poisoned_{0};
  std::atomic<std::uint64_t> watchdog_scans_{0};

  mutable std::mutex latency_mutex_;
  RunningStat latency_ms_;
  /// 0.5 ms buckets to 1 s: quantile() reports bucket lower edges, so the
  /// resolution must sit below typical per-job latency (tiny kernels run
  /// in well under a millisecond) or p50 would quantize to zero.
  Histogram latency_hist_ms_{0.0, 1000.0, 2000};

  /// In-flight wall-deadline jobs keyed by admission serial; only jobs
  /// with wall_ms > 0 ever enter, so the watchdog idles (cv wait, zero
  /// scans) when the feature is unused.
  mutable std::mutex watchdog_mutex_;
  std::condition_variable_any watchdog_cv_;
  std::map<std::uint64_t, JobPtr> watch_;
  std::atomic<std::uint64_t> watch_serial_{0};
  /// Declared last: destroyed (stop-requested and joined) first, while
  /// the pool, queue and watch map it samples are still alive.
  std::jthread watchdog_;
};

}  // namespace steersim::svc
