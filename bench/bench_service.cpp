// E19 — Service throughput: jobs per host second through the full
// steersimd admission path (validate → digest → cache → queue → worker
// pool), cold versus cache-hot, driven by concurrent client threads
// against an in-process SimService (the socket layer adds only transport).
// Self-checking: replayed batches must be byte-identical cache hits, and a
// deliberately tiny service must answer `queue_full` — never hang — under
// a flood. Writes BENCH_service.json for CI trending.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/contracts.hpp"
#include "obs/profile.hpp"
#include "svc/service.hpp"
#include "workload/kernels.hpp"

using namespace steersim;
using namespace steersim::svc;

namespace {

std::vector<Request> build_batch(std::uint64_t budget) {
  // Every library kernel under every policy the service steers between at
  // the standard budget — a realistic mixed submission batch.
  std::vector<Request> batch;
  for (const Kernel& kernel : kernel_library()) {
    for (const char* policy : {"steered", "static-ffu", "oracle"}) {
      Request request;
      request.type = RequestType::kSubmit;
      request.kernel = kernel.name;
      request.policy = policy;
      request.max_cycles = budget;
      request.id = std::string(kernel.name) + "/" + policy;
      batch.push_back(std::move(request));
    }
  }
  return batch;
}

/// Submits the whole batch from `clients` concurrent threads; returns the
/// replies in batch order.
std::vector<Reply> drive(SimService& service, const std::vector<Request>& batch,
                         unsigned clients) {
  std::vector<Reply> replies(batch.size());
  std::vector<std::jthread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&service, &batch, &replies, c, clients] {
      for (std::size_t i = c; i < batch.size(); i += clients) {
        replies[i] = service.handle(batch[i]);
      }
    });
  }
  threads.clear();  // join
  return replies;
}

}  // namespace

int main() {
  bench::print_header("E19", "service throughput (jobs/sec, cold vs cached)");

  // Floor at 10k cycles: every library kernel halts within ~8.3k, so the
  // self-checks below hold even under an aggressive STEERSIM_MAX_CYCLES.
  const std::uint64_t budget =
      std::max<std::uint64_t>(bench::cycle_budget(200'000), 10'000);
  const std::vector<Request> batch = build_batch(budget);
  constexpr unsigned kClients = 4;

  SimService service({.workers = 4,
                      .queue_capacity = 64,
                      .cache_entries = 256,
                      .default_max_cycles = budget});

  WallTimer cold_timer;
  const std::vector<Reply> cold = drive(service, batch, kClients);
  const double cold_seconds = cold_timer.seconds();

  WallTimer hot_timer;
  const std::vector<Reply> hot = drive(service, batch, kClients);
  const double hot_seconds = hot_timer.seconds();

  // Self-check: every cold reply completed (library kernels all halt within
  // the standard budget), every hot reply is a cache hit byte-identical to
  // its cold twin except the cache flag.
  std::uint64_t sim_cycles = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    STEERSIM_EXPECTS(cold[i].type == ReplyType::kResult);
    STEERSIM_EXPECTS(cold[i].cache == "miss");
    STEERSIM_EXPECTS(cold[i].outcome == "halted");
    STEERSIM_EXPECTS(hot[i].type == ReplyType::kResult);
    STEERSIM_EXPECTS(hot[i].cache == "hit");
    Reply normalized = hot[i];
    normalized.cache = "miss";
    STEERSIM_EXPECTS(normalized == cold[i]);
    sim_cycles += cold[i].cycles;
  }
  const ServiceStats stats = service.stats();
  STEERSIM_EXPECTS(stats.cache_hits == batch.size());
  STEERSIM_EXPECTS(stats.completed == batch.size());

  // Backpressure self-check: a one-worker, one-slot service flooded by
  // eight concurrent clients must reject with retriable `queue_full` and
  // still answer every caller.
  std::uint64_t flood_completed = 0;
  std::uint64_t flood_rejected = 0;
  {
    SimService tiny(
        {.workers = 1, .queue_capacity = 1, .cache_entries = 0,
         .default_max_cycles = budget});
    std::vector<Reply> replies(8);
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < replies.size(); ++c) {
      threads.emplace_back([&tiny, &replies, c] {
        Request request;
        request.type = RequestType::kSubmit;
        request.kernel = "matmul_int";
        request.seed = c;  // distinct digests even if caching were on
        replies[c] = tiny.handle(request);
      });
    }
    threads.clear();
    for (const Reply& reply : replies) {
      if (reply.type == ReplyType::kResult) {
        ++flood_completed;
      } else {
        STEERSIM_EXPECTS(reply.code == error_code::kQueueFull);
        STEERSIM_EXPECTS(reply.retriable);
        ++flood_rejected;
      }
    }
    STEERSIM_EXPECTS(flood_completed + flood_rejected == replies.size());
    STEERSIM_EXPECTS(flood_completed >= 1);
  }

  const double jobs = static_cast<double>(batch.size());
  Table table({"phase", "jobs", "wall (s)", "jobs/sec"});
  table.add_row({"cold", Table::num(batch.size()),
                 Table::num(cold_seconds, 3),
                 Table::num(jobs / cold_seconds, 1)});
  table.add_row({"cache-hot", Table::num(batch.size()),
                 Table::num(hot_seconds, 3),
                 Table::num(jobs / hot_seconds, 1)});
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\nflood: %llu of 8 submits completed, %llu rejected\n",
              static_cast<unsigned long long>(flood_completed),
              static_cast<unsigned long long>(flood_rejected));

  // BENCH_service.json: simulated counts compare exactly across builds;
  // wall-clock and rates by tolerance. Flood counts are scheduling-
  // dependent, so they are printed above: as notes they would change the
  // config digest from run to run, and bench_compare skips a bench whose
  // digest changed.
  bench::BenchReport report("service");
  report.note("budget", budget)
      .note("jobs", static_cast<std::uint64_t>(batch.size()))
      .note("clients", kClients)
      .note("workers", 4u);
  report.add_metric("batch.jobs", bench::MetricKind::kSim, jobs);
  report.add_metric("batch.sim_cycles", bench::MetricKind::kSim,
                    static_cast<double>(sim_cycles));
  report.add_metric("cache.hits", bench::MetricKind::kSim,
                    static_cast<double>(stats.cache_hits));
  report.add_metric("cache.misses", bench::MetricKind::kSim,
                    static_cast<double>(stats.cache_misses));
  report.add_metric("cold.wall_seconds", bench::MetricKind::kHostTime,
                    cold_seconds);
  report.add_metric("cold.jobs_per_sec", bench::MetricKind::kHostRate,
                    jobs / cold_seconds);
  report.add_metric("hot.wall_seconds", bench::MetricKind::kHostTime,
                    hot_seconds);
  report.add_metric("hot.jobs_per_sec", bench::MetricKind::kHostRate,
                    jobs / hot_seconds);
  report.add_metric("job.latency_ms_mean", bench::MetricKind::kHostTime,
                    stats.latency_mean_ms);
  report.add_metric("job.latency_ms_p99", bench::MetricKind::kHostTime,
                    stats.latency_p99_ms);
  report.write();
  std::printf(
      "\nExpected shape: the cache-hot pass replays the whole batch orders "
      "of magnitude faster than the cold pass (digest lookup versus full "
      "simulation), and the flooded one-slot service rejected %llu of 8 "
      "submits with retriable queue_full instead of blocking.\n",
      static_cast<unsigned long long>(flood_rejected));
  return 0;
}
