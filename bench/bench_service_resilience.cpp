// E20 — Service resilience: goodput and tail latency of the full socket
// path (SocketServer + SteersimClient) with and without a chaos storm at
// the service boundary. The clean phase is the E19 shape measured through
// real transport; the chaos phase drives the same batch while the injector
// drops, truncates, corrupts and delays reply frames, stalls and crashes
// workers, and slows the cache. Self-checking: the resilient client must
// complete 100% of the batch under the storm, and every chaos-phase result
// must carry byte-identical simulated metrics to its clean twin — fault
// injection may cost retries, never correctness. Writes
// BENCH_service_resilience.json with the exact batch size and completion;
// what the storm did (its injections, retries, reconnects and worker
// crashes, all thread-timing dependent) and the host-time numbers are
// printed, not recorded, so two runs compare exactly.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "common/contracts.hpp"
#include "obs/profile.hpp"
#include "svc/chaos.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "workload/kernels.hpp"

using namespace steersim;
using namespace steersim::svc;

namespace {

constexpr unsigned kClients = 4;
// Detectable faults only: drops and truncations surface as EOF, stalls
// and crashes as typed retriable errors. `corrupt` is deliberately
// absent — the protocol has no frame checksum, so a bit flip landing in
// a payload byte yields a frame that still parses cleanly, and the
// byte-identity self-check below would (correctly!) reject the answer
// the client had no way to distrust. Parse-level corruption coverage
// lives in tests/test_resilience.cpp and the CI chaos smoke.
constexpr const char* kStorm =
    "delay=0.05,delay_ms=2,drop=0.08,truncate=0.04,"
    "stall=0.05,stall_ms=15,crash=0.06,cache_slow=0.05,cache_slow_ms=1"
    ":2026";

std::vector<Request> build_batch(std::uint64_t budget) {
  std::vector<Request> batch;
  for (const Kernel& kernel : kernel_library()) {
    for (const char* policy : {"steered", "oracle"}) {
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

/// SimService + SocketServer on a unique /tmp socket, serving on a
/// background thread for the harness lifetime.
class Harness {
 public:
  explicit Harness(const ServiceConfig& config, const char* tag)
      : service_(config) {
    ServerOptions options;
    options.socket_path = "/tmp/steersim-bench-" + std::string(tag) + "-" +
                          std::to_string(static_cast<long>(::getpid())) +
                          ".sock";
    server_ = std::make_unique<SocketServer>(service_, options);
    STEERSIM_EXPECTS(server_->listen());
    serve_thread_ = std::jthread([this] { server_->serve(); });
  }

  ~Harness() {
    server_->stop();
    if (serve_thread_.joinable()) {
      serve_thread_.join();
    }
    ::unlink(server_->socket_path().c_str());
  }

  SimService& service() { return service_; }
  const std::string& path() const { return server_->socket_path(); }

 private:
  SimService service_;
  std::unique_ptr<SocketServer> server_;
  std::jthread serve_thread_;
};

struct PhaseResult {
  std::vector<Reply> replies;
  double wall_seconds = 0.0;
  ClientStats client;  ///< summed across every client thread
};

PhaseResult drive(const std::string& path, const std::vector<Request>& batch,
                  ClientOptions options) {
  PhaseResult out;
  out.replies.resize(batch.size());
  std::vector<ClientStats> per_client(kClients);
  options.socket_path = path;
  WallTimer timer;
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientOptions mine = options;
        mine.jitter_seed = c + 1;  // decorrelate the herd deterministically
        SteersimClient client(mine);
        for (std::size_t i = c; i < batch.size(); i += kClients) {
          out.replies[i] = client.call(batch[i]);
        }
        per_client[c] = client.stats();
      });
    }
  }
  out.wall_seconds = timer.seconds();
  for (const ClientStats& stats : per_client) {
    out.client.attempts += stats.attempts;
    out.client.connects += stats.connects;
    out.client.reconnects += stats.reconnects;
    out.client.retries_retriable += stats.retries_retriable;
    out.client.retries_transport += stats.retries_transport;
    out.client.timeouts += stats.timeouts;
  }
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "E20", "service resilience (goodput & p99 under a chaos storm)");

  const std::uint64_t budget =
      std::max<std::uint64_t>(bench::cycle_budget(200'000), 10'000);
  const std::vector<Request> batch = build_batch(budget);
  const std::size_t jobs = batch.size();
  const ServiceConfig service_config = {.workers = 4,
                                        .queue_capacity = 64,
                                        .cache_entries = 256,
                                        .default_max_cycles = budget};

  // -------------------------------------------------------------------
  // Clean phase: the socket path with nothing in the way.
  PhaseResult clean;
  ServiceStats clean_stats;
  {
    Harness harness(service_config, "clean");
    clean = drive(harness.path(), batch, {});
    clean_stats = harness.service().stats();
  }
  for (const Reply& reply : clean.replies) {
    STEERSIM_EXPECTS(reply.type == ReplyType::kResult);
    STEERSIM_EXPECTS(reply.outcome == "halted");
  }
  STEERSIM_EXPECTS(clean.client.retries_retriable == 0);
  STEERSIM_EXPECTS(clean.client.retries_transport == 0);
  STEERSIM_EXPECTS(clean.client.attempts == jobs);

  // -------------------------------------------------------------------
  // Chaos phase: same batch, fresh service, storm at the boundary.
  ChaosSpec spec;
  std::string parse_error;
  STEERSIM_EXPECTS(ChaosSpec::parse(kStorm, spec, parse_error));
  ChaosInjector::install(std::make_unique<ChaosInjector>(spec));

  PhaseResult chaos;
  ServiceStats chaos_stats;
  std::string injections;
  std::uint64_t injected = 0;
  {
    Harness harness(service_config, "chaos");
    ClientOptions resilient;
    resilient.read_timeout_ms = 5'000;
    resilient.max_attempts = 64;
    resilient.backoff_base_ms = 1;
    resilient.backoff_cap_ms = 16;
    chaos = drive(harness.path(), batch, resilient);
    chaos_stats = harness.service().stats();
    const std::shared_ptr<ChaosInjector> injector = ChaosInjector::global();
    STEERSIM_EXPECTS(injector != nullptr);
    injections = injector->summary();
    for (std::size_t site = 0; site < kChaosSiteCount; ++site) {
      injected += injector->count(static_cast<ChaosSite>(site));
    }
  }
  // Connection threads are joined: safe to retire the injector.
  ChaosInjector::install(nullptr);

  // Self-checks: the storm actually stormed, every job still completed,
  // and chaos changed nothing about the simulated results — a retried
  // reply is byte-identical to its clean twin modulo the cache flag.
  STEERSIM_EXPECTS(injected > 0);
  std::size_t chaos_completed = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    STEERSIM_EXPECTS(chaos.replies[i].type == ReplyType::kResult);
    ++chaos_completed;
    Reply normalized = chaos.replies[i];
    normalized.cache = clean.replies[i].cache;
    STEERSIM_EXPECTS(normalized == clean.replies[i]);
  }
  const double completion =
      static_cast<double>(chaos_completed) / static_cast<double>(jobs);
  STEERSIM_EXPECTS(completion == 1.0);

  const double clean_rate =
      static_cast<double>(jobs) / clean.wall_seconds;
  const double chaos_rate =
      static_cast<double>(jobs) / chaos.wall_seconds;
  const std::uint64_t chaos_retries =
      chaos.client.retries_retriable + chaos.client.retries_transport;

  Table table({"phase", "jobs", "wall (s)", "jobs/sec", "p99 (ms)",
               "retries", "reconnects"});
  table.add_row({"clean", Table::num(jobs),
                 Table::num(clean.wall_seconds, 3), Table::num(clean_rate, 1),
                 Table::num(clean_stats.latency_p99_ms, 1), "0", "0"});
  table.add_row({"chaos", Table::num(jobs),
                 Table::num(chaos.wall_seconds, 3), Table::num(chaos_rate, 1),
                 Table::num(chaos_stats.latency_p99_ms, 1),
                 Table::num(chaos_retries), Table::num(
                     chaos.client.reconnects)});
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\nchaos: %s; %llu transport and %llu retriable retries, "
              "%llu reconnects, %llu worker crashes; goodput ratio %.3f\n",
              injections.c_str(),
              static_cast<unsigned long long>(chaos.client.retries_transport),
              static_cast<unsigned long long>(chaos.client.retries_retriable),
              static_cast<unsigned long long>(chaos.client.reconnects),
              static_cast<unsigned long long>(chaos_stats.worker_crashes),
              chaos_rate / clean_rate);

  bench::BenchReport report("service_resilience");
  report.note("budget", budget)
      .note("jobs", static_cast<std::uint64_t>(jobs))
      .note("clients", kClients)
      .note("workers", 4u)
      .note("storm", kStorm);
  report.add_metric("batch.jobs", bench::MetricKind::kSim,
                    static_cast<double>(jobs));
  report.add_metric("chaos.completion", bench::MetricKind::kSim, completion);
  report.write();
  std::printf(
      "\nExpected shape: the chaos phase completes the whole batch (%zu/%zu "
      "jobs, %llu injected faults absorbed by %llu retries and %llu "
      "reconnects) at a goodput within an order of magnitude of the clean "
      "phase, and every result is byte-identical to its clean twin — the "
      "storm costs wall clock, never answers.\n",
      chaos_completed, jobs, static_cast<unsigned long long>(injected),
      static_cast<unsigned long long>(chaos_retries),
      static_cast<unsigned long long>(chaos.client.reconnects));
  return 0;
}
