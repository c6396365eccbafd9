// steerbench workloads and the helpers they share.
//
// Every workload repeats one fixed unit of work (a "round": one whole
// simulation, one lockstep multi-core run, or one pass of a request stream
// over a fresh service) for the run's measuring time, checks each round's
// output, and reports each end-to-end host-time metric from each sample's
// least time over the rounds (least_per_sample()), and set-up time as
// the median of several set-ups. A traced run measures
// half its time untraced (its end-to-end numbers), half traced (its
// per-layer numbers), then runs the layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "record.hpp"
#include "sim/runner.hpp"

namespace steerbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
};

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs `options.workload`, one of workload_names().
void run_workload(const RunOptions& options, Record& record);

// --- Implemented per workload family. --------------------------------------

void run_sim_workload(const RunOptions& options, Record& record);
void run_mc_workload(const RunOptions& options, Record& record);
void run_svc_workload(const RunOptions& options, Record& record);

// --- Shared helpers. --------------------------------------------------------

/// The service's own cancellation-check window in simulated cycles. The
/// service replay and the probes advance the machine in these steps, as
/// the service does.
inline constexpr std::uint64_t kWindowCycles = 4096;

double now_seconds();

/// Chooses the CPUs each round of repeat_for() runs on. On a shared
/// virtual machine each vCPU slows down and speeds up on its own, by up to
/// 2x, for seconds to minutes, and an unpinned process stays on the vCPU
/// it started on. So each round is pinned (with every thread it starts) to
/// `width` consecutive CPUs of the set the process was allowed, a "slot".
/// The first rounds try every slot once; then every third round retries
/// the slot left longest, and the others rerun the slot whose last round
/// was the shortest. Every round does the same work, so most rounds run
/// where they run fastest, and each sample's least time
/// (least_per_sample()) comes from several fast rounds.
class CpuPicker {
 public:
  explicit CpuPicker(std::size_t width);
  /// Restores the whole set.
  ~CpuPicker();
  CpuPicker(const CpuPicker&) = delete;
  CpuPicker& operator=(const CpuPicker&) = delete;

  /// Pins the calling thread for the next round.
  void begin_round();
  /// Files how long the round begun last took.
  void end_round(double seconds);

 private:
  std::size_t width_;
  std::size_t rounds_ = 0;
  std::size_t slot_ = 0;
  std::vector<double> last_s_;           ///< per slot; 0 until tried
  std::vector<std::size_t> last_round_;  ///< per slot
};

/// Calls `round()` once, then again while the next round is expected to
/// end within `seconds` of the first one's start (judged by the median
/// round so far), each round on the CPUs a CpuPicker of `width` chose.
template <typename Round>
void repeat_for(double seconds, std::size_t width, Round&& round) {
  const double start = now_seconds();
  std::vector<double> lengths;
  CpuPicker cpus(width);
  do {
    cpus.begin_round();
    const double t0 = now_seconds();
    round();
    lengths.push_back(now_seconds() - t0);
    cpus.end_round(lengths.back());
  } while (now_seconds() - start + percentile(lengths, 50.0) <= seconds);
}

/// Peak resident set of this process since the last reset_peak_rss(),
/// MiB. Workloads reset it after set-up and report it as of the end of
/// their first timed round: the service workloads restart their service
/// every round, and the allocator's per-thread arenas make the whole-run
/// peak creep up with the number of rounds.
double peak_rss_mb();

/// Returns the heap memory set-up freed to the system and restarts the
/// peak. Set-up's transient peak depends on the byte length of the
/// generated sources, which varies with the seed, and on whether that
/// crossed the allocator's mmap threshold; without this, the reported peak
/// jumped by ~1 MiB between seeds on identical simulations.
void reset_peak_rss();

/// Mean duration, microseconds, of the spans called `name` recorded so
/// far; 0 when there are none.
double span_mean_us(const std::string& name);

/// Summed duration, milliseconds, of every span whose name starts with
/// `prefix`.
double span_total_ms(const std::string& prefix);

/// Each sample's lowest time over the rounds. Sample i is the same work in
/// every round (the same run() window of a deterministic simulation, or
/// the same request of the stream), and host interference only ever adds
/// time, so its lowest time is the steadiest estimate of its cost.
/// Disturbances shorter than a round are removed sample by sample instead
/// of round by round.
std::vector<double> least_per_sample(
    const std::vector<std::vector<double>>& rounds);

/// latency_p50_ms and latency_p99_ms: percentiles of least_per_sample().
/// The metrics' spread is that of the rounds' own percentiles.
void report_latency(const std::vector<std::vector<double>>& rounds_ms,
                    Record& record);

/// cycles_per_sec and jobs_per_sec with the given values, which the
/// workload derives from least_per_sample(); their spread is that of the
/// per-round rates.
void report_rates(double cycles_per_sec, double jobs_per_sec,
                  const std::vector<double>& round_cycles_per_sec,
                  const std::vector<double>& round_jobs_per_sec,
                  Record& record);

/// Host time and simulated cycles of each run() window.
struct Windows {
  std::vector<double> ms;
  std::vector<double> cycles;
  double run_s = 0.0;

  void add(double seconds, std::uint64_t advanced) {
    ms.push_back(seconds * 1e3);
    cycles.push_back(static_cast<double>(advanced));
    run_s += seconds;
  }
};

/// Advances `cpu` in steps of `window` cycles until it stops or reaches
/// `budget`, one "core.run" span per window.
steersim::RunOutcome run_windows(steersim::Processor& cpu,
                                 std::uint64_t budget, std::uint64_t window,
                                 Windows& windows);

/// Host ns per simulated cycle over consecutive slices of `per_slice`
/// windows (a trailing partial slice is dropped).
std::vector<double> ns_per_cycle(const Windows& windows,
                                 std::size_t per_slice);

/// Host time of the layer probes, summed over the programs probed.
struct ProbeTimes {
  double run_s = 0.0;     ///< Processor::run()
  double step_s = 0.0;    ///< a Processor::step() loop, same program
  double mc_s = 0.0;      ///< MultiCoreSim with one core
  double single_s = 0.0;  ///< simulate(), same program
  std::vector<double> ns_per_round;  ///< per MultiCoreSim::run() window
};

/// Advances `program` `budget` cycles with run() and with a step() loop;
/// the two must end in identical statistics.
void skip_probe(const steersim::Program& program,
                const steersim::MachineConfig& config,
                const steersim::PolicySpec& policy, std::uint64_t budget,
                Record& record, ProbeTimes& times);

/// Runs `program` `budget` cycles on a one-core MultiCoreSim and through
/// simulate(); the two must end in identical statistics.
void n1_probe(const steersim::Program& program, std::uint64_t budget,
              Record& record, ProbeTimes& times);

/// core.skip_speedup, multicore.n1_slowdown, multicore.ns_per_round_p50.
void report_probes(const ProbeTimes& times, Record& record);

}  // namespace steerbench
