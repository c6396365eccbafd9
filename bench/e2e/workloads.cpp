#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>

#include "multicore/multicore.hpp"
#include "sim/metrics.hpp"
#include "spans.hpp"

namespace steerbench {

using namespace steersim;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim_phased", "sim_serial", "mc_split4", "svc_cold", "svc_hot"};
  return names;
}

void run_workload(const RunOptions& options, Record& record) {
  if (options.workload == "mc_split4") {
    run_mc_workload(options, record);
  } else if (options.workload.rfind("svc_", 0) == 0) {
    run_svc_workload(options, record);
  } else {
    run_sim_workload(options, record);
  }
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// The CPUs the process was allowed at start, read before any pinning.
const std::vector<std::size_t>& allowed_cpus() {
  static const std::vector<std::size_t> allowed = [] {
    std::vector<std::size_t> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          cpus.push_back(cpu);
        }
      }
    }
    return cpus;
  }();
  return allowed;
}

/// Pins the calling thread to `width` consecutive allowed CPUs from the
/// `first`-th on (wrapping).
void pin(std::size_t first, std::size_t width) {
  const std::vector<std::size_t>& allowed = allowed_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < width; ++i) {
    CPU_SET(allowed[(first + i) % allowed.size()], &set);
  }
  // Best effort: a refused pinning leaves the thread where it was.
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

CpuPicker::CpuPicker(std::size_t width) : width_(width) {
  const std::size_t n = allowed_cpus().size();
  // One slot, and no pinning, when the slots would cover every CPU.
  const std::size_t slots = width_ < n ? n : 1;
  last_s_.assign(slots, 0.0);
  last_round_.assign(slots, 0);
}

CpuPicker::~CpuPicker() {
  if (last_s_.size() > 1) {
    pin(0, allowed_cpus().size());
  }
}

void CpuPicker::begin_round() {
  const std::size_t slots = last_s_.size();
  if (rounds_ < slots) {
    slot_ = rounds_;
  } else if (rounds_ % 3 == 0) {
    slot_ = static_cast<std::size_t>(
        std::min_element(last_round_.begin(), last_round_.end()) -
        last_round_.begin());
  } else {
    slot_ = static_cast<std::size_t>(
        std::min_element(last_s_.begin(), last_s_.end()) - last_s_.begin());
  }
  if (slots > 1) {
    pin(slot_, width_);
  }
}

void CpuPicker::end_round(double seconds) {
  last_s_[slot_] = seconds;
  last_round_[slot_] = rounds_++;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that
  // is the larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  ::malloc_trim(0);
  // "5" resets VmHWM to the current RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double span_mean_us(const std::string& name) {
  return mean(span_durations_us(recorded_spans(), name));
}

double span_total_ms(const std::string& prefix) {
  double total = 0.0;
  for (const auto& [name, t] : span_totals(recorded_spans())) {
    if (name.rfind(prefix, 0) == 0) {
      total += t.total_ms;
    }
  }
  return total;
}

std::vector<double> least_per_sample(
    const std::vector<std::vector<double>>& rounds) {
  std::vector<double> least = rounds.front();
  for (const std::vector<double>& samples : rounds) {
    for (std::size_t i = 0; i < least.size() && i < samples.size(); ++i) {
      least[i] = std::min(least[i], samples[i]);
    }
  }
  return least;
}

void report_latency(const std::vector<std::vector<double>>& rounds_ms,
                    Record& record) {
  const std::vector<double> least = least_per_sample(rounds_ms);
  for (const double p : {50.0, 99.0}) {
    std::vector<double> per_round;
    for (const std::vector<double>& samples : rounds_ms) {
      per_round.push_back(percentile(samples, p));
    }
    Metric metric = timing(per_round, "ms");
    metric.value = percentile(least, p);
    record.e2e[p == 50.0 ? "latency_p50_ms" : "latency_p99_ms"] = metric;
  }
}

void report_rates(double cycles_per_sec, double jobs_per_sec,
                  const std::vector<double>& round_cycles_per_sec,
                  const std::vector<double>& round_jobs_per_sec,
                  Record& record) {
  Metric cycles = timing(round_cycles_per_sec, "cycles/s");
  cycles.value = cycles_per_sec;
  record.e2e["cycles_per_sec"] = cycles;
  Metric jobs = timing(round_jobs_per_sec, "jobs/s");
  jobs.value = jobs_per_sec;
  record.e2e["jobs_per_sec"] = jobs;
}

RunOutcome run_windows(Processor& cpu, std::uint64_t budget,
                       std::uint64_t window, Windows& windows) {
  RunOutcome outcome = RunOutcome::kMaxCycles;
  while (outcome == RunOutcome::kMaxCycles && cpu.stats().cycles < budget) {
    const std::uint64_t before = cpu.stats().cycles;
    const double t0 = now_seconds();
    {
      const Span span("core.run");
      outcome = cpu.run(std::min(budget, before + window));
    }
    windows.add(now_seconds() - t0, cpu.stats().cycles - before);
  }
  return outcome;
}

std::vector<double> ns_per_cycle(const Windows& windows,
                                 std::size_t per_slice) {
  std::vector<double> out;
  for (std::size_t start = 0; start + per_slice <= windows.ms.size();
       start += per_slice) {
    double ms = 0.0;
    double cycles = 0.0;
    for (std::size_t i = start; i < start + per_slice; ++i) {
      ms += windows.ms[i];
      cycles += windows.cycles[i];
    }
    out.push_back(ms * 1e6 / cycles);
  }
  return out;
}

void skip_probe(const Program& program, const MachineConfig& config,
                const PolicySpec& policy, std::uint64_t budget,
                Record& record, ProbeTimes& times) {
  auto by_run = make_processor(program, config, policy);
  double t0 = now_seconds();
  {
    const Span span("core.run");
    by_run->run(budget);
  }
  times.run_s += now_seconds() - t0;

  auto by_step = make_processor(program, config, policy);
  t0 = now_seconds();
  {
    const Span span("core.step");
    while (!by_step->halted() && !by_step->faulted() &&
           by_step->stats().cycles < budget) {
      by_step->step();
    }
  }
  times.step_s += now_seconds() - t0;
  by_step->flush_sampler();

  const RunOutcome unused = RunOutcome::kMaxCycles;  // not rendered
  record.check(metrics_json(collect_result(*by_run, policy, unused)) ==
                   metrics_json(collect_result(*by_step, policy, unused)),
               program.name + ": run() and a step() loop end in different "
                              "statistics");
}

void n1_probe(const Program& program, std::uint64_t budget, Record& record,
              ProbeTimes& times) {
  MultiCoreSim sim({CoreSpec{program, PolicySpec{}}}, MultiCoreParams{});
  while (!sim.done() && sim.cycles() < budget) {
    const std::uint64_t before = sim.cycles();
    const double t0 = now_seconds();
    {
      const Span span("multicore.run");
      sim.run(std::min(budget, before + kWindowCycles));
    }
    const double dt = now_seconds() - t0;
    times.mc_s += dt;
    times.ns_per_round.push_back(dt * 1e9 /
                                 static_cast<double>(sim.cycles() - before));
  }
  MultiCoreResult multi;
  {
    const Span span("multicore.collect");
    multi = sim.collect();
  }
  SimResult single;
  {
    const Span span("sim.simulate");
    single = simulate(program, MachineConfig{}, PolicySpec{}, budget);
  }
  times.single_s += single.host.run_seconds;
  record.check(metrics_json(multi.cores[0]) == metrics_json(single),
               program.name + ": one-core MultiCoreSim differs from "
                              "simulate()");
}

void report_probes(const ProbeTimes& times, Record& record) {
  record.layer["core.skip_speedup"] = single(times.step_s / times.run_s, "x");
  record.layer["multicore.n1_slowdown"] =
      single(times.mc_s / times.single_s, "x");
  record.layer["multicore.ns_per_round_p50"] =
      single(percentile(times.ns_per_round, 50.0), "ns");
}

}  // namespace steerbench
