// Simulator workloads: sim_phased and sim_serial drive one steered
// Processor; mc_split4 drives a four-core MultiCoreSim.
#include <memory>

#include "isa/assembler.hpp"
#include "multicore/multicore.hpp"
#include "sim/metrics.hpp"
#include "spans.hpp"
#include "svc/service.hpp"
#include "workload/synthetic.hpp"
#include "workloads.hpp"

namespace steerbench {

using namespace steersim;

namespace {

/// Cycle cap of one whole simulation; every workload halts far below it.
constexpr std::uint64_t kJobBudget = 50'000'000;
/// Set-ups timed for `setup_s` (each a few to a few tens of ms).
constexpr unsigned kSetups = 15;
/// Untimed warm-up before the first round.
constexpr std::uint64_t kWarmupCycles = 1u << 18;
/// Length of the traced run()/step()/one-core probes.
constexpr std::uint64_t kProbeCycles = 1u << 20;
/// Length of the one-core check every mc_split4 run makes.
constexpr std::uint64_t kCheckCycles = 1u << 17;
/// One latency sample is one run() window: 2048 cycles on one core, 256
/// lockstep rounds on four. Every round then gives more than 1,000 samples
/// (sim_phased ~1,220, mc_split4 ~2,300), so p99 has at least ten beyond
/// it.
constexpr std::uint64_t kSimWindow = 2048;
constexpr std::uint64_t kMcWindow = 256;
/// core.ns_per_cycle is taken over slices of 128 windows (2^18 cycles).
constexpr std::size_t kWindowsPerSlice = 128;

/// Every phase is several back-to-back loops, each with its own random
/// 64-instruction body: a run's speed and IPC then average over many
/// bodies, so they move little from one seed to the next. The program's
/// closing branch back to its start limits it to ~16k instructions.
constexpr unsigned kBody = 64;
constexpr unsigned kLoopsPerPhase = 4;

/// Appends `loops` loops of `mix` that run `instructions` body
/// instructions between them.
void add_loops(SyntheticSpec& spec, const MixSpec& mix,
               unsigned instructions, unsigned loops) {
  for (unsigned i = 0; i < loops; ++i) {
    spec.phases.push_back(PhaseSpec{mix, kBody, instructions / loops / kBody});
  }
}

/// `pairs` alternations of int-heavy and fp-heavy phases of
/// `phase_instructions` each (the shape of alternating_phases()).
SyntheticSpec phased_spec(unsigned phase_instructions, unsigned pairs,
                          std::uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "phased";
  spec.seed = seed;
  for (unsigned i = 0; i < pairs; ++i) {
    add_loops(spec, int_heavy_mix(), phase_instructions, kLoopsPerPhase);
    add_loops(spec, fp_heavy_mix(), phase_instructions, kLoopsPerPhase);
  }
  return spec;
}

/// `instructions` of one mix, in 64 loops.
SyntheticSpec steady_spec(const MixSpec& mix, unsigned instructions,
                          std::uint64_t seed) {
  SyntheticSpec spec;
  spec.name = mix.name;
  spec.seed = seed;
  add_loops(spec, mix, instructions, 64);
  return spec;
}

/// Long RAW chains of FP divides: the machine sits provably idle between
/// completions, so run()'s skip-ahead does most of the work.
SyntheticSpec serial_spec(std::uint64_t seed) {
  MixSpec mix;
  mix.name = "serial_fdiv";
  mix.int_alu = 0.1;
  mix.fp_div = 1.0;
  SyntheticSpec spec = steady_spec(mix, 1u << 20, seed);
  spec.dep_density = 1.0;
  return spec;
}

/// mc_split4's four tenants: int-heavy, phased, fp-heavy, phased.
std::vector<SyntheticSpec> split4_specs(std::uint64_t seed) {
  return {steady_spec(int_heavy_mix(), 1u << 18, seed),
          phased_spec(1u << 14, 8, seed + 1),
          steady_spec(fp_heavy_mix(), 1u << 18, seed + 2),
          phased_spec(1u << 14, 8, seed + 3)};
}

Program build_program(const SyntheticSpec& spec, std::string& source) {
  {
    const Span span("workload.generate_synthetic_asm");
    source = generate_synthetic_asm(spec);
  }
  const Span span("isa.assemble");
  return assemble(source, spec.name);
}

/// svc.digest_us_mean: the service's cache key over each program source.
void digest_probe(const std::vector<std::string>& sources) {
  for (int repeat = 0; repeat < 5; ++repeat) {
    for (const std::string& source : sources) {
      const Span span("svc.job_digest");
      const volatile std::uint64_t digest =
          svc::SimService::job_digest(source, "policy=steered;");
      (void)digest;
    }
  }
}

/// What the timed rounds of a simulator workload collect.
struct Timed {
  std::vector<double> cycles_per_sec;  ///< per round
  std::vector<double> jobs_per_sec;    ///< per round, 1 / round time
  /// Per round: round time outside run() (build, collect, render), s.
  std::vector<double> overhead_s;
  double round_cycles = 0.0;           ///< simulated cycles of every round
  Windows windows;                     ///< pooled over rounds
  std::vector<std::vector<double>> latency_ms;  ///< window ms, per round
  double rss_mb = 0.0;                 ///< peak RSS when round 1 ended

  /// Files the windows added since `first` as one round's latencies.
  void end_round(std::size_t first) {
    latency_ms.emplace_back(windows.ms.begin() + static_cast<long>(first),
                            windows.ms.end());
  }

  /// Files one round's rates: `cycles` simulated in `run_s` of run() time
  /// within `round_s`.
  void add_round(double cycles, double run_s, double round_s) {
    round_cycles = cycles;
    cycles_per_sec.push_back(cycles / run_s);
    jobs_per_sec.push_back(1.0 / round_s);
    overhead_s.push_back(round_s - run_s);
  }
};

void report_e2e(const Timed& timed, const std::vector<double>& setup_s,
                double ipc, Record& record) {
  record.e2e["setup_s"] = timing(setup_s, "s");
  // A round whose every run() window took its least time over the rounds,
  // plus the least time outside run().
  const double run_s = sum(least_per_sample(timed.latency_ms)) / 1e3;
  report_rates(timed.round_cycles / run_s,
               1.0 / (run_s + percentile(timed.overhead_s, 0.0)),
               timed.cycles_per_sec, timed.jobs_per_sec, record);
  report_latency(timed.latency_ms, record);
  record.e2e["peak_rss_mb"] = single(timed.rss_mb, "MiB");
  record.exact["core.ipc"] = single(ipc, "retired/cycle");
}

/// Per-layer timings every simulator workload derives from its spans.
void report_layers(const Timed& traced, const Timed& untraced,
                   Record& record) {
  const std::vector<double> slices =
      ns_per_cycle(traced.windows, kWindowsPerSlice);
  record.layer["core.ns_per_cycle_p50"] = timing(slices, "ns");
  record.layer["core.ns_per_cycle_max"] =
      single(percentile(slices, 100.0), "ns");
  record.layer["core.build_us_mean"] =
      single(span_mean_us("core.make_processor"), "us");
  record.layer["isa.assemble_us_mean"] =
      single(span_mean_us("isa.assemble"), "us");
  record.layer["sim.collect_us_mean"] =
      single(span_mean_us("sim.collect_result"), "us");
  record.layer["sim.render_us_mean"] =
      single(span_mean_us("sim.metrics_json"), "us");
  record.layer["svc.digest_us_mean"] =
      single(span_mean_us("svc.job_digest"), "us");
  record.layer["workload.generate_ms"] =
      single(span_total_ms("workload.") / kSetups, "ms");
  const double untraced_rate = percentile(untraced.cycles_per_sec, 100.0);
  record.layer["bench.trace_overhead_frac"] =
      single((untraced_rate - percentile(traced.cycles_per_sec, 100.0)) /
                 untraced_rate,
             "frac");
}

void add_counts(const SimResult& result, std::map<std::string, double>& sum) {
  sum["core.cycles"] += static_cast<double>(result.stats.cycles);
  sum["core.retired"] += static_cast<double>(result.stats.retired);
  sum["core.resource_starved"] +=
      static_cast<double>(result.stats.resource_starved);
  sum["config.slots_rewritten"] +=
      static_cast<double>(result.loader.slots_rewritten);
  sum["config.steer_events"] +=
      static_cast<double>(result.steering.steer_events);
}

void report_counts(const std::map<std::string, double>& sum, Record& record) {
  for (const auto& [name, value] : sum) {
    const bool cycles =
        name == "core.cycles" || name == "core.resource_starved";
    record.exact[name] = single(value, cycles ? "cycles" : "count");
  }
}

/// Round 1's rendered statistics; later rounds must match them exactly.
template <typename Result>
void check_against_first(std::string rendered, const Result& result,
                         const std::string& what, std::string& reference,
                         Result& first, Record& record) {
  if (reference.empty()) {
    reference = std::move(rendered);
    first = result;
  } else {
    record.check(rendered == reference,
                 what + ": statistics differ from round 1");
  }
}

}  // namespace

// --- sim_phased / sim_serial ------------------------------------------------

void run_sim_workload(const RunOptions& options, Record& record) {
  const SyntheticSpec spec = options.workload == "sim_phased"
                                 ? phased_spec(1u << 16, 16, options.seed)
                                 : serial_spec(options.seed);
  const MachineConfig config;
  const PolicySpec policy;
  set_tracing(options.trace);

  std::vector<double> setup_s;
  Program program;
  std::string source;
  for (unsigned i = 0; i < kSetups; ++i) {
    const double t0 = now_seconds();
    program = build_program(spec, source);
    const Span span("core.make_processor");
    const auto cpu = make_processor(program, config, policy);
    setup_s.push_back(now_seconds() - t0);
  }
  set_tracing(false);
  reset_peak_rss();
  make_processor(program, config, policy)->run(kWarmupCycles);

  std::string reference;
  SimResult first;
  // One round, on one CPU: build, run to HALT in windows, collect, render.
  const auto measure = [&](double seconds, Timed& timed) {
    repeat_for(seconds, 1, [&] {
      const double t0 = now_seconds();
      std::unique_ptr<Processor> cpu;
      {
        const Span span("core.make_processor");
        cpu = make_processor(program, config, policy);
      }
      const double run_before = timed.windows.run_s;
      const std::size_t first_window = timed.windows.ms.size();
      const RunOutcome outcome =
          run_windows(*cpu, kJobBudget, kSimWindow, timed.windows);
      const double run_s = timed.windows.run_s - run_before;
      timed.end_round(first_window);
      SimResult result;
      {
        const Span span("sim.collect_result");
        result = collect_result(*cpu, policy, outcome);
      }
      std::string rendered;
      {
        const Span span("sim.metrics_json");
        rendered = metrics_json(result);
      }
      timed.add_round(static_cast<double>(result.stats.cycles), run_s,
                      now_seconds() - t0);
      record.check(outcome == RunOutcome::kHalted,
                   options.workload + ": did not halt");
      check_against_first(std::move(rendered), result, options.workload,
                          reference, first, record);
      if (timed.rss_mb == 0.0) {
        timed.rss_mb = peak_rss_mb();
      }
    });
  };
  Timed timed;
  measure(options.trace ? options.seconds / 2 : options.seconds, timed);
  report_e2e(timed, setup_s, first.stats.ipc(), record);
  std::map<std::string, double> counts;
  add_counts(first, counts);
  report_counts(counts, record);
  if (!options.trace) {
    return;
  }

  set_tracing(true);
  Timed traced;
  measure(options.seconds / 2, traced);
  ProbeTimes probes;
  skip_probe(program, config, policy, kProbeCycles, record, probes);
  n1_probe(program, kProbeCycles, record, probes);
  digest_probe({source});
  set_tracing(false);
  report_probes(probes, record);
  report_layers(traced, timed, record);
}

// --- mc_split4 --------------------------------------------------------------

void run_mc_workload(const RunOptions& options, Record& record) {
  const std::vector<SyntheticSpec> specs = split4_specs(options.seed);
  MultiCoreParams params;
  params.arbiter = ArbiterKind::kPropShare;
  set_tracing(options.trace);

  std::vector<double> setup_s;
  std::vector<CoreSpec> cores;
  std::vector<std::string> sources(specs.size());
  for (unsigned i = 0; i < kSetups; ++i) {
    const double t0 = now_seconds();
    cores.clear();
    for (std::size_t k = 0; k < specs.size(); ++k) {
      cores.push_back(CoreSpec{build_program(specs[k], sources[k]), {}});
    }
    const Span span("multicore.construct");
    const MultiCoreSim sim(cores, params);
    setup_s.push_back(now_seconds() - t0);
  }
  set_tracing(false);
  reset_peak_rss();
  MultiCoreSim(cores, params).run(kWarmupCycles);

  // Every run: lockstep MultiCoreSim with one core must reproduce the
  // single-core path exactly.
  ProbeTimes check;
  n1_probe(cores[0].program, kCheckCycles, record, check);

  std::string reference;
  MultiCoreResult first;
  std::vector<double> ns_per_round;  // traced rounds only
  // One round, on one CPU (the lockstep driver is one thread): construct,
  // run every core to HALT in lockstep windows, collect, render.
  const auto measure = [&](double seconds, Timed& timed) {
    repeat_for(seconds, 1, [&] {
      const double t0 = now_seconds();
      std::unique_ptr<MultiCoreSim> sim;
      {
        const Span span("multicore.construct");
        sim = std::make_unique<MultiCoreSim>(cores, params);
      }
      const auto core_cycles = [&sim] {
        std::uint64_t sum = 0;
        for (unsigned k = 0; k < sim->num_cores(); ++k) {
          sum += sim->core(k).stats().cycles;
        }
        return sum;
      };
      const double run_before = timed.windows.run_s;
      const std::size_t first_window = timed.windows.ms.size();
      RunOutcome outcome = RunOutcome::kMaxCycles;
      while (outcome == RunOutcome::kMaxCycles && sim->cycles() < kJobBudget) {
        const std::uint64_t before = core_cycles();
        const std::uint64_t rounds_before = sim->cycles();
        const double w0 = now_seconds();
        {
          const Span span("multicore.run");
          outcome = sim->run(rounds_before + kMcWindow);
        }
        const double dt = now_seconds() - w0;
        timed.windows.add(dt, core_cycles() - before);
        if (tracing()) {
          ns_per_round.push_back(
              dt * 1e9 / static_cast<double>(sim->cycles() - rounds_before));
        }
      }
      const double run_s = timed.windows.run_s - run_before;
      timed.end_round(first_window);
      if (tracing()) {
        // MultiCoreSim::collect() runs these per core inside; timed here
        // through the same public calls.
        for (unsigned k = 0; k < sim->num_cores(); ++k) {
          SimResult core;
          {
            const Span span("sim.collect_result");
            core = collect_result(sim->core(k), cores[k].policy,
                                  sim->core_outcome(k));
          }
          const Span span("sim.metrics_json");
          (void)metrics_json(core);
        }
      }
      MultiCoreResult result;
      {
        const Span span("multicore.collect");
        result = sim->collect();
      }
      std::string rendered;
      {
        const Span span("multicore.metrics_json");
        rendered = collect_multicore_metrics(result).to_json();
      }
      double simulated = 0.0;
      for (const SimResult& core : result.cores) {
        simulated += static_cast<double>(core.stats.cycles);
      }
      timed.add_round(simulated, run_s, now_seconds() - t0);
      record.check(outcome == RunOutcome::kHalted,
                   "mc_split4: not every core halted");
      check_against_first(std::move(rendered), result, "mc_split4", reference,
                          first, record);
      if (timed.rss_mb == 0.0) {
        timed.rss_mb = peak_rss_mb();
      }
    });
  };
  Timed timed;
  measure(options.trace ? options.seconds / 2 : options.seconds, timed);
  report_e2e(timed, setup_s,
             static_cast<double>(first.fabric.total_retired) /
                 static_cast<double>(first.cycles),
             record);
  std::map<std::string, double> counts;
  for (const SimResult& core : first.cores) {
    add_counts(core, counts);
  }
  const FabricStats& fabric = first.fabric;
  counts["fabric.port_denials"] = static_cast<double>(fabric.port_denials);
  counts["fabric.steal_events"] = static_cast<double>(fabric.steal_events);
  counts["fabric.repartitions"] = static_cast<double>(fabric.repartitions);
  report_counts(counts, record);
  record.exact["fabric.grant_latency_mean"] =
      single(fabric.grant_latency.mean(), "cycles");
  record.exact["fabric.utilization"] =
      single(static_cast<double>(fabric.slot_cycles_used) /
                 static_cast<double>(fabric.slot_cycles_total),
             "frac");
  if (!options.trace) {
    return;
  }

  set_tracing(true);
  Timed traced;
  measure(options.seconds / 2, traced);
  for (int repeat = 0; repeat < 5; ++repeat) {
    for (const CoreSpec& core : cores) {
      const Span span("core.make_processor");
      (void)make_processor(core.program, MachineConfig{}, core.policy);
    }
  }
  ProbeTimes probes;
  skip_probe(cores[0].program, MachineConfig{}, PolicySpec{}, kProbeCycles,
             record, probes);
  n1_probe(cores[0].program, kProbeCycles, record, probes);
  digest_probe(sources);
  set_tracing(false);
  report_probes(probes, record);
  report_layers(traced, timed, record);
  // Here a lockstep round advances all four cores.
  record.layer["multicore.ns_per_round_p50"] = timing(ns_per_round, "ns");
}

}  // namespace steerbench
