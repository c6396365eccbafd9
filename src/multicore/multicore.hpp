// Lockstep multi-core simulation against one shared fabric
// (docs/DESIGN.md §Multi-core shared fabric, EXPERIMENTS.md E23).
//
// MultiCoreSim steps N independent Processor instances in lockstep
// rounds — every live core advances exactly one cycle per round, in core
// order — while their ConfigurationLoaders contend for the SharedFabric's
// single write port and per-core slot quotas. Per-core semantics are the
// single-core machine's own: with one core attached, a MultiCoreSim run
// is bit-identical to Processor::run() (cosim-gated in
// tests/test_multicore.cpp and bench_multicore's self-check).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "multicore/fabric.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"

namespace steersim {

/// One core's workload assignment: a program plus its steering policy.
struct CoreSpec {
  Program program;
  PolicySpec policy;
};

struct MultiCoreParams {
  /// prop-share repartitions the slot quotas every 64 cycles
  /// (SharedFabric::kRepartitionInterval).
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;
  /// Per-core machine template. With tracing enabled, core k writes
  /// `trace.path + ".coreK"` under pid k and the fabric writes
  /// `trace.path + ".fabric"` under pid N; collect() merges every part
  /// into `trace.path` as one Chrome trace document (single-core runs
  /// keep the plain single-file behaviour).
  MachineConfig machine;
};

struct MultiCoreResult {
  /// Per-core statistics bundles, index = core id. Each carries its own
  /// RunOutcome (cores finish independently).
  std::vector<SimResult> cores;
  FabricStats fabric;
  std::uint64_t cycles = 0;  ///< lockstep rounds driven
};

class MultiCoreSim {
 public:
  MultiCoreSim(std::vector<CoreSpec> specs, const MultiCoreParams& params);

  /// Runs lockstep rounds until every core stopped (each core's own
  /// Processor::outcome() decides) or the absolute cycle target is
  /// reached (resumable — the service's cancellation windows call this
  /// repeatedly with growing targets). Returns kMaxCycles while cores
  /// remain live, else the worst per-core outcome (fault > stall > halt).
  RunOutcome run(std::uint64_t max_cycles);

  bool done() const;
  std::uint64_t cycles() const { return cycle_; }
  unsigned num_cores() const {
    return static_cast<unsigned>(cores_.size());
  }
  Processor& core(unsigned k) { return *cores_[k]; }
  const Processor& core(unsigned k) const { return *cores_[k]; }
  RunOutcome core_outcome(unsigned k) const { return cores_[k]->outcome(); }
  /// "coreK: " plus the fault_message() of the first core that faulted or
  /// stalled (the access fault, or the stall's machine-state digest);
  /// empty while none has.
  std::string fault_message() const;
  const SharedFabric& fabric() const { return *fabric_; }

  /// Gathers every core's SimResult plus fabric statistics; flushes
  /// samplers and, when tracing, closes and merges the per-core trace
  /// parts. Idempotent trace-wise (the merge happens once).
  MultiCoreResult collect();

 private:
  void merge_traces();

  MultiCoreParams params_;
  std::vector<PolicySpec> policies_;
  std::vector<std::unique_ptr<Processor>> cores_;
  std::vector<Processor*> core_ptrs_;
  std::unique_ptr<SharedFabric> fabric_;
  std::unique_ptr<Tracer> fabric_tracer_;
  unsigned live_ = 0;
  std::uint64_t cycle_ = 0;
  bool traces_merged_ = false;
};

/// Flat metric namespace of a multi-core result: every core's subsystems
/// under "coreK." (core0.sim.ipc, core1.loader.port_denied_cycles, ...)
/// plus the fabric's counters under "fabric.".
MetricRegistry collect_multicore_metrics(const MultiCoreResult& result);

}  // namespace steersim
