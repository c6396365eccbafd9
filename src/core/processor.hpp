// The partially run-time reconfigurable superscalar processor (Fig. 1).
//
// One Processor instance owns every module the figure names: instruction
// and data memories, trace cache, fetch unit, decoder, register update
// unit, register files, the wake-up-array scheduler, the fixed and
// reconfigurable functional units, and the configuration manager
// (selection unit + loader) behind a pluggable steering policy.
//
// Cycle model (one step() call):
//   1. retire      — in-order commit from the RUU head (stores reach
//                    memory, results reach the register file, the trace
//                    cache observes the committed path)
//   2. complete    — functional units finishing this cycle mark their RUU
//                    entries done; control instructions resolve and
//                    mispredictions squash younger work
//   3. issue       — Eq. 1 availability -> wake-up requests -> memory-
//                    ordering mask -> oldest-first select -> operand read,
//                    execute, unit assignment
//   4. steer       — the policy inspects the ready queue entries and
//                    retargets the configuration loader, which advances
//                    in-flight slot rewrites
//   5. dispatch    — decoded instructions enter the RUU + wake-up array
//                    with their dependency columns
//   6. fetch       — the fetch unit delivers the next predicted group
//                    (trace cache first)
//   7. tick        — wake-up countdown timers advance
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/execution_engine.hpp"
#include "core/policy.hpp"
#include "core/ruu.hpp"
#include "fault/injector.hpp"
#include "recovery/recovery.hpp"
#include "frontend/fetch_unit.hpp"
#include "memory/cache.hpp"
#include "memory/data_memory.hpp"
#include "memory/register_file.hpp"
#include "obs/sampler.hpp"
#include "sched/select_logic.hpp"

namespace steersim {

struct MachineConfig {
  unsigned fetch_width = 4;
  unsigned queue_entries = 7;  ///< wake-up array rows (paper: 7)
  unsigned ruu_entries = 32;
  unsigned retire_width = 4;
  /// Issue-port bound per cycle; 0 = limited only by idle units (the
  /// paper's model, where unit availability is the sole issue constraint).
  unsigned issue_width = 0;
  /// Ablation: fully pipelined functional units (initiation interval 1)
  /// instead of the paper's occupy-for-full-latency model.
  bool pipelined_units = false;
  PredictorKind predictor = PredictorKind::kTwoBit;
  bool use_trace_cache = true;
  unsigned trace_cache_lines = 64;
  unsigned trace_length = 16;
  LoaderParams loader;
  SteeringSet steering;
  std::size_t data_memory_bytes = 1 << 20;
  /// Optional data-cache timing model: when enabled, load/store occupancy
  /// latency is hit/miss-dependent instead of the fixed LSU latency.
  bool use_dcache = false;
  CacheParams dcache;
  /// Configuration-memory fault injection (docs/FAULTS.md); off by default.
  FaultParams fault;
  /// Checkpoint/rollback recovery (docs/FAULTS.md); off by default.
  RecoveryParams recovery;
  /// Cycle-event tracing (docs/OBSERVABILITY.md); off by default.
  TraceConfig trace;
  /// Steering audit log (docs/OBSERVABILITY.md); off by default.
  AuditConfig audit;
  /// Interval telemetry sampling (docs/OBSERVABILITY.md); off by default.
  SamplerConfig sample;

  MachineConfig() : steering(default_steering_set()) {
    loader.num_slots = steering.num_slots;
  }
};

enum class RunOutcome : std::uint8_t {
  kHalted,     ///< HALT retired
  kMaxCycles,  ///< cycle budget exhausted
  kStalled,    ///< no retirement progress for a long window (machine bug)
  kFault,      ///< committed memory access out of range
};

struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t issued = 0;
  std::uint64_t squashed = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  /// Entry-cycles where an instruction's dependences were satisfied but no
  /// unit of its type was available (the mismatch steering attacks).
  std::uint64_t resource_starved = 0;
  std::uint64_t queue_occupancy_sum = 0;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(retired) /
                             static_cast<double>(cycles);
  }
  double mispredict_rate() const {
    return branches == 0 ? 0.0
                         : static_cast<double>(mispredicts) /
                               static_cast<double>(branches);
  }

  double avg_queue_occupancy() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(queue_occupancy_sum) /
                             static_cast<double>(cycles);
  }

  /// Metric-registry enumeration (docs/OBSERVABILITY.md). The third
  /// visitor argument marks derived metrics (ratios), which interval
  /// consumers must not difference across windows.
  template <typename V>
  void visit_metrics(V&& visit) const {
    visit("cycles", static_cast<double>(cycles));
    visit("retired", static_cast<double>(retired));
    visit("dispatched", static_cast<double>(dispatched));
    visit("issued", static_cast<double>(issued));
    visit("squashed", static_cast<double>(squashed));
    visit("branches", static_cast<double>(branches));
    visit("mispredicts", static_cast<double>(mispredicts));
    visit("resource_starved", static_cast<double>(resource_starved));
    visit("queue_occupancy_sum", static_cast<double>(queue_occupancy_sum));
    visit("ipc", ipc(), true);
    visit("mispredict_rate", mispredict_rate(), true);
    visit("avg_queue_occupancy", avg_queue_occupancy(), true);
  }
};

class Processor {
 public:
  /// `initial_rfu` is the fabric's power-on allocation (empty for a
  /// machine that steers up from scratch; a preset for frozen baselines).
  Processor(const Program& program, const MachineConfig& config,
            std::unique_ptr<SteeringPolicy> policy,
            AllocationVector initial_rfu);

  /// Convenience: empty initial fabric.
  Processor(const Program& program, const MachineConfig& config,
            std::unique_ptr<SteeringPolicy> policy);

  /// Advances one clock cycle.
  void step();

  /// Runs until the machine stops (see outcome()) or the absolute cycle
  /// target `max_cycles` is reached. Resumable: the stop state lives in
  /// the Processor, so any split of a run into windows stops where one
  /// call would, with the same outcome and fault_message().
  RunOutcome run(std::uint64_t max_cycles = 50'000'000);

  /// The stop contract, for run() and every external stepping loop:
  /// kHalted, kFault or kStalled (kStallLimit cycles without retirement)
  /// once the machine stopped (stopped() is true and callers step it no
  /// further), kMaxCycles while it is live.
  RunOutcome outcome() const;
  bool stopped() const { return halted_ || faulted_ || stalled_; }
  bool halted() const { return halted_; }
  /// True once a committed memory access faulted.
  bool faulted() const { return faulted_; }
  const SimStats& stats() const { return stats_; }
  const RegisterFile& registers() const { return regs_; }
  const DataMemory& memory() const { return mem_; }
  const ConfigurationLoader& loader() const { return loader_; }
  /// Mutable loader access for the multi-core fabric (port arbiter wiring
  /// and quota repartitions); single-core code never needs it.
  ConfigurationLoader& loader() { return loader_; }
  const ExecutionEngine& engine() const { return engine_; }
  const WakeupArray& wakeup() const { return wakeup_; }
  const SteeringPolicy& policy() const { return *policy_; }
  const FetchUnit& fetch_unit() const { return fetch_; }
  const TraceCache* trace_cache() const { return trace_cache_.get(); }
  const DataCache* dcache() const { return dcache_.get(); }
  /// Why the machine faulted or stalled: the faulting access, or the
  /// one-line machine-state digest of a stall. Empty otherwise.
  const std::string& fault_message() const { return fault_message_; }
  const MachineConfig& config() const { return config_; }
  /// Injection-side fault statistics (detection/repair live in
  /// `loader().stats()`).
  const FaultStats& fault_stats() const { return fault_stats_; }
  /// Checkpoint/rollback manager; null when recovery is disabled. The
  /// non-const overload lets tests install a rollback hook.
  const RecoveryManager* recovery() const { return recovery_.get(); }
  RecoveryManager* recovery() { return recovery_.get(); }
  /// Cycle tracer; null unless MachineConfig::trace.enabled.
  const Tracer* tracer() const { return tracer_.get(); }
  Tracer* tracer() { return tracer_.get(); }
  /// Steering audit log; null unless MachineConfig::audit.enabled.
  const SteeringAuditLog* audit_log() const { return audit_.get(); }
  /// Interval sampler; null unless MachineConfig::sample.period > 0.
  const IntervalSampler* sampler() const { return sampler_.get(); }

  /// Live metric snapshot of the running machine: every stats struct
  /// enumerated under the same subsystem prefixes collect_metrics() uses
  /// for a finished SimResult. Observation-only.
  MetricRegistry live_metrics() const;

  /// Closes the sampler's final partial window so per-counter window
  /// deltas sum to the end-of-run totals. Called by run() (and again,
  /// harmlessly, by simulate()); manual step() loops call it themselves.
  void flush_sampler();

  /// Test/debug hook invoked for every committed instruction, in order.
  void set_retire_hook(std::function<void(const RuuEntry&)> hook) {
    retire_hook_ = std::move(hook);
  }

 private:
  /// Throws std::invalid_argument on an inconsistent configuration, or on
  /// a program whose data image does not fit in data memory; called
  /// before any member constructs so no module ever sees bad parameters.
  static const MachineConfig& validated(const MachineConfig& config,
                                        const Program& program);

  /// Closes `cycles` elapsed cycles (one stepped, or a skip window):
  /// advances the clock, the no-retirement window and the stall latch,
  /// then the sampler.
  void end_cycles(std::uint64_t cycles);
  /// One-line machine-state digest of a stall, so a stall report is
  /// actionable without rerunning under a debugger.
  std::string stall_digest() const;

  /// End-of-cycle sampler hook: one pointer compare when sampling is off.
  void maybe_sample();

  void stage_retire();
  void stage_faults();
  void stage_complete();
  void stage_issue();
  void stage_steer();
  void stage_dispatch();
  void stage_fetch();

  /// What the policy sees this cycle, for steer() and idle_advance() alike.
  SteerContext steer_context() const;
  /// Event-driven skip-ahead (run() fast path; step() stays one cycle):
  /// when the machine is provably idle — front end stalled, nothing can
  /// retire, issue, or complete, loader quiescent — advances up to
  /// `budget` cycles in one shot with bit-identical statistics. Returns
  /// the cycles advanced; 0 means "step live".
  std::uint64_t try_skip(std::uint64_t budget);

  /// PC of the oldest un-retired instruction: the point a checkpoint
  /// resumes from. Valid any time retire has drained this cycle's commits.
  std::uint32_t next_architectural_pc() const;
  /// Snapshots architectural + loader state into the recovery manager.
  void take_checkpoint();
  /// Restores the last checkpoint: flushes every in-flight instruction,
  /// rewinds registers and memory, restarts fetch at the resume PC, and
  /// re-requests the checkpoint's steering target (re-placed around the
  /// *current* fences — fences are physical and never roll back).
  void perform_rollback();

  /// Reads one operand at issue time: forwarded from the producer's RUU
  /// entry if still in flight, otherwise from the register file.
  std::int64_t read_int_operand(std::uint64_t producer, std::uint8_t reg)
      const;
  double read_fp_operand(std::uint64_t producer, std::uint8_t reg) const;

  /// Memory-ordering gate for a load at RUU position `pos`: returns
  /// nullopt if the load must wait; otherwise the id of the older store to
  /// forward from (kNoProducer when memory may be read directly).
  std::optional<std::uint64_t> load_clear_to_issue(unsigned pos) const;

  bool valid_access(std::uint64_t addr, unsigned size) const;
  void fault(std::string message);

  MachineConfig config_;

  RegisterFile regs_;
  DataMemory mem_;
  std::unique_ptr<DataCache> dcache_;
  InstructionMemory imem_;
  std::unique_ptr<BranchPredictor> predictor_;
  std::unique_ptr<TraceCache> trace_cache_;
  FetchUnit fetch_;
  FixedVector<FetchedInst, 2 * kMaxFetchWidth> decode_buffer_;
  WakeupArray wakeup_;
  RegisterUpdateUnit ruu_;
  ExecutionEngine engine_;
  ConfigurationLoader loader_;
  std::unique_ptr<SteeringPolicy> policy_;
  /// A trace cache exists and the policy reads SteerContext::lookahead.
  bool probe_lookahead_ = false;
  FaultInjector injector_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<SteeringAuditLog> audit_;
  std::unique_ptr<IntervalSampler> sampler_;

  std::function<void(const RuuEntry&)> retire_hook_;

  /// Skip-ahead is structurally allowed: no recovery, no fault injection,
  /// no pipelined units (observers do not veto it). Fixed at construction.
  bool skip_eligible_ = false;

  SimStats stats_;
  FaultStats fault_stats_;
  bool halted_ = false;
  bool faulted_ = false;
  /// No-retirement window after which the machine counts as stalled. The
  /// paper's machine keeps one fixed unit of every type, so every
  /// instruction eventually executes: a window this long is a program
  /// (e.g. no reachable HALT) or simulator bug, never the fabric's doing.
  static constexpr std::uint64_t kStallLimit = 100'000;
  /// Latched once `stall_window_` reaches kStallLimit.
  bool stalled_ = false;
  /// Retirement count when the current no-retirement window opened, and
  /// the window's length in cycles.
  std::uint64_t last_retired_ = 0;
  std::uint64_t stall_window_ = 0;
  /// A rollback trigger fired earlier this cycle; applied after steer.
  bool rollback_pending_ = false;
  /// Loader ecc_uncorrectable count already inspected for triggers.
  std::uint64_t ecc_uncorrectable_seen_ = 0;
  std::string fault_message_;
};

}  // namespace steersim
