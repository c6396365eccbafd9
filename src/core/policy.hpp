// Configuration-management policies.
//
// The paper's configuration manager (selection unit + loader steering) is
// one strategy among several the experiments compare:
//   Steered      — the paper: 4-candidate minimal-error selection
//   StaticFfu    — never configures RFUs (the 5 fixed units only)
//   StaticPreset — one predefined configuration preloaded and frozen
//   Oracle       — per-cycle ideal fabric, rewritten instantly (upper bound)
//   FullReconfig — selection as Steered, but the loader rewrites the whole
//                  fabric at once ([7]-style, no partial reconfiguration)
//   Random       — uniformly random candidate every interval (sanity floor)
#pragma once

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "config/loader.hpp"
#include "config/selection_unit.hpp"
#include "obs/audit.hpp"
#include "obs/trace.hpp"

namespace steersim {

struct SteerContext {
  /// Requirement counts of the queue entries awaiting execution (selection
  /// stages 1-2: per FU type, a 3-bit count saturating at 7).
  FuCounts required{};
  /// Units of each type currently configured (RFU + FFU).
  FuCounts current_total{};
  /// Pre-decoded unit requirements of the trace line about to be fetched
  /// (the [7]-style trace-cache annotation), or nullptr when the next
  /// fetch is not a trace hit or the policy does not read it
  /// (SteeringPolicy::reads_lookahead()). Enables lookahead steering.
  const FuCounts* lookahead = nullptr;
  /// Current simulation cycle (timestamps trace/audit observations).
  std::uint64_t cycle = 0;
};

struct PolicyStats {
  std::array<std::uint64_t, kNumCandidates> selections{};
  std::uint64_t steer_events = 0;

  /// Metric-registry enumeration (docs/OBSERVABILITY.md).
  template <typename V>
  void visit_metrics(V&& visit) const {
    visit("steer_events", static_cast<double>(steer_events));
    for (unsigned c = 0; c < kNumCandidates; ++c) {
      visit("selections." + std::to_string(c),
            static_cast<double>(selections[c]));
    }
  }
};

class SteeringPolicy {
 public:
  virtual ~SteeringPolicy() = default;

  /// Called once per cycle before the loader steps; may call
  /// loader.request() to retarget the fabric.
  virtual void steer(const SteerContext& ctx, ConfigurationLoader& loader) = 0;

  /// Event-driven skip-ahead hook: the processor has proven that the next
  /// `max_cycles` cycles are externally idle (nothing wakes, issues,
  /// completes, retires, dispatches, or fetches, and the loader is
  /// quiescent), and asks the policy to emulate up to that many
  /// back-to-back steer(ctx) calls with an unchanged ctx at once. Returns
  /// how many cycles were emulated — the policy's observable state (stats,
  /// countdowns, hysteresis, RNG, loader requests) must end exactly as if
  /// steer() had run that many times. Return 0 to decline (the processor
  /// falls back to stepping cycle by cycle); a policy whose next decision
  /// would retarget the loader must stop short of it. The default declines
  /// always, which is correct for any policy.
  virtual std::uint64_t idle_advance(std::uint64_t max_cycles,
                                     const SteerContext& ctx,
                                     ConfigurationLoader& loader) {
    (void)max_cycles;
    (void)ctx;
    (void)loader;
    return 0;
  }

  /// True if steer() reads SteerContext::lookahead. The processor probes
  /// the trace cache for it only when this holds.
  virtual bool reads_lookahead() const { return false; }

  const PolicyStats& stats() const { return stats_; }

  /// Attaches the cycle tracer and steering audit log (either may be
  /// nullptr). Observation only — steering decisions are unaffected.
  void attach_observers(Tracer* tracer, SteeringAuditLog* audit) {
    tracer_ = tracer;
    audit_ = audit;
  }

 protected:
  PolicyStats stats_;
  Tracer* tracer_ = nullptr;          ///< optional observer; never owns
  SteeringAuditLog* audit_ = nullptr; ///< optional observer; never owns
};

/// The paper's configuration manager.
///
/// `confirm` is an extension knob (default 1 = the paper's behaviour): a
/// selection other than the current configuration must repeat on `confirm`
/// consecutive steering decisions before the loader is retargeted,
/// damping churn when queue contents fluctuate.
class SteeredPolicy final : public SteeringPolicy {
 public:
  SteeredPolicy(const SteeringSet& set, CemMode cem = CemMode::kShiftApprox,
                TieBreak tie_break = TieBreak::kPaper,
                unsigned interval = 1, unsigned confirm = 1,
                bool lookahead = false);

  void steer(const SteerContext& ctx, ConfigurationLoader& loader) override;
  std::uint64_t idle_advance(std::uint64_t max_cycles,
                             const SteerContext& ctx,
                             ConfigurationLoader& loader) override;
  bool reads_lookahead() const override { return lookahead_; }
  const ConfigSelectionUnit& selection_unit() const { return unit_; }

 private:
  /// Candidate costs for the current loader state, recomputed only when
  /// the allocation or unplaceable set moved (reconfig_cost is pure in
  /// those).
  const std::array<unsigned, kNumCandidates>& candidate_costs(
      const ConfigurationLoader& loader);
  /// `ctx.required`, plus the upcoming trace line's requirements when
  /// lookahead steering is on.
  FuCounts merged_requirements(const SteerContext& ctx) const;
  /// unit_.select_index(required, current_total, cost), memoized on those
  /// exact inputs: about half of sim_phased's decisions repeat the
  /// previous one's.
  unsigned decide(const FuCounts& required, const FuCounts& current_total,
                  const std::array<unsigned, kNumCandidates>& cost);
  /// The full four-stage trace behind `selection` (the errors and costs
  /// an audit record or steer trace event reports), built only when an
  /// observer is attached. Ensures select_counts agrees with the
  /// trace-free decision.
  SelectionTrace observed_selection(
      const FuCounts& required, const FuCounts& current_total,
      const std::array<unsigned, kNumCandidates>& cost,
      unsigned selection) const;
  /// Hands the decision of `cycle` to the audit log (when attached) and,
  /// with `traced`, to the tracer as a steer instant.
  void observe(std::uint64_t cycle, const FuCounts& required,
               const SelectionTrace& trace, unsigned streak,
               AuditIntent intent, bool traced);

  ConfigSelectionUnit unit_;
  std::array<AllocationVector, kNumPresetConfigs> preset_allocs_;
  unsigned interval_;
  unsigned countdown_ = 0;
  unsigned confirm_;
  unsigned pending_selection_ = 0;
  unsigned pending_streak_ = 0;
  bool lookahead_;

  bool have_costs_ = false;
  AllocationVector cost_alloc_;
  SlotMask cost_avoid_;
  std::array<unsigned, kNumCandidates> cost_{};
  /// decide()'s memo: the last inputs and the selection they gave.
  struct Decision {
    FuCounts required{};
    FuCounts current_total{};
    std::array<unsigned, kNumCandidates> cost{};
    unsigned selection = 0;
    bool valid = false;
  };
  Decision decision_;
};

/// Extension (the paper's stated future work): dynamic reconfiguration
/// *without* predefined configurations. Tracks an exponentially smoothed
/// requirement vector and greedily re-packs the fabric (OraclePolicy::pack)
/// through the real loader whenever the smoothed demand drifts from what
/// the current target provides. Unlike the oracle it pays real rewrite
/// latency, so it repacks at a throttled interval.
class GreedyPolicy final : public SteeringPolicy {
 public:
  /// `interval`: cycles between repack decisions; `smoothing` in (0,1]:
  /// EWMA weight of the newest requirement sample.
  explicit GreedyPolicy(const SteeringSet& set, unsigned interval = 32,
                        double smoothing = 0.125);

  void steer(const SteerContext& ctx, ConfigurationLoader& loader) override;
  std::uint64_t idle_advance(std::uint64_t max_cycles,
                             const SteerContext& ctx,
                             ConfigurationLoader& loader) override;

 private:
  SteeringSet set_;
  unsigned interval_;
  unsigned countdown_ = 0;
  double smoothing_;
  std::array<double, kNumFuTypes> smoothed_{};
};

/// No steering at all (covers both FFU-only and frozen-preset machines —
/// the difference is the initial allocation the processor is built with).
class StaticPolicy final : public SteeringPolicy {
 public:
  void steer(const SteerContext&, ConfigurationLoader&) override {}
  std::uint64_t idle_advance(std::uint64_t max_cycles, const SteerContext&,
                             ConfigurationLoader&) override {
    return max_cycles;  // steer() is a no-op, so any window skips freely
  }
};

/// Ideal upper bound: each cycle, packs the fabric greedily to the current
/// requirement vector. Pair with LoaderParams::instant.
class OraclePolicy final : public SteeringPolicy {
 public:
  explicit OraclePolicy(const SteeringSet& set);
  void steer(const SteerContext& ctx, ConfigurationLoader& loader) override;
  std::uint64_t idle_advance(std::uint64_t max_cycles,
                             const SteerContext& ctx,
                             ConfigurationLoader& loader) override;

  /// Greedy fabric packing for a requirement vector: repeatedly gives a
  /// slot region to the type with the largest unmet demand per configured
  /// unit. Exposed for tests.
  static AllocationVector pack(const FuCounts& required, const FuCounts& ffu,
                               unsigned num_slots);

 private:
  /// pack() of `required`, recomputed only when the vector changes.
  const AllocationVector& packed(const FuCounts& required);

  SteeringSet set_;
  FuCounts required_cache_{};
  AllocationVector packed_cache_;
};

/// Uniform-random candidate every `interval` cycles.
class RandomPolicy final : public SteeringPolicy {
 public:
  RandomPolicy(const SteeringSet& set, std::uint64_t seed,
               unsigned interval = 16);
  void steer(const SteerContext& ctx, ConfigurationLoader& loader) override;
  /// Skips only the countdown cycles between decisions; decisions draw
  /// from the RNG, so they always run live.
  std::uint64_t idle_advance(std::uint64_t max_cycles, const SteerContext&,
                             ConfigurationLoader&) override;

 private:
  std::array<AllocationVector, kNumPresetConfigs> preset_allocs_;
  Xoshiro256 rng_;
  unsigned interval_;
  unsigned countdown_ = 0;
};

}  // namespace steersim
