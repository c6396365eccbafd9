// The configuration selection unit (paper Sec. 3.1, Figs. 2 and 3).
//
// Four combinational stages, modelled bit-faithfully:
//   1. unit decoders        — per queue entry, a one-hot of the FU type
//                             required by the instruction's opcode;
//   2. requirements encoder — per type, a 3-bit count of required units
//                             (queue holds at most 7 instructions, so the
//                             counts and their sum fit in 3 bits);
//   3. CEM generators       — per candidate configuration, an error metric
//                             approximating Σ_t required(t)/available(t)
//                             with a barrel shifter whose shift amount is
//                             derived from the two high-order bits of the
//                             3-bit available count (Fig. 3c);
//   4. minimal error select — the 2-bit index of the winning configuration,
//                             ties favouring the current configuration and
//                             then the candidate needing the least
//                             reconfiguration.
#pragma once

#include <algorithm>
#include <array>
#include <span>

#include "common/bitset.hpp"
#include "config/steering_set.hpp"
#include "isa/opcode.hpp"

namespace steersim {

/// Instruction queue capacity assumed by the paper's 3-bit arithmetic.
inline constexpr unsigned kQueueCapacity = 7;

/// One-hot FU-type vector produced by a unit decoder (stage 1).
using UnitOneHot = SmallBitset<kNumFuTypes>;

UnitOneHot unit_decode(Opcode op);

/// Stage 2: per-type 3-bit requirement counts, saturating at 7.
FuCounts encode_requirements(std::span<const Opcode> queue_ops);

/// Fig. 3c: shift amount (divisor exponent) from a 3-bit available count.
/// High-order bit set -> shift 2 (divide by 4); next bit -> shift 1; else 0.
constexpr unsigned cem_shift_amount(std::uint8_t avail) {
  if ((avail & 0b100) != 0) {
    return 2;
  }
  if ((avail & 0b010) != 0) {
    return 1;
  }
  return 0;
}

/// Fig. 3b: the shift-approximated error metric for one candidate.
/// Both inputs are 3-bit quantities per type; the five shifted terms are
/// summed by the 3-bit adder tree (total <= 7 by the queue bound).
inline unsigned cem_error_approx(const FuCounts& required,
                                 const FuCounts& available) {
  unsigned sum = 0;
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    const auto req = static_cast<unsigned>(required[t] & 0b111);
    const auto avail = static_cast<std::uint8_t>(
        std::min<unsigned>(available[t], 7));  // 3-bit quantity input
    sum += req >> cem_shift_amount(avail);
  }
  // The paper sizes the adder tree at 3 bits because Σ_t required(t) <= 7
  // (7-entry queue); the shifted terms can only be smaller.
  return sum & 0b111;
}

/// Fig. 3a evaluated exactly (the "more accurate divider" the paper notes
/// could be used at extra cost). Types with zero availability contribute
/// required(t) * kCemUnavailablePenalty.
double cem_error_exact(const FuCounts& required, const FuCounts& available);

inline constexpr double kCemUnavailablePenalty = 8.0;

enum class CemMode : std::uint8_t { kShiftApprox, kExactDivide };

/// Tie-break rule used by the minimal-error selector (E8 ablation).
enum class TieBreak : std::uint8_t {
  /// Paper rule: favour the current configuration, then the candidate
  /// needing the least reconfiguration.
  kPaper,
  /// Least reconfiguration only (current configuration not privileged).
  kLeastReconfig,
  /// Naive: first (lowest-index) candidate wins ties.
  kLowestIndex,
};

struct SelectionTrace {
  /// Stage 1 outputs, one per queue entry examined.
  std::array<UnitOneHot, kQueueCapacity> one_hots{};
  unsigned num_entries = 0;
  /// Stage 2 output.
  FuCounts required{};
  /// Stage 3 outputs, candidate order: [0]=current, [1..3]=presets.
  std::array<double, kNumCandidates> errors{};
  /// Stage 4 tie-break input, recorded for the steering audit log.
  std::array<unsigned, kNumCandidates> costs{};
  /// Stage 4 output (2-bit selection).
  unsigned selection = 0;
  /// True when a losing candidate matched the winning error exactly — the
  /// tie-break rule, not the CEM, decided this selection.
  bool tie_broken = false;
};

class ConfigSelectionUnit {
 public:
  explicit ConfigSelectionUnit(SteeringSet set,
                               CemMode mode = CemMode::kShiftApprox,
                               TieBreak tie_break = TieBreak::kPaper);

  /// Runs the four stages.
  ///   `queue_ops`        — opcodes of queue entries awaiting execution;
  ///   `current_total`    — units of each type currently configured
  ///                        (RFUs + FFUs), from the configuration loader;
  ///   `reconfig_cost`    — per candidate, slots that would need rewriting
  ///                        (0 for the current configuration).
  SelectionTrace select(std::span<const Opcode> queue_ops,
                        const FuCounts& current_total,
                        const std::array<unsigned, kNumCandidates>&
                            reconfig_cost) const;

  /// Stages 3-4 only, with the requirement vector supplied directly
  /// (lookahead steering merges queue and trace-cache requirements before
  /// entering the CEM stage).
  SelectionTrace select_counts(const FuCounts& required,
                               const FuCounts& current_total,
                               const std::array<unsigned, kNumCandidates>&
                                   reconfig_cost) const;

  /// Stage 4's 2-bit output for the same inputs, without building a
  /// SelectionTrace: always equal to select_counts(...).selection. This is
  /// the steering policy's per-cycle decision. In shift mode the errors are
  /// integer sums of shifted counts, with the presets' shift amounts fixed
  /// at construction and Config 0's derived from `current_total`; exact
  /// mode evaluates cem_error_exact as select_counts does.
  unsigned select_index(const FuCounts& required,
                        const FuCounts& current_total,
                        const std::array<unsigned, kNumCandidates>&
                            reconfig_cost) const;

  const SteeringSet& steering_set() const { return set_; }
  CemMode mode() const { return mode_; }
  TieBreak tie_break() const { return tie_break_; }

 private:
  /// Stage 4: the minimal-error candidate under tie_break_, for errors of
  /// any ordered type (select_counts passes doubles, select_index passes
  /// the shift mode's integers).
  template <typename Error>
  unsigned min_error_select(
      const std::array<Error, kNumCandidates>& errors,
      const std::array<unsigned, kNumCandidates>& reconfig_cost) const;

  SteeringSet set_;
  CemMode mode_;
  TieBreak tie_break_;
  /// set_.preset_total(p) for every preset: the CEM inputs of candidates
  /// 1..3, fixed for the unit's lifetime.
  std::array<FuCounts, kNumPresetConfigs> preset_totals_{};
  /// cem_shift_amount of each preset total (Fig. 3c), per type: the
  /// presets' barrel-shifter settings, fixed like their totals.
  std::array<std::array<std::uint8_t, kNumFuTypes>, kNumPresetConfigs>
      preset_shifts_{};
};

}  // namespace steersim
