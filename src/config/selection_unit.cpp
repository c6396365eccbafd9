#include "config/selection_unit.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace steersim {

UnitOneHot unit_decode(Opcode op) {
  UnitOneHot one_hot;
  one_hot.set(fu_index(fu_type_of(op)));
  return one_hot;
}

FuCounts encode_requirements(std::span<const Opcode> queue_ops) {
  FuCounts counts{};
  for (const Opcode op : queue_ops) {
    auto& c = counts[fu_index(fu_type_of(op))];
    if (c < 7) {  // 3-bit saturating count
      ++c;
    }
  }
  return counts;
}

double cem_error_exact(const FuCounts& required, const FuCounts& available) {
  double sum = 0.0;
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    if (available[t] == 0) {
      sum += static_cast<double>(required[t]) * kCemUnavailablePenalty;
    } else {
      sum += static_cast<double>(required[t]) /
             static_cast<double>(available[t]);
    }
  }
  return sum;
}

ConfigSelectionUnit::ConfigSelectionUnit(SteeringSet set, CemMode mode,
                                         TieBreak tie_break)
    : set_(std::move(set)), mode_(mode), tie_break_(tie_break) {
  STEERSIM_EXPECTS(set_.feasible());
  for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
    preset_totals_[p] = set_.preset_total(p);
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      preset_shifts_[p][t] = static_cast<std::uint8_t>(cem_shift_amount(
          static_cast<std::uint8_t>(
              std::min<unsigned>(preset_totals_[p][t], 7))));
    }
  }
}

template <typename Error>
unsigned ConfigSelectionUnit::min_error_select(
    const std::array<Error, kNumCandidates>& errors,
    const std::array<unsigned, kNumCandidates>& reconfig_cost) const {
  unsigned best = 0;
  for (unsigned c = 1; c < kNumCandidates; ++c) {
    const bool better = errors[c] < errors[best];
    const bool tie = errors[c] == errors[best];
    bool wins_tie = false;
    switch (tie_break_) {
      case TieBreak::kPaper:
        // The current configuration (index 0) wins any tie it is part of;
        // among tied presets the least reconfiguration wins.
        wins_tie = best != 0 && reconfig_cost[c] < reconfig_cost[best];
        break;
      case TieBreak::kLeastReconfig:
        wins_tie = reconfig_cost[c] < reconfig_cost[best];
        break;
      case TieBreak::kLowestIndex:
        wins_tie = false;
        break;
    }
    if (better || (tie && wins_tie)) {
      best = c;
    }
  }
  return best;
}

SelectionTrace ConfigSelectionUnit::select(
    std::span<const Opcode> queue_ops, const FuCounts& current_total,
    const std::array<unsigned, kNumCandidates>& reconfig_cost) const {
  SelectionTrace trace;

  // Stage 1: unit decoders (at most the queue capacity is wired up).
  trace.num_entries = static_cast<unsigned>(
      std::min<std::size_t>(queue_ops.size(), kQueueCapacity));
  for (unsigned i = 0; i < trace.num_entries; ++i) {
    trace.one_hots[i] = unit_decode(queue_ops[i]);
  }

  // Stage 2: resource requirements encoder (3-bit saturating counts; for
  // machines with queues deeper than 7 the counts saturate exactly as the
  // hardware encoders would).
  SelectionTrace tail =
      select_counts(encode_requirements(queue_ops), current_total,
                    reconfig_cost);
  tail.num_entries = trace.num_entries;
  tail.one_hots = trace.one_hots;
  return tail;
}

SelectionTrace ConfigSelectionUnit::select_counts(
    const FuCounts& required, const FuCounts& current_total,
    const std::array<unsigned, kNumCandidates>& reconfig_cost) const {
  SelectionTrace trace;
  trace.required = required;

  // Stage 3: one CEM generator per candidate. Candidate 0 is the current
  // configuration; candidates 1..3 are the predefined steering configs,
  // evaluated with their full complement (preset + FFUs).
  for (unsigned c = 0; c < kNumCandidates; ++c) {
    const FuCounts& avail = c == 0 ? current_total : preset_totals_[c - 1];
    trace.errors[c] =
        mode_ == CemMode::kShiftApprox
            ? static_cast<double>(cem_error_approx(trace.required, avail))
            : cem_error_exact(trace.required, avail);
  }

  // Stage 4: minimal error selection.
  trace.costs = reconfig_cost;
  const unsigned best = min_error_select(trace.errors, reconfig_cost);
  trace.selection = best;
  for (unsigned c = 0; c < kNumCandidates; ++c) {
    trace.tie_broken =
        trace.tie_broken ||
        (c != best && trace.errors[c] == trace.errors[best]);
  }
  return trace;
}

unsigned ConfigSelectionUnit::select_index(
    const FuCounts& required, const FuCounts& current_total,
    const std::array<unsigned, kNumCandidates>& reconfig_cost) const {
  if (mode_ == CemMode::kExactDivide) {
    std::array<double, kNumCandidates> errors{};
    errors[0] = cem_error_exact(required, current_total);
    for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
      errors[p + 1] = cem_error_exact(required, preset_totals_[p]);
    }
    return min_error_select(errors, reconfig_cost);
  }
  // Shift mode: cem_error_approx with the presets' shifts precomputed.
  std::array<unsigned, kNumCandidates> errors{};
  errors[0] = cem_error_approx(required, current_total);
  for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
    unsigned sum = 0;
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      sum += static_cast<unsigned>(required[t] & 0b111) >>
             preset_shifts_[p][t];
    }
    errors[p + 1] = sum & 0b111;
  }
  return min_error_select(errors, reconfig_cost);
}

}  // namespace steersim
