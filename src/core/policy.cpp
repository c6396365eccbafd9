#include "core/policy.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace steersim {

SteeredPolicy::SteeredPolicy(const SteeringSet& set, CemMode cem,
                             TieBreak tie_break, unsigned interval,
                             unsigned confirm, bool lookahead)
    : unit_(set, cem, tie_break),
      preset_allocs_{set.preset_allocation(0), set.preset_allocation(1),
                     set.preset_allocation(2)},
      interval_(interval), confirm_(confirm), lookahead_(lookahead) {
  STEERSIM_EXPECTS(interval >= 1);
  STEERSIM_EXPECTS(confirm >= 1);
}

const std::array<unsigned, kNumCandidates>& SteeredPolicy::candidate_costs(
    const ConfigurationLoader& loader) {
  // reconfig_cost is a pure function of the loader's allocation and its
  // unplaceable set (fenced plus outside-quota slots); both are stable
  // between reconfigurations and quota repartitions.
  if (!have_costs_ || loader.allocation() != cost_alloc_ ||
      loader.unplaceable() != cost_avoid_) {
    cost_alloc_ = loader.allocation();
    cost_avoid_ = loader.unplaceable();
    cost_[0] = 0;  // staying on the current configuration rewrites nothing
    for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
      cost_[p + 1] = loader.reconfig_cost(preset_allocs_[p]);
    }
    have_costs_ = true;
  }
  return cost_;
}

FuCounts SteeredPolicy::merged_requirements(const SteerContext& ctx) const {
  FuCounts required = ctx.required;
  if (lookahead_ && ctx.lookahead != nullptr) {
    // Merge the pre-decoded requirements of the upcoming trace (3-bit
    // saturating addition, as the hardware encoders would).
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      required[t] = static_cast<std::uint8_t>(
          std::min<unsigned>(7, required[t] + (*ctx.lookahead)[t]));
    }
  }
  return required;
}

unsigned SteeredPolicy::decide(
    const FuCounts& required, const FuCounts& current_total,
    const std::array<unsigned, kNumCandidates>& cost) {
  if (!decision_.valid || required != decision_.required ||
      current_total != decision_.current_total || cost != decision_.cost) {
    decision_ = Decision{required, current_total, cost,
                         unit_.select_index(required, current_total, cost),
                         true};
  }
  return decision_.selection;
}

SelectionTrace SteeredPolicy::observed_selection(
    const FuCounts& required, const FuCounts& current_total,
    const std::array<unsigned, kNumCandidates>& cost,
    unsigned selection) const {
  SelectionTrace trace = unit_.select_counts(required, current_total, cost);
  STEERSIM_ENSURES(trace.selection == selection);
  return trace;
}

void SteeredPolicy::steer(const SteerContext& ctx,
                          ConfigurationLoader& loader) {
  if (countdown_ > 0) {
    --countdown_;
    return;
  }
  countdown_ = interval_ - 1;

  const std::array<unsigned, kNumCandidates>& cost = candidate_costs(loader);
  const FuCounts required = merged_requirements(ctx);
  const unsigned selection = decide(required, ctx.current_total, cost);
  ++stats_.steer_events;
  ++stats_.selections[selection];

  // Hysteresis extension: a non-current selection only takes effect after
  // `confirm_` consecutive identical decisions.
  if (selection == pending_selection_) {
    ++pending_streak_;
  } else {
    pending_selection_ = selection;
    pending_streak_ = 1;
  }
  AuditIntent intent = AuditIntent::kHold;
  if (selection != 0) {
    if (pending_streak_ >= confirm_) {
      intent = AuditIntent::kRetarget;
      loader.request(preset_allocs_[selection - 1]);
    } else {
      intent = AuditIntent::kAwaitConfirm;
    }
  } else {
    // Selecting the current configuration freezes the target where the
    // fabric already is, so no further rewrites begin.
    loader.request(loader.allocation());
  }

  if (audit_ == nullptr && tracer_ == nullptr) {
    return;
  }
  observe(ctx.cycle, required,
          observed_selection(required, ctx.current_total, cost, selection),
          pending_streak_, intent, tracer_ != nullptr);
}

void SteeredPolicy::observe(std::uint64_t cycle, const FuCounts& required,
                            const SelectionTrace& trace, unsigned streak,
                            AuditIntent intent, bool traced) {
  if (audit_ != nullptr) {
    AuditRecord rec;
    rec.cycle = cycle;
    rec.num_types = kNumFuTypes;
    rec.num_candidates = kNumCandidates;
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      rec.required[t] = required[t];
    }
    for (unsigned c = 0; c < kNumCandidates; ++c) {
      rec.errors[c] = trace.errors[c];
      rec.costs[c] = trace.costs[c];
    }
    rec.selection = trace.selection;
    rec.tie_broken = trace.tie_broken;
    rec.streak = streak;
    rec.confirm = confirm_;
    rec.intent = intent;
    audit_->record(rec);
  }
  if (traced) {
    tracer_->instant_steer(cycle, trace.selection,
                           trace.errors[trace.selection],
                           trace.costs[trace.selection], streak,
                           audit_intent_name(intent));
  }
}

std::uint64_t SteeredPolicy::idle_advance(std::uint64_t max_cycles,
                                          const SteerContext& ctx,
                                          ConfigurationLoader& loader) {
  if (max_cycles == 0) {
    return 0;
  }
  // Countdown cycles are pure decrements.
  if (countdown_ >= max_cycles) {
    countdown_ -= static_cast<unsigned>(max_cycles);
    return max_cycles;
  }
  // A decision falls inside the window. Evaluate it: the caller guarantees
  // every input (ready set, unit totals, allocation) is constant across
  // the window, so all decisions in it are identical.
  const std::array<unsigned, kNumCandidates>& cost = candidate_costs(loader);
  const FuCounts required = merged_requirements(ctx);
  const unsigned selection = decide(required, ctx.current_total, cost);
  if (selection != 0 || loader.requested() != loader.allocation()) {
    // The decision would (or could, via the freeze-to-current request)
    // retarget the loader: stop right before the decision cycle.
    const std::uint64_t skipped = countdown_;
    countdown_ = 0;
    return skipped;
  }
  // Every decision in the window selects the current configuration and
  // its freeze request is a no-op. Emulate d back-to-back decisions.
  const std::uint64_t k = max_cycles;
  const std::uint64_t first = countdown_;  // cycles before the 1st decision
  const std::uint64_t d = 1 + (k - first - 1) / interval_;
  countdown_ =
      static_cast<unsigned>(interval_ - 1 - ((k - first - 1) % interval_));
  stats_.steer_events += d;
  stats_.selections[0] += d;
  const bool traced =
      tracer_ != nullptr &&
      tracer_->wants_span(trace_cat::kSteer, ctx.cycle + first, k - first);
  if (audit_ != nullptr || traced) {
    // Replay the per-decision audit records and trace instants the live
    // loop would have emitted, at the exact decision cycles with the
    // exact streak values, so an audited or traced skipped run reads
    // identically to a stepped one.
    const SelectionTrace trace =
        observed_selection(required, ctx.current_total, cost, selection);
    const unsigned streak_base =
        pending_selection_ == 0 ? pending_streak_ : 0;
    for (std::uint64_t i = 0; i < d; ++i) {
      observe(ctx.cycle + first + i * interval_, required, trace,
              streak_base + static_cast<unsigned>(i) + 1, AuditIntent::kHold,
              traced);
    }
  }
  if (pending_selection_ == 0) {
    pending_streak_ += static_cast<unsigned>(d);
  } else {
    pending_selection_ = 0;
    pending_streak_ = static_cast<unsigned>(d);
  }
  return k;
}

GreedyPolicy::GreedyPolicy(const SteeringSet& set, unsigned interval,
                           double smoothing)
    : set_(set), interval_(interval), smoothing_(smoothing) {
  STEERSIM_EXPECTS(interval >= 1);
  STEERSIM_EXPECTS(smoothing > 0.0 && smoothing <= 1.0);
}

void GreedyPolicy::steer(const SteerContext& ctx,
                         ConfigurationLoader& loader) {
  // Sample every cycle so the EWMA sees the demand between decisions.
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    smoothed_[t] = (1.0 - smoothing_) * smoothed_[t] +
                   smoothing_ * static_cast<double>(ctx.required[t]);
  }
  if (countdown_ > 0) {
    --countdown_;
    return;
  }
  countdown_ = interval_ - 1;
  ++stats_.steer_events;

  FuCounts demand{};
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    demand[t] =
        static_cast<std::uint8_t>(std::min(7.0, smoothed_[t] + 0.5));
  }
  const AllocationVector packed =
      OraclePolicy::pack(demand, set_.ffu, set_.num_slots);
  // Only retarget when the pack demands rewrites; an equal-provision
  // repacking (same counts, different slots) is pure churn.
  if (packed.counts() != loader.target().counts()) {
    loader.request(packed);
  }
}

std::uint64_t GreedyPolicy::idle_advance(std::uint64_t max_cycles,
                                         const SteerContext& ctx,
                                         ConfigurationLoader& loader) {
  (void)loader;
  if (countdown_ == 0) {
    return 0;  // a repack decision is due this cycle: run it live
  }
  // Countdown cycles only fold the (constant) sample into the EWMA. Iterate
  // rather than closing the form so the floating-point rounding sequence is
  // bit-identical to k live steer() calls.
  const std::uint64_t k = std::min<std::uint64_t>(max_cycles, countdown_);
  for (std::uint64_t i = 0; i < k; ++i) {
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      smoothed_[t] = (1.0 - smoothing_) * smoothed_[t] +
                     smoothing_ * static_cast<double>(ctx.required[t]);
    }
  }
  countdown_ -= static_cast<unsigned>(k);
  return k;
}

OraclePolicy::OraclePolicy(const SteeringSet& set)
    : set_(set), packed_cache_(pack(FuCounts{}, set.ffu, set.num_slots)) {}

AllocationVector OraclePolicy::pack(const FuCounts& required,
                                    const FuCounts& ffu,
                                    unsigned num_slots) {
  AllocationVector alloc(num_slots);
  FuCounts provided = ffu;
  unsigned next_slot = 0;
  while (true) {
    // Give the next region to the type with the largest demand per unit of
    // capacity already provided; keep filling while any demanded type fits
    // (spare capacity costs nothing for an instant-rewrite oracle).
    int best = -1;
    double best_score = 0.0;
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      const FuType type = static_cast<FuType>(t);
      if (next_slot + slot_cost(type) > num_slots || required[t] == 0) {
        continue;
      }
      const double score =
          provided[t] == 0
              ? 1e9 * static_cast<double>(required[t])
              : static_cast<double>(required[t]) /
                    static_cast<double>(provided[t]);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(t);
      }
    }
    if (best < 0) {
      break;
    }
    const FuType type = static_cast<FuType>(best);
    alloc.write_region(SlotRegion{type, next_slot, slot_cost(type)});
    next_slot += slot_cost(type);
    ++provided[static_cast<unsigned>(best)];
  }
  return alloc;
}

const AllocationVector& OraclePolicy::packed(const FuCounts& required) {
  if (required != required_cache_) {
    required_cache_ = required;
    packed_cache_ = pack(required_cache_, set_.ffu, set_.num_slots);
  }
  return packed_cache_;
}

void OraclePolicy::steer(const SteerContext& ctx,
                         ConfigurationLoader& loader) {
  const AllocationVector& target = packed(ctx.required);
  ++stats_.steer_events;
  loader.request(target);
}

std::uint64_t OraclePolicy::idle_advance(std::uint64_t max_cycles,
                                         const SteerContext& ctx,
                                         ConfigurationLoader& loader) {
  if (loader.requested() != packed(ctx.required)) {
    return 0;  // the next steer() would retarget: run it live
  }
  // Every steer() in the window re-requests the already-requested target,
  // which ConfigurationLoader::request() ignores.
  stats_.steer_events += max_cycles;
  return max_cycles;
}

RandomPolicy::RandomPolicy(const SteeringSet& set, std::uint64_t seed,
                           unsigned interval)
    : preset_allocs_{set.preset_allocation(0), set.preset_allocation(1),
                     set.preset_allocation(2)},
      rng_(seed), interval_(interval) {
  STEERSIM_EXPECTS(interval >= 1);
}

void RandomPolicy::steer(const SteerContext&, ConfigurationLoader& loader) {
  if (countdown_ > 0) {
    --countdown_;
    return;
  }
  countdown_ = interval_ - 1;
  const auto pick =
      static_cast<unsigned>(rng_.next_below(kNumCandidates));
  ++stats_.steer_events;
  ++stats_.selections[pick];
  if (pick != 0) {
    loader.request(preset_allocs_[pick - 1]);
  }
}

std::uint64_t RandomPolicy::idle_advance(std::uint64_t max_cycles,
                                         const SteerContext&,
                                         ConfigurationLoader&) {
  if (countdown_ == 0) {
    return 0;  // the decision draws from the RNG: run it live
  }
  const std::uint64_t k = std::min<std::uint64_t>(max_cycles, countdown_);
  countdown_ -= static_cast<unsigned>(k);
  return k;
}

}  // namespace steersim
