#include "core/execution_engine.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"

namespace steersim {
namespace {

constexpr std::uint64_t bit(unsigned i) { return std::uint64_t{1} << i; }

/// The slots [base, base + len).
SlotMask span_mask(unsigned base, unsigned len) {
  return SlotMask(((std::uint64_t{1} << len) - 1) << base);
}

}  // namespace

ExecutionEngine::ExecutionEngine(const FuCounts& ffu, bool pipelined)
    : ffu_(ffu), pipelined_(pipelined) {
  unsigned first = 0;
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    ffu_first_[t] = first;
    first += ffu_[t];
  }
  STEERSIM_EXPECTS(first <= kMaxFixedUnits);
  begin_cycle(AllocationVector(0));
}

void ExecutionEngine::begin_cycle(const AllocationVector& rfu_allocation) {
  issued_this_cycle_.clear();
  if (pipelined_) {
    blocked_ = 0;  // a new cycle lifts the initiation-interval block
    blocked_slots_.clear();
  }
  if (units_cached_ && rfu_allocation == last_allocation_) {
    return;  // unit list is a pure function of the allocation
  }
  units_.clear();
  for (const FuType t : kAllFuTypes) {
    for (unsigned n = 0; n < ffu_[fu_index(t)]; ++n) {
      units_.push_back(UnitInstance{t, true, n, 1});
    }
  }
  for (const auto& region : rfu_allocation.regions()) {
    if (region.len == slot_cost(region.type)) {  // complete units only
      units_.push_back(
          UnitInstance{region.type, false, region.base, region.len});
    }
  }
  last_allocation_ = rfu_allocation;
  units_cached_ = true;
  type_units_ = {};
  type_fixed_ = {};
  unit_count_ = {};
  rfu_unit_.fill(-1);
  for (unsigned i = 0; i < units_.size(); ++i) {
    const UnitInstance& unit = units_[i];
    const unsigned t = fu_index(unit.type);
    type_units_[t] |= bit(i);
    if (unit.fixed) {
      type_fixed_[t] |= bit(i);
    } else {
      rfu_unit_[unit.base] = static_cast<int>(i);
    }
    ++unit_count_[t];
  }
  head_slots_ = {};
  for (unsigned slot = 0; slot < rfu_allocation.num_slots(); ++slot) {
    if (const auto type = type_from_encoding(rfu_allocation.code(slot))) {
      head_slots_[fu_index(*type)].set(slot);
    }
  }
  // Unit positions moved: re-derive which of them are occupied.
  recount();
}

std::uint64_t ExecutionEngine::unit_bit(const InFlight& f) const {
  if (f.fixed) {
    return bit(ffu_first_[fu_index(f.type)] + f.base);
  }
  const int i = rfu_unit_[f.base];
  return i >= 0 && units_[static_cast<unsigned>(i)].type == f.type
             ? bit(static_cast<unsigned>(i))
             : 0;
}

void ExecutionEngine::recount() {
  inflight_slots_.clear();
  inflight_count_ = {};
  std::uint64_t in_flight_units = 0;
  for (const auto& f : in_flight_) {
    ++inflight_count_[fu_index(f.type)];
    if (!f.fixed) {
      inflight_slots_ |= span_mask(f.base, slot_cost(f.type));
    }
    in_flight_units |= unit_bit(f);
  }
  if (!pipelined_) {
    blocked_ = in_flight_units;
    blocked_slots_ = inflight_slots_;
  }
}

FuCounts ExecutionEngine::configured_units() const { return unit_count_; }

ExecutionEngine::IssueView ExecutionEngine::issue_view() const {
  IssueView view;
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    const std::uint64_t idle = type_units_[t] & ~blocked_;
    view.free[t] = static_cast<unsigned>(std::popcount(idle));
    // Eq. 1: an idle fixed unit, or a head slot outside every blocked
    // span (a transiently truncated head still drives its type's
    // availability line, as in ResourceVector::build).
    view.available[t] = (idle & type_fixed_[t]) != 0 ||
                        (head_slots_[t] & ~blocked_slots_).any();
  }
  return view;
}

bool ExecutionEngine::assign(FuType t, unsigned latency,
                             unsigned wakeup_row) {
  STEERSIM_EXPECTS(latency >= 1);
  // Prefer fixed units so RFU slots stay reconfigurable as long as
  // possible; among RFUs pick the lowest base. units_ lists the FFUs first
  // and then the RFUs by base, so that is the lowest idle position.
  const std::uint64_t idle = type_units_[fu_index(t)] & ~blocked_;
  if (idle == 0) {
    return false;
  }
  const auto index = static_cast<unsigned>(std::countr_zero(idle));
  const UnitInstance& unit = units_[index];
  const InFlight record{unit.type, unit.fixed, unit.base, latency,
                        wakeup_row};
  in_flight_.push_back(record);
  if (pipelined_) {
    issued_this_cycle_.push_back(record);
  }
  blocked_ |= bit(index);
  ++inflight_count_[fu_index(t)];
  if (!unit.fixed) {
    const SlotMask span = span_mask(unit.base, unit.len);
    inflight_slots_ |= span;
    blocked_slots_ |= span;
  }
  ++stats_.issues;
  ++stats_.issues_by_type[fu_index(t)];
  return true;
}

FixedVector<unsigned, kMaxWakeupEntries> ExecutionEngine::step() {
  FixedVector<unsigned, kMaxWakeupEntries> completed;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    STEERSIM_ENSURES(it->remaining > 0);
    if (--it->remaining == 0) {
      completed.push_back(it->wakeup_row);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  if (!completed.empty()) {
    recount();
  }
  return completed;
}

void ExecutionEngine::cancel(unsigned wakeup_row) {
  const auto it = std::ranges::find_if(
      in_flight_,
      [wakeup_row](const InFlight& f) { return f.wakeup_row == wakeup_row; });
  if (it != in_flight_.end()) {
    in_flight_.erase(it);
    ++stats_.cancels;
    recount();
  }
}

FixedVector<unsigned, kMaxWakeupEntries> ExecutionEngine::kill_slot(
    unsigned slot) {
  FixedVector<unsigned, kMaxWakeupEntries> killed;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    const unsigned len = slot_cost(it->type);
    if (!it->fixed && slot >= it->base && slot < it->base + len) {
      killed.push_back(it->wakeup_row);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  if (!killed.empty()) {
    recount();
  }
  return killed;
}

void ExecutionEngine::note_utilization() {
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    stats_.configured_unit_cycles[t] += unit_count_[t];
    stats_.busy_unit_cycles[t] += inflight_count_[t];
  }
}

unsigned ExecutionEngine::min_remaining() const {
  unsigned min = 0;
  for (const auto& f : in_flight_) {
    if (min == 0 || f.remaining < min) {
      min = f.remaining;
    }
  }
  return min;
}

void ExecutionEngine::fast_forward(std::uint64_t cycles) {
  if (cycles == 0) {
    return;
  }
  for (auto& f : in_flight_) {
    STEERSIM_EXPECTS(f.remaining > cycles);
    f.remaining -= static_cast<unsigned>(cycles);
  }
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    stats_.configured_unit_cycles[t] += cycles * unit_count_[t];
    stats_.busy_unit_cycles[t] += cycles * inflight_count_[t];
  }
}

}  // namespace steersim
