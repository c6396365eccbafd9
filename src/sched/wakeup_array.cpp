#include "sched/wakeup_array.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"

namespace steersim {

WakeupArray::WakeupArray(unsigned num_entries) : entries_(num_entries) {
  STEERSIM_EXPECTS(num_entries >= 1 && num_entries <= kMaxWakeupEntries);
}

std::optional<unsigned> WakeupArray::insert(FuType fu, EntryMask deps,
                                            std::uint64_t tag) {
  if (full()) {
    return std::nullopt;
  }
  // Retire/squash clear a producer's column across the array; a surviving
  // dep bit must therefore name a live row or the consumer could never
  // wake (the silent-forever-block this contract makes unreachable).
  STEERSIM_EXPECTS((deps.raw() & ~valid_.raw()) == 0);
  // Lowest free row; < num_entries() because the array is not full and
  // valid_ only ever holds bits below num_entries().
  const unsigned row =
      static_cast<unsigned>(std::countr_zero(~valid_.raw()));
  WakeupEntry& e = entries_[row];
  e.valid = true;
  e.scheduled = false;
  e.fu = fu;
  e.deps = deps;
  e.timer = 0;
  e.result_available = false;
  e.age = next_age_++;
  e.tag = tag;
  valid_.set(row);
  fu_rows_[fu_index(fu)].set(row);
  // Ages are assigned monotonically, so appending keeps oldest-first order.
  order_.push_back(row);
  ++stats_.inserts;
  return row;
}

EntryMask WakeupArray::dep_ready() const {
  EntryMask ready;
  // A result-available bit implies the producer row is valid (both clear
  // together in clear_entry), so "every dep's line high" is one word test.
  const std::uint64_t not_done = ~result_avail_.raw();
  std::uint64_t cand = (valid_ & ~scheduled_).raw();
  while (cand != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(cand));
    cand &= cand - 1;
    if ((entries_[i].deps.raw() & not_done) == 0) {
      ready.set(i);
    }
  }
  return ready;
}

EntryMask WakeupArray::resource_ready(
    const ResourceAvail& resource_available) const {
  EntryMask mask;
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    if (resource_available[t]) {
      mask = mask | fu_rows_[t];
    }
  }
  return mask & valid_ & ~scheduled_;
}

FuCounts WakeupArray::ready_requirements() const {
  const EntryMask ready = unscheduled();
  FuCounts counts{};
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    counts[t] = static_cast<std::uint8_t>(
        std::min(7u, (fu_rows_[t] & ready).count()));
  }
  return counts;
}

void WakeupArray::grant(unsigned idx, unsigned latency) {
  STEERSIM_EXPECTS(idx < num_entries());
  STEERSIM_EXPECTS(latency >= 1);
  STEERSIM_EXPECTS(valid_.test(idx) && !scheduled_.test(idx));
  WakeupEntry& e = entries_[idx];
  e.scheduled = true;
  // Count latency end-of-cycle ticks before asserting the available line;
  // a dependent's request stage then sees it exactly latency cycles after
  // this grant (back-to-back for single-cycle producers). This is the
  // paper's "set the timer to N-1, assert at a count of one" expressed
  // against our end-of-cycle tick.
  e.timer = latency;
  e.result_available = false;
  scheduled_.set(idx);
  counting_.set(idx);
  result_avail_.reset(idx);
  ++stats_.grants;
}

void WakeupArray::reschedule(unsigned idx) {
  STEERSIM_EXPECTS(idx < num_entries());
  STEERSIM_EXPECTS(valid_.test(idx));
  WakeupEntry& e = entries_[idx];
  e.scheduled = false;
  e.timer = 0;
  e.result_available = false;
  scheduled_.reset(idx);
  counting_.reset(idx);
  result_avail_.reset(idx);
  ++stats_.reschedules;
}

void WakeupArray::clear_entry(unsigned idx) {
  fu_rows_[fu_index(entries_[idx].fu)].reset(idx);
  valid_.reset(idx);
  scheduled_.reset(idx);
  result_avail_.reset(idx);
  counting_.reset(idx);
  // Clear the retiring producer's column across the surviving rows.
  std::uint64_t rows = valid_.raw();
  while (rows != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(rows));
    rows &= rows - 1;
    entries_[i].deps.reset(idx);
  }
  entries_[idx] = WakeupEntry{};
  // Remove from the incrementally maintained age order (shift; FixedVector
  // has no arbitrary erase).
  for (unsigned i = 0; i < order_.size(); ++i) {
    if (order_[i] == idx) {
      for (unsigned j = i + 1; j < order_.size(); ++j) {
        order_[j - 1] = order_[j];
      }
      order_.pop_back();
      break;
    }
  }
}

void WakeupArray::retire(unsigned idx) {
  STEERSIM_EXPECTS(idx < num_entries());
  STEERSIM_EXPECTS(valid_.test(idx));
  clear_entry(idx);
  ++stats_.retires;
}

void WakeupArray::squash(unsigned idx) {
  STEERSIM_EXPECTS(idx < num_entries());
  STEERSIM_EXPECTS(valid_.test(idx));
  clear_entry(idx);
  ++stats_.squashes;
}

void WakeupArray::tick() {
  std::uint64_t bits = counting_.raw();
  while (bits != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(bits));
    bits &= bits - 1;
    if (--entries_[i].timer == 0) {
      entries_[i].result_available = true;
      counting_.reset(i);
      result_avail_.set(i);
    }
  }
}

void WakeupArray::advance(std::uint64_t cycles) {
  if (cycles == 0) {
    return;
  }
  std::uint64_t bits = counting_.raw();
  while (bits != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(bits));
    bits &= bits - 1;
    WakeupEntry& e = entries_[i];
    STEERSIM_EXPECTS(e.timer >= cycles);
    e.timer -= static_cast<unsigned>(cycles);
    if (e.timer == 0) {
      e.result_available = true;
      counting_.reset(i);
      result_avail_.set(i);
    }
  }
}

unsigned WakeupArray::min_timer() const {
  unsigned min = 0;
  std::uint64_t bits = counting_.raw();
  while (bits != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(bits));
    bits &= bits - 1;
    if (min == 0 || entries_[i].timer < min) {
      min = entries_[i].timer;
    }
  }
  return min;
}

const WakeupEntry& WakeupArray::entry(unsigned idx) const {
  STEERSIM_EXPECTS(idx < num_entries());
  return entries_[idx];
}

}  // namespace steersim
