// Select-free wake-up array (paper Sec. 4.1, Figs. 5 and 6, after
// Brown/Stark/Patt, MICRO-34).
//
// Each entry holds a resource vector: one column per functional-unit type
// (which unit the instruction needs) and one column per array entry (whose
// results it needs). An entry requests execution when, for every column,
// "not required OR available" holds, ANDed with its not-yet-scheduled bit.
// Granted entries start a countdown timer of latency-1 cycles; the entry's
// result-available line asserts when the timer reaches zero (immediately
// for single-cycle instructions), which is exactly one cycle before a
// dependent can issue back-to-back through the forwarding network.
// Entries stay in the array until retirement, which clears the entry's
// column across all rows so later instructions never wait on a retired
// producer (they read the register file instead).
//
// Storage is column-major: the valid, scheduled, result-available, and
// per-FU-type required columns each live in one machine word (EntryMask),
// so the Fig. 6 request network evaluates in O(rows) word operations
// instead of the O(rows²) per-bit scan a row-major layout needs — a row's
// dependences are satisfied exactly when (deps & ~result_available) == 0.
// Per-row payload (deps word, timer, age, tag) stays row-indexed for the
// select stage and observers. tests/wakeup_scalar_ref.hpp preserves the
// original row-major kernel as a cosimulation oracle.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitset.hpp"
#include "common/fixed_vector.hpp"
#include "isa/fu_type.hpp"

namespace steersim {

inline constexpr unsigned kMaxWakeupEntries = 32;

using EntryMask = SmallBitset<kMaxWakeupEntries>;
using ResourceAvail = std::array<bool, kNumFuTypes>;

struct WakeupEntry {
  bool valid = false;
  bool scheduled = false;
  FuType fu = FuType::kIntAlu;
  EntryMask deps;
  /// Result countdown; meaningful only while scheduled.
  unsigned timer = 0;
  bool result_available = false;
  /// Dispatch order, for oldest-first selection.
  std::uint64_t age = 0;
  /// Cross-reference into the register update unit.
  std::uint64_t tag = 0;
};

struct WakeupStats {
  std::uint64_t inserts = 0;
  std::uint64_t grants = 0;
  std::uint64_t reschedules = 0;
  std::uint64_t retires = 0;
  std::uint64_t squashes = 0;

  /// Metric-registry enumeration (docs/OBSERVABILITY.md).
  template <typename V>
  void visit_metrics(V&& visit) const {
    visit("inserts", static_cast<double>(inserts));
    visit("grants", static_cast<double>(grants));
    visit("reschedules", static_cast<double>(reschedules));
    visit("retires", static_cast<double>(retires));
    visit("squashes", static_cast<double>(squashes));
  }
};

class WakeupArray {
 public:
  explicit WakeupArray(unsigned num_entries);

  unsigned num_entries() const {
    return static_cast<unsigned>(entries_.size());
  }
  bool full() const { return valid_.count() == num_entries(); }
  unsigned free_entries() const { return num_entries() - valid_.count(); }

  /// Dispatches an instruction into a free row. `deps` marks the entry
  /// columns whose results must be available first; every marked column
  /// must refer to a currently valid row (retire/squash clear a row's
  /// column across the array, so a dep on an invalid row could never be
  /// satisfied — it would block the consumer forever).
  std::optional<unsigned> insert(FuType fu, EntryMask deps,
                                 std::uint64_t tag);

  /// Rows whose result-required columns are all satisfied (valid, not yet
  /// scheduled, every needed producer's available line high) — the request
  /// vector before resource gating.
  EntryMask dep_ready() const;

  /// Rows whose execution-unit-required column is high this cycle, given
  /// the per-type availability lines (Eq. 1 outputs).
  EntryMask resource_ready(const ResourceAvail& resource_available) const;

  /// Fig. 6: the request-execution vector — dependence-ready AND
  /// resource-ready.
  EntryMask request_execution(const ResourceAvail& resource_available) const {
    return dep_ready() & resource_ready(resource_available);
  }

  /// Issue grant: sets the scheduled bit and arms the countdown timer with
  /// latency-1 (immediate result-available for single-cycle ops).
  void grant(unsigned idx, unsigned latency);

  /// De-asserts the scheduled bit so the entry requests execution again.
  void reschedule(unsigned idx);

  /// Retires the entry: clears its row and its column across the array.
  void retire(unsigned idx);

  /// Squash on misprediction: same clearing as retire, separate statistic.
  void squash(unsigned idx);

  /// End-of-cycle: advances countdown timers.
  void tick();

  /// `cycles` back-to-back tick() calls at once (event-driven skip-ahead).
  /// Requires cycles <= min_timer(): no result line may assert before the
  /// last skipped tick, or a dependent could have woken mid-window.
  void advance(std::uint64_t cycles);

  /// Smallest live countdown (0 when no timer is running): the next tick
  /// count at which a result-available line can assert.
  unsigned min_timer() const;

  const WakeupEntry& entry(unsigned idx) const;
  /// Valid rows in oldest-first order. The order is maintained
  /// incrementally (ages are assigned monotonically, so insert appends and
  /// retire/squash remove); the span stays valid until the next insert,
  /// retire, or squash.
  std::span<const unsigned> age_order() const {
    return {order_.begin(), order_.end()};
  }
  /// Valid, not-yet-scheduled rows (the "ready" set the configuration
  /// manager inspects).
  EntryMask unscheduled() const { return valid_ & ~scheduled_; }

  /// Selection stages 1-2 (paper Fig. 2) read straight off the
  /// execution-unit-required columns: per FU type, the number of ready
  /// rows needing that type, as a 3-bit count saturating at 7.
  FuCounts ready_requirements() const;

  const WakeupStats& stats() const { return stats_; }

 private:
  void clear_entry(unsigned idx);

  /// Row payload, kept in sync with the column words (the masks are
  /// authoritative for the hot queries; the per-entry bools exist for the
  /// observer/test API).
  std::vector<WakeupEntry> entries_;
  EntryMask valid_;
  EntryMask scheduled_;
  EntryMask result_avail_;
  /// Scheduled rows whose timer is still counting down.
  EntryMask counting_;
  /// Execution-unit-required columns: rows per FU type (one-hot per row).
  std::array<EntryMask, kNumFuTypes> fu_rows_{};
  FixedVector<unsigned, kMaxWakeupEntries> order_;
  std::uint64_t next_age_ = 0;
  WakeupStats stats_;
};

}  // namespace steersim
