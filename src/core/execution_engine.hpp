// Functional-unit instances and their occupancy.
//
// The engine presents the cycle-by-cycle view of which unit instances
// exist (fixed units plus whatever the RFU fabric currently implements),
// which are busy with multi-cycle instructions, and — via the Eq. 1
// availability circuit — which resource types can accept an issue this
// cycle. Units are non-pipelined: a unit is busy for the instruction's
// full latency (this is what makes multi-cycle RFU occupancy interact with
// reconfiguration, the paper's central subtlety).
//
// Occupancy is kept as bit masks beside the unit list (DESIGN.md
// §Execution-engine occupancy masks): per-type masks of unit positions,
// rebuilt only when the allocation changes, and a mask of the units that
// cannot accept an issue, updated by assign() and recomputed from the
// in-flight list whenever an operation leaves it. The per-cycle queries
// (issue_view, slot_busy, note_utilization) are then popcounts and mask
// tests, checked against list-scanning reference definitions that read
// units() and occupying() (tests/engine_scan_ref.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fixed_vector.hpp"
#include "config/availability.hpp"
#include "isa/fu_type.hpp"
#include "sched/wakeup_array.hpp"

namespace steersim {

struct UnitInstance {
  FuType type = FuType::kIntAlu;
  bool fixed = false;
  /// Fixed units: ordinal within the FFU list. RFU units: base slot.
  unsigned base = 0;
  unsigned len = 1;
};

struct EngineStats {
  std::array<std::uint64_t, kNumFuTypes> busy_unit_cycles{};
  std::array<std::uint64_t, kNumFuTypes> configured_unit_cycles{};
  /// Issues broken down by the serving unit type (sums to `issues`);
  /// the interval sampler's per-FU-type demand tracks difference these.
  std::array<std::uint64_t, kNumFuTypes> issues_by_type{};
  std::uint64_t issues = 0;
  std::uint64_t cancels = 0;

  /// Metric-registry enumeration (docs/OBSERVABILITY.md).
  template <typename V>
  void visit_metrics(V&& visit) const {
    visit("issues", static_cast<double>(issues));
    visit("cancels", static_cast<double>(cancels));
    for (unsigned t = 0; t < kNumFuTypes; ++t) {
      const std::string type(fu_type_name(static_cast<FuType>(t)));
      visit("issues." + type, static_cast<double>(issues_by_type[t]));
      visit("busy_cycles." + type,
            static_cast<double>(busy_unit_cycles[t]));
      visit("configured_cycles." + type,
            static_cast<double>(configured_unit_cycles[t]));
    }
  }
};

class ExecutionEngine {
 public:
  /// Unit instances an engine can hold (one bit each in the occupancy
  /// masks): every RFU slot as a one-slot unit plus this many FFUs.
  static constexpr unsigned kMaxFixedUnits = 64 - kMaxRfuSlots;

  /// `pipelined`: units accept a new operation every cycle (initiation
  /// interval 1) while earlier operations drain — an ablation of the
  /// paper's non-pipelined model. Slots still count as busy for the
  /// configuration loader while any operation is in flight (a unit cannot
  /// be rewritten mid-operation either way). Expects at most
  /// kMaxFixedUnits FFUs in total.
  explicit ExecutionEngine(const FuCounts& ffu, bool pipelined = false);

  /// Refreshes the unit view from the loader's current allocation. Call
  /// once per cycle before issuing. Busy RFU units always survive (their
  /// slots cannot be rewritten while busy). The unit list is a pure
  /// function of the allocation, so an unchanged allocation skips the
  /// rebuild (the common case between reconfigurations).
  void begin_cycle(const AllocationVector& rfu_allocation);

  /// The per-cycle issue inputs from the occupancy masks, for the
  /// allocation passed to the latest begin_cycle(): the Eq. 1
  /// availability lines (incomplete head slots count toward availability,
  /// as ResourceVector::build counts them) plus idle-unit counts per type.
  struct IssueView {
    ResourceAvail available{};
    std::array<unsigned, kNumFuTypes> free{};
  };
  IssueView issue_view() const;

  /// Total unit instances per type this cycle (for CEM "current" input,
  /// equal to loader counts + FFU counts).
  FuCounts configured_units() const;

  /// Starts `wakeup_row` on an idle unit of type `t` for `latency` cycles:
  /// the first idle FFU, else the idle RFU with the lowest base. Returns
  /// false if no idle unit exists (caller should not have granted).
  bool assign(FuType t, unsigned latency, unsigned wakeup_row);

  /// Advances one cycle; returns the wake-up rows whose execution finished.
  FixedVector<unsigned, kMaxWakeupEntries> step();

  /// Cancels in-flight work for a squashed wake-up row (frees the unit).
  void cancel(unsigned wakeup_row);

  /// A configuration upset hit `slot`: kills every in-flight operation on
  /// an RFU unit whose span covers the slot and returns the affected
  /// wake-up rows so the scheduler can retry them. Not counted as cancels
  /// (fault statistics track kills separately).
  FixedVector<unsigned, kMaxWakeupEntries> kill_slot(unsigned slot);

  /// Slots occupied by busy RFU units (input to the configuration loader).
  SlotMask slot_busy() const { return inflight_slots_; }

  /// Accumulates per-cycle utilization statistics; call once per cycle.
  void note_utilization();

  /// Smallest remaining latency among in-flight operations (0 when idle):
  /// the earliest future cycle at which a completion can occur.
  unsigned min_remaining() const;

  /// Event-driven skip-ahead: advances `cycles` cycles at once through a
  /// window in which nothing issues and nothing completes. Equivalent to
  /// `cycles` repetitions of step() + note_utilization() with an unchanged
  /// unit view; requires every in-flight remaining > cycles.
  void fast_forward(std::uint64_t cycles);

  const EngineStats& stats() const { return stats_; }
  const std::vector<UnitInstance>& units() const { return units_; }

  /// One started operation. Keyed by stable unit identity (fixed flag +
  /// base): busy RFU units are never rewritten, so their base slot
  /// persists across cycles even as the surrounding fabric changes.
  struct InFlight {
    FuType type = FuType::kIntAlu;
    bool fixed = false;
    unsigned base = 0;
    unsigned remaining = 0;
    unsigned wakeup_row = 0;
  };
  /// The operations whose units cannot accept an issue this cycle: those
  /// in flight, or in pipelined mode those issued this cycle. Read by the
  /// reference scans the occupancy masks are tested against.
  const std::vector<InFlight>& occupying() const {
    return pipelined_ ? issued_this_cycle_ : in_flight_;
  }

 private:
  /// Occupancy-mask bit of the unit `f` runs on (0 if no unit of units_
  /// has its identity).
  std::uint64_t unit_bit(const InFlight& f) const;
  /// Recomputes the in-flight masks and counts (and, unpipelined, the
  /// blocked masks) from in_flight_.
  void recount();

  FuCounts ffu_;
  bool pipelined_;
  std::vector<UnitInstance> units_;
  /// begin_cycle() rebuild cache: the allocation units_ was built from.
  AllocationVector last_allocation_;
  bool units_cached_ = false;
  std::vector<InFlight> in_flight_;
  /// Pipelined mode: units that accepted an operation this cycle (the
  /// initiation-interval constraint).
  std::vector<InFlight> issued_this_cycle_;
  EngineStats stats_;

  // Per-allocation masks, rebuilt with units_ (bit i = units_[i]).
  std::array<std::uint64_t, kNumFuTypes> type_units_{};
  std::array<std::uint64_t, kNumFuTypes> type_fixed_{};
  /// Slots holding a head code per type, truncated heads included.
  std::array<SlotMask, kNumFuTypes> head_slots_{};
  /// units_ position of each type's first FFU, and of the RFU unit based
  /// at each slot (-1 where no complete unit starts).
  std::array<unsigned, kNumFuTypes> ffu_first_{};
  std::array<int, kMaxRfuSlots> rfu_unit_{};
  /// Units per type (at most 64 in all, so FuCounts holds them).
  FuCounts unit_count_{};

  // Occupancy, updated by assign() and recount().
  /// Units that cannot accept an issue this cycle (in flight; pipelined:
  /// issued this cycle), and the slots under those units' operations.
  std::uint64_t blocked_ = 0;
  SlotMask blocked_slots_;
  /// Slots under any in-flight operation, and in-flight ops per type.
  SlotMask inflight_slots_;
  std::array<unsigned, kNumFuTypes> inflight_count_{};
};

}  // namespace steersim
