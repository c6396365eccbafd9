// Unit tests for the execution engine: unit inventory from FFUs + fabric,
// non-pipelined busy tracking, Eq. 1 integration, slot-busy reporting for
// the loader, cancellation, and utilization accounting; plus a randomized
// cosim of the occupancy masks against the reference scans
// (tests/engine_scan_ref.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "config/steering_set.hpp"
#include "core/execution_engine.hpp"
#include "engine_scan_ref.hpp"

namespace steersim {
namespace {

const FuCounts kFfu = {1, 1, 1, 1, 1};

TEST(Engine, FfuOnlyInventory) {
  ExecutionEngine engine(kFfu);
  engine.begin_cycle(AllocationVector(8));
  EXPECT_EQ(engine.units().size(), 5u);
  EXPECT_EQ(engine.configured_units(), kFfu);
  const auto free = reference_free_units(engine);
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    EXPECT_EQ(free[t], 1u);
  }
}

TEST(Engine, FabricUnitsAppearInInventory) {
  ExecutionEngine engine(kFfu);
  const auto alloc = AllocationVector::place({4, 1, 2, 0, 0}, 8);
  engine.begin_cycle(alloc);
  EXPECT_EQ(engine.configured_units(),
            (FuCounts{5, 2, 3, 1, 1}));
}

TEST(Engine, AssignConsumesUnitUntilLatencyElapses) {
  ExecutionEngine engine(kFfu);
  engine.begin_cycle(AllocationVector(8));
  EXPECT_TRUE(engine.assign(FuType::kIntMdu, 3, /*wakeup_row=*/7));
  EXPECT_EQ(reference_free_units(engine)[fu_index(FuType::kIntMdu)], 0u);
  EXPECT_FALSE(engine.assign(FuType::kIntMdu, 1, 8));

  EXPECT_TRUE(engine.step().empty());  // cycle 1 -> 2 remaining
  EXPECT_TRUE(engine.step().empty());
  const auto done = engine.step();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 7u);
  EXPECT_EQ(reference_free_units(engine)[fu_index(FuType::kIntMdu)], 1u);
}

TEST(Engine, PrefersFixedUnitsOverRfus) {
  ExecutionEngine engine(kFfu);
  const auto alloc = AllocationVector::place({2, 0, 0, 0, 0}, 8);
  engine.begin_cycle(alloc);
  EXPECT_TRUE(engine.assign(FuType::kIntAlu, 10, 0));
  // The fixed ALU should be busy; no RFU slot is.
  EXPECT_TRUE(engine.slot_busy().none());
  EXPECT_TRUE(engine.assign(FuType::kIntAlu, 10, 1));
  EXPECT_TRUE(engine.slot_busy().test(0));
}

TEST(Engine, SlotBusyCoversWholeMultiSlotUnit) {
  const FuCounts no_ffu{};
  ExecutionEngine engine(no_ffu);
  const auto alloc = AllocationVector::place({0, 0, 0, 1, 0}, 8);
  engine.begin_cycle(alloc);
  EXPECT_TRUE(engine.assign(FuType::kFpAlu, 5, 3));
  const SlotMask busy = engine.slot_busy();
  EXPECT_TRUE(busy.test(0));
  EXPECT_TRUE(busy.test(1));
  EXPECT_TRUE(busy.test(2));
  EXPECT_FALSE(busy.test(3));
}

TEST(Engine, AvailabilityLinesReflectBusyUnits) {
  ExecutionEngine engine(kFfu);
  const AllocationVector alloc(8);
  engine.begin_cycle(alloc);
  EXPECT_TRUE(reference_availability(engine, alloc)[fu_index(FuType::kLsu)]);
  engine.assign(FuType::kLsu, 4, 0);
  EXPECT_FALSE(reference_availability(engine, alloc)[fu_index(FuType::kLsu)]);
  EXPECT_TRUE(
      reference_availability(engine, alloc)[fu_index(FuType::kIntAlu)]);
}

TEST(Engine, BusyRfuSurvivesFabricRefresh) {
  const FuCounts no_ffu{};
  ExecutionEngine engine(no_ffu);
  const auto alloc = AllocationVector::place({1, 0, 1, 0, 0}, 8);
  engine.begin_cycle(alloc);
  EXPECT_TRUE(engine.assign(FuType::kIntAlu, 10, 0));
  // Fabric refresh mid-execution (other slots changed): the busy unit's
  // in-flight work keeps counting down.
  engine.begin_cycle(alloc);
  EXPECT_EQ(reference_free_units(engine)[fu_index(FuType::kIntAlu)], 0u);
  EXPECT_TRUE(engine.slot_busy().test(0));
}

TEST(Engine, CancelFreesUnitImmediately) {
  ExecutionEngine engine(kFfu);
  engine.begin_cycle(AllocationVector(8));
  engine.assign(FuType::kFpMdu, 20, 5);
  EXPECT_EQ(reference_free_units(engine)[fu_index(FuType::kFpMdu)], 0u);
  engine.cancel(5);
  EXPECT_EQ(reference_free_units(engine)[fu_index(FuType::kFpMdu)], 1u);
  EXPECT_TRUE(engine.step().empty()) << "cancelled work never completes";
  EXPECT_EQ(engine.stats().cancels, 1u);
}

TEST(Engine, MultipleCompletionsSameCycle) {
  ExecutionEngine engine(kFfu);
  engine.begin_cycle(AllocationVector(8));
  engine.assign(FuType::kIntAlu, 1, 1);
  engine.assign(FuType::kLsu, 1, 2);
  const auto done = engine.step();
  EXPECT_EQ(done.size(), 2u);
}

TEST(Engine, UtilizationAccounting) {
  ExecutionEngine engine(kFfu);
  engine.begin_cycle(AllocationVector(8));
  engine.assign(FuType::kIntAlu, 2, 0);
  engine.note_utilization();
  engine.step();
  engine.note_utilization();
  EXPECT_EQ(engine.stats().busy_unit_cycles[fu_index(FuType::kIntAlu)], 2u);
  EXPECT_EQ(engine.stats().configured_unit_cycles[fu_index(FuType::kIntAlu)],
            2u);
  EXPECT_EQ(engine.stats().issues, 1u);
}

TEST(Engine, PipelinedUnitAcceptsBackToBack) {
  ExecutionEngine engine(kFfu, /*pipelined=*/true);
  engine.begin_cycle(AllocationVector(8));
  EXPECT_TRUE(engine.assign(FuType::kIntMdu, 4, 1));
  // Same cycle: the initiation interval blocks a second issue.
  EXPECT_FALSE(engine.assign(FuType::kIntMdu, 4, 2));
  // Next cycle: the unit accepts again while the first op drains.
  engine.step();
  engine.begin_cycle(AllocationVector(8));
  EXPECT_TRUE(engine.assign(FuType::kIntMdu, 4, 2));
  // Both complete at their own times.
  engine.step();          // op1: 2 left, op2: 3 left
  engine.step();          // op1: 1, op2: 2
  auto done = engine.step();  // op1 completes
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 1u);
  done = engine.step();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2u);
}

TEST(Engine, PipelinedAvailabilityStaysHighWhileDraining) {
  ExecutionEngine engine(kFfu, /*pipelined=*/true);
  const AllocationVector alloc(8);
  engine.begin_cycle(alloc);
  engine.assign(FuType::kFpMdu, 16, 0);
  EXPECT_FALSE(reference_availability(engine, alloc)[fu_index(FuType::kFpMdu)])
      << "initiation interval blocks within the issue cycle";
  engine.step();
  engine.begin_cycle(alloc);
  EXPECT_TRUE(reference_availability(engine, alloc)[fu_index(FuType::kFpMdu)])
      << "next cycle the pipelined unit can accept again";
  // The loader still sees the slot busy while the op drains... for fixed
  // units there are no slots; check the non-pipelined contrast instead.
  ExecutionEngine serial(kFfu, /*pipelined=*/false);
  serial.begin_cycle(alloc);
  serial.assign(FuType::kFpMdu, 16, 0);
  serial.step();
  serial.begin_cycle(alloc);
  EXPECT_FALSE(
      reference_availability(serial, alloc)[fu_index(FuType::kFpMdu)]);
}

TEST(Engine, PipelinedRfuSlotsStayBusyForLoader) {
  const FuCounts no_ffu{};
  ExecutionEngine engine(no_ffu, /*pipelined=*/true);
  const auto alloc = AllocationVector::place({1, 0, 0, 0, 0}, 8);
  engine.begin_cycle(alloc);
  engine.assign(FuType::kIntAlu, 4, 0);
  engine.step();
  engine.begin_cycle(alloc);
  // Still draining: the slot must not be reconfigurable.
  EXPECT_TRUE(engine.slot_busy().test(0));
}

TEST(Engine, IncompleteRegionIsNotAUnit) {
  const FuCounts no_ffu{};
  ExecutionEngine engine(no_ffu);
  AllocationVector alloc(8);
  // A truncated FpAlu: head code with only one continuation (mid-rewrite
  // artifact) must not be usable.
  alloc.set_code(0, encoding_of(FuType::kFpAlu));
  alloc.set_code(1, kEncContinuation);
  engine.begin_cycle(alloc);
  EXPECT_EQ(engine.units().size(), 0u);
  EXPECT_FALSE(engine.assign(FuType::kFpAlu, 1, 0));
}

// --- Occupancy cosim ------------------------------------------------------

bool same_unit(const UnitInstance& a, const UnitInstance& b) {
  return a.fixed == b.fixed && a.base == b.base && a.type == b.type;
}

/// One seeded episode: random allocations (truncated heads, orphaned
/// continuations and rewrites under busy units included) and random
/// assign / cancel / kill_slot / note_utilization / fast_forward / step
/// calls, checked after every call against the reference scans and
/// against a shadow of the operations the test started.
void run_occupancy_episode(std::uint64_t seed, bool pipelined) {
  SCOPED_TRACE(testing::Message() << "seed " << seed
                                  << (pipelined ? " pipelined" : ""));
  Xoshiro256 rng(seed);
  FuCounts ffu{};
  for (auto& count : ffu) {
    count = static_cast<std::uint8_t>(rng.next_below(3));
  }
  const auto num_slots =
      static_cast<unsigned>(1 + rng.next_below(kMaxRfuSlots));
  ExecutionEngine engine(ffu, pipelined);
  AllocationVector alloc(num_slots);

  struct ShadowOp {
    UnitInstance unit;
    unsigned remaining = 0;
    unsigned row = 0;
  };
  std::vector<ShadowOp> in_flight;    // engine order
  std::vector<UnitInstance> issued;   // pipelined: issued this cycle
  EngineStats expect;
  unsigned next_row = 0;

  const auto span_of = [](const UnitInstance& unit) {
    SlotMask mask;
    for (unsigned i = 0; !unit.fixed && i < slot_cost(unit.type); ++i) {
      mask.set(unit.base + i);
    }
    return mask;
  };
  const auto busy_slots = [&] {
    SlotMask mask;
    for (const auto& op : in_flight) {
      mask |= span_of(op.unit);
    }
    return mask;
  };
  // The old rule's notion of a unit that cannot accept an issue.
  const auto occupied = [&](const UnitInstance& unit) {
    if (pipelined) {
      return std::ranges::any_of(issued, [&](const UnitInstance& u) {
        return same_unit(u, unit);
      });
    }
    return std::ranges::any_of(in_flight, [&](const ShadowOp& op) {
      return same_unit(op.unit, unit);
    });
  };
  const auto check = [&](const char* after) {
    SCOPED_TRACE(after);
    const auto view = engine.issue_view();
    ASSERT_EQ(view.available, reference_availability(engine, alloc));
    ASSERT_EQ(view.free, reference_free_units(engine));
    ASSERT_EQ(engine.slot_busy(), busy_slots());
    const EngineStats& got = engine.stats();
    ASSERT_EQ(got.busy_unit_cycles, expect.busy_unit_cycles);
    ASSERT_EQ(got.configured_unit_cycles, expect.configured_unit_cycles);
    ASSERT_EQ(got.issues_by_type, expect.issues_by_type);
    ASSERT_EQ(got.issues, expect.issues);
    ASSERT_EQ(got.cancels, expect.cancels);
    // The reference resource vector's availability ports (one per RFU
    // slot, then one per FFU in FuType order) are low exactly under the
    // units the shadow occupies, so assign() took the units the old rule
    // picks.
    SlotMask occupied_spans;
    if (pipelined) {
      for (const auto& unit : issued) {
        occupied_spans |= span_of(unit);
      }
    } else {
      occupied_spans = busy_slots();
    }
    const ResourceVector rv = reference_resource_vector(engine, alloc);
    const auto entries = rv.entries();
    for (unsigned slot = 0; slot < num_slots; ++slot) {
      ASSERT_EQ(entries[slot].available, !occupied_spans.test(slot))
          << "slot " << slot;
    }
    unsigned entry = num_slots;
    for (const FuType t : kAllFuTypes) {
      for (unsigned n = 0; n < ffu[fu_index(t)]; ++n) {
        ASSERT_EQ(entries[entry++].available,
                  !occupied(UnitInstance{t, true, n, 1}))
            << fu_type_name(t) << " FFU " << n;
      }
    }
  };
  const auto random_type = [&] {
    return kAllFuTypes[rng.next_below(kNumFuTypes)];
  };
  const auto mutate = [&] {
    const auto base = static_cast<unsigned>(rng.next_below(num_slots));
    const FuType t = random_type();
    const unsigned len = std::min(slot_cost(t), num_slots - base);
    SlotMask span;
    for (unsigned i = 0; i < len; ++i) {
      span.set(base + i);
    }
    if (rng.next_bool(0.05)) {
      // A code under a busy unit: the loader never does this, but the
      // masks must still agree with the scans (records whose unit is gone).
      alloc.set_code(base, static_cast<std::uint8_t>(rng.next_below(8)));
      return;
    }
    if ((span & busy_slots()).any()) {
      return;
    }
    switch (rng.next_below(4)) {
      case 0:
        return;  // allocation unchanged (the rebuild is skipped)
      case 1:
        if (len == slot_cost(t)) {
          alloc.write_region(SlotRegion{t, base, len});
        }
        return;
      case 2:
        // A head mid-rewrite: fewer continuations than its cost.
        alloc.set_code(base, encoding_of(t));
        for (unsigned i = 1; i + 1 < len; ++i) {
          alloc.set_code(base + i, kEncContinuation);
        }
        return;
      default:
        alloc.clear_span(base, len);
        return;
    }
  };
  const auto erase_rows = [&](auto pred) {
    std::vector<unsigned> rows;
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (pred(*it)) {
        rows.push_back(it->row);
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
    return rows;
  };

  for (unsigned cycle = 0; cycle < 300; ++cycle) {
    mutate();
    engine.begin_cycle(alloc);
    issued.clear();
    check("begin_cycle");

    for (auto n = rng.next_below(4); n > 0; --n) {
      const FuType t = random_type();
      const auto latency = static_cast<unsigned>(
          rng.next_bool(0.1) ? 20 : 1 + rng.next_below(6));
      // The old rule: the first idle FFU, else the idle RFU with the
      // lowest base (units() lists RFUs by base).
      const UnitInstance* want = nullptr;
      for (const auto& unit : engine.units()) {
        if (unit.type == t && !occupied(unit) &&
            (want == nullptr || (unit.fixed && !want->fixed))) {
          want = &unit;
        }
      }
      const UnitInstance chosen = want != nullptr ? *want : UnitInstance{};
      const unsigned row = next_row++;
      ASSERT_EQ(engine.assign(t, latency, row), want != nullptr);
      if (want != nullptr) {
        in_flight.push_back(ShadowOp{chosen, latency, row});
        if (pipelined) {
          issued.push_back(chosen);
        }
        ++expect.issues;
        ++expect.issues_by_type[fu_index(t)];
      }
      check("assign");
    }

    if (rng.next_bool(0.2) && !in_flight.empty()) {
      const unsigned row =
          in_flight[rng.next_below(in_flight.size())].row;
      engine.cancel(row);
      erase_rows([row](const ShadowOp& op) { return op.row == row; });
      ++expect.cancels;
      check("cancel");
    }
    if (rng.next_bool(0.1)) {
      const auto slot = static_cast<unsigned>(rng.next_below(num_slots));
      const auto killed = engine.kill_slot(slot);
      const auto want = erase_rows([&](const ShadowOp& op) {
        return span_of(op.unit).test(slot);
      });
      ASSERT_EQ(std::vector<unsigned>(killed.begin(), killed.end()), want);
      check("kill_slot");
    }

    engine.note_utilization();
    for (const auto& unit : engine.units()) {
      ++expect.configured_unit_cycles[fu_index(unit.type)];
    }
    for (const auto& op : in_flight) {
      ++expect.busy_unit_cycles[fu_index(op.unit.type)];
    }
    check("note_utilization");

    const unsigned min_remaining = engine.min_remaining();
    if (min_remaining >= 2 && rng.next_bool(0.15)) {
      const std::uint64_t k = 1 + rng.next_below(min_remaining - 1);
      engine.fast_forward(k);
      for (auto& op : in_flight) {
        op.remaining -= static_cast<unsigned>(k);
      }
      for (const auto& unit : engine.units()) {
        expect.configured_unit_cycles[fu_index(unit.type)] += k;
      }
      for (const auto& op : in_flight) {
        expect.busy_unit_cycles[fu_index(op.unit.type)] += k;
      }
      check("fast_forward");
    }

    const auto completed = engine.step();
    for (auto& op : in_flight) {
      --op.remaining;
    }
    const auto want =
        erase_rows([](const ShadowOp& op) { return op.remaining == 0; });
    ASSERT_EQ(std::vector<unsigned>(completed.begin(), completed.end()),
              want);
    check("step");
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(Engine, OccupancyMasksMatchTheReferenceScans) {
  for (const bool pipelined : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      run_occupancy_episode(seed, pipelined);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace steersim
