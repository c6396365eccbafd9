// Unit tests for the select-free wake-up array (Figs. 4, 5, 6), including
// a faithful reconstruction of the paper's worked 7-instruction example.
#include <gtest/gtest.h>

#include "sched/select_logic.hpp"
#include "sched/wakeup_array.hpp"

namespace steersim {
namespace {

ResourceAvail all_available() {
  ResourceAvail a;
  a.fill(true);
  return a;
}

ResourceAvail none_available() {
  ResourceAvail a;
  a.fill(false);
  return a;
}

EntryMask deps_of(std::initializer_list<unsigned> rows) {
  EntryMask m;
  for (const unsigned r : rows) {
    m.set(r);
  }
  return m;
}

/// The paper's Figure 4/5 example: entries 1..7 (rows 0..6 here).
///   Entry 1 Shift  (IntAlu)  no deps
///   Entry 2 Sub    (IntAlu)  no deps
///   Entry 3 Add    (IntAlu)  needs results of entries 1 and 2
///   Entry 4 Mul    (IntMdu)  needs result of entry 2
///   Entry 5 Load   (Lsu)     no deps
///   Entry 6 FPMul  (FpMdu)   needs result of entry 5
///   Entry 7 FPAdd  (FpAlu)   needs results of entries 5 and 6
struct PaperExample {
  WakeupArray array{7};
  PaperExample() {
    EXPECT_EQ(array.insert(FuType::kIntAlu, deps_of({}), 1), 0u);
    EXPECT_EQ(array.insert(FuType::kIntAlu, deps_of({}), 2), 1u);
    EXPECT_EQ(array.insert(FuType::kIntAlu, deps_of({0, 1}), 3), 2u);
    EXPECT_EQ(array.insert(FuType::kIntMdu, deps_of({1}), 4), 3u);
    EXPECT_EQ(array.insert(FuType::kLsu, deps_of({}), 5), 4u);
    EXPECT_EQ(array.insert(FuType::kFpMdu, deps_of({4}), 6), 5u);
    EXPECT_EQ(array.insert(FuType::kFpAlu, deps_of({4, 5}), 7), 6u);
  }
};

TEST(WakeupPaperExample, Fig5BitMatrix) {
  PaperExample ex;
  // Execution-unit-required columns (one-hot rows of Fig. 5).
  EXPECT_EQ(ex.array.entry(0).fu, FuType::kIntAlu);
  EXPECT_EQ(ex.array.entry(3).fu, FuType::kIntMdu);
  EXPECT_EQ(ex.array.entry(4).fu, FuType::kLsu);
  EXPECT_EQ(ex.array.entry(5).fu, FuType::kFpMdu);
  EXPECT_EQ(ex.array.entry(6).fu, FuType::kFpAlu);
  // Result-required columns: only the edges of the dependency graph.
  EXPECT_EQ(ex.array.entry(2).deps, deps_of({0, 1}));
  EXPECT_EQ(ex.array.entry(3).deps, deps_of({1}));
  EXPECT_EQ(ex.array.entry(6).deps, deps_of({4, 5}));
  EXPECT_TRUE(ex.array.entry(0).deps.none());
  EXPECT_TRUE(ex.array.entry(4).deps.none());
}

TEST(WakeupPaperExample, InitialRequestsAreTheRoots) {
  PaperExample ex;
  // With every resource available, exactly the dependency-graph roots
  // (Shift, Sub, Load) request execution.
  const EntryMask requests = ex.array.request_execution(all_available());
  EXPECT_EQ(requests, deps_of({0, 1, 4}));
}

TEST(WakeupPaperExample, DependentWakesWhenProducersFinish) {
  PaperExample ex;
  // Grant Shift and Sub (1-cycle ALU ops) and Load (3-cycle).
  ex.array.grant(0, 1);
  ex.array.grant(1, 1);
  ex.array.grant(4, 3);
  ex.array.tick();  // end of cycle: 1-cycle results become available
  EXPECT_TRUE(ex.array.entry(0).result_available);
  EXPECT_TRUE(ex.array.entry(1).result_available);
  EXPECT_FALSE(ex.array.entry(4).result_available);

  // Next cycle: Add (deps 0,1) and Mul (dep 1) request; FP ops still wait
  // on the load.
  const EntryMask requests = ex.array.request_execution(all_available());
  EXPECT_EQ(requests, deps_of({2, 3}));

  ex.array.tick();
  ex.array.tick();  // load's 3 cycles elapse
  EXPECT_TRUE(ex.array.entry(4).result_available);
  const EntryMask later = ex.array.request_execution(all_available());
  EXPECT_TRUE(later.test(5));   // FPMul wakes
  EXPECT_FALSE(later.test(6));  // FPAdd still needs FPMul's result
}

TEST(WakeupPaperExample, ResourceLineGatesRequests) {
  PaperExample ex;
  ResourceAvail avail = all_available();
  avail[fu_index(FuType::kIntAlu)] = false;
  const EntryMask requests = ex.array.request_execution(avail);
  // Shift and Sub (IntAlu) are blocked; Load (Lsu) still requests.
  EXPECT_EQ(requests, deps_of({4}));
}

TEST(WakeupPaperExample, FullScheduleDrains) {
  PaperExample ex;
  // One unit of each type, oldest-first select, every op latency 1 for
  // simplicity: the example must drain in dependency order.
  std::vector<std::uint64_t> grant_order;
  for (int cycle = 0; cycle < 20 && ex.array.stats().grants < 7; ++cycle) {
    const EntryMask requests = ex.array.request_execution(all_available());
    const auto age_order = ex.array.age_order();
    const GrantList grants = select_oldest_first(
        ex.array, requests, age_order, {1, 1, 1, 1, 1});
    for (const unsigned row : grants) {
      grant_order.push_back(ex.array.entry(row).tag);
      ex.array.grant(row, 1);
    }
    ex.array.tick();
  }
  ASSERT_EQ(grant_order.size(), 7u);
  // Topological constraints from Fig. 4.
  auto pos = [&grant_order](std::uint64_t tag) {
    return std::find(grant_order.begin(), grant_order.end(), tag) -
           grant_order.begin();
  };
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(2), pos(4));
  EXPECT_LT(pos(5), pos(6));
  EXPECT_LT(pos(6), pos(7));
  // Only one IntAlu: Shift and Sub can't both go in cycle 0; contention
  // resolved oldest-first.
  EXPECT_LT(pos(1), pos(2));
}

TEST(Wakeup, ScheduledBitStopsRerequest) {
  WakeupArray array(4);
  const auto row = array.insert(FuType::kIntAlu, {}, 10);
  array.grant(*row, 5);
  EXPECT_TRUE(array.request_execution(all_available()).none());
}

TEST(Wakeup, RescheduleReopensEntry) {
  WakeupArray array(4);
  const auto row = array.insert(FuType::kIntAlu, {}, 10);
  array.grant(*row, 5);
  array.reschedule(*row);
  EXPECT_TRUE(array.request_execution(all_available()).test(*row));
  EXPECT_EQ(array.stats().reschedules, 1u);
}

TEST(Wakeup, TimerAssertsAfterLatencyTicks) {
  WakeupArray array(4);
  const auto row = array.insert(FuType::kIntMdu, {}, 1);
  array.grant(*row, 4);
  for (int t = 0; t < 3; ++t) {
    array.tick();
    EXPECT_FALSE(array.entry(*row).result_available) << t;
  }
  array.tick();
  EXPECT_TRUE(array.entry(*row).result_available);
}

TEST(Wakeup, RetireClearsColumnAcrossArray) {
  WakeupArray array(4);
  const auto producer = array.insert(FuType::kLsu, {}, 1);
  const auto consumer =
      array.insert(FuType::kIntAlu, deps_of({*producer}), 2);
  // Consumer blocked on producer's result.
  EXPECT_FALSE(array.request_execution(all_available()).test(*consumer));
  // Producer completes and retires: the column clears and the consumer no
  // longer waits (it reads the register file instead).
  array.grant(*producer, 1);
  array.retire(*producer);
  EXPECT_TRUE(array.request_execution(all_available()).test(*consumer));
  EXPECT_TRUE(array.entry(*consumer).deps.none());
}

TEST(Wakeup, RowReuseAfterRetireDoesNotResurrectDeps) {
  WakeupArray array(2);
  const auto a = array.insert(FuType::kIntAlu, {}, 1);
  const auto b = array.insert(FuType::kIntAlu, deps_of({*a}), 2);
  array.grant(*a, 1);
  array.retire(*a);
  // New instruction lands in the retired row; the old consumer must not
  // become dependent on it.
  const auto c = array.insert(FuType::kFpAlu, {}, 3);
  EXPECT_EQ(*c, *a);
  EXPECT_TRUE(array.entry(*b).deps.none());
}

TEST(Wakeup, SquashClearsLikeRetireButCountsSeparately) {
  WakeupArray array(4);
  const auto a = array.insert(FuType::kIntAlu, {}, 1);
  array.squash(*a);
  EXPECT_EQ(array.stats().squashes, 1u);
  EXPECT_EQ(array.stats().retires, 0u);
  EXPECT_EQ(array.free_entries(), 4u);
}

TEST(Wakeup, FullArrayRejectsInsert) {
  WakeupArray array(2);
  EXPECT_TRUE(array.insert(FuType::kIntAlu, {}, 1).has_value());
  EXPECT_TRUE(array.insert(FuType::kIntAlu, {}, 2).has_value());
  EXPECT_FALSE(array.insert(FuType::kIntAlu, {}, 3).has_value());
  EXPECT_TRUE(array.full());
}

TEST(Wakeup, NoResourcesNoRequests) {
  PaperExample ex;
  EXPECT_TRUE(ex.array.request_execution(none_available()).none());
}

TEST(WakeupDeathTest, DepOnInvalidRowIsAContractViolation) {
  // A dependence column pointing at a row nothing occupies can never be
  // satisfied — the consumer would silently block forever. insert()
  // promotes that latent hang to a loud contract failure.
  WakeupArray array(4);
  array.insert(FuType::kIntAlu, {}, 1);  // row 0 valid; rows 1..3 are not
  EXPECT_DEATH(array.insert(FuType::kIntAlu, deps_of({2}), 2), "Expects");
}

TEST(WakeupDeathTest, DepOnRetiredRowIsAContractViolation) {
  WakeupArray array(4);
  const auto producer = array.insert(FuType::kIntAlu, {}, 1);
  array.grant(*producer, 1);
  array.retire(*producer);
  // The producer's row is free again: depending on it now is the same
  // forever-blocked shape as depending on a never-used row.
  EXPECT_DEATH(array.insert(FuType::kIntAlu, deps_of({*producer}), 2),
               "Expects");
}

TEST(Wakeup, RequestDecomposesIntoDepAndResourceReady) {
  PaperExample ex;
  ResourceAvail avail = all_available();
  avail[fu_index(FuType::kIntAlu)] = false;
  // request_execution is exactly the AND of its two column planes.
  EXPECT_EQ(ex.array.request_execution(avail),
            ex.array.dep_ready() & ex.array.resource_ready(avail));
  // dep_ready ignores resources: all three roots are dependence-ready even
  // with their unit lines low.
  EXPECT_EQ(ex.array.dep_ready(), deps_of({0, 1, 4}));
  EXPECT_EQ(ex.array.resource_ready(none_available()), EntryMask{});
}

TEST(Wakeup, ReadyRequirementsCountUnscheduledRowsPerType) {
  WakeupArray array(kMaxWakeupEntries);
  EXPECT_EQ(array.ready_requirements(), FuCounts{});
  // Nine integer-ALU rows: the 3-bit count saturates at 7.
  for (std::uint64_t tag = 0; tag < 9; ++tag) {
    array.insert(FuType::kIntAlu, {}, tag);
  }
  const auto fp = array.insert(FuType::kFpAlu, {}, 9);
  const auto lsu = array.insert(FuType::kLsu, {}, 10);
  FuCounts expected{};
  expected[fu_index(FuType::kIntAlu)] = 7;
  expected[fu_index(FuType::kFpAlu)] = 1;
  expected[fu_index(FuType::kLsu)] = 1;
  EXPECT_EQ(array.ready_requirements(), expected);

  // Granted rows leave the ready set: three grants drop the ALU count
  // below saturation.
  for (unsigned row = 0; row < 3; ++row) {
    array.grant(row, 1);
  }
  expected[fu_index(FuType::kIntAlu)] = 6;
  EXPECT_EQ(array.ready_requirements(), expected);
  array.grant(*fp, 4);
  expected[fu_index(FuType::kFpAlu)] = 0;
  EXPECT_EQ(array.ready_requirements(), expected);
  // Timers move, the ready set does not.
  array.tick();
  EXPECT_EQ(array.ready_requirements(), expected);
  // A rescheduled row requests again and counts again.
  array.reschedule(*fp);
  expected[fu_index(FuType::kFpAlu)] = 1;
  EXPECT_EQ(array.ready_requirements(), expected);

  // Retire and squash clear the row from its type's column; a scheduled
  // row was not counted, so removing it changes nothing.
  array.retire(*lsu);
  expected[fu_index(FuType::kLsu)] = 0;
  EXPECT_EQ(array.ready_requirements(), expected);
  array.squash(*fp);
  expected[fu_index(FuType::kFpAlu)] = 0;
  EXPECT_EQ(array.ready_requirements(), expected);
  array.squash(3);
  expected[fu_index(FuType::kIntAlu)] = 5;
  EXPECT_EQ(array.ready_requirements(), expected);
  array.retire(0);
  EXPECT_EQ(array.ready_requirements(), expected);
}

TEST(Wakeup, AdvanceMatchesRepeatedTicks) {
  WakeupArray a(4);
  WakeupArray b(4);
  for (WakeupArray* arr : {&a, &b}) {
    arr->insert(FuType::kIntMdu, {}, 1);
    arr->insert(FuType::kLsu, {}, 2);
    arr->grant(0, 4);
    arr->grant(1, 6);
  }
  EXPECT_EQ(a.min_timer(), 4u);  // timer arms with the full latency
  a.advance(4);
  for (int t = 0; t < 4; ++t) {
    b.tick();
  }
  EXPECT_EQ(a.entry(0).result_available, b.entry(0).result_available);
  EXPECT_TRUE(a.entry(0).result_available);
  EXPECT_FALSE(a.entry(1).result_available);
  EXPECT_EQ(a.min_timer(), b.min_timer());
  EXPECT_EQ(a.min_timer(), 2u);  // the load's remaining countdown
}

TEST(SelectLogic, BudgetPerTypeRespected) {
  WakeupArray array(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    array.insert(FuType::kIntAlu, {}, i);
  }
  const auto order = array.age_order();
  const auto grants = select_oldest_first(
      array, array.request_execution(all_available()), order,
      {2, 0, 0, 0, 0});
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(array.entry(grants[0]).tag, 0u);
  EXPECT_EQ(array.entry(grants[1]).tag, 1u);
}

TEST(SelectLogic, IssueWidthCapsTotalGrants) {
  WakeupArray array(6);
  for (std::uint64_t i = 0; i < 6; ++i) {
    array.insert(i % 2 == 0 ? FuType::kIntAlu : FuType::kLsu, {}, i);
  }
  ResourceAvail avail;
  avail.fill(true);
  const auto unlimited = select_oldest_first(
      array, array.request_execution(avail), array.age_order(),
      {3, 0, 3, 0, 0});
  EXPECT_EQ(unlimited.size(), 6u);
  const auto capped = select_oldest_first(
      array, array.request_execution(avail), array.age_order(),
      {3, 0, 3, 0, 0}, /*max_grants=*/2);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(array.entry(capped[0]).tag, 0u);
  EXPECT_EQ(array.entry(capped[1]).tag, 1u);
}

TEST(SelectLogic, MixedTypesGrantIndependently) {
  WakeupArray array(4);
  array.insert(FuType::kIntAlu, {}, 0);
  array.insert(FuType::kFpMdu, {}, 1);
  array.insert(FuType::kIntAlu, {}, 2);
  const auto grants = select_oldest_first(
      array, array.request_execution(all_available()), array.age_order(),
      {1, 0, 0, 0, 1});
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(array.entry(grants[0]).tag, 0u);
  EXPECT_EQ(array.entry(grants[1]).tag, 1u);
}

}  // namespace
}  // namespace steersim
