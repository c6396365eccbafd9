// Unit tests for Table-1 encodings, slot costs, the resource allocation
// vector, canonical placement, region recovery, diffs, and the steering
// bases.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "config/steering_set.hpp"

namespace steersim {
namespace {

TEST(Encoding, Table1Codes) {
  EXPECT_EQ(encoding_of(FuType::kIntAlu), 0b001);
  EXPECT_EQ(encoding_of(FuType::kIntMdu), 0b010);
  EXPECT_EQ(encoding_of(FuType::kLsu), 0b011);
  EXPECT_EQ(encoding_of(FuType::kFpAlu), 0b100);
  EXPECT_EQ(encoding_of(FuType::kFpMdu), 0b101);
}

TEST(Encoding, RoundTripAndSpecialCodes) {
  for (const FuType t : kAllFuTypes) {
    EXPECT_EQ(type_from_encoding(encoding_of(t)), t);
  }
  EXPECT_FALSE(type_from_encoding(kEncEmpty).has_value());
  EXPECT_FALSE(type_from_encoding(kEncContinuation).has_value());
  EXPECT_FALSE(type_from_encoding(0b110).has_value());
}

TEST(Encoding, SlotCosts) {
  EXPECT_EQ(slot_cost(FuType::kIntAlu), 1u);
  EXPECT_EQ(slot_cost(FuType::kLsu), 1u);
  EXPECT_EQ(slot_cost(FuType::kIntMdu), 2u);
  EXPECT_EQ(slot_cost(FuType::kFpAlu), 3u);
  EXPECT_EQ(slot_cost(FuType::kFpMdu), 3u);
}

TEST(Encoding, SlotsUsed) {
  const FuCounts counts = {4, 1, 2, 0, 0};
  EXPECT_EQ(slots_used(counts), 8u);
  const FuCounts fp = {0, 0, 0, 1, 1};
  EXPECT_EQ(slots_used(fp), 6u);
}

TEST(Allocation, EmptyByDefault) {
  const AllocationVector alloc(8);
  EXPECT_EQ(alloc.num_slots(), 8u);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(alloc.code(i), kEncEmpty);
  }
  EXPECT_EQ(alloc.regions().size(), 0u);
}

TEST(Allocation, PlaceWritesHeadAndContinuations) {
  // 1 IntMdu (2 slots) + 1 FpAlu (3 slots) + 1 Lsu.
  const FuCounts counts = {0, 1, 1, 1, 0};
  const AllocationVector alloc = AllocationVector::place(counts, 8);
  // Canonical order: IntMdu @0-1, Lsu @2, FpAlu @3-5.
  EXPECT_EQ(alloc.code(0), kEncIntMdu);
  EXPECT_EQ(alloc.code(1), kEncContinuation);
  EXPECT_EQ(alloc.code(2), kEncLsu);
  EXPECT_EQ(alloc.code(3), kEncFpAlu);
  EXPECT_EQ(alloc.code(4), kEncContinuation);
  EXPECT_EQ(alloc.code(5), kEncContinuation);
  EXPECT_EQ(alloc.code(6), kEncEmpty);
  EXPECT_EQ(alloc.counts(), counts);
}

TEST(Allocation, RegionsRecoverPlacement) {
  const FuCounts counts = {2, 1, 0, 0, 1};
  const auto alloc = AllocationVector::place(counts, 8);
  const auto regions = alloc.regions();
  ASSERT_EQ(regions.size(), 4u);
  EXPECT_EQ(regions[0], (SlotRegion{FuType::kIntAlu, 0, 1}));
  EXPECT_EQ(regions[1], (SlotRegion{FuType::kIntAlu, 1, 1}));
  EXPECT_EQ(regions[2], (SlotRegion{FuType::kIntMdu, 2, 2}));
  EXPECT_EQ(regions[3], (SlotRegion{FuType::kFpMdu, 4, 3}));
}

TEST(Allocation, DiffIsXorLike) {
  const auto a = AllocationVector::place({4, 1, 2, 0, 0}, 8);
  const auto b = AllocationVector::place({4, 1, 2, 0, 0}, 8);
  EXPECT_TRUE(a.diff(b).none());

  const auto c = AllocationVector::place({2, 0, 3, 1, 0}, 8);
  const auto diff = a.diff(c);
  EXPECT_TRUE(diff.any());
  // Slots 0 and 1 hold IntAlu in both layouts: no rewrite needed there.
  EXPECT_FALSE(diff.test(0));
  EXPECT_FALSE(diff.test(1));
  EXPECT_TRUE(diff.test(2));
}

TEST(Allocation, ClearSpanOrphansContinuationsSafely) {
  auto alloc = AllocationVector::place({0, 0, 0, 1, 0}, 8);  // FpAlu @0-2
  alloc.clear_span(0, 1);  // head gone, continuations at 1,2 orphaned
  const auto regions = alloc.regions();
  EXPECT_EQ(regions.size(), 0u);  // orphaned continuations form no unit
  const FuCounts empty{};
  EXPECT_EQ(alloc.counts(), empty);
}

TEST(Allocation, RegionSlotsMatchesRegionLengths) {
  // Every slot code, including orphaned and overlong continuation runs and
  // the undefined code 0b110, across random vectors.
  Xoshiro256 rng(7);
  for (unsigned trial = 0; trial < 500; ++trial) {
    AllocationVector alloc(1 + static_cast<unsigned>(rng.next_below(32)));
    for (unsigned slot = 0; slot < alloc.num_slots(); ++slot) {
      alloc.set_code(slot, static_cast<std::uint8_t>(rng.next_below(8)));
    }
    unsigned covered = 0;
    for (const auto& region : alloc.regions()) {
      covered += region.len;
    }
    EXPECT_EQ(alloc.region_slots(), covered) << alloc.to_string();
  }
}

TEST(Allocation, ToStringFormat) {
  const auto alloc = AllocationVector::place({1, 1, 0, 0, 0}, 5);
  EXPECT_EQ(alloc.to_string(), "ALU MDU > . .");
}

TEST(SteeringSet, DefaultTable1Reconstruction) {
  const SteeringSet set = default_steering_set();
  EXPECT_TRUE(set.feasible());
  EXPECT_EQ(set.num_slots, 8u);
  // FFUs: one of each type.
  for (const FuType t : kAllFuTypes) {
    EXPECT_EQ(set.ffu[fu_index(t)], 1);
  }
  // Every preset fills exactly the 8-slot budget.
  for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
    EXPECT_EQ(slots_used(set.presets[p]), 8u) << p;
  }
  // The "integer" preset is the only one with extra Int-MDU capacity; the
  // "float" preset is the only one with extra FP-MDU capacity.
  EXPECT_EQ(set.presets[0][fu_index(FuType::kIntMdu)], 1);
  EXPECT_EQ(set.presets[1][fu_index(FuType::kIntMdu)], 0);
  EXPECT_EQ(set.presets[2][fu_index(FuType::kFpMdu)], 1);
}

TEST(SteeringSet, PresetTotalsIncludeFfus) {
  const SteeringSet set = default_steering_set();
  const FuCounts total = set.preset_total(0);
  EXPECT_EQ(total[fu_index(FuType::kIntAlu)], 5);  // 4 RFU + 1 FFU
  EXPECT_EQ(total[fu_index(FuType::kFpMdu)], 1);   // FFU only
}

TEST(SteeringSet, PresetAllocationsAreCanonical) {
  const SteeringSet set = default_steering_set();
  for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
    const auto alloc = set.preset_allocation(p);
    EXPECT_EQ(alloc.counts(), set.presets[p]) << p;
  }
}

TEST(SteeringSet, AllBasesFeasible) {
  for (const SteeringSet& basis : all_bases()) {
    EXPECT_TRUE(basis.feasible()) << basis.name;
    EXPECT_FALSE(basis.name.empty());
  }
}

}  // namespace
}  // namespace steersim
