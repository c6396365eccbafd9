// Unit tests for the configuration selection unit (Figs. 2 and 3): unit
// decoders, requirement encoders, the shift-approximated CEM (exhaustive
// comparison against the exact equation), minimal-error selection with
// every tie-break rule, and the trace-free decision against select_counts.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "config/circuit_cost.hpp"
#include "config/selection_unit.hpp"

namespace steersim {
namespace {

TEST(UnitDecoder, OneHotPerOpcode) {
  for (unsigned i = 0; i < kNumOpcodes; ++i) {
    const auto op = static_cast<Opcode>(i);
    const UnitOneHot hot = unit_decode(op);
    EXPECT_EQ(hot.count(), 1u);
    EXPECT_TRUE(hot.test(fu_index(fu_type_of(op))));
  }
}

TEST(RequirementsEncoder, CountsPerType) {
  const Opcode ops[] = {Opcode::kAdd, Opcode::kSub, Opcode::kLw,
                        Opcode::kMul, Opcode::kFadd, Opcode::kFmul,
                        Opcode::kSw};
  const FuCounts req = encode_requirements(ops);
  EXPECT_EQ(req[fu_index(FuType::kIntAlu)], 2);
  EXPECT_EQ(req[fu_index(FuType::kIntMdu)], 1);
  EXPECT_EQ(req[fu_index(FuType::kLsu)], 2);
  EXPECT_EQ(req[fu_index(FuType::kFpAlu)], 1);
  EXPECT_EQ(req[fu_index(FuType::kFpMdu)], 1);
}

TEST(RequirementsEncoder, SaturatesAt3Bits) {
  std::vector<Opcode> ops(12, Opcode::kAdd);
  const FuCounts req = encode_requirements(ops);
  EXPECT_EQ(req[fu_index(FuType::kIntAlu)], 7);  // 3-bit saturation
}

TEST(CemShift, Fig3cTruthTable) {
  // Fig. 3c: the divisor is selected from the two high-order bits of the
  // 3-bit available-quantity input.
  EXPECT_EQ(cem_shift_amount(0b000), 0u);  // divide by 1
  EXPECT_EQ(cem_shift_amount(0b001), 0u);
  EXPECT_EQ(cem_shift_amount(0b010), 1u);  // divide by 2
  EXPECT_EQ(cem_shift_amount(0b011), 1u);
  EXPECT_EQ(cem_shift_amount(0b100), 2u);  // divide by 4
  EXPECT_EQ(cem_shift_amount(0b101), 2u);
  EXPECT_EQ(cem_shift_amount(0b110), 2u);
  EXPECT_EQ(cem_shift_amount(0b111), 2u);
}

TEST(Cem, SingleTypeValues) {
  FuCounts req{};
  FuCounts avail{};
  req[0] = 6;
  avail[0] = 4;  // divide by 4 -> 1
  for (unsigned t = 1; t < kNumFuTypes; ++t) {
    avail[t] = 1;
  }
  EXPECT_EQ(cem_error_approx(req, avail), 6u >> 2);
  avail[0] = 2;  // divide by 2 -> 3
  EXPECT_EQ(cem_error_approx(req, avail), 3u);
  avail[0] = 1;  // divide by 1 -> 6
  EXPECT_EQ(cem_error_approx(req, avail), 6u);
}

TEST(Cem, ApproxNeverExceedsRequirementSum) {
  // Every shifted term <= required(t); the 3-bit adder never saturates
  // because Σ required <= 7 (the queue bound).
  for (unsigned r0 = 0; r0 <= 7; ++r0) {
    for (unsigned a0 = 0; a0 <= 7; ++a0) {
      FuCounts req{};
      FuCounts avail{};
      req[0] = static_cast<std::uint8_t>(r0);
      avail[0] = static_cast<std::uint8_t>(a0);
      EXPECT_LE(cem_error_approx(req, avail), r0);
    }
  }
}

TEST(Cem, ExhaustiveApproxVsExactMonotonicity) {
  // For every (req, avail) pair in 3-bit range, the shift approximation
  // divides by {1,2,4}, i.e. by at most the true availability when
  // avail >= 1, so approx >= floor(exact) / 2 and approx <= req.
  for (unsigned r = 0; r <= 7; ++r) {
    for (unsigned a = 1; a <= 7; ++a) {
      const unsigned shift = cem_shift_amount(static_cast<std::uint8_t>(a));
      const unsigned divisor = 1u << shift;
      EXPECT_LE(divisor, a) << "divisor must round down (Fig. 3c)";
      EXPECT_GT(2 * divisor, a) << "divisor is the nearest power of two <= a";
      const double exact = static_cast<double>(r) / a;
      const double approx = static_cast<double>(r >> shift);
      // Approximation uses a >= divisor, so floor(r/divisor) >= floor(r/a).
      EXPECT_GE(approx, std::floor(exact));
    }
  }
}

std::array<unsigned, kNumCandidates> zero_cost() { return {0, 0, 0, 0}; }

TEST(Selection, PicksIntegerConfigForIntegerQueue) {
  const ConfigSelectionUnit unit(default_steering_set());
  // A queue full of ALU + MDU work with only the FFUs configured.
  const Opcode ops[] = {Opcode::kAdd, Opcode::kSub, Opcode::kMul,
                        Opcode::kAdd, Opcode::kXor, Opcode::kLw,
                        Opcode::kAdd};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  auto cost = zero_cost();
  cost[1] = 8;
  cost[2] = 8;
  cost[3] = 8;
  const SelectionTrace trace = unit.select(ops, ffu_only, cost);
  EXPECT_EQ(trace.selection, 1u);  // Config 1 = "integer"
  EXPECT_EQ(trace.required[fu_index(FuType::kIntAlu)], 5);
}

TEST(Selection, PicksFloatConfigForFpQueue) {
  const ConfigSelectionUnit unit(default_steering_set());
  const Opcode ops[] = {Opcode::kFadd, Opcode::kFmul, Opcode::kFadd,
                        Opcode::kFsqrt, Opcode::kFlw};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  const SelectionTrace trace = unit.select(ops, ffu_only, zero_cost());
  EXPECT_EQ(trace.selection, 3u);  // Config 3 = "float"
}

TEST(Selection, CurrentWinsWhenAlreadyMatched) {
  const ConfigSelectionUnit unit(default_steering_set());
  const Opcode ops[] = {Opcode::kAdd, Opcode::kAdd, Opcode::kLw};
  // Current fabric already is the integer preset + FFUs.
  const FuCounts current = default_steering_set().preset_total(0);
  auto cost = zero_cost();
  cost[1] = 0;  // even a free switch to config 1 must not beat current
  cost[2] = 8;
  cost[3] = 8;
  const SelectionTrace trace = unit.select(ops, current, cost);
  EXPECT_EQ(trace.selection, 0u);
}

TEST(Selection, EmptyQueueKeepsCurrent) {
  const ConfigSelectionUnit unit(default_steering_set());
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  const SelectionTrace trace =
      unit.select({}, ffu_only, zero_cost());
  EXPECT_EQ(trace.selection, 0u);  // all errors 0; current favoured
  for (const double e : trace.errors) {
    EXPECT_EQ(e, 0.0);
  }
}

TEST(Selection, TieBreakLeastReconfigAmongPresets) {
  const ConfigSelectionUnit unit(default_steering_set());
  // Make current strictly worse than all presets so only presets tie.
  const Opcode ops[] = {Opcode::kAdd, Opcode::kAdd, Opcode::kLw,
                        Opcode::kFadd};
  const FuCounts weak_current = {1, 1, 1, 1, 1};
  auto cost = zero_cost();
  cost[1] = 8;
  cost[2] = 3;  // config 2 is cheapest to reach
  cost[3] = 8;
  const SelectionTrace trace = unit.select(ops, weak_current, cost);
  // Verify that whatever won, no strictly-better (error, cost) candidate
  // among presets was passed over.
  const unsigned sel = trace.selection;
  ASSERT_GE(sel, 1u);
  for (unsigned c = 1; c < kNumCandidates; ++c) {
    EXPECT_FALSE(trace.errors[c] < trace.errors[sel]);
    if (trace.errors[c] == trace.errors[sel]) {
      EXPECT_GE(cost[c], cost[sel]);
    }
  }
}

TEST(Selection, TieBreakModesDiffer) {
  const SteeringSet set = default_steering_set();
  const ConfigSelectionUnit paper(set, CemMode::kShiftApprox,
                                  TieBreak::kPaper);
  const ConfigSelectionUnit naive(set, CemMode::kShiftApprox,
                                  TieBreak::kLowestIndex);
  const ConfigSelectionUnit least(set, CemMode::kShiftApprox,
                                  TieBreak::kLeastReconfig);
  // All-zero requirements: every error ties at 0.
  auto cost = zero_cost();
  cost[0] = 0;
  cost[1] = 5;
  cost[2] = 1;
  cost[3] = 5;
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  EXPECT_EQ(paper.select({}, ffu_only, cost).selection, 0u);
  EXPECT_EQ(naive.select({}, ffu_only, cost).selection, 0u);
  EXPECT_EQ(least.select({}, ffu_only, cost).selection, 0u);  // cost[0]=0

  // Current expensive: least-reconfig switches away, paper stays.
  cost[0] = 4;
  EXPECT_EQ(paper.select({}, ffu_only, cost).selection, 0u);
  EXPECT_EQ(least.select({}, ffu_only, cost).selection, 2u);
}

TEST(Selection, ExactCemDisagreesWithApproxSometimes) {
  const SteeringSet set = default_steering_set();
  const ConfigSelectionUnit approx(set, CemMode::kShiftApprox);
  const ConfigSelectionUnit exact(set, CemMode::kExactDivide);
  // Sweep simple queues and count disagreements; both must at least agree
  // on the all-integer and all-FP corners.
  const Opcode int_ops[] = {Opcode::kAdd, Opcode::kAdd, Opcode::kAdd,
                            Opcode::kAdd, Opcode::kMul};
  const Opcode fp_ops[] = {Opcode::kFadd, Opcode::kFadd, Opcode::kFmul,
                           Opcode::kFmul, Opcode::kFsqrt};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  auto cost = zero_cost();
  cost[1] = cost[2] = cost[3] = 8;
  EXPECT_EQ(approx.select(int_ops, ffu_only, cost).selection,
            exact.select(int_ops, ffu_only, cost).selection);
  EXPECT_EQ(approx.select(fp_ops, ffu_only, cost).selection,
            exact.select(fp_ops, ffu_only, cost).selection);
}

TEST(Selection, RandomizedBruteForceCrossCheck) {
  // Property: for every tie-break mode, the selection equals an
  // independently computed argmin with the documented tie rules.
  const SteeringSet set = default_steering_set();
  Xoshiro256 rng(515);
  for (const TieBreak tb : {TieBreak::kPaper, TieBreak::kLeastReconfig,
                            TieBreak::kLowestIndex}) {
    const ConfigSelectionUnit unit(set, CemMode::kShiftApprox, tb);
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<Opcode> ops;
      for (std::uint64_t k = rng.next_below(8); k > 0; --k) {
        ops.push_back(static_cast<Opcode>(rng.next_below(kNumOpcodes)));
      }
      FuCounts current{};
      for (auto& c : current) {
        c = static_cast<std::uint8_t>(1 + rng.next_below(5));
      }
      std::array<unsigned, kNumCandidates> cost{};
      for (unsigned p = 1; p < kNumCandidates; ++p) {
        cost[p] = static_cast<unsigned>(rng.next_below(9));
      }
      const SelectionTrace trace = unit.select(ops, current, cost);

      // Brute-force reference.
      std::array<double, kNumCandidates> errors;
      const FuCounts req = encode_requirements(ops);
      errors[0] = cem_error_approx(req, current);
      for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
        errors[p + 1] = cem_error_approx(req, set.preset_total(p));
      }
      unsigned best = 0;
      for (unsigned c = 1; c < kNumCandidates; ++c) {
        bool wins = errors[c] < errors[best];
        if (!wins && errors[c] == errors[best]) {
          switch (tb) {
            case TieBreak::kPaper:
              wins = best != 0 && cost[c] < cost[best];
              break;
            case TieBreak::kLeastReconfig:
              wins = cost[c] < cost[best];
              break;
            case TieBreak::kLowestIndex:
              wins = false;
              break;
          }
        }
        if (wins) {
          best = c;
        }
      }
      ASSERT_EQ(trace.selection, best)
          << "tb=" << static_cast<int>(tb) << " trial=" << trial;
    }
  }
}

class SelectionQueueSizeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SelectionQueueSizeTest, SaturationKeepsSelectionWellDefined) {
  // Queues deeper than 7 saturate the 3-bit encoders but the selection
  // must stay within range and prefer a matching preset.
  const unsigned queue_size = GetParam();
  const ConfigSelectionUnit unit(default_steering_set());
  // FP-MDU demand: only the float config adds FP-MDU capacity, so the
  // choice is unambiguous at any queue depth.
  std::vector<Opcode> ops(queue_size, Opcode::kFmul);
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  const std::array<unsigned, kNumCandidates> cost{0, 8, 8, 8};
  const SelectionTrace trace = unit.select(ops, ffu_only, cost);
  EXPECT_LT(trace.selection, kNumCandidates);
  EXPECT_EQ(trace.selection, 3u);  // float config
  EXPECT_LE(trace.required[fu_index(FuType::kFpMdu)], 7);
}

INSTANTIATE_TEST_SUITE_P(DepthSweep, SelectionQueueSizeTest,
                         ::testing::Values(1u, 7u, 8u, 15u, 31u));

TEST(CircuitCost, ExactDividerCostsStrictlyMore) {
  const CircuitCost approx = cem_approx_cost();
  const CircuitCost exact = cem_exact_cost();
  EXPECT_GT(exact.gates, 2 * approx.gates);
  EXPECT_GT(exact.depth, 2 * approx.depth);
  const CircuitCost unit_a = selection_unit_cost(7, false);
  const CircuitCost unit_e = selection_unit_cost(7, true);
  EXPECT_GT(unit_e.gates, unit_a.gates);
  EXPECT_GT(unit_e.depth, unit_a.depth);
}

TEST(CircuitCost, ScalesWithQueueDepth) {
  const CircuitCost q7 = selection_unit_cost(7, false);
  const CircuitCost q15 = selection_unit_cost(15, false);
  EXPECT_GT(q15.gates, q7.gates) << "more decoders and wider popcounts";
}

TEST(CircuitCost, CompositionRules) {
  const CircuitCost a{10, 3};
  const CircuitCost b{5, 2};
  const CircuitCost serial = a + b;
  EXPECT_EQ(serial.gates, 15u);
  EXPECT_EQ(serial.depth, 5u);
  const CircuitCost par = CircuitCost::parallel(a, 4);
  EXPECT_EQ(par.gates, 40u);
  EXPECT_EQ(par.depth, 3u);
}

TEST(Selection, TraceExposesAllFourStages) {
  const ConfigSelectionUnit unit(default_steering_set());
  const Opcode ops[] = {Opcode::kAdd, Opcode::kFmul};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  const SelectionTrace trace = unit.select(ops, ffu_only, zero_cost());
  ASSERT_EQ(trace.num_entries, 2u);
  EXPECT_TRUE(trace.one_hots[0].test(fu_index(FuType::kIntAlu)));
  EXPECT_TRUE(trace.one_hots[1].test(fu_index(FuType::kFpMdu)));
  EXPECT_EQ(trace.required[fu_index(FuType::kIntAlu)], 1);
  EXPECT_LT(trace.selection, kNumCandidates);
}

// select_index is the steering policy's per-cycle decision; select_counts
// stays the reference it must equal. Every one of the 2^15 requirement
// vectors, against each preset total, FFU-only and seeded random totals
// (one past the 3-bit range, to reach the clamp), with seeded random costs
// drawn from {0, 1, 2} so cost ties are common; every basis, plus a wide one.
class SelectIndexOracle
    : public ::testing::TestWithParam<std::tuple<CemMode, TieBreak>> {};

TEST_P(SelectIndexOracle, EqualsSelectCountsOnEveryRequirementVector) {
  const auto [mode, tie_break] = GetParam();
  Xoshiro256 rng(0x5e1ec7 + static_cast<unsigned>(mode) * 3 +
                 static_cast<unsigned>(tie_break));
  std::vector<SteeringSet> bases = all_bases();
  // A 16-slot basis whose presets exceed the 3-bit available count, so the
  // presets' shift amounts go through the clamp too.
  SteeringSet wide_basis = default_steering_set();
  wide_basis.name = "wide16";
  wide_basis.num_slots = 16;
  wide_basis.presets[0][fu_index(FuType::kIntAlu)] = 12;
  wide_basis.presets[1][fu_index(FuType::kLsu)] = 9;
  bases.push_back(wide_basis);
  for (const SteeringSet& set : bases) {
    const ConfigSelectionUnit unit(set, mode, tie_break);
    std::vector<FuCounts> totals;
    for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
      totals.push_back(set.preset_total(p));
    }
    totals.push_back(set.ffu);
    for (unsigned r = 0; r < 4; ++r) {
      FuCounts total{};
      for (auto& count : total) {
        count = static_cast<std::uint8_t>(rng.next_below(8));
      }
      totals.push_back(total);
    }
    FuCounts wide{};
    for (auto& count : wide) {
      count = static_cast<std::uint8_t>(rng.next_below(10));
    }
    totals.push_back(wide);

    unsigned mismatches = 0;
    for (unsigned bits = 0; bits < (1u << 15); ++bits) {
      FuCounts required{};
      for (unsigned t = 0; t < kNumFuTypes; ++t) {
        required[t] = static_cast<std::uint8_t>((bits >> (3 * t)) & 0b111);
      }
      for (const FuCounts& total : totals) {
        std::array<unsigned, kNumCandidates> cost{};
        for (auto& c : cost) {
          c = static_cast<unsigned>(rng.next_below(3));
        }
        const unsigned got = unit.select_index(required, total, cost);
        const unsigned want =
            unit.select_counts(required, total, cost).selection;
        if (got != want && ++mismatches <= 5) {
          ADD_FAILURE() << set.name << " required=" << bits
                        << " selection " << got << " != reference " << want;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << set.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryModeAndRule, SelectIndexOracle,
    ::testing::Combine(::testing::Values(CemMode::kShiftApprox,
                                         CemMode::kExactDivide),
                       ::testing::Values(TieBreak::kPaper,
                                         TieBreak::kLeastReconfig,
                                         TieBreak::kLowestIndex)));

}  // namespace
}  // namespace steersim
