// Unit tests for steering policies: the paper's manager drives the loader
// toward the matching preset; the oracle packer; static/random behaviour.
#include <gtest/gtest.h>

#include "core/policy.hpp"

namespace steersim {
namespace {

const SteeringSet kSet = default_steering_set();

LoaderParams loader_params() {
  LoaderParams p;
  p.num_slots = kSet.num_slots;
  p.cycles_per_slot = 1;
  return p;
}

SteerContext context(std::span<const Opcode> ops, const FuCounts& current) {
  SteerContext ctx;
  ctx.required = encode_requirements(ops);
  ctx.current_total = current;
  return ctx;
}

TEST(SteeredPolicy, RequestsIntegerPresetForIntegerQueue) {
  SteeredPolicy policy(kSet);
  ConfigurationLoader loader(loader_params(), AllocationVector(8));
  const Opcode ops[] = {Opcode::kAdd, Opcode::kSub, Opcode::kXor,
                        Opcode::kAdd, Opcode::kMul};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  policy.steer(context(ops, ffu_only), loader);
  EXPECT_EQ(loader.target(), kSet.preset_allocation(0));
  EXPECT_EQ(policy.stats().selections[1], 1u);
}

TEST(SteeredPolicy, SelectingCurrentFreezesTarget) {
  SteeredPolicy policy(kSet);
  // Fabric already holds the float preset; queue is FP work.
  ConfigurationLoader loader(loader_params(), kSet.preset_allocation(2));
  const Opcode ops[] = {Opcode::kFadd, Opcode::kFmul};
  policy.steer(context(ops, kSet.preset_total(2)), loader);
  EXPECT_EQ(policy.stats().selections[0], 1u);
  EXPECT_EQ(loader.target(), loader.allocation());
}

TEST(SteeredPolicy, DecisionFollowsCostsWhenOnlyTheyChange) {
  // Two FP-ALU ops against an empty current configuration: the memory and
  // float presets tie on error (both provide two FP ALUs), so the least
  // reconfiguration decides. Only the costs differ between the two
  // decisions: the ready set and the current totals are the same.
  const Opcode ops[] = {Opcode::kFadd, Opcode::kFadd};
  const FuCounts empty{};
  SteeredPolicy policy(kSet);
  ConfigurationLoader on_memory(loader_params(), kSet.preset_allocation(1));
  policy.steer(context(ops, empty), on_memory);
  EXPECT_EQ(policy.stats().selections[2], 1u);
  ConfigurationLoader on_float(loader_params(), kSet.preset_allocation(2));
  policy.steer(context(ops, empty), on_float);
  EXPECT_EQ(policy.stats().selections[3], 1u);
}

TEST(SteeredPolicy, IntervalThrottlesDecisions) {
  SteeredPolicy policy(kSet, CemMode::kShiftApprox, TieBreak::kPaper,
                       /*interval=*/4);
  ConfigurationLoader loader(loader_params(), AllocationVector(8));
  const Opcode ops[] = {Opcode::kAdd, Opcode::kAdd, Opcode::kAdd};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  for (int c = 0; c < 8; ++c) {
    policy.steer(context(ops, ffu_only), loader);
  }
  EXPECT_EQ(policy.stats().steer_events, 2u);  // cycles 0 and 4
}

TEST(OraclePack, ProvisionsForDominantDemand) {
  // Demand: 5 IntAlu, 1 Lsu against single FFUs -> mostly ALUs.
  FuCounts required{};
  required[fu_index(FuType::kIntAlu)] = 5;
  required[fu_index(FuType::kLsu)] = 1;
  const FuCounts ffu = {1, 1, 1, 1, 1};
  const auto alloc = OraclePolicy::pack(required, ffu, 8);
  const FuCounts counts = alloc.counts();
  EXPECT_GE(counts[fu_index(FuType::kIntAlu)], 4u);
  EXPECT_GE(counts[fu_index(FuType::kLsu)], 1u);
  EXPECT_EQ(counts[fu_index(FuType::kFpMdu)], 0u);
}

TEST(OraclePack, EmptyDemandLeavesFabricEmpty) {
  const FuCounts required{};
  const FuCounts ffu = {1, 1, 1, 1, 1};
  const auto alloc = OraclePolicy::pack(required, ffu, 8);
  EXPECT_EQ(alloc.regions().size(), 0u);
}

TEST(OraclePack, FillsAllSlotsUnderUniformDemand) {
  FuCounts required{};
  required.fill(3);
  const FuCounts ffu = {1, 1, 1, 1, 1};
  const auto alloc = OraclePolicy::pack(required, ffu, 8);
  unsigned used = 0;
  for (const auto& region : alloc.regions()) {
    used += region.len;
  }
  EXPECT_GE(used, 7u) << "at most one dead slot under mixed demand";
}

TEST(OraclePack, ZeroFfuTypesGetAbsolutePriority) {
  FuCounts required{};
  required[fu_index(FuType::kFpMdu)] = 1;
  required[fu_index(FuType::kIntAlu)] = 7;
  FuCounts no_fp_ffu = {1, 1, 1, 1, 0};
  const auto alloc = OraclePolicy::pack(required, no_fp_ffu, 8);
  EXPECT_GE(alloc.counts()[fu_index(FuType::kFpMdu)], 1u)
      << "a type with zero configured units must be provisioned first";
}

TEST(StaticPolicy, NeverTouchesLoader) {
  StaticPolicy policy;
  ConfigurationLoader loader(loader_params(), kSet.preset_allocation(1));
  const Opcode ops[] = {Opcode::kFadd, Opcode::kFmul, Opcode::kFsqrt};
  policy.steer(context(ops, kSet.preset_total(1)), loader);
  EXPECT_EQ(loader.stats().targets_requested, 0u);
  EXPECT_EQ(loader.target(), kSet.preset_allocation(1));
}

TEST(SteeredPolicy, HysteresisDelaysRetarget) {
  SteeredPolicy policy(kSet, CemMode::kShiftApprox, TieBreak::kPaper,
                       /*interval=*/1, /*confirm=*/3);
  ConfigurationLoader loader(loader_params(), AllocationVector(8));
  const Opcode ops[] = {Opcode::kAdd, Opcode::kSub, Opcode::kXor,
                        Opcode::kAdd, Opcode::kMul};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  const AllocationVector empty(8);
  policy.steer(context(ops, ffu_only), loader);
  EXPECT_EQ(loader.target(), empty) << "1st selection: no retarget yet";
  policy.steer(context(ops, ffu_only), loader);
  EXPECT_EQ(loader.target(), empty) << "2nd selection: still pending";
  policy.steer(context(ops, ffu_only), loader);
  EXPECT_EQ(loader.target(), kSet.preset_allocation(0))
      << "3rd consecutive selection commits";
}

TEST(SteeredPolicy, HysteresisStreakResetsOnDifferentSelection) {
  SteeredPolicy policy(kSet, CemMode::kShiftApprox, TieBreak::kPaper, 1,
                       /*confirm=*/2);
  ConfigurationLoader loader(loader_params(), AllocationVector(8));
  const Opcode int_ops[] = {Opcode::kAdd, Opcode::kAdd, Opcode::kAdd,
                            Opcode::kAdd, Opcode::kMul};
  const Opcode fp_ops[] = {Opcode::kFadd, Opcode::kFmul, Opcode::kFadd,
                           Opcode::kFsqrt, Opcode::kFlw};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  const AllocationVector empty(8);
  policy.steer(context(int_ops, ffu_only), loader);  // cfg1, streak 1
  policy.steer(context(fp_ops, ffu_only), loader);   // cfg3, streak 1
  policy.steer(context(int_ops, ffu_only), loader);  // cfg1, streak 1
  EXPECT_EQ(loader.target(), empty) << "alternating selections never commit";
  policy.steer(context(int_ops, ffu_only), loader);  // cfg1, streak 2
  EXPECT_EQ(loader.target(), kSet.preset_allocation(0));
}

TEST(GreedyPolicy, PacksForSustainedDemand) {
  GreedyPolicy policy(kSet, /*interval=*/4, /*smoothing=*/0.5);
  ConfigurationLoader loader(loader_params(), AllocationVector(8));
  const Opcode ops[] = {Opcode::kAdd, Opcode::kAdd, Opcode::kAdd,
                        Opcode::kAdd, Opcode::kLw};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  for (int c = 0; c < 32; ++c) {
    policy.steer(context(ops, ffu_only), loader);
    loader.step(SlotMask{});
  }
  const FuCounts target = loader.target().counts();
  EXPECT_GE(target[fu_index(FuType::kIntAlu)], 3u)
      << "sustained ALU demand must dominate the pack";
  EXPECT_EQ(target[fu_index(FuType::kFpMdu)], 0u);
}

TEST(GreedyPolicy, NoDemandNoRetargeting) {
  GreedyPolicy policy(kSet, 2, 0.5);
  ConfigurationLoader loader(loader_params(), AllocationVector(8));
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  for (int c = 0; c < 16; ++c) {
    policy.steer(context({}, ffu_only), loader);
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.stats().targets_requested, 0u);
}

TEST(GreedyPolicy, EqualCountsRepackingSuppressed) {
  // Once a target providing the demanded counts is set, repacking to the
  // same counts (different slot layout) must not retarget.
  GreedyPolicy policy(kSet, 1, 1.0);
  ConfigurationLoader loader(loader_params(), AllocationVector(8));
  const Opcode ops[] = {Opcode::kAdd, Opcode::kAdd, Opcode::kAdd};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  for (int c = 0; c < 20; ++c) {
    policy.steer(context(ops, ffu_only), loader);
    loader.step(SlotMask{});
  }
  EXPECT_LE(loader.stats().targets_requested, 2u);
}

TEST(RandomPolicy, DeterministicPerSeedAndCoversCandidates) {
  const Opcode ops[] = {Opcode::kAdd};
  const FuCounts ffu_only = {1, 1, 1, 1, 1};
  auto run = [&](std::uint64_t seed) {
    RandomPolicy policy(kSet, seed, /*interval=*/1);
    ConfigurationLoader loader(loader_params(), AllocationVector(8));
    for (int c = 0; c < 200; ++c) {
      policy.steer(context(ops, ffu_only), loader);
    }
    return policy.stats().selections;
  };
  EXPECT_EQ(run(5), run(5));
  const auto counts = run(5);
  for (unsigned c = 0; c < kNumCandidates; ++c) {
    EXPECT_GT(counts[c], 0u) << c;
  }
}

}  // namespace
}  // namespace steersim
