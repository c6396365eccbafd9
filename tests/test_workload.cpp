// Unit tests for the workload layer: mix invariants, synthetic generator
// properties (determinism, mix fidelity, runnability), and kernel library
// coverage of all five unit types.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "common/fnv1a.hpp"
#include "core/reference.hpp"
#include "steerbench_specs.hpp"
#include "workload/kernels.hpp"
#include "workload/synthetic.hpp"

namespace steersim {
namespace {

TEST(Mixes, StandardMixesWellFormed) {
  const auto& mixes = standard_mixes();
  ASSERT_EQ(mixes.size(), 5u);
  for (const auto& mix : mixes) {
    EXPECT_FALSE(mix.name.empty());
    EXPECT_GT(mix.total(), 0.0) << mix.name;
  }
}

TEST(Synthetic, DeterministicPerSeed) {
  const auto spec = single_phase(mixed_mix(), 64, 10, 77);
  EXPECT_EQ(generate_synthetic_asm(spec), generate_synthetic_asm(spec));
  auto other = spec;
  other.seed = 78;
  EXPECT_NE(generate_synthetic_asm(spec), generate_synthetic_asm(other));
}

TEST(Workload, GeneratedSourcesArePinned) {
  // FNV-1a of steerbench's five generated programs at seeds 1-3, taken
  // from the generator that built each line as one `+` chain. Its draw
  // order (right to left within a line, as GCC evaluated those operands)
  // is now written out statement by statement; reordering a draw changes
  // every program, every exact count measured on one, and these digests.
  constexpr std::array<std::array<std::uint64_t, 5>, 3> kDigests = {{
      {0xf688e6fd74727ed3ull, 0x72e3acef4bfee043ull, 0x5e8cc96597eca995ull,
       0xa9fb56318d38bd1cull, 0x722674d268a9e75cull},
      {0x920ebfd4e8bed9dcull, 0x47a991f6503a6755ull, 0xf702a16a9b62c1b3ull,
       0x3c4693c0b806b685ull, 0xe368c82ca6807015ull},
      {0xc7040baf75d2aadeull, 0x84206433bcc1ef9cull, 0x3523d305e3fa2a23ull,
       0xb67374a7d076e5f8ull, 0x7f4d3d728f3ee018ull},
  }};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto specs = steerbench_specs::all(seed);
    ASSERT_EQ(specs.size(), 5u);
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const std::string text = generate_synthetic_asm(specs[k]);
      EXPECT_EQ(Fnv1a().mix(text).value(), kDigests[seed - 1][k])
          << specs[k].name << " at seed " << seed;
    }
  }
}

TEST(Synthetic, AssemblesAndHalts) {
  for (const MixSpec& mix : standard_mixes()) {
    const Program p = generate_synthetic(single_phase(mix, 32, 5, 3));
    ReferenceInterpreter ref;
    const auto result = ref.run(p);
    EXPECT_TRUE(result.halted) << mix.name;
    EXPECT_GT(result.instructions, 32u * 5u) << mix.name;
  }
}

std::map<FuType, double> dynamic_fu_shares(const SyntheticSpec& spec) {
  const Program p = generate_synthetic(spec);
  // Count dynamic instructions per FU type via the reference interpreter's
  // committed path (approximated by a static count over the loop body
  // weighted by its trip count: here we just execute and count statically
  // over code, which matches because all phases loop uniformly).
  std::map<FuType, double> counts;
  double total = 0;
  for (const auto& inst : p.code) {
    counts[fu_type_of(inst.op)] += 1;
    total += 1;
  }
  for (auto& [t, c] : counts) {
    c /= total;
  }
  return counts;
}

TEST(Synthetic, MixWeightsShapeTheInstructionStream) {
  const auto int_shares =
      dynamic_fu_shares(single_phase(int_heavy_mix(), 256, 1, 5));
  const auto fp_shares =
      dynamic_fu_shares(single_phase(fp_heavy_mix(), 256, 1, 5));
  EXPECT_GT(int_shares.at(FuType::kIntAlu), 0.5);
  EXPECT_GT(fp_shares.at(FuType::kFpAlu) + fp_shares.at(FuType::kFpMdu),
            0.4);
  EXPECT_GT(int_shares.at(FuType::kIntAlu),
            fp_shares.at(FuType::kIntAlu));
}

TEST(Synthetic, PhasedSpecRunsAllPhases) {
  SyntheticSpec spec = alternating_phases(256, 2, 9);
  ASSERT_EQ(spec.phases.size(), 4u);
  const Program p = generate_synthetic(spec);
  ReferenceInterpreter ref;
  const auto result = ref.run(p);
  EXPECT_TRUE(result.halted);
  // Both labels exist.
  EXPECT_TRUE(p.code_labels.contains("phase0"));
  EXPECT_TRUE(p.code_labels.contains("phase3"));
}

TEST(Synthetic, OuterRepeatsMultiplyDynamicLength) {
  auto spec = single_phase(int_heavy_mix(), 32, 4, 2);
  ReferenceInterpreter ref;
  const auto once = ref.run(generate_synthetic(spec)).instructions;
  spec.outer_repeats = 3;
  ReferenceInterpreter ref3;
  const auto thrice = ref3.run(generate_synthetic(spec)).instructions;
  EXPECT_GT(thrice, 2 * once);
}

TEST(Synthetic, BranchMixProducesForwardBranches) {
  MixSpec mix = int_heavy_mix();
  mix.branch = 5.0;
  const Program p = generate_synthetic(single_phase(mix, 128, 2, 21));
  unsigned branches = 0;
  for (const auto& inst : p.code) {
    if (op_info(inst.op).is_branch && inst.imm > 0) {
      ++branches;
    }
  }
  EXPECT_GT(branches, 5u);
  ReferenceInterpreter ref;
  EXPECT_TRUE(ref.run(p).halted);
}

TEST(Kernels, LibraryCoversAllFiveUnitTypes) {
  std::array<bool, kNumFuTypes> seen{};
  for (const auto& kernel : kernel_library()) {
    for (const auto& inst : kernel.assemble_program().code) {
      seen[fu_index(fu_type_of(inst.op))] = true;
    }
  }
  for (unsigned t = 0; t < kNumFuTypes; ++t) {
    EXPECT_TRUE(seen[t]) << fu_type_name(static_cast<FuType>(t));
  }
}

TEST(Kernels, NamesUniqueAndLookupWorks) {
  std::set<std::string> names;
  for (const auto& kernel : kernel_library()) {
    EXPECT_TRUE(names.insert(kernel.name).second) << kernel.name;
    EXPECT_EQ(kernel_by_name(kernel.name).name, kernel.name);
    EXPECT_FALSE(kernel.description.empty()) << kernel.name;
  }
  EXPECT_GE(names.size(), 15u);
}

}  // namespace
}  // namespace steersim
