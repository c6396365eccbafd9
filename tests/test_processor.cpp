// End-to-end processor tests: every kernel, on every policy variant, must
// halt with exactly the reference interpreter's architectural state
// (registers, data memory, retired-instruction count).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/reference.hpp"
#include "isa/assembler.hpp"
#include "multicore/multicore.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/kernels.hpp"

namespace steersim {
namespace {

MachineConfig small_machine() {
  MachineConfig cfg;
  cfg.loader.cycles_per_slot = 4;
  return cfg;
}

void expect_architectural_match(const Program& program,
                                const PolicySpec& spec,
                                const std::string& context) {
  ReferenceInterpreter ref(1 << 20);
  const auto ref_result = ref.run(program);
  ASSERT_TRUE(ref_result.halted) << context;

  auto cpu = make_processor(program, small_machine(), spec);
  const RunOutcome outcome = cpu->run(5'000'000);
  ASSERT_EQ(outcome, RunOutcome::kHalted)
      << context << " fault: " << cpu->fault_message();

  EXPECT_EQ(cpu->stats().retired, ref_result.instructions) << context;
  EXPECT_TRUE(cpu->registers() == ref.registers()) << context;
  EXPECT_TRUE(cpu->memory() == ref.memory()) << context;
}

class KernelPolicyTest
    : public ::testing::TestWithParam<std::tuple<std::string, PolicyKind>> {
};

TEST_P(KernelPolicyTest, MatchesReference) {
  const auto& [kernel_name, kind] = GetParam();
  PolicySpec spec;
  spec.kind = kind;
  expect_architectural_match(
      kernel_by_name(kernel_name).assemble_program(), spec,
      kernel_name + "/" +
          spec.label(default_steering_set()));
}

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const auto& k : kernel_library()) {
    names.push_back(k.name);
  }
  return names;
}

std::string policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kSteered:
      return "steered";
    case PolicyKind::kStaticFfu:
      return "static_ffu";
    case PolicyKind::kStaticPreset:
      return "static_preset";
    case PolicyKind::kOracle:
      return "oracle";
    case PolicyKind::kFullReconfig:
      return "full_reconfig";
    case PolicyKind::kRandom:
      return "random";
    case PolicyKind::kGreedy:
      return "greedy";
  }
  return "unknown";
}

std::string kernel_policy_test_name(
    const ::testing::TestParamInfo<std::tuple<std::string, PolicyKind>>&
        param_info) {
  return std::get<0>(param_info.param) + "_" +
         policy_kind_name(std::get<1>(param_info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllPolicies, KernelPolicyTest,
    ::testing::Combine(
        ::testing::ValuesIn(kernel_names()),
        ::testing::Values(PolicyKind::kSteered, PolicyKind::kStaticFfu,
                          PolicyKind::kStaticPreset, PolicyKind::kOracle,
                          PolicyKind::kFullReconfig, PolicyKind::kRandom,
                          PolicyKind::kGreedy)),
    kernel_policy_test_name);

TEST(Processor, SingleInstructionProgram) {
  const Program p = assemble("  halt\n");
  auto cpu = make_processor(p, small_machine(), {});
  EXPECT_EQ(cpu->run(1000), RunOutcome::kHalted);
  EXPECT_EQ(cpu->stats().retired, 1u);
}

TEST(Processor, IpcNeverExceedsRetireWidth) {
  const Program p = kernel_by_name("sum_array").assemble_program();
  auto cpu = make_processor(p, small_machine(), {});
  EXPECT_EQ(cpu->run(1'000'000), RunOutcome::kHalted);
  EXPECT_LE(cpu->stats().ipc(),
            static_cast<double>(small_machine().retire_width));
  EXPECT_GT(cpu->stats().ipc(), 0.0);
}

TEST(Processor, MispredictionRecovery) {
  // A data-dependent branch pattern the 2-bit predictor cannot learn
  // perfectly: alternating taken/not-taken.
  const Program p = assemble(R"(
  li r1, 64
  addi r2, r0, 0   # toggle
  addi r3, r0, 0   # count of taken paths
loop:
  xori r2, r2, 1
  beq r2, r0, skip
  addi r3, r3, 1
skip:
  addi r1, r1, -1
  bne r1, r0, loop
  halt
)");
  ReferenceInterpreter ref(1 << 20);
  const auto ref_result = ref.run(p);
  auto cpu = make_processor(p, small_machine(), {});
  ASSERT_EQ(cpu->run(1'000'000), RunOutcome::kHalted);
  EXPECT_EQ(cpu->registers().read_int(3), ref.registers().read_int(3));
  EXPECT_EQ(cpu->stats().retired, ref_result.instructions);
  EXPECT_GT(cpu->stats().mispredicts, 0u);
  EXPECT_GT(cpu->stats().squashed, 0u);
}

TEST(Processor, StoreToLoadForwarding) {
  // Write then immediately read the same address; the load must see the
  // in-flight store's data, not stale memory.
  const Program p = assemble(R"(
  la r1, slot
  li r2, 77
  sw r2, 0(r1)
  lw r3, 0(r1)
  addi r3, r3, 1
  sw r3, 0(r1)
  lw r4, 0(r1)
  halt
.data
slot: .word 5
)");
  auto cpu = make_processor(p, small_machine(), {});
  ASSERT_EQ(cpu->run(10'000), RunOutcome::kHalted);
  EXPECT_EQ(cpu->registers().read_int(3), 78);
  EXPECT_EQ(cpu->registers().read_int(4), 78);
}

TEST(Processor, PartialOverlapStoreBlocksLoad) {
  // sb writes one byte inside the word a younger lw reads: the load must
  // wait for the store to retire and then see the merged bytes.
  const Program p = assemble(R"(
  la r1, slot
  li r2, 0xFF
  sb r2, 3(r1)
  lw r3, 0(r1)
  halt
.data
slot: .word 0
)");
  ReferenceInterpreter ref(1 << 20);
  ref.run(p);
  auto cpu = make_processor(p, small_machine(), {});
  ASSERT_EQ(cpu->run(10'000), RunOutcome::kHalted);
  EXPECT_EQ(cpu->registers().read_int(3), ref.registers().read_int(3));
  EXPECT_EQ(cpu->registers().read_int(3), 0xFFL << 24);
}

/// Records whether steer() ever saw a trace-cache lookahead.
class LookaheadProbe final : public SteeringPolicy {
 public:
  explicit LookaheadProbe(bool reads) : reads_(reads) {}
  void steer(const SteerContext& ctx, ConfigurationLoader&) override {
    saw_ = saw_ || ctx.lookahead != nullptr;
  }
  bool reads_lookahead() const override { return reads_; }
  bool saw() const { return saw_; }

 private:
  bool reads_;
  bool saw_ = false;
};

TEST(Processor, TraceCacheIsProbedOnlyForAPolicyThatReadsLookahead) {
  // A hot loop: its trace line is cached and hit on every iteration.
  const Program p = assemble(R"(
  li r1, 200
loop:
  addi r2, r2, 3
  addi r1, r1, -1
  bne r1, r0, loop
  halt
)");
  for (const bool reads : {true, false}) {
    auto policy = std::make_unique<LookaheadProbe>(reads);
    const LookaheadProbe& probe = *policy;
    Processor cpu(p, small_machine(), std::move(policy));
    ASSERT_EQ(cpu.run(100'000), RunOutcome::kHalted);
    ASSERT_GT(cpu.trace_cache()->stats().hits, 0u);
    EXPECT_EQ(probe.saw(), reads);
  }
}

TEST(Processor, StallDetectionOnInfiniteLoop) {
  const Program p = assemble("spin:\n  j spin\n");
  auto cpu = make_processor(p, small_machine(), {});
  // An infinite loop retires forever, so it hits max cycles, not kStalled.
  EXPECT_EQ(cpu->run(50'000), RunOutcome::kMaxCycles);
  EXPECT_GT(cpu->stats().retired, 0u);
}

TEST(Processor, FaultOnWildCommittedStore) {
  const Program p = assemble(R"(
  li r1, 123456789
  sw r0, 0(r1)
  halt
)");
  MachineConfig cfg = small_machine();
  cfg.data_memory_bytes = 4096;
  auto cpu = make_processor(p, cfg, {});
  EXPECT_EQ(cpu->run(10'000), RunOutcome::kFault);
  EXPECT_FALSE(cpu->fault_message().empty());
}

TEST(Processor, FaultOnStoreWhoseEndWrapsAroundTheAddressSpace) {
  // r1 = -8 is address 2^64 - 8: addr + 8 wraps to 0, which a bound
  // computed as addr + size <= memory size would let through.
  const Program p = assemble(R"(
  li r1, -8
  sw r0, 0(r1)
  halt
)");
  MachineConfig cfg = small_machine();
  cfg.data_memory_bytes = 4096;
  auto cpu = make_processor(p, cfg, {});
  EXPECT_EQ(cpu->run(10'000), RunOutcome::kFault);
  EXPECT_FALSE(cpu->fault_message().empty());
}

TEST(Processor, SpeculativeWildLoadIsBenignWhenSquashed) {
  // The branch is always taken at runtime but predicted not-taken on the
  // first encounter, so the wild load issues speculatively and must be
  // squashed without faulting.
  const Program p = assemble(R"(
  li r1, 1
  li r2, 123456
  bne r1, r0, good
  lw r3, 0(r2)
good:
  halt
)");
  MachineConfig cfg = small_machine();
  cfg.data_memory_bytes = 4096;
  cfg.predictor = PredictorKind::kNotTaken;
  auto cpu = make_processor(p, cfg, {});
  EXPECT_EQ(cpu->run(10'000), RunOutcome::kHalted);
}

TEST(Processor, TinyMachineBackpressure) {
  // RUU of 4 and single-wide everything: heavy backpressure, still exact.
  const Program p = kernel_by_name("dot_int").assemble_program();
  MachineConfig cfg = small_machine();
  cfg.fetch_width = 1;
  cfg.queue_entries = 4;
  cfg.ruu_entries = 4;
  cfg.retire_width = 1;
  ReferenceInterpreter ref(1 << 20);
  const auto ref_result = ref.run(p);
  auto cpu = make_processor(p, cfg, {});
  ASSERT_EQ(cpu->run(5'000'000), RunOutcome::kHalted);
  EXPECT_EQ(cpu->stats().retired, ref_result.instructions);
  EXPECT_TRUE(cpu->memory() == ref.memory());
  EXPECT_LE(cpu->stats().ipc(), 1.0);
}

TEST(Processor, DeepCallNestingExceedsRasDepth) {
  // 12 nested calls against an 8-entry RAS: returns past the RAS depth
  // mispredict but must still commit correctly.
  std::string src = "  addi r1, r0, 0\n  call f0\n  halt\n";
  for (int level = 0; level < 12; ++level) {
    src += "f" + std::to_string(level) + ":\n";
    src += "  addi r1, r1, 1\n";
    if (level < 11) {
      // Save and restore the link register around the nested call.
      src += "  mv r" + std::to_string(10 + level) + ", ra\n";
      src += "  call f" + std::to_string(level + 1) + "\n";
      src += "  mv ra, r" + std::to_string(10 + level) + "\n";
    }
    src += "  ret\n";
  }
  const Program p = assemble(src);
  ReferenceInterpreter ref(1 << 20);
  const auto ref_result = ref.run(p);
  ASSERT_TRUE(ref_result.halted);
  auto cpu = make_processor(p, small_machine(), {});
  ASSERT_EQ(cpu->run(100'000), RunOutcome::kHalted);
  EXPECT_EQ(cpu->registers().read_int(1), 12);
  EXPECT_EQ(cpu->stats().retired, ref_result.instructions);
}

TEST(Processor, InstructionFlowConservation) {
  // dispatched == retired + squashed, and issued is bounded by both ends.
  const Program p = assemble(R"(
  li r1, 200
  addi r2, r0, 0
cl:
  xori r2, r2, 1
  beq r2, r0, cs
  addi r3, r3, 1
cs:
  addi r1, r1, -1
  bne r1, r0, cl
  halt
)");
  auto cpu = make_processor(p, small_machine(), {});
  ASSERT_EQ(cpu->run(1'000'000), RunOutcome::kHalted);
  const SimStats& s = cpu->stats();
  EXPECT_EQ(s.retired + s.squashed, s.dispatched);
  EXPECT_GE(s.issued, s.retired);
  EXPECT_LE(s.issued, s.dispatched);
  EXPECT_GT(s.squashed, 0u) << "this workload must mispredict";
}

TEST(Processor, NoTraceCacheStillCorrect) {
  const Program p = kernel_by_name("fir").assemble_program();
  MachineConfig cfg = small_machine();
  cfg.use_trace_cache = false;
  ReferenceInterpreter ref(1 << 20);
  ref.run(p);
  auto cpu = make_processor(p, cfg, {});
  ASSERT_EQ(cpu->run(1'000'000), RunOutcome::kHalted);
  EXPECT_TRUE(cpu->memory() == ref.memory());
  EXPECT_EQ(cpu->trace_cache(), nullptr);
}

TEST(Processor, TraceCacheImprovesFetchOnLoops) {
  const Program p = kernel_by_name("sum_array").assemble_program();
  MachineConfig with = small_machine();
  MachineConfig without = small_machine();
  without.use_trace_cache = false;
  auto cpu_with = make_processor(p, with, {});
  auto cpu_without = make_processor(p, without, {});
  ASSERT_EQ(cpu_with->run(1'000'000), RunOutcome::kHalted);
  ASSERT_EQ(cpu_without->run(1'000'000), RunOutcome::kHalted);
  // A tight taken-branch loop limits conventional fetch to one iteration
  // per cycle group; the trace cache must not be slower.
  EXPECT_LE(cpu_with->stats().cycles, cpu_without->stats().cycles + 5);
}

TEST(Processor, OutOfOrderCompletionObservable) {
  // A long divide followed by independent adds: the adds issue and
  // complete while the divide is still executing, so total cycles are far
  // below the serialized sum.
  const Program p = assemble(R"(
  li r1, 1000
  li r2, 7
  div r3, r1, r2
  addi r4, r0, 1
  addi r5, r0, 2
  addi r6, r0, 3
  addi r7, r0, 4
  halt
)");
  auto cpu = make_processor(p, small_machine(), {});
  ASSERT_EQ(cpu->run(10'000), RunOutcome::kHalted);
  EXPECT_EQ(cpu->registers().read_int(3), 142);
  EXPECT_EQ(cpu->registers().read_int(7), 4);
}

// ------------------------------------------- construction validation

/// Expects Processor construction to reject `cfg` with a message
/// mentioning `needle` (descriptive errors beat deep-in-module aborts).
void expect_rejected(const MachineConfig& cfg, const std::string& needle) {
  const Program p = assemble("  halt\n");
  try {
    Processor cpu(p, cfg, std::make_unique<StaticPolicy>());
    FAIL() << "expected std::invalid_argument mentioning '" << needle
           << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ConfigValidation, DefaultConfigIsAccepted) {
  const Program p = assemble("  halt\n");
  EXPECT_NO_THROW(
      Processor(p, MachineConfig{}, std::make_unique<StaticPolicy>()));
}

TEST(ConfigValidation, RejectsSlotCountMismatchWithSteeringSet) {
  MachineConfig cfg;
  cfg.loader.num_slots = 4;  // steering set still declares 8
  expect_rejected(cfg, "num_slots");
}

TEST(ConfigValidation, RejectsZeroCyclesPerSlot) {
  MachineConfig cfg;
  cfg.loader.cycles_per_slot = 0;
  expect_rejected(cfg, "cycles_per_slot");
}

TEST(ConfigValidation, RejectsZeroConcurrentRegions) {
  MachineConfig cfg;
  cfg.loader.max_concurrent_regions = 0;
  expect_rejected(cfg, "max_concurrent_regions");
}

TEST(ConfigValidation, RejectsZeroEntryRuuAndQueue) {
  MachineConfig cfg;
  cfg.ruu_entries = 0;
  expect_rejected(cfg, "ruu_entries");
  cfg = MachineConfig{};
  cfg.queue_entries = 0;
  expect_rejected(cfg, "queue_entries");
  cfg = MachineConfig{};
  cfg.queue_entries = kMaxWakeupEntries + 1;
  expect_rejected(cfg, "queue_entries");
}

TEST(ConfigValidation, RejectsRuuSmallerThanQueue) {
  MachineConfig cfg;
  cfg.ruu_entries = 4;  // < default queue_entries (7)
  expect_rejected(cfg, "queue_entries");
}

TEST(ConfigValidation, RejectsBadWidthsAndMemory) {
  MachineConfig cfg;
  cfg.fetch_width = 0;
  expect_rejected(cfg, "fetch_width");
  cfg = MachineConfig{};
  cfg.fetch_width = kMaxFetchWidth + 1;
  expect_rejected(cfg, "fetch_width");
  cfg = MachineConfig{};
  cfg.retire_width = 0;
  expect_rejected(cfg, "retire_width");
  cfg = MachineConfig{};
  cfg.data_memory_bytes = 0;
  expect_rejected(cfg, "data_memory_bytes");
}

TEST(ConfigValidation, RejectsMoreFixedUnitsThanTheEngineHolds) {
  MachineConfig cfg;
  cfg.steering.ffu = {7, 7, 6, 6, 6};  // 32 FFUs: the most that fit
  const Program p = assemble("  halt\n");
  EXPECT_NO_THROW(
      Processor(p, cfg, std::make_unique<StaticPolicy>()));
  cfg.steering.ffu[fu_index(FuType::kIntAlu)] = 8;
  expect_rejected(cfg, "steering.ffu");
}

TEST(ConfigValidation, RejectsBadFaultParameters) {
  MachineConfig cfg;
  cfg.fault.upset_rate = 1.5;
  expect_rejected(cfg, "upset_rate");
  cfg = MachineConfig{};
  cfg.fault.permanent_rate = -0.25;
  expect_rejected(cfg, "permanent_rate");
  cfg = MachineConfig{};
  cfg.fault.script = {{0, FaultKind::kTransientUpset, 8}};  // slots are 0-7
  expect_rejected(cfg, "script slot");
}

TEST(ConfigValidation, RejectsADataImagePastDataMemoryOnEveryEntryPath) {
  // One word past the default 1 MiB used to abort in DataMemory's
  // contract while the processor loaded the image.
  const Program fits = assemble(".data\n  .space 131072\n.text\n  halt\n");
  const Program past = assemble(".data\n  .space 131073\n.text\n  halt\n");
  const MachineConfig cfg;
  EXPECT_NO_THROW(make_processor(fits, cfg, PolicySpec{}));
  try {
    make_processor(past, cfg, PolicySpec{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1048584 bytes) exceeds "
                                         "data_memory_bytes 1048576"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(simulate(past, cfg, PolicySpec{}, 100), std::invalid_argument);
  EXPECT_THROW(MultiCoreSim({CoreSpec{fits, {}}, CoreSpec{past, {}}},
                            MultiCoreParams{}),
               std::invalid_argument);
  MachineConfig big = cfg;
  big.data_memory_bytes = past.data_bytes();
  EXPECT_NO_THROW(make_processor(past, big, PolicySpec{}));
}

// ------------------------------------------------- stall diagnostics

TEST(StallDetection, StallProducesMachineStateDigest) {
  // A machine whose steering set has no FP-MDU anywhere (FFU count zeroed,
  // fabric left empty by the static-ffu policy) can never issue an fmul:
  // the RUU head waits forever and the stall detector must fire with an
  // actionable one-line digest instead of a bare return code.
  MachineConfig cfg;
  cfg.steering.ffu[fu_index(FuType::kFpMdu)] = 0;
  const Program p = assemble("  fmul f1, f2, f3\n  halt\n");
  auto cpu = make_processor(p, cfg, {.kind = PolicyKind::kStaticFfu});
  ASSERT_EQ(cpu->run(300'000), RunOutcome::kStalled);
  const std::string& digest = cpu->fault_message();
  ASSERT_FALSE(digest.empty());
  EXPECT_NE(digest.find("stalled"), std::string::npos) << digest;
  EXPECT_NE(digest.find("fmul"), std::string::npos)
      << "digest must name the stuck RUU-head instruction: " << digest;
  EXPECT_NE(digest.find("ruu"), std::string::npos) << digest;
  EXPECT_NE(digest.find("queue"), std::string::npos) << digest;
  EXPECT_NE(digest.find("alloc"), std::string::npos) << digest;
}

// One stop contract on every entry path: a stalling program must stop as
// kStalled at the same cycle, with the same digest, whether run() is
// called once or in windows, and whether the core runs alone or as the
// only core of a MultiCoreSim.
struct StallCase {
  std::string name;
  Program program;
  MachineConfig config;
  PolicySpec policy;
};

struct StopPoint {
  RunOutcome outcome = RunOutcome::kMaxCycles;
  std::uint64_t cycle = 0;
  std::string message;
};

constexpr std::uint64_t kStallBudget = 300'000;

StopPoint run_in_windows(const StallCase& c, std::uint64_t window) {
  auto cpu = make_processor(c.program, c.config, c.policy);
  RunOutcome outcome = RunOutcome::kMaxCycles;
  while (outcome == RunOutcome::kMaxCycles &&
         cpu->stats().cycles < kStallBudget) {
    outcome =
        cpu->run(std::min(kStallBudget, cpu->stats().cycles + window));
  }
  return {outcome, cpu->stats().cycles, cpu->fault_message()};
}

StopPoint run_one_core_multicore(const StallCase& c, std::uint64_t window) {
  MultiCoreParams params;
  params.machine = c.config;
  MultiCoreSim sim({CoreSpec{c.program, c.policy}}, params);
  while (!sim.done() && sim.cycles() < kStallBudget) {
    sim.run(std::min(kStallBudget, sim.cycles() + window));
  }
  return {sim.core_outcome(0), sim.core(0).stats().cycles,
          sim.core(0).fault_message()};
}

TEST(StallDetection, EveryEntryPathStopsAtTheSameCycleWithTheSameDigest) {
  MachineConfig starved;
  starved.steering.ffu[fu_index(FuType::kFpMdu)] = 0;
  const std::vector<StallCase> cases = {
      {"no_halt", assemble("  addi r1, r0, 1\n  addi r2, r1, 2\n"),
       MachineConfig{}, PolicySpec{}},
      {"fp_mdu_starved", assemble("  fmul f1, f2, f3\n  halt\n"), starved,
       {.kind = PolicyKind::kStaticFfu}},
  };
  for (const StallCase& c : cases) {
    const StopPoint once = run_in_windows(c, kStallBudget);
    ASSERT_EQ(outcome_name(once.outcome), "stalled") << c.name;
    ASSERT_FALSE(once.message.empty()) << c.name;
    EXPECT_LT(once.cycle, kStallBudget) << c.name;
    if (c.name == "no_halt") {
      EXPECT_EQ(once.message.rfind("stalled: no retirement for 100000 "
                                   "cycles at cycle 100006",
                                   0),
                0u)
          << once.message;
    }
    const std::vector<std::pair<std::string, StopPoint>> paths = {
        {"run() in 1-cycle windows", run_in_windows(c, 1)},
        {"run() in 4096-cycle windows", run_in_windows(c, 4096)},
        {"one-core MultiCoreSim", run_one_core_multicore(c, kStallBudget)},
        {"one-core MultiCoreSim in 4096-cycle windows",
         run_one_core_multicore(c, 4096)},
    };
    for (const auto& [path, stop] : paths) {
      EXPECT_EQ(outcome_name(stop.outcome), "stalled")
          << c.name << ", " << path;
      EXPECT_EQ(stop.cycle, once.cycle) << c.name << ", " << path;
      EXPECT_EQ(stop.message, once.message) << c.name << ", " << path;
    }
  }
}

}  // namespace
}  // namespace steersim
