// Unit tests for the experiment harness: policy specs/labels, simulate()
// result bundles, the parallel sweep runner, and table/CSV rendering.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "sim/csv.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "sim/table.hpp"
#include "workload/kernels.hpp"

namespace steersim {
namespace {

TEST(PolicySpec, Labels) {
  const SteeringSet set = default_steering_set();
  EXPECT_EQ(PolicySpec{}.label(set), "steered");
  PolicySpec exact;
  exact.cem = CemMode::kExactDivide;
  EXPECT_EQ(exact.label(set), "steered-exact");
  PolicySpec preset;
  preset.kind = PolicyKind::kStaticPreset;
  preset.preset_index = 2;
  EXPECT_EQ(preset.label(set), "static-float");
  PolicySpec throttled;
  throttled.interval = 8;
  EXPECT_EQ(throttled.label(set), "steered@8");
}

TEST(PolicySpec, StandardRosterShape) {
  const auto roster = standard_policies();
  ASSERT_EQ(roster.size(), 7u);
  EXPECT_EQ(roster.front().kind, PolicyKind::kSteered);
  EXPECT_EQ(roster.back().kind, PolicyKind::kOracle);
}

TEST(Simulate, ReturnsFullStatisticsBundle) {
  const Program p = kernel_by_name("dot_int").assemble_program();
  const MachineConfig cfg;
  const SimResult r = simulate(p, cfg, PolicySpec{});
  EXPECT_EQ(r.outcome, RunOutcome::kHalted);
  EXPECT_EQ(r.policy, "steered");
  EXPECT_GT(r.stats.retired, 0u);
  EXPECT_GT(r.stats.cycles, 0u);
  EXPECT_GT(r.stats.ipc(), 0.0);
  EXPECT_GT(r.wakeup.grants, 0u);
  EXPECT_GT(r.fetch.fetched, r.stats.retired - 1);
  EXPECT_GT(r.steering.steer_events, 0u);
}

TEST(Simulate, DeterministicAcrossRuns) {
  const Program p = kernel_by_name("histogram").assemble_program();
  const MachineConfig cfg;
  const SimResult a = simulate(p, cfg, PolicySpec{});
  const SimResult b = simulate(p, cfg, PolicySpec{});
  EXPECT_EQ(a.stats.cycles, b.stats.cycles);
  EXPECT_EQ(a.stats.retired, b.stats.retired);
  EXPECT_EQ(a.loader.slots_rewritten, b.loader.slots_rewritten);
}

TEST(ParallelMap, PreservesOrderAndRunsAllJobs) {
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 100; ++i) {
    jobs.emplace_back([i] { return i * i; });
  }
  const auto results = parallel_map(jobs, 8);
  ASSERT_EQ(results.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ParallelMap, SingleWorkerAndEmptyInput) {
  std::vector<std::function<int()>> none;
  EXPECT_TRUE(parallel_map(none).empty());
  std::vector<std::function<int()>> one;
  one.emplace_back([] { return 7; });
  EXPECT_EQ(parallel_map(one, 1).at(0), 7);
}

TEST(ParallelMap, ResultIndependentOfWorkerCount) {
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 37; ++i) {
    jobs.emplace_back([i] { return 3 * i + 1; });
  }
  EXPECT_EQ(parallel_map(jobs, 1), parallel_map(jobs, 13));
}

TEST(Table, AlignedRendering) {
  Table t({"name", "ipc"});
  t.add_row({"steered", "1.50"});
  t.add_row({"static-ffu", "0.75"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("steered"), std::string::npos);
  // Numeric cells right-align: "1.50" preceded by spaces up to width 4+.
  EXPECT_NE(out.find(" 1.50 |"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

TEST(Report, ContainsEverySection) {
  const Program p = kernel_by_name("saxpy").assemble_program();
  const SimResult r = simulate(p, MachineConfig{}, PolicySpec{});
  const std::string report = format_report(r);
  for (const char* needle :
       {"policy: steered", "throughput", "IPC", "front end",
        "branch mispredict rate", "scheduler", "configuration manager",
        "selections", "slots", "utilization", "Int-ALU", "FP-MDU"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(Report, OutcomeNames) {
  SimResult r;
  r.policy = "x";
  r.outcome = RunOutcome::kFault;
  EXPECT_NE(format_report(r).find("fault"), std::string::npos);
  r.outcome = RunOutcome::kMaxCycles;
  EXPECT_NE(format_report(r).find("max-cycles"), std::string::npos);
}

TEST(Csv, QuotingAndRoundTrip) {
  // Per-process name: concurrent test runs share TempDir().
  const std::string path = ::testing::TempDir() + "/steersim_test_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".csv";
  {
    CsvWriter csv(path);
    csv.row({"a", "b,c", "d\"e"});
    csv.row({"1", "2", "3"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1,2,3");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace steersim
