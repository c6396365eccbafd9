// Bench-regression comparator (sim/bench_compare.hpp): exact comparison
// for simulated metrics, tolerance-with-direction for host metrics, digest
// gating, and directory-level missing-report handling.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "sim/bench_compare.hpp"

namespace steersim {
namespace {

std::string report_json(double sim_mean, double host_time, double host_rate,
                        const std::string& digest = "abc123") {
  return std::string(R"({"schema":"steersim-bench/1","bench":"demo",)") +
         R"("git":"test","config":{"k":"v"},"config_digest":")" + digest +
         R"(","repeats":1,"metrics":{)" +
         R"("a.cycles":{"kind":"sim","count":1,"mean":)" +
         std::to_string(sim_mean) + R"(,"stddev":0},)" +
         R"("a.wall":{"kind":"host_time","count":1,"mean":)" +
         std::to_string(host_time) + R"(,"stddev":0},)" +
         R"("a.rate":{"kind":"host_rate","count":1,"mean":)" +
         std::to_string(host_rate) + R"(,"stddev":0}}})";
}

CompareReport compare_one(const std::string& a, const std::string& b,
                          double host_tol = 0.20) {
  CompareReport report;
  BenchCompareOptions options;
  options.host_tolerance = host_tol;
  compare_bench_reports("BENCH_demo.json", a, b, options, report);
  return report;
}

TEST(BenchCompare, IdenticalReportsProduceNoIssues) {
  const std::string r = report_json(1000, 1.0, 500);
  const CompareReport report = compare_one(r, r);
  EXPECT_FALSE(report.has_regression());
  EXPECT_TRUE(report.issues.empty()) << report.to_string();
  EXPECT_EQ(report.benches_compared, 1u);
  EXPECT_EQ(report.metrics_compared, 3u);
}

TEST(BenchCompare, SimulatedMetricsCompareExactly) {
  // Even a tiny simulated drift is a regression — the machine is
  // deterministic, so any change is a real behaviour change.
  const CompareReport report =
      compare_one(report_json(1000, 1.0, 500), report_json(1001, 1.0, 500));
  EXPECT_TRUE(report.has_regression());
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].metric, "a.cycles");
}

TEST(BenchCompare, HostTimeRegressesOnlyWhenSlowerBeyondTolerance) {
  // 10% slower: within the 20% tolerance.
  EXPECT_FALSE(compare_one(report_json(1000, 1.0, 500),
                           report_json(1000, 1.1, 500))
                   .has_regression());
  // 30% slower: regression.
  EXPECT_TRUE(compare_one(report_json(1000, 1.0, 500),
                          report_json(1000, 1.3, 500))
                  .has_regression());
  // 50% FASTER: improvement, never a regression.
  EXPECT_FALSE(compare_one(report_json(1000, 1.0, 500),
                           report_json(1000, 0.5, 500))
                   .has_regression());
}

TEST(BenchCompare, HostRateRegressesOnlyWhenLowerBeyondTolerance) {
  // Rate halved: regression.
  EXPECT_TRUE(compare_one(report_json(1000, 1.0, 500),
                          report_json(1000, 1.0, 250))
                  .has_regression());
  // Rate doubled: improvement.
  EXPECT_FALSE(compare_one(report_json(1000, 1.0, 500),
                           report_json(1000, 1.0, 1000))
                   .has_regression());
  // Tolerance is configurable: a 10% drop fails a 5% gate.
  EXPECT_TRUE(compare_one(report_json(1000, 1.0, 500),
                          report_json(1000, 1.0, 450), 0.05)
                  .has_regression());
}

TEST(BenchCompare, DigestMismatchSkipsMetricsWithWarning) {
  const CompareReport report =
      compare_one(report_json(1000, 1.0, 500, "aaa"),
                  report_json(9999, 9.0, 1, "bbb"));
  EXPECT_FALSE(report.has_regression());
  EXPECT_EQ(report.count(IssueSeverity::kWarning), 1u);
  EXPECT_EQ(report.metrics_compared, 0u);
}

TEST(BenchCompare, MissingMetricInCandidateIsARegression) {
  std::string b = report_json(1000, 1.0, 500);
  const std::size_t pos = b.find(R"("a.rate")");
  ASSERT_NE(pos, std::string::npos);
  b.erase(pos - 1, b.find('}', pos) - pos + 2);  // drop ,"a.rate":{...}
  const CompareReport report = compare_one(report_json(1000, 1.0, 500), b);
  EXPECT_TRUE(report.has_regression());
}

TEST(BenchCompare, UnparseableCandidateIsARegression) {
  const CompareReport report =
      compare_one(report_json(1000, 1.0, 500), "{not json");
  EXPECT_TRUE(report.has_regression());
}

TEST(BenchCompare, DirectoriesCompareByFileNameWithMissingAsRegression) {
  namespace fs = std::filesystem;
  // Per-process names: concurrent test runs share the temp directory.
  const fs::path base =
      fs::temp_directory_path() /
      ("steersim_bc_test_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(base);
  fs::create_directories(base / "a");
  fs::create_directories(base / "b");
  const auto write = [](const fs::path& p, const std::string& body) {
    std::ofstream(p) << body;
  };
  write(base / "a" / "BENCH_demo.json", report_json(1000, 1.0, 500));
  write(base / "b" / "BENCH_demo.json", report_json(1000, 1.0, 500));
  write(base / "a" / "BENCH_gone.json", report_json(1, 1.0, 1));
  write(base / "b" / "BENCH_new.json", report_json(2, 1.0, 2));
  write(base / "b" / "not_a_report.json", "ignored");

  const CompareReport report =
      compare_bench_dirs((base / "a").string(), (base / "b").string());
  EXPECT_TRUE(report.has_regression());  // BENCH_gone missing from b
  EXPECT_EQ(report.count(IssueSeverity::kRegression), 1u);
  EXPECT_EQ(report.count(IssueSeverity::kNote), 1u);  // BENCH_new
  EXPECT_EQ(report.benches_compared, 1u);

  // Identical directories: clean.
  const CompareReport same =
      compare_bench_dirs((base / "a").string(), (base / "a").string());
  EXPECT_FALSE(same.has_regression());
  EXPECT_EQ(same.count(IssueSeverity::kWarning), 0u);
  fs::remove_all(base);
}

TEST(BenchCompare, EmptyBaselineDirectoryWarns) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::temp_directory_path() /
      ("steersim_bc_empty_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(base);
  fs::create_directories(base);
  const CompareReport report =
      compare_bench_dirs((base / "missing").string(), base.string());
  EXPECT_FALSE(report.has_regression());
  EXPECT_EQ(report.count(IssueSeverity::kWarning), 1u);
  fs::remove_all(base);
}

}  // namespace
}  // namespace steersim
