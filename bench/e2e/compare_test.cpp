// Unit tests of `steerbench compare` on hand-written records, judged
// against the repository's BENCHMARK.json.
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "compare.hpp"

namespace steerbench {
namespace {

namespace fs = std::filesystem;

/// A plausible sim_phased record; `scale` multiplies cycles_per_sec.
Record make_record(const std::string& workload, double scale) {
  Record r;
  r.workload = workload;
  r.seed = 1;
  r.attempted = 10;
  r.e2e["setup_s"] = single(0.004, "s");
  r.e2e["cycles_per_sec"] = single(1.7e6 * scale, "cycles/s");
  r.e2e["jobs_per_sec"] = single(0.7, "jobs/s");
  r.e2e["latency_p50_ms"] = single(2.4, "ms");
  r.e2e["latency_p99_ms"] = single(2.9, "ms");
  r.e2e["peak_rss_mb"] = single(12.0, "MiB");
  r.e2e["success_frac"] = single(1.0, "frac");
  r.exact["core.cycles"] = single(2480000, "cycles");
  r.exact["core.ipc"] = single(0.87, "retired/cycle");
  return r;
}

class CompareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(STEERBENCH_TEST_DIR) /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "parent");
    fs::create_directories(dir_ / "change");
  }

  void write(const std::string& side, int index, const Record& record) {
    std::ofstream(dir_ / side / ("run" + std::to_string(10 + index) + ".json"))
        << record.to_json();
  }

  /// `n` parent and `n` change runs whose cycles_per_sec scale by
  /// base * (1 + jitter * (i % 3 - 1)) on each side.
  void write_sets(int n, double parent_scale, double change_scale,
                  double jitter = 0.002, double change_jitter = -1.0) {
    if (change_jitter < 0.0) {
      change_jitter = jitter;
    }
    for (int i = 0; i < n; ++i) {
      const auto wobble = static_cast<double>(i % 3 - 1);
      write("parent", i,
            make_record("sim_phased", parent_scale * (1.0 + jitter * wobble)));
      write("change", i,
            make_record("sim_phased",
                        change_scale * (1.0 + change_jitter * wobble)));
    }
  }

  int compare(std::vector<std::string> extra = {}) {
    std::vector<std::string> args = {(dir_ / "parent").string(),
                                     (dir_ / "change").string()};
    args.insert(args.end(), extra.begin(), extra.end());
    std::ostringstream out;
    std::ostringstream err;
    const int status = compare_main(args, out, err);
    output_ = out.str() + err.str();
    return status;
  }

  fs::path dir_;
  std::string output_;
};

TEST_F(CompareTest, IdenticalSetsPass) {
  write_sets(5, 1.0, 1.0);
  EXPECT_EQ(compare(), 0) << output_;
}

TEST_F(CompareTest, TenOfTenWinsBeyondTheIqrPassTheClaim) {
  write_sets(10, 1.0, 1.2);
  EXPECT_EQ(compare({"--claim", "cycles_per_sec@sim_phased"}), 0) << output_;
}

TEST_F(CompareTest, ClaimNeedsTenPairs) {
  write_sets(9, 1.0, 1.2);
  EXPECT_EQ(compare({"--claim", "cycles_per_sec@sim_phased"}), 1) << output_;
}

TEST_F(CompareTest, ClaimInsideTheParentsIqrIsNotMet) {
  // A 0.4% gain against runs that scatter by +-2%.
  write_sets(10, 1.0, 1.004, 0.02);
  EXPECT_EQ(compare({"--claim", "cycles_per_sec@sim_phased"}), 1) << output_;
}

TEST_F(CompareTest, RegressionBeyondItsBoundFails) {
  write_sets(5, 1.0, 0.7);
  EXPECT_EQ(compare(), 1) << output_;
  EXPECT_NE(output_.find("REGRESSION"), std::string::npos) << output_;
}

TEST_F(CompareTest, RegressionWithinItsBoundPasses) {
  write_sets(5, 1.0, 0.95);
  EXPECT_EQ(compare(), 0) << output_;
}

TEST_F(CompareTest, WideParentSpreadWithOverlapIsUnresolved) {
  // Parent runs at 0.6x, 1.0x and 1.4x: a spread far beyond any bound.
  write_sets(9, 1.0, 0.9, 0.4);
  EXPECT_EQ(compare(), 0) << output_;
  EXPECT_NE(output_.find("unresolved"), std::string::npos) << output_;
}

TEST_F(CompareTest, WideParentSpreadEveryChangeRunWorseFails) {
  // Every change run (0.5x) is slower than the slowest parent run (0.6x).
  write_sets(9, 1.0, 0.5, 0.4, 0.01);
  EXPECT_EQ(compare(), 1) << output_;
  EXPECT_NE(output_.find("REGRESSION (every run worse"), std::string::npos)
      << output_;
}

TEST_F(CompareTest, WideParentSpreadEveryChangeRunWorseWithinBoundPasses) {
  // Parent runs at 0.8x, 1.0x and 1.2x; every change run is below 0.8x,
  // but its median is only 21% worse, inside the 25% bound.
  write_sets(9, 1.0, 0.79, 0.2, 0.001);
  EXPECT_EQ(compare(), 0) << output_;
  EXPECT_NE(output_.find("unresolved"), std::string::npos) << output_;
}

TEST_F(CompareTest, WideParentSpreadEveryChangeRunBetterPasses) {
  write_sets(9, 1.0, 1.5, 0.4, 0.01);
  EXPECT_EQ(compare(), 0) << output_;
  EXPECT_NE(output_.find("better"), std::string::npos) << output_;
}

TEST_F(CompareTest, ClaimOnAnExactCountExitsTwo) {
  write_sets(10, 1.0, 1.0);
  EXPECT_EQ(compare({"--claim", "core.ipc@sim_phased"}), 2) << output_;
}

TEST_F(CompareTest, HigherFailureShareFails) {
  write_sets(5, 1.0, 1.0);
  Record failing = make_record("sim_phased", 1.0);
  failing.failed = 1;
  write("change", 0, failing);
  EXPECT_EQ(compare(), 1) << output_;
  EXPECT_NE(output_.find("FAILURES ROSE"), std::string::npos) << output_;
}

TEST_F(CompareTest, ExactCountChangeOnTheSameSeedFails) {
  write_sets(5, 1.0, 1.0);
  Record changed = make_record("sim_phased", 1.0);
  changed.exact["core.cycles"] = single(2480001, "cycles");
  write("change", 0, changed);
  EXPECT_EQ(compare(), 1) << output_;
  EXPECT_NE(output_.find("CHANGED"), std::string::npos) << output_;
}

TEST_F(CompareTest, IpcChangeOnTheSameSeedFails) {
  write_sets(5, 1.0, 1.0);
  Record changed = make_record("sim_phased", 1.0);
  changed.exact["core.ipc"] = single(0.86, "retired/cycle");
  write("change", 0, changed);
  EXPECT_EQ(compare(), 1) << output_;
  EXPECT_NE(output_.find("core.ipc"), std::string::npos) << output_;
}

TEST_F(CompareTest, UnknownWorkloadExitsTwo) {
  write_sets(5, 1.0, 1.0);
  write("change", 0, make_record("no_such_workload", 1.0));
  EXPECT_EQ(compare(), 2) << output_;
}

TEST_F(CompareTest, MissingDirectoryExitsTwo) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(compare_main({(dir_ / "absent").string(),
                          (dir_ / "change").string()},
                         out, err),
            2);
}

}  // namespace
}  // namespace steerbench
