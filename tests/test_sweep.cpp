// parallel_map contract tests: index-deterministic results at any worker
// count, all jobs running even when some throw, and exception propagation
// (the lowest-index failure is rethrown after every worker joined — an
// exception escaping a jthread body would call std::terminate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/sweep.hpp"

namespace steersim {
namespace {

std::vector<std::function<int()>> square_jobs(int n) {
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.emplace_back([i] { return i * i; });
  }
  return jobs;
}

TEST(ParallelMap, ResultsAreIndexedDeterministicallyAtAnyWorkerCount) {
  const auto jobs = square_jobs(37);
  const std::vector<int> serial = parallel_map(jobs, 1);
  ASSERT_EQ(serial.size(), jobs.size());
  for (int i = 0; i < 37; ++i) {
    EXPECT_EQ(serial[static_cast<std::size_t>(i)], i * i);
  }
  EXPECT_EQ(parallel_map(jobs, 2), serial);
  EXPECT_EQ(parallel_map(jobs, 3), serial);
  EXPECT_EQ(parallel_map(jobs), serial);  // hardware concurrency
  EXPECT_EQ(parallel_map(jobs, 1000), serial) << "workers clamp to jobs";
}

TEST(ParallelMap, EmptyJobListReturnsEmpty) {
  EXPECT_TRUE(parallel_map(std::vector<std::function<int()>>{}).empty());
}

TEST(DefaultWorkerCount, HonorsStrictEnvOverride) {
  ::unsetenv("STEERSIM_WORKERS");
  const unsigned fallback = default_worker_count();
  EXPECT_GE(fallback, 1u);

  ::setenv("STEERSIM_WORKERS", "3", 1);
  EXPECT_EQ(default_worker_count(), 3u);
  ::setenv("STEERSIM_WORKERS", "999999", 1);
  EXPECT_EQ(default_worker_count(), 1024u) << "absurd counts are clamped";

  // Strict parse: anything but a positive decimal integer is ignored with
  // a warning, never wrapped or prefix-parsed into a thread count.
  for (const char* bad : {"-1", "0", "4x", "0x10", " 8", ""}) {
    ::setenv("STEERSIM_WORKERS", bad, 1);
    EXPECT_EQ(default_worker_count(), fallback) << "value '" << bad << "'";
  }
  ::unsetenv("STEERSIM_WORKERS");
  EXPECT_EQ(default_worker_count(), fallback);
}

TEST(ParallelMap, ThrowingJobPropagatesToCaller) {
  std::vector<std::function<int()>> jobs = square_jobs(8);
  jobs[5] = []() -> int { throw std::runtime_error("job 5 failed"); };
  for (const unsigned workers : {1u, 4u}) {
    EXPECT_THROW(parallel_map(jobs, workers), std::runtime_error)
        << "workers=" << workers;
  }
}

TEST(ParallelMap, LowestIndexExceptionWinsAndAllJobsStillRun) {
  std::atomic<int> ran{0};
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.emplace_back([i, &ran]() -> int {
      ++ran;
      if (i == 3 || i == 11) {
        throw std::runtime_error("job " + std::to_string(i));
      }
      return i;
    });
  }
  try {
    parallel_map(jobs, 4);
    FAIL() << "expected a propagated exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 3");
  }
  EXPECT_EQ(ran.load(), 16)
      << "a failing job must not abort the rest of the sweep";
}

}  // namespace
}  // namespace steersim
