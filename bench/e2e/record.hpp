// steerbench's result record and the BENCHMARK.json it is checked against.
//
// One run of one workload produces one Record: the end-to-end metrics,
// the per-layer metrics (timings from a traced run, plus exact simulated
// counts from every run), the per-layer self times of the trace, and the
// self-check tally. Timings carry their median, quartiles and sample count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace steerbench {

/// Median and quartiles as Python's statistics.quantiles(values, n=4)
/// computes them (the "exclusive" method); n == 0 marks an exact value.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

Summary summarize(std::vector<double> values);

/// Percentile `p` in [0, 100] by linear interpolation between order
/// statistics; 0 for an empty sample.
double percentile(std::vector<double> values, double p);

double sum(const std::vector<double>& values);
double mean(const std::vector<double>& values);

struct Metric {
  double value = 0.0;
  std::string unit;
  Summary spread;  ///< n == 0 for counts and other single values
};

/// A timing: its value is the median of `samples`.
Metric timing(const std::vector<double>& samples, std::string unit);
/// A single value (a count, a ratio or a derived figure).
Metric single(double value, std::string unit);

struct Record {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool traced = false;
  std::string git;
  unsigned nproc = 0;
  /// Operations tried (simulations, requests, self-checks) and how many
  /// failed; every failure also leaves a line in `errors`.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> e2e;
  /// Per-layer timings and ratios (traced runs only).
  std::map<std::string, Metric> layer;
  /// Simulated counts; identical on every run of one seed.
  std::map<std::string, Metric> exact;
  /// Self time per layer over the traced run's spans, milliseconds.
  std::map<std::string, double> self_ms;

  /// Counts one operation; a failure records `what`.
  void check(bool ok, const std::string& what);
  bool correct() const { return failed == 0; }

  std::string to_json() const;
  static bool parse(std::string_view text, Record& out, std::string& error);
};

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;
};

/// The parts of BENCHMARK.json steerbench reads.
struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
  unsigned run_seconds = 0;
};

/// BENCHMARK.json of the checkout steerbench was built from.
std::string default_benchmark_path();
bool load_benchmark(const std::string& path, BenchmarkSpec& out,
                    std::string& error);

/// The last stdout line of a run: correct/attempted/failed plus every
/// `metrics` entry as {"value", "unit"}, in BENCHMARK.json order.
/// Returns false (with `error`) when the record lacks one of them or
/// reports it in another unit.
bool result_line(const Record& record, const std::vector<MetricSpec>& metrics,
                 std::string& line, std::string& error);

/// Looks a metric up in the e2e, layer and exact maps, in that order.
const Metric* find_metric(const Record& record, const std::string& name);

}  // namespace steerbench
