// Named-metric registry (docs/OBSERVABILITY.md).
//
// The statistics structs scattered through the machine (SimStats,
// LoaderStats, PolicyStats, ...) each expose a `visit_metrics(visitor)`
// member that enumerates (name, value) pairs once, next to the fields
// themselves. The registry collects those enumerations under per-subsystem
// prefixes so reports, CSV dumps and dashboards iterate one flat namespace
// instead of hand-listing fields that drift out of date.
// `collect_metrics(SimResult)` in sim/metrics.hpp does the collecting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace steersim {

struct Metric {
  std::string name;
  double value = 0.0;
  /// Derived metrics (rates, means, quantiles) are computed from counters
  /// rather than accumulated; interval consumers (obs/sampler.hpp) must not
  /// difference them across windows — a ratio's delta is meaningless.
  bool derived = false;
};

class MetricRegistry {
 public:
  /// Registers a metric; names must be unique (enforced by a binary
  /// search of the name index).
  void add(std::string name, double value, bool derived = false);

  std::size_t size() const { return metrics_.size(); }
  bool empty() const { return metrics_.empty(); }
  /// In registration order.
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Indices into metrics(), in ascending name order (byte-wise, as
  /// std::string compares).
  const std::vector<std::uint32_t>& by_name() const { return by_name_; }

  /// nullptr when no metric has that name.
  const Metric* find(std::string_view name) const;

  /// "metric,value\n" rows with a header line.
  std::string to_csv() const;
  void dump_csv(const std::string& path) const;

  /// One flat JSON object, {"name": value, ...}; names are escaped, and
  /// non-finite values (JSON has no NaN/Inf literals) render as strings.
  std::string to_json() const;

  /// Visitor adapter: prefixes every visited name ("loader." + "scrub_reads")
  /// and registers it here. Pass to a stats struct's visit_metrics(); stats
  /// structs mark ratios/means by passing `derived = true` as a third
  /// argument (two-argument calls register plain counters).
  auto prefixed(std::string prefix) {
    return [this, prefix = std::move(prefix)](std::string_view name,
                                              double value,
                                              bool derived = false) {
      std::string full;
      full.reserve(prefix.size() + name.size());
      full += prefix;
      full += name;
      add(std::move(full), value, derived);
    };
  }

 private:
  /// The first position in by_name_ whose name is not less than `name`.
  std::vector<std::uint32_t>::const_iterator lower_bound(
      std::string_view name) const;

  std::vector<Metric> metrics_;
  std::vector<std::uint32_t> by_name_;
};

}  // namespace steersim
