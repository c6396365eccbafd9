// Shared helpers for the repro/bench binaries, including the BenchReport
// regression-harness writer (docs/OBSERVABILITY.md): every bench emits a
// schema-stable BENCH_<id>.json that tools/bench_compare diffs across
// builds.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv1a.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "sim/table.hpp"
#include "workload/synthetic.hpp"

namespace steersim::bench {

inline void print_header(const std::string& id, const std::string& title) {
  std::printf("\n=== %s: %s ===\n\n", id.c_str(), title.c_str());
}

/// True when STEERSIM_MAX_CYCLES caps this run (CI smoke); self-checks
/// that require a clean halt should tolerate kMaxCycles in that case.
/// A malformed value does not cap anything, so it does not count.
inline bool cycle_budget_overridden() {
  const char* env = std::getenv("STEERSIM_MAX_CYCLES");
  return env != nullptr && parse_positive_u64(env).has_value();
}

/// Per-run cycle budget: `fallback` unless the STEERSIM_MAX_CYCLES
/// environment variable holds a positive decimal integer (used by CI to
/// smoke-run every bench on a tiny budget without touching the default
/// output). Anything else — "-1" would wrap through strtoull to 2^64-1
/// and silently disable the budget — is rejected with a warning.
inline std::uint64_t cycle_budget(std::uint64_t fallback = 50'000'000) {
  if (const char* env = std::getenv("STEERSIM_MAX_CYCLES")) {
    if (const auto v = parse_positive_u64(env)) {
      return *v;
    }
    // Warn once per process: benches call this in sweep loops and a
    // malformed value would otherwise repeat the same line per job.
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "steersim: ignoring STEERSIM_MAX_CYCLES='%s' (expected a "
                   "positive decimal cycle count); using %llu\n",
                   env, static_cast<unsigned long long>(fallback));
    }
  }
  return fallback;
}

/// Runs every (program, policy) pair in parallel; results are indexed
/// [program][policy].
inline std::vector<std::vector<SimResult>> run_grid(
    const std::vector<Program>& programs, const MachineConfig& config,
    const std::vector<PolicySpec>& policies,
    std::uint64_t max_cycles = cycle_budget()) {
  std::vector<std::function<SimResult()>> jobs;
  jobs.reserve(programs.size() * policies.size());
  for (const auto& program : programs) {
    for (const auto& policy : policies) {
      jobs.emplace_back([&program, &config, &policy, max_cycles] {
        return simulate(program, config, policy, max_cycles);
      });
    }
  }
  const auto flat = parallel_map(jobs);
  std::vector<std::vector<SimResult>> grid(programs.size());
  std::size_t k = 0;
  for (auto& row : grid) {
    for (std::size_t c = 0; c < policies.size(); ++c) {
      row.push_back(flat[k++]);
    }
  }
  return grid;
}

// --- Benchmark regression harness (docs/OBSERVABILITY.md). ---------------

/// Metric kinds drive how tools/bench_compare diffs two runs: simulated
/// metrics are deterministic and compare exactly; host-side wall-clock
/// metrics compare by relative tolerance, direction-aware.
enum class MetricKind {
  kSim,       ///< simulated statistic: exact across machines
  kHostTime,  ///< host seconds: lower is better, noisy
  kHostRate,  ///< host throughput (cycles/sec, KIPS): higher is better, noisy
};

inline std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kSim:
      return "sim";
    case MetricKind::kHostTime:
      return "host_time";
    case MetricKind::kHostRate:
      return "host_rate";
  }
  return "?";
}

/// `git describe --always --dirty` of the source tree, resolved once per
/// process. Benches usually run from the build directory (or a CI runner's
/// scratch directory), so the lookup is anchored at the configured source
/// tree (STEERSIM_SOURCE_DIR) first, then the working directory, then the
/// GITHUB_SHA environment variable (shallow CI checkouts where describe
/// has nothing to work with); "unknown" only when all three fail.
inline const std::string& git_describe() {
  static const std::string described = [] {
    const auto run_describe = [](const std::string& command) {
      std::string out;
      std::FILE* pipe = ::popen(command.c_str(), "r");
      if (pipe != nullptr) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
          out += buf;
        }
        ::pclose(pipe);
      }
      while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
      }
      return out;
    };
#if defined(STEERSIM_SOURCE_DIR)
    const std::string anchored = run_describe(
        "git -C '" STEERSIM_SOURCE_DIR "' describe --always --dirty "
        "2>/dev/null");
    if (!anchored.empty()) {
      return anchored;
    }
#endif
    const std::string local =
        run_describe("git describe --always --dirty 2>/dev/null");
    if (!local.empty()) {
      return local;
    }
    if (const char* sha = std::getenv("GITHUB_SHA")) {
      std::string out(sha);
      if (out.size() > 12) {
        out.resize(12);  // short-hash length; full SHAs bloat every report
      }
      if (!out.empty()) {
        return out;
      }
    }
    return std::string("unknown");
  }();
  return described;
}

/// Machine-readable per-bench report: schema "steersim-bench/1".
///
///   {"schema":"steersim-bench/1","bench":"<id>","git":"<describe>",
///    "config":{...},"config_digest":"<fnv1a>","repeats":N,
///    "metrics":{"<name>":{"kind":"sim","count":N,"mean":..,"stddev":..}},
///    "results":{"<label>":{<full metrics_json object>}}}
///
/// Repeated add_metric() calls with the same name aggregate (Welford) into
/// mean/stddev, so seed-swept benches report noise alongside the point
/// estimate. The config notes are digested (FNV-1a) so the comparator can
/// refuse to diff runs with different knobs (e.g. cycle budgets).
class BenchReport {
 public:
  explicit BenchReport(std::string bench_id) : bench_(std::move(bench_id)) {}

  /// Records a configuration note; part of the digest, not a metric.
  BenchReport& note(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
    return *this;
  }
  BenchReport& note(const std::string& key, std::uint64_t value) {
    return note(key, std::to_string(value));
  }

  /// Adds one observation of `name`; repeats aggregate into mean/stddev.
  BenchReport& add_metric(const std::string& name, MetricKind kind,
                          double value) {
    Entry& e = metrics_[name];
    if (e.stat.count() == 0) {
      e.kind = kind;
      order_.push_back(name);
    }
    e.stat.add(value);
    return *this;
  }

  /// The curated per-result summary every bench shares: IPC, cycle and
  /// retirement counts, fabric churn and steering activity — the values a
  /// regression in the simulated machine would move first.
  BenchReport& add_sim_result(const std::string& label,
                              const SimResult& result) {
    add_metric(label + ".ipc", MetricKind::kSim, result.stats.ipc());
    add_metric(label + ".cycles", MetricKind::kSim,
               static_cast<double>(result.stats.cycles));
    add_metric(label + ".retired", MetricKind::kSim,
               static_cast<double>(result.stats.retired));
    add_metric(label + ".resource_starved", MetricKind::kSim,
               static_cast<double>(result.stats.resource_starved));
    add_metric(label + ".slots_rewritten", MetricKind::kSim,
               static_cast<double>(result.loader.slots_rewritten));
    add_metric(label + ".steer_events", MetricKind::kSim,
               static_cast<double>(result.steering.steer_events));
    return *this;
  }

  /// Host-side throughput for a result (noisy; compared by tolerance).
  BenchReport& add_host_result(const std::string& label,
                               const SimResult& result) {
    add_metric(label + ".run_seconds", MetricKind::kHostTime,
               result.host.run_seconds);
    add_metric(label + ".cycles_per_sec", MetricKind::kHostRate,
               result.host.cycles_per_sec(result.stats.cycles));
    add_metric(label + ".kips", MetricKind::kHostRate,
               result.host.kips(result.stats.retired));
    return *this;
  }

  /// Embeds the full end-of-run metric registry (metrics_json) for `label`
  /// under "results" — complete-fidelity detail next to the curated
  /// summary metrics. Last call per label wins.
  BenchReport& embed_result(const std::string& label,
                            const SimResult& result) {
    bool found = false;
    for (auto& [name, json] : results_) {
      if (name == label) {
        json = metrics_json(result);
        found = true;
      }
    }
    if (!found) {
      results_.emplace_back(label, metrics_json(result));
    }
    return *this;
  }

  /// FNV-1a over the bench id and config notes.
  std::string config_digest() const {
    Fnv1a digest;
    digest.mix(bench_);
    for (const auto& [key, value] : config_) {
      digest.mix(key).mix(value);
    }
    return digest.hex();
  }

  std::string to_json() const {
    std::string out = R"({"schema":"steersim-bench/1","bench":")";
    append_json_escaped(out, bench_);
    out += R"(","git":")";
    append_json_escaped(out, git_describe());
    out += R"(","config":{)";
    bool first = true;
    for (const auto& [key, value] : config_) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"';
      append_json_escaped(out, key);
      out += "\":\"";
      append_json_escaped(out, value);
      out += '"';
    }
    out += R"(},"config_digest":")";
    out += config_digest();
    out += R"(","repeats":)";
    std::uint64_t repeats = 0;
    for (const auto& [name, entry] : metrics_) {
      repeats = std::max(repeats, entry.stat.count());
    }
    out += std::to_string(repeats);
    out += R"(,"metrics":{)";
    first = true;
    for (const std::string& name : order_) {
      const Entry& e = metrics_.at(name);
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"';
      append_json_escaped(out, name);
      out += R"(":{"kind":")";
      out += metric_kind_name(e.kind);
      out += R"(","count":)";
      out += std::to_string(e.stat.count());
      out += R"(,"mean":)";
      out += json_number(e.stat.mean());
      out += R"(,"stddev":)";
      out += json_number(e.stat.count() > 1 ? e.stat.stddev() : 0.0);
      out += '}';
    }
    out += '}';
    if (!results_.empty()) {
      out += R"(,"results":{)";
      first = true;
      for (const auto& [label, json] : results_) {
        if (!first) {
          out += ',';
        }
        first = false;
        out += '"';
        append_json_escaped(out, label);
        out += "\":";
        out += json;
      }
      out += '}';
    }
    out += "}\n";
    return out;
  }

  /// Writes BENCH_<bench>.json into the current directory; prints the path
  /// (or a warning on failure — benches keep their human output either way).
  bool write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "steersim: cannot write %s\n", path.c_str());
      return false;
    }
    const std::string json = to_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
                    json.size();
    std::fclose(f);
    if (ok) {
      std::printf("wrote %s (%zu metrics, git %s)\n", path.c_str(),
                  metrics_.size(), git_describe().c_str());
    } else {
      std::fprintf(stderr, "steersim: short write on %s\n", path.c_str());
    }
    return ok;
  }

  const std::string& bench_id() const { return bench_; }

 private:
  struct Entry {
    MetricKind kind = MetricKind::kSim;
    RunningStat stat;
  };

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> order_;  ///< first-seen metric order for output
  std::vector<std::pair<std::string, std::string>> results_;
};

/// Registers every grid cell's curated sim metrics on `report` (labels
/// "<workload>/<policy>") and embeds the full end-of-run registry of the
/// first cell, so grid benches adopt the harness with one call.
inline void report_grid(BenchReport& report,
                        const std::vector<std::string>& program_names,
                        const MachineConfig& config,
                        const std::vector<PolicySpec>& policies,
                        const std::vector<std::vector<SimResult>>& grid) {
  for (std::size_t r = 0; r < grid.size(); ++r) {
    for (std::size_t c = 0; c < grid[r].size() && c < policies.size(); ++c) {
      report.add_sim_result(
          program_names[r] + "/" + policies[c].label(config.steering),
          grid[r][c]);
    }
  }
  if (!grid.empty() && !grid[0].empty() && !policies.empty()) {
    report.embed_result(
        program_names[0] + "/" + policies[0].label(config.steering),
        grid[0][0]);
  }
}

/// IPC table: one row per program, one column per policy.
inline void print_ipc_table(const std::vector<std::string>& program_names,
                            const MachineConfig& config,
                            const std::vector<PolicySpec>& policies,
                            const std::vector<std::vector<SimResult>>& grid) {
  std::vector<std::string> headers = {"workload"};
  for (const auto& policy : policies) {
    headers.push_back(policy.label(config.steering));
  }
  Table table(headers);
  for (std::size_t r = 0; r < grid.size(); ++r) {
    std::vector<std::string> row = {program_names[r]};
    for (const auto& result : grid[r]) {
      row.push_back(Table::num(result.stats.ipc()));
    }
    table.add_row(row);
  }
  std::fputs(table.to_string().c_str(), stdout);
}

}  // namespace steersim::bench
