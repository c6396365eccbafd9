#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace steerbench {
namespace {

using Runs = std::map<std::string, std::vector<const Record*>>;

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string pct(double share) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", share * 100.0);
  return buf;
}

/// Positional arguments plus --claim METRIC@WORKLOAD.
struct Args {
  std::vector<std::string> positional;
  std::string claim;
};

bool parse_args(const std::vector<std::string>& args, Args& out,
                std::string& error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--claim") {
      if (i + 1 >= args.size()) {
        error = "--claim needs a value";
        return false;
      }
      out.claim = args[++i];
    } else if (args[i].rfind("--", 0) == 0) {
      error = "unknown option " + args[i];
      return false;
    } else {
      out.positional.push_back(args[i]);
    }
  }
  return true;
}

/// Loads the records of `dir` and groups them by workload; every workload
/// must be one BENCHMARK.json names.
bool load_runs(const std::string& dir, const BenchmarkSpec& spec,
               std::vector<Record>& storage, Runs& runs, std::string& error) {
  if (!load_records(dir, storage, error)) {
    return false;
  }
  if (storage.empty()) {
    error = dir + ": no records";
    return false;
  }
  for (const Record& record : storage) {
    if (std::find(spec.workloads.begin(), spec.workloads.end(),
                  record.workload) == spec.workloads.end()) {
      error = dir + ": unknown workload '" + record.workload + "'";
      return false;
    }
    runs[record.workload].push_back(&record);
  }
  return true;
}

std::vector<double> values_of(const std::vector<const Record*>& runs,
                              const std::string& metric) {
  std::vector<double> values;
  for (const Record* record : runs) {
    if (const Metric* m = find_metric(*record, metric)) {
      values.push_back(m->value);
    }
  }
  return values;
}

/// How much worse `change` is than `parent`, as a share of `parent`
/// (negative when better).
double worse_share(double parent, double change, bool higher_is_better) {
  const double delta = higher_is_better ? parent - change : change - parent;
  if (parent == 0.0) {
    return delta == 0.0 ? 0.0 : std::copysign(HUGE_VAL, delta);
  }
  return delta / std::fabs(parent);
}

bool better(double change, double parent, bool higher_is_better) {
  return higher_is_better ? change > parent : change < parent;
}

double failure_share(const std::vector<const Record*>& runs) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Record* record : runs) {
    attempted += record->attempted;
    failed += record->failed;
  }
  return attempted == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

/// Every run of one seed, on either side, must agree with the parent's
/// first run of that seed on every exact count (the modelled machine's
/// IPC among them). Returns the number of disagreements and reports each.
int exact_mismatches(const std::string& workload,
                     const std::vector<const Record*>& parent,
                     const std::vector<const Record*>& change,
                     std::ostream& out) {
  int mismatches = 0;
  std::map<std::uint64_t, const Record*> reference;
  for (const Record* record : parent) {
    reference.emplace(record->seed, record);
  }
  for (const auto* side : {&parent, &change}) {
    for (const Record* record : *side) {
      const auto ref = reference.find(record->seed);
      if (ref == reference.end()) {
        continue;
      }
      for (const auto& [name, metric] : ref->second->exact) {
        const Metric* mine = find_metric(*record, name);
        if (mine == nullptr || mine->value != metric.value) {
          out << workload << "  " << name << " (seed " << record->seed
              << "): " << fmt(metric.value) << " vs "
              << (mine == nullptr ? std::string("missing") : fmt(mine->value))
              << "  CHANGED\n";
          ++mismatches;
        }
      }
    }
  }
  return mismatches;
}

std::string describe(const Summary& s) {
  return fmt(s.median) + " [" + fmt(s.q1) + ", " + fmt(s.q3) + "] n=" +
         std::to_string(s.n);
}

}  // namespace

bool load_records(const std::string& dir, std::vector<Record>& out,
                  std::string& error) {
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    error = "cannot list " + dir + ": " + ec.message();
    return false;
  }
  std::sort(files.begin(), files.end());
  out.clear();
  out.reserve(files.size());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Record record;
    if (!in.good() || !Record::parse(text.str(), record, error)) {
      error = path.string() + ": " + (in.good() ? error : "unreadable");
      return false;
    }
    out.push_back(std::move(record));
  }
  return true;
}

int compare_main(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  Args parsed;
  std::string error;
  if (!parse_args(args, parsed, error) || parsed.positional.size() != 2) {
    err << "usage: steerbench compare PARENT_DIR CHANGE_DIR "
           "[--claim METRIC@WORKLOAD]\n";
    if (!error.empty()) {
      err << error << "\n";
    }
    return 2;
  }
  BenchmarkSpec spec;
  std::vector<Record> parent_records;
  std::vector<Record> change_records;
  Runs parent;
  Runs change;
  if (!load_benchmark(default_benchmark_path(), spec, error) ||
      !load_runs(parsed.positional[0], spec, parent_records, parent, error) ||
      !load_runs(parsed.positional[1], spec, change_records, change, error)) {
    err << "steerbench compare: " << error << "\n";
    return 2;
  }

  std::string claim_metric;
  std::string claim_workload;
  if (!parsed.claim.empty()) {
    const std::size_t at = parsed.claim.find('@');
    claim_metric = parsed.claim.substr(0, at);
    claim_workload =
        at == std::string::npos ? "" : parsed.claim.substr(at + 1);
    const bool known_metric = std::any_of(
        spec.end_to_end.begin(), spec.end_to_end.end(),
        [&](const MetricSpec& m) { return m.name == claim_metric; });
    const bool known_workload =
        std::find(spec.workloads.begin(), spec.workloads.end(),
                  claim_workload) != spec.workloads.end();
    // Exact counts (core.ipc among them) are per-layer metrics, so they
    // cannot carry a speed claim.
    if (!known_metric || !known_workload) {
      err << "steerbench compare: --claim wants METRIC@WORKLOAD with an "
             "end-to-end metric and a workload of BENCHMARK.json, got '"
          << parsed.claim << "'\n";
      return 2;
    }
  }

  int failures = 0;
  bool claim_met = parsed.claim.empty();
  for (const std::string& workload : spec.workloads) {
    const auto p = parent.find(workload);
    const auto c = change.find(workload);
    if (p == parent.end() && c == change.end()) {
      continue;
    }
    if (p == parent.end() || c == change.end()) {
      out << workload << ": runs on one side only  MISSING\n";
      ++failures;
      continue;
    }
    out << "== " << workload << " (" << p->second.size() << " parent, "
        << c->second.size() << " change runs)\n";
    const double parent_failed = failure_share(p->second);
    const double change_failed = failure_share(c->second);
    if (change_failed > parent_failed) {
      out << workload << "  failed share " << fmt(parent_failed) << " -> "
          << fmt(change_failed) << "  FAILURES ROSE\n";
      ++failures;
    }
    failures += exact_mismatches(workload, p->second, c->second, out);

    for (const MetricSpec& metric : spec.end_to_end) {
      const std::vector<double> pv = values_of(p->second, metric.name);
      const std::vector<double> cv = values_of(c->second, metric.name);
      if (pv.empty() || cv.empty()) {
        out << "  " << metric.name << ": not reported  MISSING\n";
        ++failures;
        continue;
      }
      const Summary ps = summarize(pv);
      const Summary cs = summarize(cv);
      const double worse =
          worse_share(ps.median, cs.median, metric.higher_is_better);
      const double spread =
          ps.median == 0.0 ? 0.0 : (ps.q3 - ps.q1) / std::fabs(ps.median);
      std::string verdict = "ok";
      if (spread > metric.bound) {
        // Too noisy to size the change from the medians alone; a complete
        // separation of the two sides shows the shift is real.
        const bool h = metric.higher_is_better;
        const auto [lo, hi] = std::minmax_element(cv.begin(), cv.end());
        const double best_change = h ? *hi : *lo;
        const double worst_change = h ? *lo : *hi;
        if (std::all_of(pv.begin(), pv.end(), [&](double v) {
              return better(worst_change, v, h);
            })) {
          verdict = "better";
        } else if (worse > metric.bound &&
                   std::all_of(pv.begin(), pv.end(), [&](double v) {
                     return better(v, best_change, h);
                   })) {
          verdict = "REGRESSION (every run worse, spread " + pct(spread) +
                    " > bound)";
          ++failures;
        } else {
          verdict = "unresolved (spread " + pct(spread) + " > bound)";
        }
      } else if (worse > metric.bound) {
        verdict = "REGRESSION (bound " + pct(metric.bound) + ")";
        ++failures;
      }
      out << "  " << metric.name << ": " << describe(ps) << " -> "
          << describe(cs) << "  " << pct(-worse) << "  " << verdict << "\n";

      if (metric.name == claim_metric && workload == claim_workload) {
        const std::size_t pairs = std::min(pv.size(), cv.size());
        std::size_t wins = 0;
        for (std::size_t i = 0; i < pairs; ++i) {
          if (better(cv[i], pv[i], metric.higher_is_better)) {
            ++wins;
          }
        }
        const bool beyond_iqr =
            better(cs.median, ps.median, metric.higher_is_better) &&
            std::fabs(cs.median - ps.median) > ps.q3 - ps.q1;
        claim_met = pairs >= 10 && wins * 10 >= pairs * 9 && beyond_iqr;
        out << "  claim " << parsed.claim << ": " << wins << "/" << pairs
            << " pairs won, median gap " << fmt(cs.median - ps.median)
            << " vs parent IQR " << fmt(ps.q3 - ps.q1) << "  "
            << (claim_met ? "MET" : "NOT MET") << "\n";
      }
    }
  }
  if (!claim_met) {
    ++failures;
  }
  out << (failures == 0 ? "PASS" : "FAIL") << "\n";
  return failures == 0 ? 0 : 1;
}

int summary_main(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  Args parsed;
  std::string error;
  if (!parse_args(args, parsed, error) || parsed.positional.size() != 1 ||
      !parsed.claim.empty()) {
    err << "usage: steerbench summary DIR\n";
    return 2;
  }
  BenchmarkSpec spec;
  std::vector<Record> records;
  Runs runs;
  if (!load_benchmark(default_benchmark_path(), spec, error) ||
      !load_runs(parsed.positional[0], spec, records, runs, error)) {
    err << "steerbench summary: " << error << "\n";
    return 2;
  }
  char line[256];
  for (const std::string& workload : spec.workloads) {
    const auto it = runs.find(workload);
    if (it == runs.end()) {
      continue;
    }
    out << "== " << workload << " (" << it->second.size() << " runs, failed "
        << fmt(failure_share(it->second)) << ")\n";
    std::snprintf(line, sizeof(line), "  %-16s %14s %14s %14s %9s\n",
                  "metric", "median", "q1", "q3", "IQR/med");
    out << line;
    for (const MetricSpec& metric : spec.end_to_end) {
      const Summary s = summarize(values_of(it->second, metric.name));
      const double spread =
          s.median == 0.0 ? 0.0 : (s.q3 - s.q1) / std::fabs(s.median);
      std::snprintf(line, sizeof(line),
                    "  %-16s %14.6g %14.6g %14.6g %8.2f%%\n",
                    metric.name.c_str(), s.median, s.q1, s.q3, spread * 100.0);
      out << line;
    }
    std::ostringstream mismatches;
    const int n = exact_mismatches(workload, it->second, {}, mismatches);
    out << "  exact counts: "
        << (n == 0 ? "identical across runs of each seed\n"
                   : std::to_string(n) + " mismatches\n" + mismatches.str());
  }
  return 0;
}

}  // namespace steerbench
