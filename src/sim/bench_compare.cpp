#include "sim/bench_compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/strings.hpp"
#include "sim/json.hpp"

namespace steersim {

namespace {

std::string_view severity_name(IssueSeverity severity) {
  switch (severity) {
    case IssueSeverity::kNote:
      return "note";
    case IssueSeverity::kWarning:
      return "WARNING";
    case IssueSeverity::kRegression:
      return "REGRESSION";
  }
  return "?";
}

void add_issue(CompareReport& report, IssueSeverity severity,
               std::string bench, std::string metric, std::string message) {
  report.issues.push_back(CompareIssue{severity, std::move(bench),
                                       std::move(metric),
                                       std::move(message)});
}

std::string field_string(const JsonValue& doc, const std::string& key) {
  const JsonValue* v = doc.get(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kString) ? v->string
                                                               : std::string();
}

double field_number(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.get(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number
                                                               : 0.0;
}

/// Relative difference of b vs a, guarding a == 0 (absolute fallback).
double rel_delta(double a, double b) {
  if (a == 0.0) {
    return b == 0.0 ? 0.0 : (b > 0.0 ? 1.0 : -1.0);
  }
  return (b - a) / std::abs(a);
}

std::string num(double v) { return json_number(v); }

void compare_metric(const std::string& bench, const std::string& name,
                    const JsonValue& a, const JsonValue& b,
                    const BenchCompareOptions& options,
                    CompareReport& report) {
  const std::string kind_a = field_string(a, "kind");
  const std::string kind_b = field_string(b, "kind");
  if (kind_a != kind_b) {
    add_issue(report, IssueSeverity::kWarning, bench, name,
              "metric kind changed (" + kind_a + " -> " + kind_b +
                  "); skipped");
    return;
  }
  const double count_a = field_number(a, "count");
  const double count_b = field_number(b, "count");
  if (count_a != count_b) {
    add_issue(report, IssueSeverity::kWarning, bench, name,
              "repeat count changed (" + num(count_a) + " -> " +
                  num(count_b) + ")");
  }
  const double mean_a = field_number(a, "mean");
  const double mean_b = field_number(b, "mean");
  ++report.metrics_compared;
  if (kind_a == "sim") {
    // Deterministic simulation: the means must match exactly.
    if (mean_a != mean_b) {
      add_issue(report, IssueSeverity::kRegression, bench, name,
                "simulated metric changed: " + num(mean_a) + " -> " +
                    num(mean_b));
    }
    return;
  }
  const double delta = rel_delta(mean_a, mean_b);
  if (kind_a == "host_time") {
    // Lower is better; regress only when the candidate is slower.
    if (delta > options.host_tolerance) {
      add_issue(report, IssueSeverity::kRegression, bench, name,
                "host time regressed " + num(delta * 100.0) + "% (" +
                    num(mean_a) + "s -> " + num(mean_b) + "s, tolerance " +
                    num(options.host_tolerance * 100.0) + "%)");
    }
    return;
  }
  if (kind_a == "host_rate") {
    // Higher is better; regress only when the candidate is lower.
    if (delta < -options.host_tolerance) {
      add_issue(report, IssueSeverity::kRegression, bench, name,
                "host rate regressed " + num(-delta * 100.0) + "% (" +
                    num(mean_a) + " -> " + num(mean_b) + ", tolerance " +
                    num(options.host_tolerance * 100.0) + "%)");
    }
    return;
  }
  add_issue(report, IssueSeverity::kWarning, bench, name,
            "unknown metric kind '" + kind_a + "'; skipped");
}

}  // namespace

bool CompareReport::has_regression() const {
  return std::any_of(issues.begin(), issues.end(), [](const CompareIssue& i) {
    return i.severity == IssueSeverity::kRegression;
  });
}

std::size_t CompareReport::count(IssueSeverity severity) const {
  return static_cast<std::size_t>(
      std::count_if(issues.begin(), issues.end(),
                    [severity](const CompareIssue& i) {
                      return i.severity == severity;
                    }));
}

std::string CompareReport::to_string() const {
  std::string out;
  for (const CompareIssue& issue : issues) {
    out += severity_name(issue.severity);
    out += ' ';
    out += issue.bench;
    if (!issue.metric.empty()) {
      out += '/';
      out += issue.metric;
    }
    out += ": ";
    out += issue.message;
    out += '\n';
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "compared %zu benches, %zu metrics: %zu regression(s), "
                "%zu warning(s), %zu note(s)\n",
                benches_compared, metrics_compared,
                count(IssueSeverity::kRegression),
                count(IssueSeverity::kWarning), count(IssueSeverity::kNote));
  out += line;
  return out;
}

void compare_bench_reports(const std::string& name,
                           const std::string& baseline_json,
                           const std::string& candidate_json,
                           const BenchCompareOptions& options,
                           CompareReport& report) {
  JsonValue a;
  JsonValue b;
  if (!parse_json_strict(baseline_json, a) ||
      a.kind != JsonValue::Kind::kObject) {
    add_issue(report, IssueSeverity::kWarning, name, "",
              "baseline report does not parse as JSON; skipped");
    return;
  }
  if (!parse_json_strict(candidate_json, b) ||
      b.kind != JsonValue::Kind::kObject) {
    add_issue(report, IssueSeverity::kRegression, name, "",
              "candidate report does not parse as JSON");
    return;
  }
  const std::string bench = field_string(a, "bench").empty()
                                ? name
                                : field_string(a, "bench");
  ++report.benches_compared;
  const std::string schema_a = field_string(a, "schema");
  const std::string schema_b = field_string(b, "schema");
  if (schema_a != schema_b) {
    add_issue(report, IssueSeverity::kWarning, bench, "",
              "schema changed (" + schema_a + " -> " + schema_b +
                  "); metrics skipped");
    return;
  }
  const std::string digest_a = field_string(a, "config_digest");
  const std::string digest_b = field_string(b, "config_digest");
  if (digest_a != digest_b) {
    add_issue(report, IssueSeverity::kWarning, bench, "",
              "config digest mismatch (" + digest_a + " vs " + digest_b +
                  "): runs used different knobs; metrics skipped");
    return;
  }
  const JsonValue* metrics_a = a.get("metrics");
  const JsonValue* metrics_b = b.get("metrics");
  if (metrics_a == nullptr || metrics_a->kind != JsonValue::Kind::kObject ||
      metrics_b == nullptr || metrics_b->kind != JsonValue::Kind::kObject) {
    add_issue(report, IssueSeverity::kWarning, bench, "",
              "report has no metrics object; skipped");
    return;
  }
  for (const auto& [metric, value_a] : metrics_a->object) {
    const JsonValue* value_b = metrics_b->get(metric);
    if (value_b == nullptr) {
      add_issue(report, IssueSeverity::kRegression, bench, metric,
                "metric missing from candidate report");
      continue;
    }
    compare_metric(bench, metric, value_a, *value_b, options, report);
  }
  for (const auto& [metric, value_b] : metrics_b->object) {
    (void)value_b;
    if (metrics_a->get(metric) == nullptr) {
      add_issue(report, IssueSeverity::kNote, bench, metric,
                "new metric in candidate report");
    }
  }
}

namespace {

/// BENCH_*.json files in `dir`, keyed by file name; empty map when the
/// directory is missing or unreadable (callers decide the severity).
std::map<std::string, std::string> load_reports(const std::string& dir) {
  std::map<std::string, std::string> reports;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json") {
      continue;
    }
    std::ifstream in(entry.path());
    std::ostringstream body;
    body << in.rdbuf();
    reports.emplace(file, body.str());
  }
  return reports;
}

}  // namespace

CompareReport compare_bench_dirs(const std::string& baseline_dir,
                                 const std::string& candidate_dir,
                                 const BenchCompareOptions& options) {
  CompareReport report;
  const auto baseline = load_reports(baseline_dir);
  const auto candidate = load_reports(candidate_dir);
  if (baseline.empty()) {
    add_issue(report, IssueSeverity::kWarning, baseline_dir, "",
              "no BENCH_*.json reports found in baseline directory");
  }
  for (const auto& [file, body] : baseline) {
    const auto it = candidate.find(file);
    if (it == candidate.end()) {
      add_issue(report, IssueSeverity::kRegression, file, "",
                "report missing from candidate directory");
      continue;
    }
    compare_bench_reports(file, body, it->second, options, report);
  }
  for (const auto& [file, body] : candidate) {
    (void)body;
    if (baseline.find(file) == baseline.end()) {
      add_issue(report, IssueSeverity::kNote, file, "",
                "new report in candidate directory");
    }
  }
  return report;
}

}  // namespace steersim
