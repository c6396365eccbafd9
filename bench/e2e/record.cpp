#include "record.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"
#include "sim/json.hpp"

namespace steerbench {

using steersim::JsonValue;

namespace {

void append_string(std::string& out, std::string_view text) {
  out += '"';
  steersim::append_json_escaped(out, text);
  out += '"';
}

void append_metric(std::string& out, const Metric& metric) {
  out += "{\"value\":" + steersim::json_number(metric.value) + ",\"unit\":";
  append_string(out, metric.unit);
  if (metric.spread.n > 0) {
    out += ",\"median\":" + steersim::json_number(metric.spread.median) +
           ",\"q1\":" + steersim::json_number(metric.spread.q1) +
           ",\"q3\":" + steersim::json_number(metric.spread.q3) +
           ",\"n\":" + std::to_string(metric.spread.n);
  }
  out += '}';
}

void append_metrics(std::string& out, const char* key,
                    const std::map<std::string, Metric>& metrics) {
  out += ",\n\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    append_string(out, name);
    out += ':';
    append_metric(out, metric);
  }
  out += '}';
}

double number_or(const JsonValue* value, double fallback) {
  return value != nullptr && value->kind == JsonValue::Kind::kNumber
             ? value->number
             : fallback;
}

bool parse_metrics(const JsonValue* object,
                   std::map<std::string, Metric>& out) {
  if (object == nullptr) {
    return true;  // an absent section is an empty one
  }
  if (object->kind != JsonValue::Kind::kObject) {
    return false;
  }
  for (const auto& [name, value] : object->object) {
    const JsonValue* number = value.get("value");
    const JsonValue* unit = value.get("unit");
    if (number == nullptr || number->kind != JsonValue::Kind::kNumber ||
        unit == nullptr || unit->kind != JsonValue::Kind::kString) {
      return false;
    }
    Metric metric;
    metric.value = number->number;
    metric.unit = unit->string;
    metric.spread.n = static_cast<std::size_t>(number_or(value.get("n"), 0));
    metric.spread.median = number_or(value.get("median"), metric.value);
    metric.spread.q1 = number_or(value.get("q1"), metric.value);
    metric.spread.q3 = number_or(value.get("q3"), metric.value);
    out[name] = metric;
  }
  return true;
}

bool parse_metric_specs(const JsonValue* list, std::vector<MetricSpec>& out,
                        std::string& error) {
  if (list == nullptr || list->kind != JsonValue::Kind::kArray) {
    error = "metric list missing";
    return false;
  }
  for (const JsonValue& entry : list->array) {
    const JsonValue* name = entry.get("name");
    const JsonValue* unit = entry.get("unit");
    const JsonValue* better = entry.get("better");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        unit == nullptr || unit->kind != JsonValue::Kind::kString ||
        better == nullptr || better->kind != JsonValue::Kind::kString ||
        (better->string != "higher" && better->string != "lower")) {
      error = "malformed metric entry";
      return false;
    }
    out.push_back({name->string, unit->string, better->string == "higher",
                   number_or(entry.get("bound"), 0.0)});
  }
  return true;
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) {
    return s;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"): position i*(n+1)/4,
  // clamped to [1, n-1], interpolated in exact integer steps.
  const auto quartile = [&values, n](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum(values) / static_cast<double>(values.size());
}

Metric timing(const std::vector<double>& samples, std::string unit) {
  Metric metric;
  metric.spread = summarize(samples);
  metric.value = metric.spread.median;
  metric.unit = std::move(unit);
  return metric;
}

Metric single(double value, std::string unit) {
  Metric metric;
  metric.value = value;
  metric.unit = std::move(unit);
  return metric;
}

void Record::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Bounded: a systematic failure repeats on every operation.
    if (errors.size() < 20) {
      errors.push_back(what);
    }
  }
}

std::string Record::to_json() const {
  std::string out = "{\"schema\":\"steerbench/1\",\"workload\":";
  append_string(out, workload);
  out += ",\"seed\":" + std::to_string(seed) +
         ",\"seconds\":" + steersim::json_number(seconds) +
         ",\"traced\":" + (traced ? "true" : "false") + ",\"git\":";
  append_string(out, git);
  out += ",\"nproc\":" + std::to_string(nproc) +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += i == 0 ? "" : ",";
    append_string(out, errors[i]);
  }
  out += ']';
  append_metrics(out, "e2e", e2e);
  append_metrics(out, "layer", layer);
  append_metrics(out, "exact", exact);
  out += ",\n\"self_ms\":{";
  bool first = true;
  for (const auto& [name, ms] : self_ms) {
    out += first ? "" : ",";
    first = false;
    append_string(out, name);
    out += ':' + steersim::json_number(ms);
  }
  out += "}}\n";
  return out;
}

bool Record::parse(std::string_view text, Record& out, std::string& error) {
  JsonValue root;
  if (!steersim::parse_json_strict(text, root) ||
      root.kind != JsonValue::Kind::kObject) {
    error = "not a JSON object";
    return false;
  }
  const JsonValue* workload = root.get("workload");
  const JsonValue* e2e = root.get("e2e");
  if (workload == nullptr || workload->kind != JsonValue::Kind::kString ||
      e2e == nullptr) {
    error = "missing 'workload' or 'e2e'";
    return false;
  }
  out = Record{};
  out.workload = workload->string;
  std::uint64_t u = 0;
  if (const JsonValue* v = root.get("seed"); v != nullptr && v->as_u64(u)) {
    out.seed = u;
  }
  if (const JsonValue* v = root.get("attempted");
      v != nullptr && v->as_u64(u)) {
    out.attempted = u;
  }
  if (const JsonValue* v = root.get("failed"); v != nullptr && v->as_u64(u)) {
    out.failed = u;
  }
  out.seconds = number_or(root.get("seconds"), 0.0);
  if (const JsonValue* v = root.get("git");
      v != nullptr && v->kind == JsonValue::Kind::kString) {
    out.git = v->string;
  }
  if (!parse_metrics(e2e, out.e2e) ||
      !parse_metrics(root.get("layer"), out.layer) ||
      !parse_metrics(root.get("exact"), out.exact)) {
    error = "malformed metric section";
    return false;
  }
  return true;
}

std::string default_benchmark_path() {
  return std::string(STEERBENCH_REPO_ROOT) + "/BENCHMARK.json";
}

bool load_benchmark(const std::string& path, BenchmarkSpec& out,
                    std::string& error) {
  std::ifstream in(path);
  if (!in.good()) {
    error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  JsonValue root;
  if (!steersim::parse_json_strict(text.str(), root) ||
      root.kind != JsonValue::Kind::kObject) {
    error = path + " is not a JSON object";
    return false;
  }
  out = BenchmarkSpec{};
  const JsonValue* workloads = root.get("workloads");
  if (workloads == nullptr || workloads->kind != JsonValue::Kind::kArray) {
    error = path + ": 'workloads' missing";
    return false;
  }
  for (const JsonValue& entry : workloads->array) {
    const JsonValue* name = entry.get("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      error = path + ": workload without a name";
      return false;
    }
    out.workloads.push_back(name->string);
  }
  if (!parse_metric_specs(root.get("end_to_end"), out.end_to_end, error) ||
      !parse_metric_specs(root.get("per_layer"), out.per_layer, error)) {
    error = path + ": " + error;
    return false;
  }
  out.run_seconds =
      static_cast<unsigned>(number_or(root.get("run_seconds"), 0.0));
  return true;
}

const Metric* find_metric(const Record& record, const std::string& name) {
  for (const auto* section : {&record.e2e, &record.layer, &record.exact}) {
    const auto it = section->find(name);
    if (it != section->end()) {
      return &it->second;
    }
  }
  return nullptr;
}

bool result_line(const Record& record, const std::vector<MetricSpec>& metrics,
                 std::string& line, std::string& error) {
  line = std::string("{\"correct\":") +
         (record.correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(record.attempted) +
         ",\"failed\":" + std::to_string(record.failed) + ",\"metrics\":{";
  bool first = true;
  for (const MetricSpec& spec : metrics) {
    const Metric* metric = find_metric(record, spec.name);
    if (metric == nullptr) {
      error = "workload " + record.workload + " did not report " + spec.name;
      return false;
    }
    if (metric->unit != spec.unit) {
      error = spec.name + " reported in " + metric->unit + ", BENCHMARK.json "
              "says " + spec.unit;
      return false;
    }
    if (!std::isfinite(metric->value)) {
      error = spec.name + " is not a finite number";
      return false;
    }
    line += first ? "" : ",";
    first = false;
    append_string(line, spec.name);
    line += ":{\"value\":" + steersim::json_number(metric->value) +
            ",\"unit\":";
    append_string(line, spec.unit);
    line += '}';
  }
  line += "}}";
  return true;
}

}  // namespace steerbench
