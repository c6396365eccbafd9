// steerbench: the repository's end-to-end benchmark (bench/e2e/README.md).
//
//   steerbench --workload W [--seed S] [--seconds T] [--trace 0|1]
//              [--trace-file PATH] [--out FILE]
//   steerbench compare PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD]
//   steerbench summary DIR
//
// A run prints every metric with its unit and, as its last stdout line,
// one JSON object {"correct", "attempted", "failed", "metrics"} holding
// BENCHMARK.json's end-to-end metrics (--trace 0) or its per-layer metrics
// (--trace 1). Exit 0: all self-checks passed; 1: a check failed;
// 2: usage error; 3: the run could not report a metric BENCHMARK.json names.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/strings.hpp"
#include "compare.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace steerbench;

int usage(const std::string& message) {
  if (!message.empty()) {
    std::cerr << "steerbench: " << message << "\n";
  }
  std::cerr
      << "usage: steerbench --workload W [--seed S] [--seconds T] "
         "[--trace 0|1] [--trace-file PATH] [--out FILE]\n"
         "       steerbench compare PARENT_DIR CHANGE_DIR "
         "[--claim METRIC@WORKLOAD]\n"
         "       steerbench summary DIR\n"
         "workloads:";
  for (const std::string& name : workload_names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

/// Per-layer metrics of layers the workload never calls; they report 0.
std::vector<std::string> idle_layers(const std::string& workload) {
  const std::vector<std::string> service = {
      "svc.cache_", "svc.queue_wait_frac", "svc.transport_frac"};
  if (workload.rfind("svc_", 0) == 0) {
    return {"fabric."};
  }
  std::vector<std::string> idle = service;
  if (workload != "mc_split4") {
    idle.push_back("fabric.");
  }
  return idle;
}

std::string git_describe() {
  const std::string command = std::string("git -C '") + STEERBENCH_REPO_ROOT +
                              "' describe --always --dirty 2>/dev/null";
  std::string out;
  if (std::FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      out += buf;
    }
    ::pclose(pipe);
  }
  const std::string_view trimmed = steersim::trim(out);
  return trimmed.empty() ? "unknown" : std::string(trimmed);
}

void print_metrics(const char* title,
                   const std::map<std::string, Metric>& metrics) {
  if (metrics.empty()) {
    return;
  }
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-28s %16.6g %-14s", name.c_str(), m.value,
                m.unit.c_str());
    if (m.spread.n > 0) {
      std::printf(" median %.6g  q1 %.6g  q3 %.6g  n %zu", m.spread.median,
                  m.spread.q1, m.spread.q3, m.spread.n);
    }
    std::printf("\n");
  }
}

/// Self time per layer and per span name over everything recorded.
void report_trace(Record& record, const std::string& trace_file) {
  const std::vector<SpanRecord>& spans = recorded_spans();
  const auto totals = span_totals(spans);
  record.self_ms = layer_self_ms(totals);
  std::printf("self time by layer (ms, traced spans only)\n");
  for (const auto& [layer, ms] : record.self_ms) {
    std::printf("  %-28s %12.3f\n", layer.c_str(), ms);
  }
  std::printf("spans (calls, total ms, self ms)\n");
  for (const auto& [name, t] : totals) {
    std::printf("  %-34s %9llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), t.total_ms,
                t.self_ms);
  }
  std::error_code ignored;  // a failure shows when the file is written
  std::filesystem::create_directories(
      std::filesystem::path(trace_file).parent_path(), ignored);
  if (write_chrome_trace(trace_file, spans)) {
    std::printf("trace: %s (%zu spans)\n", trace_file.c_str(), spans.size());
  } else {
    record.check(false, "cannot write trace " + trace_file);
  }
}

int run(const std::vector<std::string>& args) {
  RunOptions options;
  std::string out_file;
  std::string trace_file;
  bool have_seconds = false;
  for (std::size_t i = 0; i < args.size(); i += 2) {
    if (i + 1 >= args.size()) {
      return usage(args[i] + " needs a value");
    }
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    const auto number = steersim::parse_positive_u64(value);
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && number) {
      options.seed = *number;
    } else if (flag == "--seconds" && number && *number <= 3600) {
      options.seconds = static_cast<double>(*number);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else if (flag == "--out") {
      out_file = value;
    } else {
      return usage("bad argument " + flag + " " + value);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return usage("unknown workload '" + options.workload + "'");
  }
  BenchmarkSpec spec;
  std::string error;
  if (!load_benchmark(default_benchmark_path(), spec, error)) {
    return usage(error);
  }
  if (!have_seconds) {
    options.seconds = spec.run_seconds;
  }
  if (trace_file.empty()) {
    trace_file = std::string(STEERBENCH_BUILD_DIR) + "/traces/" +
                 options.workload + "-s" + std::to_string(options.seed) +
                 ".trace.json";
  }

  Record record;
  record.workload = options.workload;
  record.seed = options.seed;
  record.seconds = options.seconds;
  record.traced = options.trace;
  record.nproc = std::thread::hardware_concurrency();
  record.git = out_file.empty() ? "" : git_describe();
  try {
    run_workload(options, record);
  } catch (const std::exception& e) {
    std::cerr << "steerbench: " << options.workload << " threw: " << e.what()
              << "\n";
    return 1;
  }
  if (record.attempted == 0) {
    record.check(false, "no operation was attempted");
  }
  record.e2e["success_frac"] = single(
      static_cast<double>(record.attempted - record.failed) /
          static_cast<double>(record.attempted),
      "frac");
  if (options.trace) {
    for (const MetricSpec& metric : spec.per_layer) {
      for (const std::string& prefix : idle_layers(options.workload)) {
        if (metric.name.rfind(prefix, 0) == 0 &&
            find_metric(record, metric.name) == nullptr) {
          record.layer[metric.name] = single(0.0, metric.unit);
        }
      }
    }
    report_trace(record, trace_file);
  }

  std::printf("steerbench %s seed %llu, %g s%s: attempted %llu, failed %llu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? ", traced" : "",
              static_cast<unsigned long long>(record.attempted),
              static_cast<unsigned long long>(record.failed));
  for (const std::string& e : record.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  print_metrics("end to end", record.e2e);
  print_metrics("per layer", record.layer);
  print_metrics("exact counts", record.exact);

  if (!out_file.empty()) {
    std::ofstream out(out_file);
    out << record.to_json();
    if (!out.good()) {
      std::cerr << "steerbench: cannot write " << out_file << "\n";
      return 2;
    }
  }
  std::string line;
  if (!result_line(record,
                   options.trace ? spec.per_layer : spec.end_to_end, line,
                   error)) {
    std::cerr << "steerbench: " << error << "\n";
    return 3;
  }
  std::printf("%s\n", line.c_str());
  return record.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "compare") {
    return compare_main({args.begin() + 1, args.end()}, std::cout, std::cerr);
  }
  if (!args.empty() && args[0] == "summary") {
    return summary_main({args.begin() + 1, args.end()}, std::cout, std::cerr);
  }
  return run(args);
}
