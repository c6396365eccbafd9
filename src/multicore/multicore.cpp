#include "multicore/multicore.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/contracts.hpp"

namespace steersim {

MultiCoreSim::MultiCoreSim(std::vector<CoreSpec> specs,
                           const MultiCoreParams& params)
    : params_(params) {
  STEERSIM_EXPECTS(!specs.empty());
  const unsigned n = static_cast<unsigned>(specs.size());
  const bool split_trace = params_.machine.trace.enabled && n > 1;
  fabric_ = std::make_unique<SharedFabric>(
      n, params_.machine.loader.num_slots, params_.arbiter);
  for (unsigned core = 0; core < n; ++core) {
    MachineConfig cfg = params_.machine;
    if (split_trace) {
      cfg.trace.path += ".core" + std::to_string(core);
      cfg.trace.pid = core;
    }
    policies_.push_back(specs[core].policy);
    cores_.push_back(
        make_processor(specs[core].program, cfg, specs[core].policy));
    fabric_->attach(core, *cores_.back());
    core_ptrs_.push_back(cores_.back().get());
  }
  if (split_trace) {
    TraceConfig fabric_trace = params_.machine.trace;
    fabric_trace.path += ".fabric";
    fabric_trace.pid = n;
    fabric_tracer_ = std::make_unique<Tracer>(fabric_trace);
    fabric_->set_tracer(fabric_tracer_.get());
  }
  live_ = n;
}

bool MultiCoreSim::done() const { return live_ == 0; }

RunOutcome MultiCoreSim::run(std::uint64_t max_cycles) {
  const std::span<Processor* const> cores(core_ptrs_);
  while (live_ > 0 && cycle_ < max_cycles) {
    fabric_->begin_cycle(cycle_, cores);
    for (Processor* cpu : core_ptrs_) {
      if (cpu->stopped()) {
        continue;
      }
      cpu->step();
      if (cpu->stopped()) {
        cpu->flush_sampler();
        --live_;
      }
    }
    fabric_->end_cycle(cores);
    ++cycle_;
  }
  if (live_ > 0) {
    return RunOutcome::kMaxCycles;
  }
  RunOutcome worst = RunOutcome::kHalted;
  for (const Processor* cpu : core_ptrs_) {
    if (cpu->outcome() == RunOutcome::kFault) {
      return RunOutcome::kFault;
    }
    if (cpu->outcome() == RunOutcome::kStalled) {
      worst = RunOutcome::kStalled;
    }
  }
  return worst;
}

std::string MultiCoreSim::fault_message() const {
  for (unsigned k = 0; k < cores_.size(); ++k) {
    const RunOutcome outcome = cores_[k]->outcome();
    if (outcome == RunOutcome::kFault || outcome == RunOutcome::kStalled) {
      return "core" + std::to_string(k) + ": " + cores_[k]->fault_message();
    }
  }
  return {};
}

MultiCoreResult MultiCoreSim::collect() {
  MultiCoreResult result;
  result.cycles = cycle_;
  std::uint64_t total_retired = 0;
  for (unsigned k = 0; k < cores_.size(); ++k) {
    cores_[k]->flush_sampler();
    result.cores.push_back(
        collect_result(*cores_[k], policies_[k], cores_[k]->outcome()));
    total_retired += cores_[k]->stats().retired;
  }
  result.fabric = fabric_->stats();
  result.fabric.total_retired = total_retired;
  merge_traces();
  return result;
}

void MultiCoreSim::merge_traces() {
  if (traces_merged_ || !params_.machine.trace.enabled ||
      cores_.size() < 2) {
    return;
  }
  traces_merged_ = true;
  std::vector<std::string> parts;
  for (unsigned k = 0; k < cores_.size(); ++k) {
    if (cores_[k]->tracer() != nullptr) {
      cores_[k]->tracer()->close();
    }
    parts.push_back(params_.machine.trace.path + ".core" +
                    std::to_string(k));
  }
  if (fabric_tracer_ != nullptr) {
    fabric_tracer_->close();
    parts.push_back(params_.machine.trace.path + ".fabric");
  }
  std::ofstream out(params_.machine.trace.path);
  if (!out.good()) {
    return;  // same degrade-to-null contract as the Tracer itself
  }
  out << "{\"traceEvents\":[\n";
  bool first = true;
  constexpr std::string_view kPrefix = "{\"traceEvents\":[\n";
  constexpr std::string_view kSuffix = "\n]}";
  for (const std::string& part : parts) {
    std::ifstream in(part);
    if (!in.good()) {
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = std::move(buf).str();
    const std::size_t start = text.find(kPrefix);
    const std::size_t end = text.rfind(kSuffix);
    if (start == std::string::npos || end == std::string::npos ||
        start + kPrefix.size() > end) {
      continue;
    }
    const std::string_view events =
        std::string_view(text).substr(start + kPrefix.size(),
                                      end - start - kPrefix.size());
    if (!events.empty()) {
      if (!first) {
        out << ",\n";
      }
      out << events;
      first = false;
    }
    in.close();
    std::remove(part.c_str());
  }
  out << "\n]}\n";
}

MetricRegistry collect_multicore_metrics(const MultiCoreResult& result) {
  MetricRegistry reg;
  for (std::size_t k = 0; k < result.cores.size(); ++k) {
    collect_metrics_into(reg, result.cores[k],
                         "core" + std::to_string(k) + ".");
  }
  result.fabric.visit_metrics(reg.prefixed("fabric."));
  return reg;
}

}  // namespace steersim
