#include "sim/runner.hpp"

#include "common/contracts.hpp"

namespace steersim {

std::string PolicySpec::label(const SteeringSet& set) const {
  switch (kind) {
    case PolicyKind::kSteered: {
      std::string name = "steered";
      if (cem == CemMode::kExactDivide) {
        name += "-exact";
      }
      if (interval != 1) {
        name += '@';
        name += std::to_string(interval);
      }
      if (confirm != 1) {
        name += "-confirm" + std::to_string(confirm);
      }
      if (lookahead) {
        name += "-lookahead";
      }
      return name;
    }
    case PolicyKind::kStaticFfu:
      return "static-ffu";
    case PolicyKind::kStaticPreset:
      return "static-" + set.preset_names[preset_index];
    case PolicyKind::kOracle:
      return "oracle";
    case PolicyKind::kFullReconfig:
      return "full-reconfig";
    case PolicyKind::kRandom:
      return "random";
    case PolicyKind::kGreedy:
      return interval == 1 ? "greedy" : "greedy@" + std::to_string(interval);
  }
  return "?";
}

std::vector<PolicySpec> standard_policies() {
  std::vector<PolicySpec> specs;
  specs.push_back({.kind = PolicyKind::kSteered});
  specs.push_back({.kind = PolicyKind::kStaticFfu});
  for (unsigned p = 0; p < kNumPresetConfigs; ++p) {
    specs.push_back({.kind = PolicyKind::kStaticPreset, .preset_index = p});
  }
  specs.push_back({.kind = PolicyKind::kFullReconfig});
  specs.push_back({.kind = PolicyKind::kOracle});
  return specs;
}

std::unique_ptr<Processor> make_processor(const Program& program,
                                          const MachineConfig& config,
                                          const PolicySpec& spec) {
  MachineConfig cfg = config;
  const SteeringSet& set = cfg.steering;
  std::unique_ptr<SteeringPolicy> policy;
  AllocationVector initial(cfg.loader.num_slots);

  switch (spec.kind) {
    case PolicyKind::kSteered:
      policy = std::make_unique<SteeredPolicy>(set, spec.cem, spec.tie_break,
                                               spec.interval, spec.confirm,
                                               spec.lookahead);
      break;
    case PolicyKind::kStaticFfu:
      policy = std::make_unique<StaticPolicy>();
      break;
    case PolicyKind::kStaticPreset:
      STEERSIM_EXPECTS(spec.preset_index < kNumPresetConfigs);
      policy = std::make_unique<StaticPolicy>();
      initial = set.preset_allocation(spec.preset_index);
      break;
    case PolicyKind::kOracle:
      policy = std::make_unique<OraclePolicy>(set);
      cfg.loader.instant = true;
      cfg.loader.max_concurrent_regions = cfg.loader.num_slots;
      break;
    case PolicyKind::kFullReconfig:
      policy = std::make_unique<SteeredPolicy>(
          set, spec.cem, spec.tie_break, spec.interval, spec.confirm);
      cfg.loader.partial = false;
      break;
    case PolicyKind::kRandom:
      policy = std::make_unique<RandomPolicy>(set, spec.seed);
      break;
    case PolicyKind::kGreedy:
      policy = std::make_unique<GreedyPolicy>(
          set, spec.interval == 1 ? 32 : spec.interval);
      break;
  }
  return std::make_unique<Processor>(program, cfg, std::move(policy),
                                     std::move(initial));
}

bool parse_policy(const std::string& name, PolicySpec& spec) {
  if (name == "steered") {
    spec.kind = PolicyKind::kSteered;
  } else if (name == "static-ffu") {
    spec.kind = PolicyKind::kStaticFfu;
  } else if (name == "static-integer") {
    spec.kind = PolicyKind::kStaticPreset;
    spec.preset_index = 0;
  } else if (name == "static-memory") {
    spec.kind = PolicyKind::kStaticPreset;
    spec.preset_index = 1;
  } else if (name == "static-float") {
    spec.kind = PolicyKind::kStaticPreset;
    spec.preset_index = 2;
  } else if (name == "oracle") {
    spec.kind = PolicyKind::kOracle;
  } else if (name == "full-reconfig") {
    spec.kind = PolicyKind::kFullReconfig;
  } else if (name == "random") {
    spec.kind = PolicyKind::kRandom;
  } else if (name == "greedy") {
    spec.kind = PolicyKind::kGreedy;
  } else {
    return false;
  }
  return true;
}

SimResult collect_result(const Processor& cpu, const PolicySpec& spec,
                         RunOutcome outcome) {
  SimResult result;
  result.policy = spec.label(cpu.config().steering);
  result.outcome = outcome;
  result.stats = cpu.stats();
  result.loader = cpu.loader().stats();
  result.steering = cpu.policy().stats();
  result.engine = cpu.engine().stats();
  result.fetch = cpu.fetch_unit().stats();
  if (cpu.trace_cache() != nullptr) {
    result.trace_cache = cpu.trace_cache()->stats();
  }
  result.wakeup = cpu.wakeup().stats();
  if (cpu.dcache() != nullptr) {
    result.dcache = cpu.dcache()->stats();
  }
  result.fault = cpu.fault_stats();
  if (cpu.recovery() != nullptr) {
    result.recovery = cpu.recovery()->stats();
  }
  if (cpu.audit_log() != nullptr) {
    result.audit = cpu.audit_log()->summary();
  }
  return result;
}

SimResult simulate(const Program& program, const MachineConfig& config,
                   const PolicySpec& spec, std::uint64_t max_cycles) {
  WallTimer timer;
  auto cpu = make_processor(program, config, spec);
  const double build_seconds = timer.seconds();
  timer.restart();
  const RunOutcome outcome = cpu->run(max_cycles);
  const double run_seconds = timer.seconds();
  timer.restart();
  SimResult result = collect_result(*cpu, spec, outcome);
  result.host.build_seconds = build_seconds;
  result.host.run_seconds = run_seconds;
  result.host.collect_seconds = timer.seconds();
  return result;
}

}  // namespace steersim
