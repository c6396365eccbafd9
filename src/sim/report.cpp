#include "sim/report.hpp"

#include "common/strings.hpp"

namespace steersim {
namespace {

std::string line(const std::string& key, const std::string& value) {
  return "  " + pad(key, -28) + value + "\n";
}

}  // namespace

std::string_view outcome_name(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kHalted:
      return "halted";
    case RunOutcome::kMaxCycles:
      return "max-cycles";
    case RunOutcome::kStalled:
      return "stalled";
    case RunOutcome::kFault:
      return "fault";
  }
  return "?";
}

std::string format_report(const SimResult& r) {
  std::string out;
  out += "policy: " + r.policy + " (" + std::string(outcome_name(r.outcome)) +
         ")\n";
  out += "throughput\n";
  out += line("instructions retired", std::to_string(r.stats.retired));
  out += line("cycles", std::to_string(r.stats.cycles));
  out += line("IPC", format_double(r.stats.ipc(), 3));
  out += line("dispatched / issued",
              std::to_string(r.stats.dispatched) + " / " +
                  std::to_string(r.stats.issued));
  out += line("squashed (wrong path)", std::to_string(r.stats.squashed));
  out += "front end\n";
  out += line("fetched", std::to_string(r.fetch.fetched));
  out += line("from trace cache",
              std::to_string(r.fetch.trace_fetched) + " (" +
                  format_double(100.0 * r.trace_cache.hit_rate(), 1) +
                  "% line hit rate)");
  out += line("redirects", std::to_string(r.fetch.redirects));
  out += line("branch mispredict rate",
              format_double(100.0 * r.stats.mispredict_rate(), 1) + "% of " +
                  std::to_string(r.stats.branches) + " branches");
  out += "scheduler\n";
  out += line("avg queue occupancy",
              format_double(r.stats.cycles == 0
                                ? 0.0
                                : static_cast<double>(
                                      r.stats.queue_occupancy_sum) /
                                      static_cast<double>(r.stats.cycles),
                            2));
  out += line("resource-starved entry-cycles",
              std::to_string(r.stats.resource_starved));
  out += line("reschedules", std::to_string(r.wakeup.reschedules));
  out += "configuration manager\n";
  out += line("steer decisions", std::to_string(r.steering.steer_events));
  std::string sel = "current=" + std::to_string(r.steering.selections[0]);
  for (unsigned c = 1; c < kNumCandidates; ++c) {
    sel += " cfg" + std::to_string(c) + "=" +
           std::to_string(r.steering.selections[c]);
  }
  out += line("selections", sel);
  out += line("targets requested",
              std::to_string(r.loader.targets_requested));
  out += line("region rewrites / slots",
              std::to_string(r.loader.regions_started) + " / " +
                  std::to_string(r.loader.slots_rewritten));
  out += line("rewrite-blocked cycles",
              std::to_string(r.loader.blocked_cycles));
  std::string util = "busy unit-cycles per type:";
  for (const FuType t : kAllFuTypes) {
    util += ' ';
    util += fu_type_name(t);
    util += '=';
    util += std::to_string(r.engine.busy_unit_cycles[fu_index(t)]);
  }
  out += line("utilization", util);
  if (r.fault.upsets_injected > 0 || r.fault.permanent_failures > 0 ||
      r.loader.scrub_reads > 0) {
    out += "faults & scrubbing\n";
    out += line("upsets injected / detected",
                std::to_string(r.fault.upsets_injected) + " / " +
                    std::to_string(r.loader.upsets_detected));
    out += line("slots repaired", std::to_string(r.loader.slots_repaired));
    out += line("permanent failures",
                std::to_string(r.fault.permanent_failures) + " (" +
                    std::to_string(r.loader.units_dropped) +
                    " target units dropped)");
    out += line("executions killed / retried",
                std::to_string(r.fault.executions_killed) + " / " +
                    std::to_string(r.fault.instructions_retried));
    out += line("scrub readbacks", std::to_string(r.loader.scrub_reads));
    if (r.loader.detection_latency.count() > 0) {
      out += line("detection latency",
                  "mean " +
                      format_double(r.loader.detection_latency.mean(), 1) +
                      ", max " +
                      format_double(r.loader.detection_latency.max(), 0) +
                      ", p95 " +
                      format_double(
                          r.loader.detection_latency_hist.quantile(0.95),
                          0));
    }
    out += line("degraded cycles",
                std::to_string(r.loader.degraded_cycles) + " of " +
                    std::to_string(r.stats.cycles));
    if (r.loader.ecc_corrections > 0 || r.loader.ecc_uncorrectable > 0) {
      out += line("ECC corrected/uncorrectable",
                  std::to_string(r.loader.ecc_corrections) + " / " +
                      std::to_string(r.loader.ecc_uncorrectable));
    }
  }
  if (r.audit.records > 0) {
    out += "steering audit\n";
    out += line("decisions audited", std::to_string(r.audit.records));
    out += line("retargets / holds",
                std::to_string(r.audit.retargets) + " / " +
                    std::to_string(r.audit.holds));
    out += line("confirm-suppressed",
                std::to_string(r.audit.confirm_suppressed));
    out += line("ties broken", std::to_string(r.audit.ties_broken));
  }
  if (r.recovery.checkpoints_taken > 0) {
    out += "checkpoint recovery\n";
    out += line("checkpoints taken",
                std::to_string(r.recovery.checkpoints_taken));
    out += line("rollbacks", std::to_string(r.recovery.rollbacks));
    out += line("cycles rewound / replayed",
                std::to_string(r.recovery.cycles_rewound) + " / " +
                    std::to_string(r.recovery.instructions_replayed));
    out += line("in-flight flushed",
                std::to_string(r.recovery.flushed_in_flight));
    out += line("journal records (peak)",
                std::to_string(r.recovery.journal_records) + " (" +
                    std::to_string(r.recovery.journal_records_peak) + ")");
  }
  return out;
}

}  // namespace steersim
