// Observability layer (docs/OBSERVABILITY.md): the cycle tracer's JSON
// output, the steering audit log, the metric registry, the interval
// sampler, and — most importantly — that enabling any of it leaves
// simulated statistics bit-identical.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "workload/synthetic.hpp"

namespace steersim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// RAII deleter for test artifact files.
struct FileGuard {
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() { std::remove(path.c_str()); }
  std::string path;
};

Program phased_program() {
  return generate_synthetic(alternating_phases(512, 2, 7));
}

// --- TraceArgs / Tracer unit level. --------------------------------------

TEST(TraceArgs, RendersTypedMembers) {
  TraceArgs args;
  args.num("a", std::uint64_t{7})
      .num("b", std::int64_t{-3})
      .num("c", 1.5)
      .str("d", "x\"y");
  EXPECT_EQ(args.body(), R"("a":7,"b":-3,"c":1.5,"d":"x\"y")");
}

TEST(Tracer, EmitsParseableJson) {
  const FileGuard file("test_tracer_basic.json");
  {
    TraceConfig cfg;
    cfg.enabled = true;
    cfg.path = file.path;
    Tracer tracer(cfg);
    tracer.ensure_lane(0, "lane zero");
    TraceArgs args;
    args.num("pc", std::uint64_t{16});
    tracer.instant("tick", trace_cat::kFetch, 0, 5, args);
    tracer.complete("span", trace_cat::kExecute, 1, 10, 4);
    EXPECT_EQ(tracer.events_emitted(), 2u);
    tracer.close();
  }
  JsonValue doc;
  ASSERT_TRUE(parse_json_strict(slurp(file.path), doc));
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  // 2 metadata events for the named lane + 2 real events.
  ASSERT_EQ(events->array.size(), 4u);
  const JsonValue& instant = events->array[2];
  EXPECT_EQ(instant.get("name")->string, "tick");
  EXPECT_EQ(instant.get("ph")->string, "i");
  EXPECT_EQ(instant.get("ts")->number, 5.0);
  EXPECT_EQ(instant.get("args")->get("pc")->number, 16.0);
  const JsonValue& complete = events->array[3];
  EXPECT_EQ(complete.get("ph")->string, "X");
  EXPECT_EQ(complete.get("ts")->number, 10.0);
  EXPECT_EQ(complete.get("dur")->number, 4.0);
}

TEST(Tracer, CategoryAndWindowFilters) {
  const FileGuard file("test_tracer_filter.json");
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.path = file.path;
  cfg.categories = trace_cat::kSteer;
  cfg.start_cycle = 100;
  cfg.end_cycle = 200;
  Tracer tracer(cfg);
  tracer.instant("in", trace_cat::kSteer, 0, 150);
  tracer.instant("wrong-cat", trace_cat::kFetch, 0, 150);
  tracer.instant("early", trace_cat::kSteer, 0, 99);
  tracer.instant("late", trace_cat::kSteer, 0, 201);
  // A span straddling the window start overlaps it and is kept.
  tracer.complete("straddle", trace_cat::kSteer, 0, 90, 20);
  tracer.complete("before", trace_cat::kSteer, 0, 10, 20);
  EXPECT_EQ(tracer.events_emitted(), 2u);
  EXPECT_FALSE(tracer.wants(trace_cat::kFetch, 150));
  EXPECT_TRUE(tracer.wants(trace_cat::kSteer, 150));
  EXPECT_FALSE(tracer.wants(trace_cat::kSteer, 99));
}

// --- Whole-machine tracing. ----------------------------------------------

TEST(Tracing, ProducesValidEventStreamFromSteeredRun) {
  const FileGuard file("test_trace_run.json");
  MachineConfig cfg;
  cfg.trace.enabled = true;
  cfg.trace.path = file.path;
  const SimResult result = simulate(phased_program(), cfg,
                                    {.kind = PolicyKind::kSteered}, 100'000);
  ASSERT_EQ(result.outcome, RunOutcome::kHalted);

  JsonValue doc;
  ASSERT_TRUE(parse_json_strict(slurp(file.path), doc));
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array.size(), 100u);

  std::map<double, double> last_ts_per_lane;
  std::map<std::string, std::uint64_t> per_category;
  for (const JsonValue& ev : events->array) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = ev.get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      continue;  // metadata carries no timestamp
    }
    ASSERT_NE(ev.get("name"), nullptr);
    ASSERT_NE(ev.get("ts"), nullptr);
    ASSERT_NE(ev.get("tid"), nullptr);
    ASSERT_NE(ev.get("cat"), nullptr);
    ++per_category[ev.get("cat")->string];
    // Event start timestamps never go backwards within a lane.
    const double lane = ev.get("tid")->number;
    const double ts = ev.get("ts")->number;
    const auto it = last_ts_per_lane.find(lane);
    if (it != last_ts_per_lane.end()) {
      EXPECT_LE(it->second, ts) << "lane " << lane;
    }
    last_ts_per_lane[lane] = ts;
  }
  // A steered phased run exercises the whole pipeline.
  for (const char* cat :
       {"fetch", "dispatch", "execute", "commit", "steer", "loader"}) {
    EXPECT_GT(per_category[cat], 0u) << cat;
  }
}

TEST(Tracing, DisabledRunIsBitIdentical) {
  const FileGuard file("test_trace_identical.json");
  MachineConfig plain_cfg;
  MachineConfig traced_cfg;
  traced_cfg.trace.enabled = true;
  traced_cfg.trace.path = file.path;
  traced_cfg.audit.enabled = true;  // in-memory audit must not perturb either
  const Program program = phased_program();
  const SimResult plain =
      simulate(program, plain_cfg, {.kind = PolicyKind::kSteered}, 100'000);
  const SimResult traced =
      simulate(program, traced_cfg, {.kind = PolicyKind::kSteered}, 100'000);

  EXPECT_EQ(plain.stats.cycles, traced.stats.cycles);
  EXPECT_EQ(plain.stats.retired, traced.stats.retired);
  EXPECT_EQ(plain.stats.dispatched, traced.stats.dispatched);
  EXPECT_EQ(plain.stats.issued, traced.stats.issued);
  EXPECT_EQ(plain.stats.squashed, traced.stats.squashed);
  EXPECT_EQ(plain.stats.mispredicts, traced.stats.mispredicts);
  EXPECT_EQ(plain.stats.resource_starved, traced.stats.resource_starved);
  EXPECT_EQ(plain.steering.steer_events, traced.steering.steer_events);
  EXPECT_EQ(plain.steering.selections, traced.steering.selections);
  EXPECT_EQ(plain.loader.slots_rewritten, traced.loader.slots_rewritten);
  EXPECT_EQ(plain.loader.targets_requested, traced.loader.targets_requested);
}

TEST(Tracing, WindowLimitsEventsToCycleRange) {
  const FileGuard file("test_trace_window.json");
  MachineConfig cfg;
  cfg.trace.enabled = true;
  cfg.trace.path = file.path;
  cfg.trace.categories = trace_cat::kCommit;
  cfg.trace.start_cycle = 200;
  cfg.trace.end_cycle = 400;
  simulate(phased_program(), cfg, {.kind = PolicyKind::kSteered}, 100'000);

  JsonValue doc;
  ASSERT_TRUE(parse_json_strict(slurp(file.path), doc));
  std::uint64_t counted = 0;
  for (const JsonValue& ev : doc.get("traceEvents")->array) {
    if (ev.get("ph")->string == "M") {
      continue;
    }
    EXPECT_EQ(ev.get("cat")->string, "commit");
    EXPECT_GE(ev.get("ts")->number, 200.0);
    EXPECT_LE(ev.get("ts")->number, 400.0);
    ++counted;
  }
  EXPECT_GT(counted, 0u);
}

// --- Batched pipeline: skip-ahead stays engaged under observation. -------

/// Event lines of a rendered trace document, in order, trailing comma
/// stripped. Metadata ("ph":"M") and the synthetic skip-lane events are
/// excluded so a skip-engaged document can compare against a live-stepped
/// one (which has neither a skip lane nor skip spans).
std::vector<std::string> comparable_event_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\":", 0) != 0) {
      continue;  // document prefix/suffix
    }
    if (!line.empty() && line.back() == ',') {
      line.pop_back();
    }
    if (line.find("\"ph\":\"M\"") != std::string::npos ||
        line.find("\"cat\":\"skip\"") != std::string::npos) {
      continue;
    }
    lines.push_back(line);
  }
  return lines;
}

std::uint64_t count_skip_spans(const std::string& text) {
  std::uint64_t spans = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"cat\":\"skip\"") != std::string::npos &&
        line.find("\"ph\":\"X\"") != std::string::npos) {
      ++spans;
    }
  }
  return spans;
}

/// run() keeps skip-ahead engaged with a tracer attached; a manual step()
/// loop never skips. Modulo the synthetic skip spans, the two must render
/// the same events in the same order — the batched replay of skipped
/// steering decisions is exact.
TEST(Tracing, SkipAheadEventStreamMatchesLiveStepping) {
  const FileGuard batched_file("test_trace_skip_batched.json");
  const FileGuard live_file("test_trace_skip_live.json");
  const Program program = phased_program();

  MachineConfig batched_cfg;
  batched_cfg.trace.enabled = true;
  batched_cfg.trace.path = batched_file.path;
  const SimResult batched = simulate(program, batched_cfg,
                                     {.kind = PolicyKind::kSteered}, 100'000);
  ASSERT_EQ(batched.outcome, RunOutcome::kHalted);

  MachineConfig live_cfg = batched_cfg;
  live_cfg.trace.path = live_file.path;
  std::uint64_t live_cycles = 0;
  std::uint64_t live_retired = 0;
  {
    auto cpu = make_processor(program, live_cfg,
                              {.kind = PolicyKind::kSteered});
    for (std::uint64_t c = 0; c < 100'000 && !cpu->halted(); ++c) {
      cpu->step();
    }
    ASSERT_TRUE(cpu->halted());
    live_cycles = cpu->stats().cycles;
    live_retired = cpu->stats().retired;
  }  // processor destruction finalizes the trace document

  EXPECT_EQ(batched.stats.cycles, live_cycles);
  EXPECT_EQ(batched.stats.retired, live_retired);

  const std::string batched_text = slurp(batched_file.path);
  EXPECT_GT(count_skip_spans(batched_text), 0u)
      << "run() never engaged skip-ahead with a tracer attached";
  EXPECT_EQ(count_skip_spans(slurp(live_file.path)), 0u);
  EXPECT_EQ(comparable_event_lines(batched_text),
            comparable_event_lines(slurp(live_file.path)));
}

/// The audit log does not veto skip-ahead either: with it and the tracer
/// attached, run() still skips, and the decision records it replays
/// through each skipped window (same cycles, streaks, errors, costs and
/// intent) equal the ones a manual step() loop records live.
TEST(Audit, SkipAheadRecordsMatchLiveStepping) {
  const FileGuard batched_file("test_audit_skip_batched.json");
  const FileGuard live_file("test_audit_skip_live.json");
  const Program program = phased_program();
  const auto audit_rows = [&program](const std::string& trace_path,
                                     bool stepped) {
    MachineConfig cfg;
    cfg.audit.enabled = true;
    cfg.trace.enabled = true;
    cfg.trace.path = trace_path;
    auto cpu = make_processor(program, cfg, {.kind = PolicyKind::kSteered});
    if (stepped) {
      for (std::uint64_t c = 0; c < 100'000 && !cpu->halted(); ++c) {
        cpu->step();
      }
    } else {
      cpu->run(100'000);
    }
    EXPECT_TRUE(cpu->halted());
    std::vector<std::string> rows;
    for (const AuditRecord& rec : cpu->audit_log()->records()) {
      rows.push_back(SteeringAuditLog::csv_row(rec));
    }
    return rows;
  };  // processor destruction finalizes the trace document

  const std::vector<std::string> batched =
      audit_rows(batched_file.path, /*stepped=*/false);
  const std::vector<std::string> live =
      audit_rows(live_file.path, /*stepped=*/true);
  EXPECT_GT(count_skip_spans(slurp(batched_file.path)), 0u)
      << "run() never engaged skip-ahead with an audit log attached";
  ASSERT_FALSE(live.empty());
  EXPECT_EQ(batched, live);
}

TEST(Tracer, UnopenablePathDegradesToNullSink) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.path = "test_no_such_dir/nested/trace.json";
  Tracer tracer(cfg);
  EXPECT_TRUE(tracer.null_sink());
  tracer.ensure_lane(0, "lane zero");
  tracer.instant("tick", trace_cat::kFetch, 0, 5);
  tracer.complete("span", trace_cat::kExecute, 1, 10, 4);
  // Events are still accepted and counted; only rendering is discarded.
  EXPECT_EQ(tracer.events_emitted(), 2u);
  tracer.close();  // must not abort on the dead sink
  std::ifstream in(cfg.path);
  EXPECT_FALSE(in.good());
}

TEST(Tracing, NullSinkRunIsBitIdentical) {
  MachineConfig plain_cfg;
  MachineConfig dead_cfg;
  dead_cfg.trace.enabled = true;
  dead_cfg.trace.path = "test_no_such_dir/nested/trace.json";
  const Program program = phased_program();
  const SimResult plain =
      simulate(program, plain_cfg, {.kind = PolicyKind::kSteered}, 100'000);
  const SimResult dead =
      simulate(program, dead_cfg, {.kind = PolicyKind::kSteered}, 100'000);
  EXPECT_EQ(plain.stats.cycles, dead.stats.cycles);
  EXPECT_EQ(plain.stats.retired, dead.stats.retired);
  EXPECT_EQ(plain.stats.issued, dead.stats.issued);
  EXPECT_EQ(plain.steering.selections, dead.steering.selections);
  EXPECT_EQ(plain.loader.slots_rewritten, dead.loader.slots_rewritten);
}

/// Skip-ahead now crosses sampler territory: try_skip caps each skip at
/// the next window boundary, so the sampler sees every boundary cycle and
/// its output is byte-identical to a live-stepped run's.
TEST(Sampler, WindowsBitIdenticalAcrossSkipAheadAndLiveStepping) {
  const FileGuard batched_csv("test_sampler_skip_batched.csv");
  const FileGuard live_csv("test_sampler_skip_live.csv");
  const FileGuard trace_file("test_sampler_skip_trace.json");
  const Program program = phased_program();

  MachineConfig batched_cfg;
  batched_cfg.sample.period = 97;  // prime: boundaries land mid-skip
  batched_cfg.sample.csv_path = batched_csv.path;
  batched_cfg.trace.enabled = true;
  batched_cfg.trace.path = trace_file.path;
  const SimResult batched = simulate(program, batched_cfg,
                                     {.kind = PolicyKind::kSteered}, 100'000);
  ASSERT_EQ(batched.outcome, RunOutcome::kHalted);
  EXPECT_GT(count_skip_spans(slurp(trace_file.path)), 0u);

  MachineConfig live_cfg;
  live_cfg.sample.period = 97;
  live_cfg.sample.csv_path = live_csv.path;
  {
    auto cpu = make_processor(program, live_cfg,
                              {.kind = PolicyKind::kSteered});
    for (std::uint64_t c = 0; c < 100'000 && !cpu->halted(); ++c) {
      cpu->step();
    }
    ASSERT_TRUE(cpu->halted());
    cpu->flush_sampler();  // close the final partial window, as run() does
    EXPECT_EQ(batched.stats.cycles, cpu->stats().cycles);
  }
  EXPECT_EQ(slurp(batched_csv.path), slurp(live_csv.path));
}

/// Window-delta conservation (deltas sum to end-of-run totals) must hold
/// even when entire windows are skipped rather than stepped.
TEST(Sampler, ConservationHoldsAcrossSkippedWindows) {
  const FileGuard trace_file("test_sampler_skip_conserve.json");
  MachineConfig cfg;
  cfg.sample.period = 97;
  cfg.sample.counter_tracks = false;
  cfg.trace.enabled = true;
  cfg.trace.path = trace_file.path;
  auto cpu = make_processor(phased_program(), cfg,
                            {.kind = PolicyKind::kSteered});
  cpu->run(100'000);
  ASSERT_TRUE(cpu->halted());
  cpu->tracer()->close();
  EXPECT_GT(count_skip_spans(slurp(trace_file.path)), 0u)
      << "no skip-ahead engaged; this test would not cover skipped windows";

  const IntervalSampler* sampler = cpu->sampler();
  ASSERT_NE(sampler, nullptr);
  const auto& names = sampler->counter_names();
  std::vector<double> sums(names.size(), 0.0);
  std::uint64_t cycles_covered = 0;
  for (const SampleWindow& w : sampler->windows()) {
    ASSERT_EQ(w.deltas.size(), names.size());
    cycles_covered += w.window_cycles;
    for (std::size_t i = 0; i < names.size(); ++i) {
      sums[i] += w.deltas[i];
    }
  }
  EXPECT_EQ(cycles_covered, cpu->stats().cycles);

  const MetricRegistry live = cpu->live_metrics();
  for (const Metric& m : live.metrics()) {
    if (m.derived) {
      continue;
    }
    const auto it = std::find(names.begin(), names.end(), m.name);
    ASSERT_NE(it, names.end()) << m.name << " missing from sampler schema";
    const auto idx = static_cast<std::size_t>(it - names.begin());
    EXPECT_DOUBLE_EQ(sums[idx], m.value) << m.name;
  }
}

/// Seeded skip-cosim episodes, wakeup-cosim style: across several seeded
/// workloads, the skip-engaged run() and a live step() loop must agree on
/// statistics, rendered events, and sampled windows.
TEST(SkipCosim, SeededEpisodesMatchLiveStepping) {
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    const std::string tag = std::to_string(seed);
    const FileGuard batched_file("test_skip_cosim_b" + tag + ".json");
    const FileGuard live_file("test_skip_cosim_l" + tag + ".json");
    const FileGuard batched_csv("test_skip_cosim_b" + tag + ".csv");
    const FileGuard live_csv("test_skip_cosim_l" + tag + ".csv");
    const Program program =
        generate_synthetic(alternating_phases(256, 2, seed));

    MachineConfig batched_cfg;
    batched_cfg.trace.enabled = true;
    batched_cfg.trace.path = batched_file.path;
    batched_cfg.sample.period = 61;
    batched_cfg.sample.csv_path = batched_csv.path;
    const SimResult batched = simulate(
        program, batched_cfg, {.kind = PolicyKind::kSteered}, 100'000);
    ASSERT_EQ(batched.outcome, RunOutcome::kHalted) << "seed " << seed;

    MachineConfig live_cfg = batched_cfg;
    live_cfg.trace.path = live_file.path;
    live_cfg.sample.csv_path = live_csv.path;
    {
      auto cpu = make_processor(program, live_cfg,
                                {.kind = PolicyKind::kSteered});
      for (std::uint64_t c = 0; c < 100'000 && !cpu->halted(); ++c) {
        cpu->step();
      }
      ASSERT_TRUE(cpu->halted()) << "seed " << seed;
      cpu->flush_sampler();
      EXPECT_EQ(batched.stats.cycles, cpu->stats().cycles) << "seed " << seed;
      EXPECT_EQ(batched.stats.retired, cpu->stats().retired)
          << "seed " << seed;
    }
    EXPECT_EQ(comparable_event_lines(slurp(batched_file.path)),
              comparable_event_lines(slurp(live_file.path)))
        << "seed " << seed;
    EXPECT_EQ(slurp(batched_csv.path), slurp(live_csv.path))
        << "seed " << seed;
  }
}

// --- Steering audit log. -------------------------------------------------

TEST(Audit, SummaryMatchesPolicySelectionCounters) {
  MachineConfig cfg;
  cfg.audit.enabled = true;
  const SimResult result = simulate(phased_program(), cfg,
                                    {.kind = PolicyKind::kSteered}, 100'000);
  ASSERT_EQ(result.outcome, RunOutcome::kHalted);
  EXPECT_EQ(result.audit.records, result.steering.steer_events);
  for (unsigned c = 0; c < kNumCandidates; ++c) {
    EXPECT_EQ(result.audit.selections[c], result.steering.selections[c])
        << "candidate " << c;
  }
  EXPECT_EQ(result.audit.holds + result.audit.retargets +
                result.audit.confirm_suppressed,
            result.audit.records);
  // confirm=1 (the paper's behaviour) never suppresses.
  EXPECT_EQ(result.audit.confirm_suppressed, 0u);
}

TEST(Audit, CsvRowsMatchSelectionTotals) {
  const FileGuard file("test_audit.csv");
  MachineConfig cfg;
  cfg.audit.enabled = true;
  cfg.audit.csv_path = file.path;
  const SimResult result = simulate(phased_program(), cfg,
                                    {.kind = PolicyKind::kSteered}, 100'000);

  std::ifstream in(file.path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header.substr(0, 5), "cycle");
  EXPECT_NE(header.find("err0"), std::string::npos);
  EXPECT_NE(header.find("cost0"), std::string::npos);
  EXPECT_NE(header.find("intent"), std::string::npos);

  // Count per-selection rows; the selection column position comes from the
  // header so the test does not hard-code the schema width.
  std::vector<std::string> cols;
  std::stringstream hs(header);
  std::string col;
  while (std::getline(hs, col, ',')) {
    cols.push_back(col);
  }
  std::size_t sel_col = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == "selection") {
      sel_col = i;
    }
  }
  ASSERT_GT(sel_col, 0u);

  std::array<std::uint64_t, kNumCandidates> csv_selections{};
  std::uint64_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::stringstream ls(line);
    std::string field;
    for (std::size_t i = 0; i <= sel_col; ++i) {
      ASSERT_TRUE(static_cast<bool>(std::getline(ls, field, ',')));
    }
    const auto sel = static_cast<unsigned>(std::stoul(field));
    ASSERT_LT(sel, kNumCandidates);
    ++csv_selections[sel];
    ++rows;
  }
  EXPECT_EQ(rows, result.steering.steer_events);
  for (unsigned c = 0; c < kNumCandidates; ++c) {
    EXPECT_EQ(csv_selections[c], result.steering.selections[c])
        << "candidate " << c;
  }
}

TEST(Audit, ConfirmHysteresisShowsUpAsSuppressedDecisions) {
  MachineConfig cfg;
  cfg.audit.enabled = true;
  const SimResult result = simulate(
      phased_program(), cfg,
      {.kind = PolicyKind::kSteered, .confirm = 3}, 100'000);
  // With confirm=3 every non-current winner needs a 3-long streak, so some
  // decisions must be suppressed before any retarget happens.
  EXPECT_GT(result.audit.confirm_suppressed, 0u);
  EXPECT_EQ(result.audit.holds + result.audit.retargets +
                result.audit.confirm_suppressed,
            result.audit.records);
}

TEST(Audit, RecordsKeptInMemoryWithoutCsvPath) {
  AuditConfig cfg;
  cfg.enabled = true;
  SteeringAuditLog log(cfg);
  AuditRecord rec;
  rec.cycle = 42;
  rec.num_types = 5;
  rec.num_candidates = 4;
  rec.selection = 2;
  rec.tie_broken = true;
  rec.intent = AuditIntent::kRetarget;
  log.record(rec);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].cycle, 42u);
  EXPECT_EQ(log.summary().retargets, 1u);
  EXPECT_EQ(log.summary().ties_broken, 1u);
  const std::string row = SteeringAuditLog::csv_row(rec);
  EXPECT_EQ(row.substr(0, 3), "42,");
  EXPECT_NE(row.find("retarget"), std::string::npos);
}

// --- Metric registry. ----------------------------------------------------

TEST(Metrics, RegistryCollectsEverySubsystemWithExactValues) {
  MachineConfig cfg;
  const SimResult result = simulate(phased_program(), cfg,
                                    {.kind = PolicyKind::kSteered}, 100'000);
  const MetricRegistry reg = collect_metrics(result);
  EXPECT_GT(reg.size(), 40u);

  const Metric* cycles = reg.find("sim.cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->value, static_cast<double>(result.stats.cycles));
  const Metric* ipc = reg.find("sim.ipc");
  ASSERT_NE(ipc, nullptr);
  EXPECT_DOUBLE_EQ(ipc->value, result.stats.ipc());
  const Metric* rewrites = reg.find("loader.slots_rewritten");
  ASSERT_NE(rewrites, nullptr);
  EXPECT_EQ(rewrites->value,
            static_cast<double>(result.loader.slots_rewritten));
  const Metric* steer = reg.find("steer.steer_events");
  ASSERT_NE(steer, nullptr);
  EXPECT_EQ(steer->value, static_cast<double>(result.steering.steer_events));
  EXPECT_NE(reg.find("engine.issues"), nullptr);
  EXPECT_NE(reg.find("fetch.fetched"), nullptr);
  EXPECT_NE(reg.find("tcache.hit_rate"), nullptr);
  EXPECT_NE(reg.find("wakeup.grants"), nullptr);
  EXPECT_NE(reg.find("dcache.miss_rate"), nullptr);
  EXPECT_NE(reg.find("fault.upsets_injected"), nullptr);
  EXPECT_NE(reg.find("recovery.rollbacks"), nullptr);
  EXPECT_EQ(reg.find("no.such.metric"), nullptr);

  // No name registered twice.
  std::map<std::string, int> seen;
  for (const Metric& m : reg.metrics()) {
    EXPECT_EQ(++seen[m.name], 1) << m.name;
  }
}

TEST(Metrics, NameIndexIsSortedAndFindsEveryName) {
  MetricRegistry reg;
  for (const char* name : {"b.z", "a.y", "b.a", "c", "a.yy", "B"}) {
    reg.add(name, 1.0);
  }
  std::vector<std::string> names;
  for (const std::uint32_t index : reg.by_name()) {
    names.push_back(reg.metrics()[index].name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"B", "a.y", "a.yy", "b.a",
                                             "b.z", "c"}));
  for (const Metric& m : reg.metrics()) {
    EXPECT_EQ(reg.find(m.name), &m);
  }
  EXPECT_EQ(reg.find("a"), nullptr);
  EXPECT_EQ(reg.find("b.zz"), nullptr);
}

using MetricRegistryDeathTest = ::testing::Test;

TEST(MetricRegistryDeathTest, DuplicateNameAborts) {
  MetricRegistry reg;
  reg.add("sim.cycles", 1.0);
  reg.add("sim.ipc", 0.5, true);
  EXPECT_DEATH(reg.add("sim.cycles", 2.0), "Expects");
  EXPECT_DEATH(reg.prefixed("sim.")("ipc", 1.0), "Expects");
  EXPECT_DEATH(reg.add("", 1.0), "Expects");
}

TEST(Metrics, CsvRendersCountersAsIntegers) {
  MetricRegistry reg;
  reg.add("a.count", 123.0);
  reg.add("a.rate", 0.5);
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("metric,value\n"), std::string::npos);
  EXPECT_NE(csv.find("a.count,123\n"), std::string::npos);
  EXPECT_NE(csv.find("a.rate,0.5"), std::string::npos);
}

// --- Interval sampler. ---------------------------------------------------

TEST(Sampler, WindowDeltasSumToEndOfRunTotalsForEveryCounter) {
  MachineConfig cfg;
  cfg.sample.period = 64;
  cfg.sample.counter_tracks = false;
  auto cpu = make_processor(phased_program(), cfg,
                            {.kind = PolicyKind::kSteered});
  cpu->run(100'000);
  ASSERT_TRUE(cpu->halted());

  const IntervalSampler* sampler = cpu->sampler();
  ASSERT_NE(sampler, nullptr);
  const auto& names = sampler->counter_names();
  ASSERT_FALSE(names.empty());
  ASSERT_FALSE(sampler->windows().empty());

  // Telescoping: per-window deltas sum to final-minus-initial, and initial
  // is zero, so the sum must equal the end-of-run registry value — for
  // EVERY counter metric, including the flushed final partial window.
  std::vector<double> sums(names.size(), 0.0);
  std::uint64_t cycles_covered = 0;
  std::uint64_t last_cycle = 0;
  for (const SampleWindow& w : sampler->windows()) {
    ASSERT_EQ(w.deltas.size(), names.size());
    EXPECT_GT(w.cycle, last_cycle);  // strictly increasing sample points
    last_cycle = w.cycle;
    cycles_covered += w.window_cycles;
    for (std::size_t i = 0; i < names.size(); ++i) {
      sums[i] += w.deltas[i];
    }
  }
  EXPECT_EQ(cycles_covered, cpu->stats().cycles);

  const MetricRegistry live = cpu->live_metrics();
  std::size_t counters_in_registry = 0;
  for (const Metric& m : live.metrics()) {
    if (m.derived) {
      continue;
    }
    ++counters_in_registry;
    const auto it = std::find(names.begin(), names.end(), m.name);
    ASSERT_NE(it, names.end()) << m.name << " missing from sampler schema";
    const auto idx = static_cast<std::size_t>(it - names.begin());
    EXPECT_DOUBLE_EQ(sums[idx], m.value) << m.name;
  }
  // The schema is exactly the non-derived registry, nothing more.
  EXPECT_EQ(counters_in_registry, names.size());
}

TEST(Sampler, EnabledRunIsBitIdentical) {
  const FileGuard file("test_sampler_identical.csv");
  MachineConfig plain_cfg;
  MachineConfig sampled_cfg;
  sampled_cfg.sample.period = 128;
  sampled_cfg.sample.csv_path = file.path;
  const Program program = phased_program();
  const SimResult plain =
      simulate(program, plain_cfg, {.kind = PolicyKind::kSteered}, 100'000);
  const SimResult sampled =
      simulate(program, sampled_cfg, {.kind = PolicyKind::kSteered}, 100'000);

  EXPECT_EQ(plain.stats.cycles, sampled.stats.cycles);
  EXPECT_EQ(plain.stats.retired, sampled.stats.retired);
  EXPECT_EQ(plain.stats.dispatched, sampled.stats.dispatched);
  EXPECT_EQ(plain.stats.issued, sampled.stats.issued);
  EXPECT_EQ(plain.stats.squashed, sampled.stats.squashed);
  EXPECT_EQ(plain.stats.mispredicts, sampled.stats.mispredicts);
  EXPECT_EQ(plain.stats.resource_starved, sampled.stats.resource_starved);
  EXPECT_EQ(plain.steering.steer_events, sampled.steering.steer_events);
  EXPECT_EQ(plain.steering.selections, sampled.steering.selections);
  EXPECT_EQ(plain.loader.slots_rewritten, sampled.loader.slots_rewritten);
}

TEST(Sampler, StreamsCsvWithOneRowPerSample) {
  const FileGuard file("test_sampler_stream.csv");
  MachineConfig cfg;
  cfg.sample.period = 100;
  cfg.sample.csv_path = file.path;
  auto cpu = make_processor(phased_program(), cfg,
                            {.kind = PolicyKind::kSteered});
  cpu->run(100'000);
  const IntervalSampler* sampler = cpu->sampler();
  ASSERT_NE(sampler, nullptr);
  EXPECT_TRUE(sampler->windows().empty());  // streamed, not retained

  std::ifstream in(file.path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header, sampler->csv_header());
  EXPECT_EQ(header.substr(0, 26), "cycle,window_cycles,window");
  std::uint64_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, sampler->samples_taken());
  // Final partial window flushed: periods covered + 1 unless the halt
  // cycle landed exactly on a period boundary.
  const std::uint64_t cycles = cpu->stats().cycles;
  const std::uint64_t expected =
      cycles / cfg.sample.period + (cycles % cfg.sample.period != 0 ? 1 : 0);
  EXPECT_EQ(rows, expected);
}

TEST(Sampler, CounterTrackEventsParseAndAreMonotone) {
  const FileGuard file("test_sampler_counters.json");
  MachineConfig cfg;
  cfg.trace.enabled = true;
  cfg.trace.path = file.path;
  cfg.sample.period = 64;
  const SimResult result = simulate(phased_program(), cfg,
                                    {.kind = PolicyKind::kSteered}, 100'000);
  ASSERT_EQ(result.outcome, RunOutcome::kHalted);

  JsonValue doc;
  ASSERT_TRUE(parse_json_strict(slurp(file.path), doc));
  const JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, double> last_ts;
  std::map<std::string, std::uint64_t> count;
  for (const JsonValue& ev : events->array) {
    if (ev.get("ph") == nullptr || ev.get("ph")->string != "C") {
      continue;
    }
    const JsonValue* name = ev.get("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string.substr(0, 4), "win.");
    EXPECT_EQ(ev.get("cat")->string, "counter");
    const JsonValue* args = ev.get("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->get("value"), nullptr);
    const double ts = ev.get("ts")->number;
    const auto it = last_ts.find(name->string);
    if (it != last_ts.end()) {
      EXPECT_LT(it->second, ts) << name->string;
    }
    last_ts[name->string] = ts;
    ++count[name->string];
  }
  EXPECT_GT(count["win.ipc"], 1u);
  EXPECT_GT(count["win.sim.retired"], 1u);
  // Every tracked series sampled the same number of times.
  for (const auto& [name, n] : count) {
    EXPECT_EQ(n, count["win.ipc"]) << name;
  }
}

TEST(Sampler, DisabledConfigMeansNoSamplerObject) {
  MachineConfig cfg;
  ASSERT_FALSE(cfg.sample.enabled());
  auto cpu = make_processor(phased_program(), cfg,
                            {.kind = PolicyKind::kSteered});
  cpu->run(10'000);
  EXPECT_EQ(cpu->sampler(), nullptr);
}

// --- Host profile. -------------------------------------------------------

TEST(HostProfile, SimulateFillsPhaseTimings) {
  MachineConfig cfg;
  const SimResult result = simulate(phased_program(), cfg,
                                    {.kind = PolicyKind::kSteered}, 100'000);
  EXPECT_GE(result.host.build_seconds, 0.0);
  EXPECT_GT(result.host.run_seconds, 0.0);
  EXPECT_GE(result.host.collect_seconds, 0.0);
  EXPECT_GT(result.host.cycles_per_sec(result.stats.cycles), 0.0);
  EXPECT_GT(result.host.kips(result.stats.retired), 0.0);
  HostProfile idle;
  EXPECT_EQ(idle.cycles_per_sec(1000), 0.0);
  EXPECT_EQ(idle.kips(1000), 0.0);
}

}  // namespace
}  // namespace steersim
