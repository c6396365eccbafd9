// Multi-core shared-fabric tests (docs/DESIGN.md §Multi-core shared
// fabric): arbiter grant order per policy, loader quota semantics, the
// N=1 bit-identity cosim gate (a single-core MultiCoreSim must reproduce
// simulate() exactly), determinism of contended runs, retirement
// conservation, and prop-share quota repartitioning invariants.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "config/loader.hpp"
#include "isa/assembler.hpp"
#include "multicore/multicore.hpp"
#include "sim/metrics.hpp"
#include "workload/kernels.hpp"

namespace steersim {
namespace {

LoaderParams loader_params(unsigned cycles_per_slot = 4) {
  LoaderParams p;
  p.num_slots = 8;
  p.cycles_per_slot = cycles_per_slot;
  p.max_concurrent_regions = 1;
  p.partial = true;
  return p;
}

// ---------------------------------------------------------------------------
// Arbiter: grant order per policy.

TEST(Arbiter, RoundRobinRotatesAmongWaiters) {
  FabricStats stats;
  Arbiter arbiter(ArbiterKind::kRoundRobin, 3, stats);
  arbiter.begin_cycle(0, 0);
  EXPECT_TRUE(arbiter.acquire(0)) << "free port: first claimant wins";
  EXPECT_FALSE(arbiter.acquire(1));
  EXPECT_FALSE(arbiter.acquire(2));
  EXPECT_EQ(arbiter.holder(), 0);
  EXPECT_EQ(stats.port_grants, 1u);
  EXPECT_EQ(stats.port_denials, 2u);

  // Core 0 drains: the rotation hands the port to core 1, then core 2.
  arbiter.begin_cycle(1, 1ull << 0);
  EXPECT_EQ(arbiter.holder(), 1);
  EXPECT_TRUE(arbiter.acquire(1)) << "holder reacquires for free";
  arbiter.begin_cycle(2, 1ull << 1);
  EXPECT_EQ(arbiter.holder(), 2);
  arbiter.begin_cycle(3, 1ull << 2);
  EXPECT_EQ(arbiter.holder(), -1) << "no waiters left: port goes free";
  EXPECT_EQ(stats.port_grants, 3u);
  EXPECT_EQ(stats.grant_latency.count(), 2u);
}

TEST(Arbiter, PriorityGrantsTheLowestWaitingCore) {
  FabricStats stats;
  Arbiter arbiter(ArbiterKind::kPriority, 4, stats);
  arbiter.begin_cycle(0, 0);
  EXPECT_TRUE(arbiter.acquire(3));
  EXPECT_FALSE(arbiter.acquire(2));
  EXPECT_FALSE(arbiter.acquire(1));
  arbiter.begin_cycle(1, 1ull << 3);
  EXPECT_EQ(arbiter.holder(), 1) << "static priority: lowest index first";
  arbiter.begin_cycle(2, 1ull << 1);
  EXPECT_EQ(arbiter.holder(), 2);
}

TEST(Arbiter, HolderKeepsThePortWhileItsLoaderIsBusy) {
  FabricStats stats;
  Arbiter arbiter(ArbiterKind::kRoundRobin, 2, stats);
  arbiter.begin_cycle(0, 0);
  EXPECT_TRUE(arbiter.acquire(0));
  EXPECT_FALSE(arbiter.acquire(1));
  // Core 0's loader is still mid-rewrite (idle bit clear): no handover.
  arbiter.begin_cycle(1, 0);
  EXPECT_EQ(arbiter.holder(), 0);
  EXPECT_FALSE(arbiter.acquire(1));
  EXPECT_GE(stats.port_busy_cycles, 1u);
  arbiter.begin_cycle(2, 1ull << 0);
  EXPECT_EQ(arbiter.holder(), 1);
}

// ---------------------------------------------------------------------------
// Loader quota / port-gating semantics.

TEST(LoaderQuota, SetQuotaEvictsUnitsOnRevokedSlots) {
  // place() packs from slot 0: IntAlu at 0 and 1, FpAlu spanning 2-4.
  ConfigurationLoader loader(loader_params(),
                             AllocationVector::place({2, 0, 0, 1, 0}, 8));
  ASSERT_EQ(loader.allocation().counts()[fu_index(FuType::kFpAlu)], 1);
  SlotMask lower_half;
  for (unsigned s = 0; s < 4; ++s) {
    lower_half.set(s);
  }
  const unsigned evicted = loader.set_quota(lower_half);
  EXPECT_EQ(evicted, 1u) << "the FpAlu region overlaps barred slot 4";
  EXPECT_EQ(loader.allocation().counts()[fu_index(FuType::kFpAlu)], 0);
  EXPECT_EQ(loader.allocation().counts()[0], 2) << "in-quota units survive";
  EXPECT_EQ(loader.stats().quota_evictions, 1u);
  EXPECT_EQ(loader.quota(), lower_half);
  EXPECT_TRUE(loader.unplaceable().test(4));
  EXPECT_FALSE(loader.unplaceable().test(3));
}

TEST(LoaderQuota, FullQuotaIsIdentity) {
  ConfigurationLoader loader(loader_params(),
                             AllocationVector::place({2, 0, 0, 1, 0}, 8));
  SlotMask full;
  for (unsigned s = 0; s < 8; ++s) {
    full.set(s);
  }
  EXPECT_EQ(loader.set_quota(full), 0u) << "quota starts at the whole pool";
  EXPECT_TRUE(loader.unplaceable().none());
  EXPECT_EQ(loader.stats().quota_evictions, 0u);
}

TEST(LoaderQuota, PlacementNeverUsesBarredSlots) {
  ConfigurationLoader loader(loader_params(1), AllocationVector(8));
  SlotMask lower_half;
  for (unsigned s = 0; s < 4; ++s) {
    lower_half.set(s);
  }
  loader.set_quota(lower_half);
  // Four 1-slot IntAlu units fit the quota exactly.
  loader.request(AllocationVector::place({4, 0, 0, 0, 0}, 8));
  for (int c = 0; c < 64; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_TRUE(loader.idle());
  EXPECT_EQ(loader.allocation().counts()[0], 4);
  for (const auto& region : loader.allocation().regions()) {
    for (unsigned s = region.base; s < region.base + region.len; ++s) {
      EXPECT_LT(s, 4u) << "unit placed outside the quota";
    }
  }
}

struct DenyingArbiter final : ConfigPortArbiter {
  bool acquire(unsigned) override { return false; }
};

TEST(LoaderQuota, DeniedPortBlocksRewritesAndCounts) {
  ConfigurationLoader loader(loader_params(1), AllocationVector(8));
  DenyingArbiter deny;
  loader.set_port_arbiter(&deny, 0);
  loader.request(AllocationVector::place({2, 0, 0, 0, 0}, 8));
  for (int c = 0; c < 10; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.allocation().counts()[0], 0) << "no port, no rewrite";
  EXPECT_GE(loader.stats().port_denied_cycles, 10u);
  // Port restored: the pending target completes normally.
  loader.set_port_arbiter(nullptr, 0);
  for (int c = 0; c < 64; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.allocation().counts()[0], 2);
}

// ---------------------------------------------------------------------------
// MultiCoreSim: N=1 bit-identity, determinism, conservation.

CoreSpec core_spec(const std::string& kernel,
                   PolicySpec policy = PolicySpec{}) {
  return CoreSpec{kernel_by_name(kernel).assemble_program(), policy};
}

TEST(MultiCore, SingleCoreIsBitIdenticalToSimulate) {
  const MachineConfig cfg;
  for (const ArbiterKind arbiter : all_arbiters()) {
    MultiCoreParams params;
    params.arbiter = arbiter;
    params.machine = cfg;
    MultiCoreSim sim({core_spec("dot_int")}, params);
    const RunOutcome outcome = sim.run(50'000'000);
    const MultiCoreResult result = sim.collect();

    const SimResult reference =
        simulate(kernel_by_name("dot_int").assemble_program(), cfg,
                 PolicySpec{});
    EXPECT_EQ(outcome, reference.outcome);
    ASSERT_EQ(result.cores.size(), 1u);
    EXPECT_EQ(result.cores[0].policy, reference.policy);
    // Every subsystem counter, byte for byte: the lockstep driver must
    // not perturb single-core semantics in any way.
    EXPECT_EQ(metrics_json(result.cores[0]), metrics_json(reference))
        << "arbiter " << arbiter_name(arbiter);
    EXPECT_EQ(result.fabric.total_retired, reference.stats.retired);
  }
}

TEST(MultiCore, ContendedRunIsDeterministic) {
  const auto run_once = [] {
    MultiCoreParams params;
    params.arbiter = ArbiterKind::kPropShare;
    MultiCoreSim sim({core_spec("dot_int"), core_spec("saxpy"),
                      core_spec("crc_mix")},
                     params);
    sim.run(50'000'000);
    return collect_multicore_metrics(sim.collect()).to_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MultiCore, RetirementIsConserved) {
  MultiCoreParams params;
  MultiCoreSim sim({core_spec("dot_int"), core_spec("saxpy")}, params);
  const RunOutcome outcome = sim.run(50'000'000);
  EXPECT_EQ(outcome, RunOutcome::kHalted);
  const MultiCoreResult result = sim.collect();
  std::uint64_t sum = 0;
  for (const SimResult& core : result.cores) {
    EXPECT_EQ(core.outcome, RunOutcome::kHalted);
    EXPECT_GT(core.stats.retired, 0u);
    sum += core.stats.retired;
  }
  EXPECT_EQ(sum, result.fabric.total_retired);
  EXPECT_LE(result.fabric.slot_cycles_used, result.fabric.slot_cycles_total);
  EXPECT_EQ(result.fabric.cycles, result.cycles);
}

TEST(MultiCore, StalledCoreNamesItselfWithItsDigest) {
  // Core 1 has no HALT: it stops retiring after two instructions while
  // core 0 halts. The run's outcome is the worse one, and the message
  // names the stalled core and carries its machine-state digest.
  MultiCoreSim sim({core_spec("dot_int"),
                    CoreSpec{assemble("  addi r1, r0, 1\n  addi r2, r1, 2\n"),
                             PolicySpec{}}},
                   MultiCoreParams{});
  EXPECT_EQ(sim.run(300'000), RunOutcome::kStalled);
  EXPECT_EQ(sim.core_outcome(0), RunOutcome::kHalted);
  EXPECT_EQ(sim.core_outcome(1), RunOutcome::kStalled);
  EXPECT_EQ(sim.fault_message(), "core1: " + sim.core(1).fault_message());
  EXPECT_EQ(sim.fault_message().rfind("core1: stalled: no retirement for "
                                      "100000 cycles",
                                      0),
            0u)
      << sim.fault_message();
}

TEST(MultiCore, QuotasPartitionThePoolDisjointly) {
  MultiCoreParams params;
  params.arbiter = ArbiterKind::kPropShare;
  MultiCoreSim sim({core_spec("dot_int"), core_spec("saxpy"),
                    core_spec("fib")},
                   params);
  sim.run(50'000'000);
  const unsigned n = sim.num_cores();
  SlotMask seen;
  for (unsigned k = 0; k < n; ++k) {
    const SlotMask quota = sim.fabric().quota_of(k);
    EXPECT_TRUE(quota.any()) << "every core keeps at least one slot";
    EXPECT_TRUE((quota & seen).none()) << "quotas overlap at core " << k;
    seen = seen | quota;
  }
  EXPECT_EQ(seen.count(), MachineConfig{}.loader.num_slots);
  const MultiCoreResult result = sim.collect();
  EXPECT_GT(result.fabric.repartitions, 0u)
      << "prop-share repartitions on its cadence";
}

TEST(MultiCore, ContendingCoresSerializeOnTheOnePort) {
  MultiCoreParams params;
  MultiCoreSim sim({core_spec("dot_int"), core_spec("saxpy")}, params);
  sim.run(50'000'000);
  const MultiCoreResult result = sim.collect();
  EXPECT_GT(result.fabric.port_grants, 0u);
  EXPECT_GT(result.fabric.port_busy_cycles, 0u);
  std::uint64_t denied = 0;
  for (const SimResult& core : result.cores) {
    denied += core.loader.port_denied_cycles;
  }
  EXPECT_EQ(result.fabric.port_denials, denied)
      << "fabric and per-core denial counters agree";
}

TEST(MultiCore, MergedTraceIsDeterministicAndCoversEveryPid) {
  const auto trace_once = [](const std::string& path) {
    MachineConfig cfg;
    cfg.trace.enabled = true;
    cfg.trace.path = path;
    MultiCoreParams params;
    params.machine = cfg;
    MultiCoreSim sim({core_spec("fib"), core_spec("dot_int")}, params);
    sim.run(50'000'000);
    sim.collect();
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
  };
  // Per-process name: concurrent test runs share TempDir().
  const std::string base = testing::TempDir() + "steersim_mc_trace_" +
                           std::to_string(static_cast<long>(::getpid()));
  const std::string a = trace_once(base + "_a.json");
  const std::string b = trace_once(base + "_b.json");
  EXPECT_EQ(a, b) << "same workloads, same bytes";
  // One merged Chrome document: every core's pid plus the fabric's.
  EXPECT_NE(a.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(a.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(a.find("\"pid\":2"), std::string::npos) << "fabric lane pid";
  EXPECT_EQ(a.rfind("{\"traceEvents\":["), 0u) << "single document";
  // The per-core part files were merged and removed.
  EXPECT_FALSE(std::ifstream(base + "_a.json.core0").good());
  EXPECT_FALSE(std::ifstream(base + "_a.json.fabric").good());
  std::remove((base + "_a.json").c_str());
  std::remove((base + "_b.json").c_str());
}

}  // namespace
}  // namespace steersim
