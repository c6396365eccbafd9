// Unit tests for the configuration loader (Sec. 3.2): partial
// reconfiguration timing, busy-slot skipping (the steering behaviour),
// eviction of overlapping idle units, reconfiguration-cost computation,
// target changes mid-flight, full-fabric mode, the instant oracle mode, and
// the loader's memos against recomputations from scratch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "config/loader.hpp"
#include "config/steering_set.hpp"

namespace steersim {
namespace {

LoaderParams params(unsigned cycles_per_slot = 4, bool partial = true,
                    unsigned concurrent = 1) {
  LoaderParams p;
  p.num_slots = 8;
  p.cycles_per_slot = cycles_per_slot;
  p.max_concurrent_regions = concurrent;
  p.partial = partial;
  return p;
}

TEST(Loader, IdleWithoutTarget) {
  ConfigurationLoader loader(params(), AllocationVector(8));
  loader.step(SlotMask{});
  EXPECT_TRUE(loader.idle());
  EXPECT_EQ(loader.stats().regions_started, 0u);
}

TEST(Loader, LoadsOneRegionAtATimeWithLatency) {
  ConfigurationLoader loader(params(4), AllocationVector(8));
  // Target: 2 IntAlu (two 1-slot regions).
  loader.request(AllocationVector::place({2, 0, 0, 0, 0}, 8));
  // Region 1 takes 4 cycles.
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(loader.allocation().counts()[0], 0) << c;
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.allocation().counts()[0], 1);
  for (int c = 0; c < 4; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.allocation().counts()[0], 2);
  EXPECT_TRUE(loader.idle());
  EXPECT_EQ(loader.stats().regions_started, 2u);
  EXPECT_EQ(loader.stats().slots_rewritten, 2u);
}

TEST(Loader, MultiSlotRegionLatencyScalesWithSize) {
  ConfigurationLoader loader(params(4), AllocationVector(8));
  loader.request(AllocationVector::place({0, 0, 0, 1, 0}, 8));  // FpAlu: 3
  for (int c = 0; c < 12; ++c) {
    EXPECT_EQ(loader.allocation().counts()[fu_index(FuType::kFpAlu)], 0);
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.allocation().counts()[fu_index(FuType::kFpAlu)], 1);
}

TEST(Loader, BusySlotsAreSkippedAndRetriedLater) {
  // Fabric already holds an IntAlu at slot 0; target wants an IntMdu at
  // slots 0-1 but slot 0 is busy executing.
  ConfigurationLoader loader(params(2),
                             AllocationVector::place({1, 0, 0, 0, 0}, 8));
  loader.request(AllocationVector::place({0, 1, 0, 0, 0}, 8));
  SlotMask busy;
  busy.set(0);
  for (int c = 0; c < 5; ++c) {
    loader.step(busy);
    EXPECT_EQ(loader.allocation().counts()[0], 1) << "unit must survive";
    EXPECT_TRUE(loader.reconfiguring().none());
  }
  EXPECT_GE(loader.stats().blocked_cycles, 5u);
  // Unit finishes: rewrite begins next step and evicts it.
  loader.step(SlotMask{});
  EXPECT_TRUE(loader.reconfiguring().test(0));
  EXPECT_TRUE(loader.reconfiguring().test(1));
  EXPECT_EQ(loader.allocation().counts()[0], 0);  // evicted at start
  loader.step(SlotMask{});
  loader.step(SlotMask{});
  loader.step(SlotMask{});
  EXPECT_EQ(loader.allocation().counts()[fu_index(FuType::kIntMdu)], 1);
}

TEST(Loader, HybridOverlapEmergesWhenPartOfFabricIsBusy) {
  // Current = integer preset. Target = float preset. The two LSU slots
  // (6,7) stay busy forever: steering converts everything else but keeps
  // those LSUs -> a hybrid of both configurations.
  const SteeringSet set = default_steering_set();
  ConfigurationLoader loader(params(1), set.preset_allocation(0));
  loader.request(set.preset_allocation(2));
  SlotMask busy;
  busy.set(6);
  busy.set(7);
  for (int c = 0; c < 100; ++c) {
    loader.step(busy);
  }
  const FuCounts counts = loader.allocation().counts();
  // Float preset wants Lsu@1... slots differ; with slots 6-7 pinned as the
  // old LSUs, the fabric holds the float preset's units that fit in slots
  // 0-5 plus the surviving LSUs.
  EXPECT_GE(counts[fu_index(FuType::kLsu)], 1u);
  EXPECT_GE(counts[fu_index(FuType::kFpAlu)] +
                counts[fu_index(FuType::kFpMdu)],
            1u);
}

TEST(Loader, ReconfigCostCountsUnsatisfiedRegionSlots) {
  const SteeringSet set = default_steering_set();
  ConfigurationLoader loader(params(), set.preset_allocation(0));
  EXPECT_EQ(loader.reconfig_cost(set.preset_allocation(0)), 0u);
  // Integer preset: ALU ALU ALU ALU MDU > LSU LSU
  // Memory  preset: ALU ALU LSU LSU LSU FPA > >
  // Shared prefix: slots 0-1 (two IntAlus) -> cost is the other 6 slots.
  EXPECT_EQ(loader.reconfig_cost(set.preset_allocation(1)), 6u);
  EXPECT_EQ(loader.reconfig_cost(AllocationVector(8)), 0u)
      << "empty target needs nothing";
}

TEST(Loader, RetargetMidFlightFinishesInFlightRegion) {
  ConfigurationLoader loader(params(4), AllocationVector(8));
  loader.request(AllocationVector::place({1, 0, 0, 0, 0}, 8));
  loader.step(SlotMask{});  // starts ALU rewrite at slot 0
  EXPECT_TRUE(loader.reconfiguring().test(0));
  // Retarget to an Lsu-only configuration: in-flight write completes
  // anyway ("by the time it is available, a different configuration may
  // have been selected").
  loader.request(AllocationVector::place({0, 0, 1, 0, 0}, 8));
  for (int c = 0; c < 3; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.allocation().counts()[0], 1);  // the ALU landed
  // Now the loader converts slot 0 to the LSU the new target wants.
  for (int c = 0; c < 8; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.allocation().counts()[fu_index(FuType::kLsu)], 1);
}

TEST(Loader, ConcurrencyCapHonoured) {
  ConfigurationLoader loader(params(8, true, 2), AllocationVector(8));
  loader.request(AllocationVector::place({4, 0, 0, 0, 0}, 8));
  loader.step(SlotMask{});
  EXPECT_EQ(loader.reconfiguring().count(), 2u);  // exactly two regions
}

TEST(Loader, FullReconfigWaitsForWholeFabricIdle) {
  ConfigurationLoader loader(params(2, /*partial=*/false),
                             AllocationVector::place({4, 1, 2, 0, 0}, 8));
  loader.request(AllocationVector::place({1, 0, 1, 1, 1}, 8));
  SlotMask busy;
  busy.set(3);  // one busy ALU blocks everything in full mode
  for (int c = 0; c < 10; ++c) {
    loader.step(busy);
    EXPECT_EQ(loader.allocation().counts()[0], 4u) << "nothing rewritten";
  }
  EXPECT_GE(loader.stats().blocked_cycles, 10u);
  // Fabric drains: the whole rewrite takes slots*cycles = 16 cycles and
  // during it no units exist at all.
  loader.step(SlotMask{});  // cycle 1 of 16
  const FuCounts empty{};
  EXPECT_EQ(loader.allocation().counts(), empty);
  for (int c = 0; c < 15; ++c) {
    EXPECT_FALSE(loader.idle());
    loader.step(SlotMask{});
  }
  EXPECT_TRUE(loader.idle());
  EXPECT_EQ(loader.allocation().counts(),
            (FuCounts{1, 0, 1, 1, 1}));
}

TEST(Loader, InstantModeAppliesSameCycle) {
  LoaderParams p = params(100);
  p.instant = true;
  p.max_concurrent_regions = 8;
  ConfigurationLoader loader(p, AllocationVector(8));
  loader.request(AllocationVector::place({2, 1, 1, 0, 0}, 8));
  loader.step(SlotMask{});
  EXPECT_EQ(loader.allocation().counts(), (FuCounts{2, 1, 1, 0, 0}));
  EXPECT_TRUE(loader.idle());
}

TEST(Loader, InstantModeStillRespectsBusySlots) {
  LoaderParams p = params(1);
  p.instant = true;
  p.max_concurrent_regions = 8;
  ConfigurationLoader loader(p, AllocationVector::place({1, 0, 0, 0, 0}, 8));
  loader.request(AllocationVector::place({0, 0, 1, 0, 0}, 8));
  SlotMask busy;
  busy.set(0);
  loader.step(busy);
  EXPECT_EQ(loader.allocation().counts()[0], 1) << "busy unit survives";
  EXPECT_EQ(loader.allocation().counts()[fu_index(FuType::kLsu)], 0);
}

TEST(Loader, FuzzInvariants) {
  // Random request/busy sequences; after every step:
  //   1. the allocation holds only complete unit regions (no truncated
  //      multi-slot unit is ever reported as a unit);
  //   2. slots being rewritten are never slots that were busy when the
  //      rewrite started (we approximate: reconfiguring & busy-this-step
  //      may overlap only if busy arrived after the start — so we instead
  //      check rewrites never start on busy slots by keeping busy stable
  //      between target changes);
  //   3. the allocation never exceeds the slot budget.
  Xoshiro256 rng(909);
  const SteeringSet set = default_steering_set();
  for (int trial = 0; trial < 50; ++trial) {
    ConfigurationLoader loader(params(1 + static_cast<unsigned>(
                                          rng.next_below(4))),
                               AllocationVector(8));
    SlotMask busy;
    for (int step = 0; step < 200; ++step) {
      if (rng.next_bool(0.1)) {
        loader.request(set.preset_allocation(
            static_cast<unsigned>(rng.next_below(kNumPresetConfigs))));
      }
      if (rng.next_bool(0.2)) {
        busy = SlotMask{};
        for (unsigned s = 0; s < 8; ++s) {
          // Busy whole units only (hardware: a unit drives all its slots).
          busy.set(s, false);
        }
        for (const auto& region : loader.allocation().regions()) {
          if (rng.next_bool(0.3)) {
            for (unsigned i = 0; i < region.len; ++i) {
              busy.set(region.base + i);
            }
          }
        }
      }
      // Clear busy bits for units that no longer exist.
      SlotMask unit_slots;
      for (const auto& region : loader.allocation().regions()) {
        for (unsigned i = 0; i < region.len; ++i) {
          unit_slots.set(region.base + i);
        }
      }
      busy &= unit_slots;
      loader.step(busy);

      // Invariant 1+3: every region is complete; total slots <= 8.
      unsigned used = 0;
      for (const auto& region : loader.allocation().regions()) {
        EXPECT_EQ(region.len, slot_cost(region.type))
            << trial << "/" << step;
        used += region.len;
      }
      EXPECT_LE(used, 8u);
      // Invariant 2: a rewrite never overlaps a unit (rewrite slots were
      // cleared when the rewrite started).
      const SlotMask rw = loader.reconfiguring();
      SlotMask occupied;
      for (const auto& region : loader.allocation().regions()) {
        for (unsigned i = 0; i < region.len; ++i) {
          occupied.set(region.base + i);
        }
      }
      EXPECT_TRUE((rw & occupied).none()) << trial << "/" << step;
    }
  }
}

TEST(Loader, ConvergesToAnyTargetOnceIdle) {
  // Property: with no busy slots, any requested preset is fully realized
  // within slots*cycles_per_slot steps (upper bound, single config port).
  Xoshiro256 rng(31337);
  const SteeringSet set = default_steering_set();
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned cps = 1 + static_cast<unsigned>(rng.next_below(8));
    ConfigurationLoader loader(
        params(cps),
        set.preset_allocation(
            static_cast<unsigned>(rng.next_below(kNumPresetConfigs))));
    const auto target = set.preset_allocation(
        static_cast<unsigned>(rng.next_below(kNumPresetConfigs)));
    loader.request(target);
    const unsigned budget = 8 * cps + 8;
    for (unsigned c = 0; c < budget; ++c) {
      loader.step(SlotMask{});
    }
    EXPECT_EQ(loader.reconfig_cost(target), 0u) << trial;
    EXPECT_TRUE(loader.idle()) << trial;
  }
}

TEST(Loader, RetargetWhileRewriteInFlightConvergesToNewTarget) {
  // Retarget twice while a write is in the air: the in-flight region still
  // completes (it is never aborted by a target change), and the loader
  // then converts the fabric to the *latest* target, not an earlier one.
  ConfigurationLoader loader(params(4), AllocationVector(8));
  loader.request(AllocationVector::place({0, 1, 0, 0, 0}, 8));  // MDU @ 0-1
  loader.step(SlotMask{});
  ASSERT_TRUE(loader.reconfiguring().test(0));
  loader.request(AllocationVector::place({0, 0, 0, 1, 0}, 8));  // FpAlu
  loader.request(AllocationVector::place({1, 0, 1, 0, 0}, 8));  // ALU+LSU
  EXPECT_EQ(loader.stats().targets_requested, 3u);
  EXPECT_TRUE(loader.reconfiguring().test(0)) << "in-flight write survives";
  for (int c = 0; c < 40; ++c) {
    loader.step(SlotMask{});
  }
  const FuCounts final_counts = loader.allocation().counts();
  EXPECT_EQ(final_counts[fu_index(FuType::kIntAlu)], 1u);
  EXPECT_EQ(final_counts[fu_index(FuType::kLsu)], 1u);
  EXPECT_EQ(final_counts[fu_index(FuType::kIntMdu)], 0u)
      << "first target's unit must be evicted again";
  EXPECT_EQ(final_counts[fu_index(FuType::kFpAlu)], 0u)
      << "the intermediate target must leave no trace";
  EXPECT_TRUE(loader.idle());
}

TEST(Loader, ReconfigCostTracksPartiallyRewrittenFabric) {
  // Cost must reflect exactly the still-unsatisfied region slots while a
  // multi-region target is being realized piecewise.
  ConfigurationLoader loader(params(4), AllocationVector(8));
  const auto target = AllocationVector::place({2, 1, 0, 0, 0}, 8);
  EXPECT_EQ(loader.reconfig_cost(target), 4u);  // 2x ALU + 2-slot MDU
  loader.request(target);
  loader.step(SlotMask{});  // first ALU rewrite begins (not finished)
  EXPECT_EQ(loader.reconfig_cost(target), 4u)
      << "an in-flight rewrite has not satisfied anything yet";
  for (int c = 0; c < 3; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.reconfig_cost(target), 3u) << "first ALU landed";
  for (int c = 0; c < 4; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.reconfig_cost(target), 2u) << "second ALU landed";
  for (int c = 0; c < 8; ++c) {
    loader.step(SlotMask{});
  }
  EXPECT_EQ(loader.reconfig_cost(target), 0u);
  // A different candidate sharing the satisfied prefix prices only its
  // own unsatisfied remainder against this hybrid fabric.
  const auto other = AllocationVector::place({2, 0, 1, 0, 0}, 8);
  EXPECT_EQ(loader.reconfig_cost(other), 1u);  // LSU @ slot 2 missing
}

TEST(Loader, StatsTrackTargetChanges) {
  ConfigurationLoader loader(params(), AllocationVector(8));
  const auto target = AllocationVector::place({1, 0, 0, 0, 0}, 8);
  loader.request(target);
  loader.request(target);  // identical: not a change
  EXPECT_EQ(loader.stats().targets_requested, 1u);
  loader.request(AllocationVector::place({0, 0, 1, 0, 0}, 8));
  EXPECT_EQ(loader.stats().targets_requested, 2u);
}

// --- Memo oracle -------------------------------------------------------
// The loader answers quiescent(), used_slots(), target() and
// reconfig_cost() from memos (a version number bumped on every allocation
// write and target assignment, and a placement table). These reference
// functions recompute each answer from the loader's public state alone.

/// First-fit re-placement of `wanted`'s regions around `avoid`, in the
/// candidate's own region order; identity when nothing is avoided.
AllocationVector reference_place(const AllocationVector& wanted,
                                 SlotMask avoid) {
  if (avoid.none()) {
    return wanted;
  }
  const unsigned n = wanted.num_slots();
  AllocationVector placed(n);
  SlotMask used = avoid;
  for (const SlotRegion& region : wanted.regions()) {
    for (unsigned base = 0; base + region.len <= n; ++base) {
      bool free = true;
      for (unsigned i = 0; i < region.len; ++i) {
        free = free && !used.test(base + i);
      }
      if (free) {
        placed.write_region(SlotRegion{region.type, base, region.len});
        for (unsigned i = 0; i < region.len; ++i) {
          used.set(base + i);
        }
        break;
      }
    }
  }
  return placed;
}

bool reference_satisfied(const AllocationVector& alloc,
                         const SlotRegion& region) {
  if (alloc.code(region.base) != encoding_of(region.type)) {
    return false;
  }
  for (unsigned i = 1; i < region.len; ++i) {
    if (alloc.code(region.base + i) != kEncContinuation) {
      return false;
    }
  }
  return true;
}

unsigned reference_cost(const ConfigurationLoader& loader,
                        const AllocationVector& candidate) {
  unsigned cost = 0;
  for (const SlotRegion& region :
       reference_place(candidate, loader.unplaceable()).regions()) {
    if (!reference_satisfied(loader.allocation(), region)) {
      cost += region.len;
    }
  }
  return cost;
}

bool reference_quiescent(const ConfigurationLoader& loader) {
  if (!loader.idle() ||
      (loader.corrupted() | loader.fenced() | loader.repairing()).any() ||
      loader.params().scrub_interval > 0 || loader.params().ecc) {
    return false;
  }
  for (const SlotRegion& region : loader.target().regions()) {
    if (!reference_satisfied(loader.allocation(), region)) {
      return false;
    }
  }
  return true;
}

/// The allocation with every region touching a broken slot, and every
/// broken slot, cleared.
AllocationVector reference_effective(const ConfigurationLoader& loader) {
  const SlotMask broken = loader.corrupted() | loader.fenced();
  AllocationVector effective = loader.allocation();
  for (const SlotRegion& region : loader.allocation().regions()) {
    for (unsigned i = 0; i < region.len; ++i) {
      if (broken.test(region.base + i)) {
        effective.clear_span(region.base, region.len);
        break;
      }
    }
  }
  for (unsigned slot = 0; slot < effective.num_slots(); ++slot) {
    if (broken.test(slot)) {
      effective.clear_span(slot, 1);
    }
  }
  return effective;
}

/// A valid allocation with units of random types at random free bases
/// (gaps included), so requests are not only the canonical presets.
AllocationVector random_allocation(unsigned num_slots, Xoshiro256& rng) {
  AllocationVector alloc(num_slots);
  SlotMask used;
  const std::uint64_t tries = rng.next_below(8);
  for (std::uint64_t t = 0; t < tries; ++t) {
    const auto type =
        static_cast<FuType>(rng.next_below(kNumFuTypes));
    const unsigned len = slot_cost(type);
    const auto base = static_cast<unsigned>(rng.next_below(num_slots));
    if (base + len > num_slots) {
      continue;
    }
    bool free = true;
    for (unsigned i = 0; i < len; ++i) {
      free = free && !used.test(base + i);
    }
    if (!free) {
      continue;
    }
    alloc.write_region(SlotRegion{type, base, len});
    for (unsigned i = 0; i < len; ++i) {
      used.set(base + i);
    }
  }
  return alloc;
}

SlotMask random_mask(unsigned num_slots, Xoshiro256& rng, double p) {
  SlotMask mask;
  for (unsigned slot = 0; slot < num_slots; ++slot) {
    mask.set(slot, rng.next_bool(p));
  }
  return mask;
}

TEST(LoaderMemo, EveryAnswerEqualsARecomputationFromScratch) {
  struct Mode {
    const char* name;
    bool partial;
    bool instant;
  };
  const Mode modes[] = {{"partial", true, false},
                        {"full", false, false},
                        {"instant", true, true}};
  const SteeringSet set = default_steering_set();
  constexpr unsigned kSlots = 8;
  for (const Mode& mode : modes) {
    for (const unsigned scrub : {0u, 5u}) {
      for (const bool ecc : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
          SCOPED_TRACE(std::string(mode.name) + " scrub=" +
                       std::to_string(scrub) + " ecc=" +
                       std::to_string(ecc) + " seed=" +
                       std::to_string(seed));
          Xoshiro256 rng(seed * 7919 + scrub + (ecc ? 1 : 0));
          LoaderParams p = params(1 + static_cast<unsigned>(rng.next_below(3)),
                                  mode.partial,
                                  1 + static_cast<unsigned>(rng.next_below(2)));
          p.instant = mode.instant;
          p.scrub_interval = scrub;
          p.ecc = ecc;
          ConfigurationLoader loader(p, random_allocation(kSlots, rng));
          // More distinct requests than the placement memo holds.
          std::vector<AllocationVector> pool;
          for (unsigned i = 0; i < kNumPresetConfigs; ++i) {
            pool.push_back(set.preset_allocation(i));
          }
          for (unsigned i = 0; i < 9; ++i) {
            pool.push_back(random_allocation(kSlots, rng));
          }
          unsigned fences = 0;
          for (int op = 0; op < 300; ++op) {
            const std::uint64_t kind = rng.next_below(100);
            std::string what;
            if (kind < 20) {
              what = "request";
              loader.request(rng.next_bool(0.2)
                                 ? loader.allocation()
                                 : pool[rng.next_below(pool.size())]);
            } else if (kind < 80) {
              what = "step";
              loader.step(rng.next_bool(0.4) ? SlotMask{}
                                             : random_mask(kSlots, rng, 0.3));
            } else if (kind < 88) {
              what = "set_quota";
              loader.set_quota(rng.next_bool(0.3)
                                   ? random_mask(kSlots, rng, 1.0)
                                   : random_mask(kSlots, rng, 0.6));
            } else if (kind < 92) {
              what = "fence_slot";
              if (fences < 3 && loader.fence_slot(static_cast<unsigned>(
                                    rng.next_below(kSlots)))) {
                ++fences;
              }
            } else {
              what = "corrupt_slot";
              loader.corrupt_slot(
                  static_cast<unsigned>(rng.next_below(kSlots)));
            }
            SCOPED_TRACE("op " + std::to_string(op) + " " + what);
            ASSERT_EQ(loader.quiescent(), reference_quiescent(loader));
            ASSERT_EQ(loader.used_slots(),
                      loader.allocation().region_slots());
            unsigned used = 0;
            for (const SlotRegion& region : loader.allocation().regions()) {
              used += region.len;
            }
            ASSERT_EQ(loader.used_slots(), used);
            ASSERT_EQ(loader.target(),
                      reference_place(loader.requested(),
                                      loader.unplaceable()))
                << loader.target().to_string();
            for (unsigned i = 0; i < kNumPresetConfigs; ++i) {
              ASSERT_EQ(loader.reconfig_cost(set.preset_allocation(i)),
                        reference_cost(loader, set.preset_allocation(i)))
                  << "preset " << i;
            }
            ASSERT_EQ(loader.effective_allocation(),
                      reference_effective(loader));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace steersim
