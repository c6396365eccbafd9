// Randomized co-simulation of the columnar wake-up kernel against the
// preserved row-major scalar implementation (tests/wakeup_scalar_ref.hpp).
// Seeded operation sequences — insert, select+grant, reschedule, retire,
// squash, tick — drive both arrays in lockstep; after every operation the
// observable state must match bit for bit: request/unscheduled masks under
// random availability, free-entry counts, age order, per-entry fields, and
// statistics. This is the safety net the ISSUE's "bit-identical" claim
// rests on beyond the end-to-end bench digests.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "sched/select_logic.hpp"
#include "wakeup_scalar_ref.hpp"

namespace steersim {
namespace {

ResourceAvail random_avail(Xoshiro256& rng) {
  ResourceAvail avail;
  for (auto& line : avail) {
    line = rng.next_below(2) == 1;
  }
  return avail;
}

FuType random_fu(Xoshiro256& rng) {
  return static_cast<FuType>(rng.next_below(kNumFuTypes));
}

/// A dependence mask drawn from the currently valid rows (the insert
/// contract both implementations share).
EntryMask random_deps(Xoshiro256& rng, const ScalarWakeupArray& ref) {
  EntryMask deps;
  for (unsigned i = 0; i < ref.num_entries(); ++i) {
    if (ref.entry(i).valid && rng.next_below(4) == 0) {
      deps.set(i);
    }
  }
  return deps;
}

::testing::AssertionResult same_state(const WakeupArray& dut,
                                      const ScalarWakeupArray& ref,
                                      const ResourceAvail& avail) {
  if (dut.free_entries() != ref.free_entries()) {
    return ::testing::AssertionFailure()
           << "free_entries " << dut.free_entries() << " vs "
           << ref.free_entries();
  }
  if (dut.full() != ref.full()) {
    return ::testing::AssertionFailure() << "full() differs";
  }
  if (dut.unscheduled() != ref.unscheduled()) {
    return ::testing::AssertionFailure()
           << "unscheduled " << dut.unscheduled().raw() << " vs "
           << ref.unscheduled().raw();
  }
  // Selection stages 1-2 from the reference's rows: the type of every
  // valid, unscheduled row, counted per type and saturating at 7.
  FuCounts ref_required{};
  for (unsigned i = 0; i < ref.num_entries(); ++i) {
    const WakeupEntry& e = ref.entry(i);
    if (!e.valid || e.scheduled) {
      continue;
    }
    std::uint8_t& count = ref_required[fu_index(e.fu)];
    if (count < 7) {
      ++count;
    }
  }
  if (dut.ready_requirements() != ref_required) {
    return ::testing::AssertionFailure() << "ready_requirements differ";
  }
  if (dut.request_execution(avail) != ref.request_execution(avail)) {
    return ::testing::AssertionFailure()
           << "request_execution " << dut.request_execution(avail).raw()
           << " vs " << ref.request_execution(avail).raw();
  }
  const auto dut_order = dut.age_order();
  const auto ref_order = ref.age_order();
  if (!std::equal(dut_order.begin(), dut_order.end(), ref_order.begin(),
                  ref_order.end())) {
    return ::testing::AssertionFailure() << "age_order differs";
  }
  for (unsigned i = 0; i < dut.num_entries(); ++i) {
    const WakeupEntry& a = dut.entry(i);
    const WakeupEntry& b = ref.entry(i);
    if (a.valid != b.valid || a.scheduled != b.scheduled ||
        a.result_available != b.result_available || a.deps != b.deps ||
        a.timer != b.timer || a.tag != b.tag ||
        (a.valid && (a.fu != b.fu || a.age != b.age))) {
      return ::testing::AssertionFailure() << "entry " << i << " differs";
    }
  }
  const WakeupStats& s = dut.stats();
  const WakeupStats& t = ref.stats();
  if (s.inserts != t.inserts || s.grants != t.grants ||
      s.reschedules != t.reschedules || s.retires != t.retires ||
      s.squashes != t.squashes) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  return ::testing::AssertionSuccess();
}

/// One randomized episode: `steps` operations against both arrays.
void run_episode(std::uint64_t seed, unsigned num_entries, unsigned steps) {
  Xoshiro256 rng(seed);
  WakeupArray dut(num_entries);
  ScalarWakeupArray ref(num_entries);
  std::uint64_t next_tag = 1;
  for (unsigned step = 0; step < steps; ++step) {
    const auto op = rng.next_below(6);
    switch (op) {
      case 0:
      case 1: {  // insert (weighted: keeps the arrays populated)
        const FuType fu = random_fu(rng);
        const EntryMask deps = random_deps(rng, ref);
        const auto a = dut.insert(fu, deps, next_tag);
        const auto b = ref.insert(fu, deps, next_tag);
        ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
        if (a.has_value()) {
          ASSERT_EQ(*a, *b) << "step " << step;
          ++next_tag;
        }
        break;
      }
      case 2: {  // oldest-first select + grant with random resources
        const ResourceAvail avail = random_avail(rng);
        std::array<unsigned, kNumFuTypes> free{};
        for (auto& f : free) {
          f = static_cast<unsigned>(rng.next_below(3));
        }
        const unsigned latency = 1 + static_cast<unsigned>(rng.next_below(6));
        const auto dut_requests = dut.request_execution(avail);
        const auto ref_requests = ref.request_execution(avail);
        ASSERT_EQ(dut_requests, ref_requests) << "step " << step;
        const auto ref_order = ref.age_order();
        const GrantList a = select_oldest_first(dut, dut_requests,
                                                dut.age_order(), free);
        const GrantList b = select_oldest_first(
            dut, ref_requests, {ref_order.begin(), ref_order.size()}, free);
        ASSERT_EQ(a.size(), b.size()) << "step " << step;
        for (unsigned i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "step " << step;
          dut.grant(a[i], latency);
          ref.grant(a[i], latency);
        }
        break;
      }
      case 3: {  // reschedule a random scheduled row
        for (unsigned i = 0; i < ref.num_entries(); ++i) {
          if (ref.entry(i).valid && ref.entry(i).scheduled &&
              rng.next_below(2) == 0) {
            dut.reschedule(i);
            ref.reschedule(i);
            break;
          }
        }
        break;
      }
      case 4: {  // retire or squash a random valid row
        for (unsigned i = 0; i < ref.num_entries(); ++i) {
          if (ref.entry(i).valid && rng.next_below(3) == 0) {
            if (rng.next_below(2) == 0) {
              dut.retire(i);
              ref.retire(i);
            } else {
              dut.squash(i);
              ref.squash(i);
            }
            break;
          }
        }
        break;
      }
      default:  // tick
        dut.tick();
        ref.tick();
        break;
    }
    const ResourceAvail probe = random_avail(rng);
    ASSERT_TRUE(same_state(dut, ref, probe))
        << "seed " << seed << " step " << step << " op " << op;
  }
}

TEST(WakeupCosim, RandomEpisodesMatchScalarReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_episode(seed, /*num_entries=*/7, /*steps=*/400);
  }
}

TEST(WakeupCosim, FullWidthArrayMatches) {
  for (std::uint64_t seed = 100; seed <= 108; ++seed) {
    run_episode(seed, kMaxWakeupEntries, /*steps=*/400);
  }
}

TEST(WakeupCosim, TinyArrayChurnMatches) {
  // num_entries=2 maximizes row reuse: retire/insert/retire cycling is
  // where a stale column bit or order-list bug would surface first.
  for (std::uint64_t seed = 1000; seed <= 1012; ++seed) {
    run_episode(seed, /*num_entries=*/2, /*steps=*/600);
  }
}

TEST(WakeupCosim, AdvanceMatchesScalarTickLoop) {
  // The skip-ahead entry point: advance(k) against k scalar ticks.
  Xoshiro256 rng(42);
  WakeupArray dut(8);
  ScalarWakeupArray ref(8);
  for (std::uint64_t tag = 1; tag <= 6; ++tag) {
    const FuType fu = random_fu(rng);
    dut.insert(fu, {}, tag);
    ref.insert(fu, {}, tag);
  }
  for (unsigned row = 0; row < 6; ++row) {
    const unsigned latency = 2 + static_cast<unsigned>(rng.next_below(8));
    dut.grant(row, latency);
    ref.grant(row, latency);
  }
  while (dut.min_timer() > 0) {
    const unsigned k = std::max(1u, dut.min_timer());
    dut.advance(k);
    for (unsigned t = 0; t < k; ++t) {
      ref.tick();
    }
    ResourceAvail avail;
    avail.fill(true);
    ASSERT_TRUE(same_state(dut, ref, avail));
  }
}

}  // namespace
}  // namespace steersim
