// Reference scans for the execution engine's occupancy masks: the
// list-scanning resource vector, availability lines and idle-unit counts
// the engine answered with before its masks (DESIGN.md §Execution-engine
// occupancy masks), kept as the oracle of
// Engine.OccupancyMasksMatchTheReferenceScans (test-only). They read only
// the engine's unit list and its occupying() view.
#pragma once

#include <algorithm>
#include <array>

#include "config/availability.hpp"
#include "core/execution_engine.hpp"

namespace steersim {

/// Eq. 1 resource vector for the current cycle (RFU slots + FFUs with
/// their availability signals).
inline ResourceVector reference_resource_vector(
    const ExecutionEngine& engine, const AllocationVector& rfu_allocation) {
  FuCounts ffu{};
  for (const UnitInstance& unit : engine.units()) {
    if (unit.fixed) {
      ++ffu[fu_index(unit.type)];
    }
  }
  // Per-slot availability: a busy unit drives all of its slots low.
  SlotMask rfu_avail;
  for (unsigned i = 0; i < rfu_allocation.num_slots(); ++i) {
    rfu_avail.set(i);
  }
  std::array<bool, kMaxResourceEntries> ffu_avail{};
  std::size_t ffu_total = 0;
  for (const FuType t : kAllFuTypes) {
    for (unsigned n = 0; n < ffu[fu_index(t)]; ++n) {
      ffu_avail[ffu_total++] = true;
    }
  }
  for (const auto& f : engine.occupying()) {
    if (f.fixed) {
      // Locate the fixed unit's position in FuType-major order.
      unsigned ordinal = 0;
      for (const FuType t : kAllFuTypes) {
        if (t == f.type) {
          break;
        }
        ordinal += ffu[fu_index(t)];
      }
      ffu_avail[ordinal + f.base] = false;
    } else {
      const unsigned len = slot_cost(f.type);
      for (unsigned i = 0; i < len; ++i) {
        rfu_avail.reset(f.base + i);
      }
    }
  }
  return ResourceVector::build(rfu_allocation, rfu_avail, ffu,
                               {ffu_avail.data(), ffu_total});
}

/// Per-type availability lines feeding the wake-up array.
inline ResourceAvail reference_availability(
    const ExecutionEngine& engine, const AllocationVector& rfu_allocation) {
  const ResourceVector rv = reference_resource_vector(engine, rfu_allocation);
  ResourceAvail avail{};
  for (const FuType t : kAllFuTypes) {
    avail[fu_index(t)] = rv.available(t);
  }
  return avail;
}

/// Idle unit instances per type this cycle.
inline std::array<unsigned, kNumFuTypes> reference_free_units(
    const ExecutionEngine& engine) {
  std::array<unsigned, kNumFuTypes> free{};
  for (const UnitInstance& unit : engine.units()) {
    const bool busy = std::ranges::any_of(
        engine.occupying(), [&unit](const ExecutionEngine::InFlight& f) {
          return f.fixed == unit.fixed && f.base == unit.base &&
                 f.type == unit.type;
        });
    free[fu_index(unit.type)] += busy ? 0 : 1;
  }
  return free;
}

}  // namespace steersim
