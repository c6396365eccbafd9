// The shared reconfigurable fabric (docs/DESIGN.md §Multi-core shared
// fabric): one slot pool and one configuration write port, shared by N
// cores. The fabric owns the Arbiter, partitions the pool into per-core
// quotas (static equal spans; prop-share repartitions them by demand every
// 64 cycles), and accumulates fabric-level contention and utilization
// statistics. With one core attached everything degenerates to the
// single-core machine bit-for-bit: the quota is the whole pool and the
// port is always granted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/processor.hpp"
#include "multicore/arbiter.hpp"

namespace steersim {

class SharedFabric {
 public:
  /// `num_slots` is the pool size every attached core's loader was built
  /// with. Requires num_cores <= num_slots (every core gets >= 1 slot).
  SharedFabric(unsigned num_cores, unsigned num_slots, ArbiterKind arbiter);

  /// Wires core `k`'s loader to the shared port and installs its initial
  /// quota. Single-core fabrics leave the quota untouched (identity).
  void attach(unsigned core, Processor& cpu);

  /// Top of a lockstep round, before any core steps: releases/regrants
  /// the port and, under prop-share, repartitions quotas on schedule.
  void begin_cycle(std::uint64_t cycle, std::span<Processor* const> cores);

  /// Bottom of a lockstep round: accumulates slot utilization.
  void end_cycle(std::span<Processor* const> cores);

  const FabricStats& stats() const { return stats_; }
  FabricStats& stats() { return stats_; }
  const Arbiter& arbiter() const { return arbiter_; }
  SlotMask quota_of(unsigned core) const { return quota_[core]; }

  /// Optional arbitration tracer (lane kArbiterLane): grant handovers,
  /// repartitions and steal counts as instant events. Never owns.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Fabric trace lane index (the fabric's tracer is its own file/pid,
  /// so the lane namespace is private to it).
  static constexpr unsigned kArbiterLane = 0;

  /// prop-share: cycles between demand-driven quota repartitions.
  static constexpr unsigned kRepartitionInterval = 64;

 private:
  /// Contiguous equal partition: core k's span of the pool, remainder
  /// slots going to the lowest-indexed cores.
  SlotMask equal_partition(unsigned core) const;
  void repartition(std::uint64_t cycle, std::span<Processor* const> cores);

  unsigned num_cores_;
  unsigned num_slots_;
  FabricStats stats_;
  Arbiter arbiter_;
  std::vector<SlotMask> quota_;
  int traced_holder_ = -1;  ///< last holder emitted to the trace
  Tracer* tracer_ = nullptr;
};

}  // namespace steersim
