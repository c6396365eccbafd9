#include "multicore/fabric.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace steersim {

SharedFabric::SharedFabric(unsigned num_cores, unsigned num_slots,
                           ArbiterKind arbiter)
    : num_cores_(num_cores), num_slots_(num_slots),
      arbiter_(arbiter, num_cores, stats_), quota_(num_cores) {
  STEERSIM_EXPECTS(num_cores >= 1);
  STEERSIM_EXPECTS(num_slots >= num_cores);
  for (unsigned core = 0; core < num_cores_; ++core) {
    quota_[core] = equal_partition(core);
  }
}

SlotMask SharedFabric::equal_partition(unsigned core) const {
  const unsigned base_share = num_slots_ / num_cores_;
  const unsigned remainder = num_slots_ % num_cores_;
  const unsigned share = base_share + (core < remainder ? 1 : 0);
  unsigned start = core * base_share + std::min(core, remainder);
  SlotMask mask;
  for (unsigned i = 0; i < share; ++i) {
    mask.set(start + i);
  }
  return mask;
}

void SharedFabric::attach(unsigned core, Processor& cpu) {
  STEERSIM_EXPECTS(core < num_cores_);
  STEERSIM_EXPECTS(cpu.loader().params().num_slots == num_slots_);
  cpu.loader().set_port_arbiter(&arbiter_, core);
  if (num_cores_ > 1) {
    stats_.quota_evictions += cpu.loader().set_quota(quota_[core]);
  }
}

void SharedFabric::begin_cycle(std::uint64_t cycle,
                               std::span<Processor* const> cores) {
  STEERSIM_EXPECTS(cores.size() == num_cores_);
  std::uint64_t idle_mask = 0;
  for (unsigned core = 0; core < num_cores_; ++core) {
    if (cores[core]->loader().idle()) {
      idle_mask |= std::uint64_t{1} << core;
    }
  }
  arbiter_.begin_cycle(cycle, idle_mask);
  if (tracer_ != nullptr && arbiter_.holder() != traced_holder_ &&
      tracer_->wants(trace_cat::kLoader, cycle)) {
    traced_holder_ = arbiter_.holder();
    tracer_->ensure_lane(kArbiterLane, "config port arbiter");
    TraceArgs args;
    args.num("holder", std::int64_t{traced_holder_});
    tracer_->instant(traced_holder_ < 0 ? "release" : "grant",
                     trace_cat::kLoader, kArbiterLane, cycle, args);
  }
  if (arbiter_.kind() == ArbiterKind::kPropShare && num_cores_ > 1 &&
      cycle > 0 && cycle % kRepartitionInterval == 0) {
    repartition(cycle, cores);
  }
}

void SharedFabric::repartition(std::uint64_t cycle,
                               std::span<Processor* const> cores) {
  // Demand = the requirement total of each core's ready set, +1 so an
  // idle core keeps a floor share and the weights never sum to zero.
  std::vector<std::uint64_t> weight(num_cores_);
  std::uint64_t total_weight = 0;
  for (unsigned core = 0; core < num_cores_; ++core) {
    weight[core] =
        fu_counts_total(cores[core]->wakeup().ready_requirements()) + 1;
    total_weight += weight[core];
  }
  // Every core gets one slot; the rest go proportional to demand by
  // largest remainder (ties to the lower core index — deterministic).
  std::vector<unsigned> share(num_cores_, 1);
  unsigned assigned = num_cores_;
  const unsigned spare = num_slots_ - num_cores_;
  std::vector<std::uint64_t> scaled(num_cores_);
  for (unsigned core = 0; core < num_cores_; ++core) {
    scaled[core] = weight[core] * spare;
    const unsigned extra =
        static_cast<unsigned>(scaled[core] / total_weight);
    share[core] += extra;
    assigned += extra;
  }
  while (assigned < num_slots_) {
    unsigned best = 0;
    std::uint64_t best_rem = 0;
    for (unsigned core = 0; core < num_cores_; ++core) {
      const std::uint64_t rem = scaled[core] % total_weight;
      if (rem > best_rem) {
        best_rem = rem;
        best = core;
      }
    }
    scaled[best] = 0;  // consume its remainder
    ++share[best];
    ++assigned;
  }

  // Contiguous spans in core order; count slots whose owner changed.
  unsigned steals = 0;
  unsigned start = 0;
  std::vector<SlotMask> next(num_cores_);
  for (unsigned core = 0; core < num_cores_; ++core) {
    for (unsigned i = 0; i < share[core]; ++i) {
      next[core].set(start + i);
      if (!quota_[core].test(start + i)) {
        ++steals;
      }
    }
    start += share[core];
  }
  STEERSIM_ENSURES(start == num_slots_);
  bool changed = false;
  for (unsigned core = 0; core < num_cores_; ++core) {
    changed = changed || next[core] != quota_[core];
  }
  ++stats_.repartitions;
  if (!changed) {
    return;
  }
  stats_.steal_events += steals;
  for (unsigned core = 0; core < num_cores_; ++core) {
    quota_[core] = next[core];
    stats_.quota_evictions += cores[core]->loader().set_quota(next[core]);
  }
  if (tracer_ != nullptr && tracer_->wants(trace_cat::kLoader, cycle)) {
    tracer_->ensure_lane(kArbiterLane, "config port arbiter");
    TraceArgs args;
    args.num("steals", std::uint64_t{steals});
    for (unsigned core = 0; core < num_cores_; ++core) {
      args.num("core" + std::to_string(core),
               std::uint64_t{share[core]});
    }
    tracer_->instant("repartition", trace_cat::kLoader, kArbiterLane,
                     cycle, args);
  }
}

void SharedFabric::end_cycle(std::span<Processor* const> cores) {
  unsigned used = 0;
  for (const Processor* cpu : cores) {
    used += cpu->loader().used_slots();
  }
  stats_.slot_cycles_used += used;
  stats_.slot_cycles_total += num_slots_;
  ++stats_.cycles;
}

}  // namespace steersim
