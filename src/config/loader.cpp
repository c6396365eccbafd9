#include "config/loader.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "config/ecc.hpp"

namespace steersim {

ConfigurationLoader::ConfigurationLoader(const LoaderParams& params,
                                         AllocationVector initial)
    : params_(params), allocation_(std::move(initial)),
      requested_(allocation_) {
  STEERSIM_EXPECTS(params.num_slots >= 1 &&
                   params.num_slots <= kMaxRfuSlots);
  STEERSIM_EXPECTS(params.cycles_per_slot >= 1);
  STEERSIM_EXPECTS(params.max_concurrent_regions >= 1);
  STEERSIM_EXPECTS(allocation_.num_slots() == params.num_slots);
  for (unsigned i = 0; i < params_.num_slots; ++i) {
    quota_.set(i);
  }
  refresh_target_regions(allocation_, allocation_.regions());
}

unsigned ConfigurationLoader::set_quota(SlotMask quota) {
  SlotMask allowed;
  for (unsigned i = 0; i < params_.num_slots; ++i) {
    if (quota.test(i)) {
      allowed.set(i);
    }
  }
  if (allowed == quota_) {
    return 0;
  }
  quota_ = allowed;
  barred_ = SlotMask{};
  for (unsigned i = 0; i < params_.num_slots; ++i) {
    if (!quota_.test(i)) {
      barred_.set(i);
    }
  }
  // Revoked slots behave like a fence arriving: abort rewrites touching
  // them and evict units straddling them — the slots now belong to some
  // other core's partition.
  unsigned evicted = 0;
  std::erase_if(active_, [this](const Rewrite& rewrite) {
    for (unsigned i = 0; i < rewrite.region.len; ++i) {
      if (barred_.test(rewrite.region.base + i)) {
        return true;
      }
    }
    return false;
  });
  for (const auto& region : allocation_.regions()) {
    bool hit = false;
    for (unsigned i = 0; i < region.len; ++i) {
      hit = hit || barred_.test(region.base + i);
    }
    if (hit) {
      write_allocation().clear_span(region.base, region.len);
      ++evicted;
    }
  }
  stats_.quota_evictions += evicted;
  retarget();
  return evicted;
}

void ConfigurationLoader::refresh_target_regions(
    const AllocationVector& target,
    const FixedVector<SlotRegion, kMaxRfuSlots>& regions) {
  ++version_;
  target_ = target;
  target_regions_ = regions;
}

void ConfigurationLoader::request(const AllocationVector& target) {
  STEERSIM_EXPECTS(target.num_slots() == params_.num_slots);
  if (target == requested_) {
    return;
  }
  requested_ = target;
  ++stats_.targets_requested;
  retarget();
  if (tracer_ != nullptr && tracer_->wants(trace_cat::kLoader, cycle_)) {
    tracer_->ensure_lane(trace_lane::kLoaderTarget, "loader target");
    TraceArgs args;
    args.str("target", target_.to_string());
    tracer_->instant("retarget", trace_cat::kLoader,
                     trace_lane::kLoaderTarget, cycle_, args);
  }
}

void ConfigurationLoader::retarget() {
  if (unplaceable().none()) {
    refresh_target_regions(requested_, requested_.regions());
    return;
  }
  const Placement& placement = place_avoiding_fence(requested_);
  refresh_target_regions(placement.placed, placement.regions);
  stats_.units_dropped += placement.dropped;
  // Detected-damage slots the new target no longer covers will never see a
  // repair rewrite; their span was already cleared, so stop tracking them.
  if (repairing_.any()) {
    SlotMask cover;
    for (const auto& region : target_regions_) {
      for (unsigned i = 0; i < region.len; ++i) {
        cover.set(region.base + i);
      }
    }
    repairing_ = repairing_ & cover;
  }
}

const ConfigurationLoader::Placement&
ConfigurationLoader::place_avoiding_fence(
    const AllocationVector& wanted) const {
  const SlotMask avoid = unplaceable();
  STEERSIM_EXPECTS(avoid.any());
  for (const PlacementEntry& entry : placements_) {
    if (entry.unplaceable == avoid && entry.wanted == wanted) {
      return entry.placement;
    }
  }
  PlacementEntry& entry = placements_[placement_next_];
  placement_next_ = (placement_next_ + 1) % kPlacementMemoEntries;
  entry.wanted = wanted;
  entry.unplaceable = avoid;
  Placement& out = entry.placement;
  out.placed = AllocationVector(params_.num_slots);
  out.dropped = 0;
  SlotMask used = avoid;
  for (const auto& region : wanted.regions()) {
    bool fits = false;
    for (unsigned base = 0; base + region.len <= params_.num_slots; ++base) {
      bool free = true;
      for (unsigned i = 0; i < region.len; ++i) {
        free = free && !used.test(base + i);
      }
      if (!free) {
        continue;
      }
      out.placed.write_region(SlotRegion{region.type, base, region.len});
      for (unsigned i = 0; i < region.len; ++i) {
        used.set(base + i);
      }
      fits = true;
      break;
    }
    if (!fits) {
      ++out.dropped;
    }
  }
  out.regions = out.placed.regions();
  return out;
}

bool ConfigurationLoader::region_satisfied(const SlotRegion& region) const {
  if (allocation_.code(region.base) != encoding_of(region.type)) {
    return false;
  }
  for (unsigned i = 1; i < region.len; ++i) {
    if (allocation_.code(region.base + i) != kEncContinuation) {
      return false;
    }
  }
  return true;
}

unsigned ConfigurationLoader::unsatisfied_slots(
    const FixedVector<SlotRegion, kMaxRfuSlots>& regions) const {
  unsigned slots = 0;
  for (const auto& region : regions) {
    if (!region_satisfied(region)) {
      slots += region.len;
    }
  }
  return slots;
}

bool ConfigurationLoader::target_satisfied() const {
  if (satisfied_version_ != version_) {
    target_satisfied_ = unsatisfied_slots(target_regions_) == 0;
    satisfied_version_ = version_;
  }
  return target_satisfied_;
}

unsigned ConfigurationLoader::used_slots() const {
  if (used_version_ != version_) {
    used_slots_ = allocation_.region_slots();
    used_version_ = version_;
  }
  return used_slots_;
}

bool ConfigurationLoader::overlaps_active(unsigned base, unsigned len) const {
  for (const auto& rewrite : active_) {
    const unsigned lo = std::max(base, rewrite.region.base);
    const unsigned hi = std::min(base + len,
                                 rewrite.region.base + rewrite.region.len);
    if (lo < hi) {
      return true;
    }
  }
  return false;
}

SlotMask ConfigurationLoader::reconfiguring() const {
  SlotMask mask;
  for (const auto& rewrite : active_) {
    for (unsigned i = 0; i < rewrite.region.len; ++i) {
      mask.set(rewrite.region.base + i);
    }
  }
  if (full_remaining_ > 0) {
    for (unsigned i = 0; i < params_.num_slots; ++i) {
      mask.set(i);
    }
  }
  return mask;
}

bool ConfigurationLoader::quiescent() const {
  // Mirrors step(): with no active rewrites, no fault state, the scrubber
  // and ECC read path disabled, and every target region already on the
  // fabric, step() only advances cycle_ (step_partial starts nothing and
  // step_full returns satisfied).
  if (!active_.empty() || full_remaining_ != 0) {
    return false;
  }
  if ((corrupted_ | fenced_ | repairing_).any()) {
    return false;
  }
  if (params_.scrub_interval > 0 || params_.ecc) {
    return false;
  }
  return target_satisfied();
}

unsigned ConfigurationLoader::reconfig_cost(
    const AllocationVector& candidate) const {
  STEERSIM_EXPECTS(candidate.num_slots() == params_.num_slots);
  // Slots covered by candidate regions not yet implemented. Target-empty
  // slots are don't-care: steering loads the units the chosen configuration
  // specifies and leaves leftover capacity in place (it can only help).
  // With fenced slots the cost is that of the *realizable* placement, so
  // selectors rank candidates by what they would actually get.
  if (unplaceable().none()) {
    return unsatisfied_slots(candidate.regions());
  }
  return unsatisfied_slots(place_avoiding_fence(candidate).regions);
}

const AllocationVector& ConfigurationLoader::effective_allocation() const {
  const SlotMask broken = corrupted_ | fenced_;
  if (broken.none()) {
    return allocation_;
  }
  if (effective_version_ == version_ && broken == effective_broken_) {
    return effective_;
  }
  AllocationVector effective = allocation_;
  for (const auto& region : allocation_.regions()) {
    bool hit = false;
    for (unsigned i = 0; i < region.len; ++i) {
      hit = hit || broken.test(region.base + i);
    }
    if (hit) {
      effective.clear_span(region.base, region.len);
    }
  }
  // Stray codes on broken slots outside any complete region read as garbage.
  for (unsigned slot = 0; slot < params_.num_slots; ++slot) {
    if (broken.test(slot)) {
      effective.clear_span(slot, 1);
    }
  }
  effective_broken_ = broken;
  effective_version_ = version_;
  effective_ = std::move(effective);
  return effective_;
}

bool ConfigurationLoader::corrupt_slot(unsigned slot) {
  STEERSIM_EXPECTS(slot < params_.num_slots);
  if (fenced_.test(slot)) {
    return false;
  }
  if (params_.ecc) {
    // Each upset flips one deterministic codeword bit, varied by the
    // slot's upset ordinal so a scripted double hit lands on two distinct
    // bits. Flipping the same bit an even number of times restores it.
    const unsigned bit = (slot + upset_seq_[slot]++) % 8u;
    ecc_flips_[slot] = static_cast<std::uint8_t>(ecc_flips_[slot] ^
                                                 (1u << bit));
  }
  if (!corrupted_.test(slot)) {
    corrupted_.set(slot);
    corrupt_cycle_[slot] = cycle_;  // detection latency from first upset
  }
  return true;
}

bool ConfigurationLoader::fence_slot(unsigned slot) {
  STEERSIM_EXPECTS(slot < params_.num_slots);
  if (fenced_.test(slot)) {
    return false;
  }
  fenced_.set(slot);
  corrupted_.reset(slot);
  repairing_.reset(slot);
  ecc_flips_[slot] = 0;
  ++stats_.fence_events;
  // Abort rewrites touching the slot: the write can never complete.
  std::erase_if(active_, [slot](const Rewrite& rewrite) {
    return slot >= rewrite.region.base &&
           slot < rewrite.region.base + rewrite.region.len;
  });
  // Evict the unit straddling the slot, if any; the survivors of its span
  // become free capacity for the re-placed target.
  for (const auto& region : allocation_.regions()) {
    if (slot >= region.base && slot < region.base + region.len) {
      write_allocation().clear_span(region.base, region.len);
      break;
    }
  }
  write_allocation().clear_span(slot, 1);
  retarget();
  return true;
}

void ConfigurationLoader::begin_span_write(unsigned base, unsigned len) {
  // Fresh frames replace whatever was in the span: pre-existing silent
  // corruption is healed incidentally (not counted as detected/repaired —
  // those are scrubber metrics). Upsets arriving *during* the rewrite set
  // corrupted_ again afterwards and persist past completion, modeling a
  // write whose frames were hit in flight.
  for (unsigned i = 0; i < len; ++i) {
    corrupted_.reset(base + i);
    ecc_flips_[base + i] = 0;
  }
}

void ConfigurationLoader::finish_span_write(unsigned base, unsigned len) {
  for (unsigned i = 0; i < len; ++i) {
    if (repairing_.test(base + i)) {
      repairing_.reset(base + i);
      ++stats_.slots_repaired;
    }
  }
}

void ConfigurationLoader::escalate_corruption(unsigned slot) {
  // Repair is region-granular: schedule a rewrite of the whole containing
  // unit by clearing its span — step_partial() then sees the target region
  // unsatisfied and rewrites it through the ordinary configuration port,
  // competing with steering rewrites.
  const auto detect = [this](unsigned s) {
    ++stats_.upsets_detected;
    const double latency = static_cast<double>(cycle_ - corrupt_cycle_[s]);
    stats_.detection_latency.add(latency);
    stats_.detection_latency_hist.add(latency);
    corrupted_.reset(s);
    ecc_flips_[s] = 0;
  };
  SlotMask target_cover;
  for (const auto& region : target_regions_) {
    for (unsigned i = 0; i < region.len; ++i) {
      target_cover.set(region.base + i);
    }
  }
  bool in_region = false;
  for (const auto& region : allocation_.regions()) {
    if (slot < region.base || slot >= region.base + region.len) {
      continue;
    }
    in_region = true;
    for (unsigned i = 0; i < region.len; ++i) {
      const unsigned s = region.base + i;
      if (corrupted_.test(s)) {
        detect(s);
        if (target_cover.test(s)) {
          repairing_.set(s);
        }
      }
    }
    write_allocation().clear_span(region.base, region.len);
    break;
  }
  if (!in_region) {
    // Corrupted slot outside any complete unit (empty or a stray code):
    // detection rewrites it to empty on the spot — no port traffic.
    detect(slot);
    write_allocation().clear_span(slot, 1);
  }
}

void ConfigurationLoader::scrub_readback() {
  const unsigned n = params_.num_slots;
  for (unsigned tried = 0; tried < n; ++tried) {
    const unsigned slot = scrub_ptr_;
    scrub_ptr_ = (scrub_ptr_ + 1) % n;
    if (fenced_.test(slot)) {
      continue;  // nothing to read back; advance to a live slot
    }
    ++stats_.scrub_reads;
    if (full_remaining_ > 0 || overlaps_active(slot, 1)) {
      return;  // frames changing under the readback; retry next pass
    }
    if (!corrupted_.test(slot)) {
      return;
    }
    escalate_corruption(slot);
    return;
  }
}

void ConfigurationLoader::ecc_check() {
  // The decoder sits on the functional configuration read path, so every
  // slot is (conceptually) decoded each cycle; only slots with an
  // outstanding upset can decode non-clean, so iterate those.
  if (corrupted_.none()) {
    return;
  }
  for (unsigned slot = 0; slot < params_.num_slots; ++slot) {
    if (!corrupted_.test(slot)) {
      continue;
    }
    const std::uint8_t flips = ecc_flips_[slot];
    if (flips == 0) {
      // An even number of upsets hit the same bit: the codeword reads
      // clean again. Nothing to detect or repair.
      corrupted_.reset(slot);
      continue;
    }
    const std::uint8_t truth = allocation_.code(slot);
    const EccDecoded dec =
        ecc_decode(static_cast<std::uint8_t>(ecc_encode(truth) ^ flips));
    if (dec.outcome == EccOutcome::kCorrected && dec.data == truth) {
      // Single-bit upset: corrected at read. No scrub pass, no rewrite —
      // the per-slot parity storage paid for the instant detection.
      ecc_flips_[slot] = 0;
      corrupted_.reset(slot);
      ++stats_.ecc_corrections;
      const double latency =
          static_cast<double>(cycle_ - corrupt_cycle_[slot]);
      stats_.detection_latency.add(latency);
      stats_.detection_latency_hist.add(latency);
    } else {
      // Double-bit (or aliased multi-bit) error: the decoder can only
      // flag it. Escalate to the ordinary repair path, exactly like a
      // scrub detection.
      ++stats_.ecc_uncorrectable;
      escalate_corruption(slot);
    }
  }
}

void ConfigurationLoader::step(SlotMask slot_busy) {
  // A corrected ECC upset still cost this cycle (the slot was masked from
  // issue until the read), so sample degradation before the correction.
  const bool ecc_degraded = params_.ecc && corrupted_.any();
  if (params_.ecc) {
    ecc_check();
  }
  if (params_.scrub_interval > 0) {
    if (scrub_countdown_ == 0) {
      scrub_readback();
      scrub_countdown_ = params_.scrub_interval;
    }
    --scrub_countdown_;
  }
  if (params_.partial) {
    step_partial(slot_busy);
  } else {
    step_full(slot_busy);
  }
  if (ecc_degraded || (corrupted_ | fenced_ | repairing_).any()) {
    ++stats_.degraded_cycles;
  }
  ++cycle_;
}

void ConfigurationLoader::step_partial(SlotMask slot_busy) {
  // Starting precedes the tick so a rewrite's first cycle is the cycle it
  // begins (an N-cycle rewrite spans exactly N step() calls). A target
  // known to be on the fabric starts nothing, so the region scan is
  // skipped then. A stale memo is not refreshed first: the scan itself
  // records a target it finds on the fabric, so a cycle after a change
  // scans once.
  if (satisfied_version_ != version_ || !target_satisfied_) {
    start_rewrites(slot_busy);
  }

  // Tick in-flight rewrites; completed units come online.
  for (auto it = active_.begin(); it != active_.end();) {
    STEERSIM_ENSURES(it->remaining > 0);
    if (--it->remaining == 0) {
      write_allocation().write_region(it->region);
      stats_.slots_rewritten += it->region.len;
      finish_span_write(it->region.base, it->region.len);
      trace_rewrite(it->region, it->start, cycle_ - it->start + 1);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
}

void ConfigurationLoader::start_rewrites(SlotMask slot_busy) {
  // Start rewrites for unsatisfied target regions whose slots are idle.
  bool blocked = false;
  bool all_satisfied = true;
  for (const auto& region : target_regions_) {
    if (active_.size() >= params_.max_concurrent_regions) {
      all_satisfied = false;  // the rest went unchecked
      break;
    }
    if (region_satisfied(region)) {
      continue;
    }
    all_satisfied = false;
    if (overlaps_active(region.base, region.len)) {
      continue;
    }
    // The region's own span must be idle...
    bool busy = false;
    for (unsigned i = 0; i < region.len; ++i) {
      busy = busy || slot_busy.test(region.base + i);
    }
    // ...and so must any current unit that pokes into the span from outside
    // (a busy unit drives all of its slots' busy bits, so checking the span
    // already covers it; an idle overlapping unit may be evicted).
    if (busy) {
      blocked = true;
      continue;
    }
    // The shared configuration port must be ours before frames move. A
    // denial blocks every start this cycle (the port is core-granular),
    // but in-flight rewrites still tick below — the holder's port is
    // released only once its loader drains idle.
    if (port_ != nullptr && !port_->acquire(port_core_)) {
      ++stats_.port_denied_cycles;
      break;
    }
    // Evict current units overlapping the span, then begin loading.
    for (const auto& current : allocation_.regions()) {
      const unsigned lo = std::max(current.base, region.base);
      const unsigned hi =
          std::min(current.base + current.len, region.base + region.len);
      if (lo < hi) {
        write_allocation().clear_span(current.base, current.len);
        begin_span_write(current.base, current.len);
      }
    }
    write_allocation().clear_span(region.base, region.len);
    begin_span_write(region.base, region.len);
    if (params_.instant) {
      write_allocation().write_region(region);
      stats_.slots_rewritten += region.len;
      finish_span_write(region.base, region.len);
      trace_rewrite(region, cycle_, 0);
    } else {
      active_.push_back(
          Rewrite{region, params_.cycles_per_slot * region.len, cycle_});
    }
    ++stats_.regions_started;
  }
  if (blocked) {
    ++stats_.blocked_cycles;
  }
  if (all_satisfied) {
    // Nothing started, so no write moved version_ during the scan.
    target_satisfied_ = true;
    satisfied_version_ = version_;
  }
}

void ConfigurationLoader::trace_rewrite(const SlotRegion& region,
                                        std::uint64_t start,
                                        std::uint64_t duration) const {
  if (tracer_ == nullptr ||
      !tracer_->wants_span(trace_cat::kLoader, start, duration)) {
    return;
  }
  const unsigned lane = trace_lane::kSlotBase + region.base;
  if (!tracer_->lane_named(lane)) {
    tracer_->ensure_lane(lane, "rfu slot " + std::to_string(region.base));
  }
  TraceArgs args;
  args.num("base", std::uint64_t{region.base})
      .num("len", std::uint64_t{region.len});
  tracer_->complete(fu_type_name(region.type), trace_cat::kLoader, lane,
                    start, duration, args);
}

void ConfigurationLoader::step_full(SlotMask slot_busy) {
  if (full_remaining_ == 0) {
    if (target_satisfied()) {
      return;
    }
    // Non-partial reconfiguration: the whole fabric is rewritten at once
    // and only when every slot is idle.
    if (slot_busy.any()) {
      ++stats_.blocked_cycles;
      return;
    }
    if (port_ != nullptr && !port_->acquire(port_core_)) {
      ++stats_.port_denied_cycles;
      return;
    }
    write_allocation().clear_span(0, params_.num_slots);
    begin_span_write(0, params_.num_slots);
    full_remaining_ = params_.cycles_per_slot * params_.num_slots;
    full_start_ = cycle_;
  }
  if (--full_remaining_ == 0) {
    for (const auto& region : target_regions_) {
      write_allocation().write_region(region);
      stats_.slots_rewritten += region.len;
    }
    finish_span_write(0, params_.num_slots);
    ++stats_.regions_started;
    if (tracer_ != nullptr &&
        tracer_->wants_span(trace_cat::kLoader, full_start_,
                            cycle_ - full_start_ + 1)) {
      tracer_->ensure_lane(trace_lane::kSlotBase, "rfu slot 0");
      TraceArgs args;
      args.num("slots", std::uint64_t{params_.num_slots});
      tracer_->complete("full-reconfig", trace_cat::kLoader,
                        trace_lane::kSlotBase, full_start_,
                        cycle_ - full_start_ + 1, args);
    }
  }
}

}  // namespace steersim
