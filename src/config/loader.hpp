// The configuration loader (paper Sec. 3.2).
//
// Owns the resource allocation vector, tracks in-flight slot rewrites, and
// steers the fabric toward the configuration chosen by the selection unit:
// whenever a target region is not on the fabric, it begins (partially)
// reconfiguring the unsatisfied regions whose slots are idle. Busy slots
// are skipped — that is what makes the active configuration a hybrid
// overlap of steering configurations. A non-partial mode reproduces the
// [7]-style baseline where the whole fabric must be rewritten at once.
//
// The per-cycle questions — is every target region on the fabric, how many
// slots hold units — are answered from memos recomputed only after the
// allocation or the target changed: both have a single write path that
// bumps a version number (docs/DESIGN.md §5, "Steer-stage memos").
//
// Fault extension (docs/FAULTS.md): configuration memory can suffer
// transient upsets (a slot's bits silently corrupted) and permanent slot
// failures (the slot fenced off for good). The loader masks broken slots
// out of the allocation the rest of the machine sees, runs an optional
// readback scrubber that walks one slot every `scrub_interval` cycles to
// detect silent corruption, and repairs detected regions through the
// ordinary partial-reconfiguration path — repair rewrites compete with
// steering rewrites for the same configuration port. Fenced slots are
// routed around: requested targets are re-placed onto the surviving slots
// (first fit, preserving the candidate's unit order) and units that no
// longer fit are dropped, so steering always chooses among *realizable*
// configurations on the shrunken fabric.
#pragma once

#include <array>
#include <vector>

#include "common/stats.hpp"
#include "config/allocation.hpp"
#include "obs/trace.hpp"

namespace steersim {

struct LoaderParams {
  unsigned num_slots = 8;
  /// Partial-reconfiguration cost: cycles to rewrite one slot.
  unsigned cycles_per_slot = 8;
  /// Concurrent region rewrites (1 models a single ICAP-style config port).
  unsigned max_concurrent_regions = 1;
  /// false => full-fabric reconfiguration baseline (no partial rewrites).
  bool partial = true;
  /// Oracle mode: rewrites complete in the same cycle they start (busy
  /// slots are still respected). Used only by the oracle upper bound.
  bool instant = false;
  /// Scrubber readback cadence: one slot is read back every
  /// `scrub_interval` cycles (0 disables scrubbing). Readback uses a
  /// dedicated port and is free; only the repair *rewrites* it schedules
  /// occupy the configuration port.
  unsigned scrub_interval = 0;
  /// SECDED-protected slot encodings (src/config/ecc.hpp): every read
  /// decodes the slot's codeword, correcting single-bit upsets in place
  /// and escalating double-bit errors to the repair path. Detect-at-read
  /// makes the scrubber redundant (scrub_interval may stay 0), trading
  /// readback traffic for per-slot storage (8 codeword bits vs 4).
  bool ecc = false;
};

/// Shared configuration write port (multi-core fabric, docs/DESIGN.md
/// §Multi-core shared fabric). When several loaders feed one fabric, each
/// is wired to the fabric's arbiter; a loader asks acquire() at the moment
/// it would otherwise begin a rewrite, and the arbiter answers whether the
/// port is (or just became) this core's. A core that holds the port keeps
/// it until its loader drains idle — the fabric polls and releases.
class ConfigPortArbiter {
 public:
  virtual ~ConfigPortArbiter() = default;
  /// True if `core` may start rewrites this cycle (idempotent within a
  /// cycle for the holder).
  virtual bool acquire(unsigned core) = 0;
};

struct LoaderStats {
  std::uint64_t targets_requested = 0;  ///< distinct target changes
  std::uint64_t regions_started = 0;
  std::uint64_t slots_rewritten = 0;
  /// Cycles in which at least one wanted region could not start because a
  /// slot it needs was busy executing.
  std::uint64_t blocked_cycles = 0;
  /// Cycles a wanted rewrite could not start because the shared
  /// configuration port was granted to another core (grant latency).
  std::uint64_t port_denied_cycles = 0;
  /// Units evicted because a quota repartition revoked their slots.
  std::uint64_t quota_evictions = 0;

  // Scrubbing / fault-recovery side (see docs/FAULTS.md).
  std::uint64_t scrub_reads = 0;       ///< readback operations performed
  std::uint64_t upsets_detected = 0;   ///< corrupted slots found by readback
  std::uint64_t slots_repaired = 0;    ///< detected slots restored by rewrites
  std::uint64_t fence_events = 0;      ///< permanent failures accepted
  std::uint64_t units_dropped = 0;     ///< target units unplaceable after fencing
  /// ECC side (LoaderParams::ecc): single-bit upsets corrected at read and
  /// double-bit codewords escalated to the repair path.
  std::uint64_t ecc_corrections = 0;
  std::uint64_t ecc_uncorrectable = 0;
  /// Cycles with any fault state outstanding (silent corruption, detected
  /// damage awaiting rewrite, or fenced slots).
  std::uint64_t degraded_cycles = 0;
  /// Upset-to-detection delay of every scrub detection, in cycles.
  RunningStat detection_latency;
  Histogram detection_latency_hist{0.0, 4096.0, 32};

  /// Metric-registry enumeration (docs/OBSERVABILITY.md).
  template <typename V>
  void visit_metrics(V&& visit) const {
    visit("targets_requested", static_cast<double>(targets_requested));
    visit("regions_started", static_cast<double>(regions_started));
    visit("slots_rewritten", static_cast<double>(slots_rewritten));
    visit("blocked_cycles", static_cast<double>(blocked_cycles));
    visit("port_denied_cycles", static_cast<double>(port_denied_cycles));
    visit("quota_evictions", static_cast<double>(quota_evictions));
    visit("scrub_reads", static_cast<double>(scrub_reads));
    visit("upsets_detected", static_cast<double>(upsets_detected));
    visit("slots_repaired", static_cast<double>(slots_repaired));
    visit("fence_events", static_cast<double>(fence_events));
    visit("units_dropped", static_cast<double>(units_dropped));
    visit("ecc_corrections", static_cast<double>(ecc_corrections));
    visit("ecc_uncorrectable", static_cast<double>(ecc_uncorrectable));
    visit("degraded_cycles", static_cast<double>(degraded_cycles));
    if (detection_latency.count() > 0) {
      visit("detection_latency_mean", detection_latency.mean(), true);
      visit("detection_latency_max", detection_latency.max(), true);
      visit("detection_latency_p95",
            detection_latency_hist.quantile(0.95), true);
    }
  }
};

class ConfigurationLoader {
 public:
  ConfigurationLoader(const LoaderParams& params, AllocationVector initial);

  /// Sets the steering target (the configuration chosen by the selector).
  /// In-flight rewrites for a previous target run to completion. With
  /// fenced slots present the target is first re-placed around them.
  void request(const AllocationVector& target);
  const AllocationVector& target() const { return target_; }
  /// The last externally requested target, before any fence re-placement
  /// (checkpoint/rollback snapshots restore steering intent through this).
  const AllocationVector& requested() const { return requested_; }

  /// Advances one cycle. `slot_busy` marks slots whose unit is executing a
  /// multi-cycle instruction (all slots of a busy unit are set).
  void step(SlotMask slot_busy);

  /// Units currently loaded and usable. Slots under rewrite are cleared, so
  /// `allocation().counts()` is exactly the configured-unit count vector.
  /// This is the loader's *bookkeeping* view: silently corrupted units are
  /// still present here (the hardware does not know they broke).
  const AllocationVector& allocation() const { return allocation_; }

  /// The allocation the execution engine may actually use: regions
  /// overlapping corrupted or fenced slots are masked out, so no
  /// instruction ever issues to a broken unit. Fault-free (the hot case —
  /// this sat atop the cycle-loop profile as a per-cycle copy) it is
  /// `allocation()` itself; with fault state present the masked form is
  /// memoized against the loader version and the broken-slot mask, so
  /// repeated reads between slot writes cost two comparisons. The returned
  /// reference is invalidated by any mutating loader call.
  const AllocationVector& effective_allocation() const;

  SlotMask reconfiguring() const;
  bool idle() const { return active_.empty() && full_remaining_ == 0; }

  /// True when a step() would change nothing but the internal cycle
  /// counter: no rewrites in flight, the target fully implemented, no
  /// fault state, and no background machinery (scrubber, ECC) running.
  /// The processor's event-driven skip-ahead keys off this.
  bool quiescent() const;

  /// Slots allocation() covers (allocation().region_slots()), recomputed
  /// only after the allocation changed. The shared fabric sums it every
  /// round.
  unsigned used_slots() const;

  /// Replaces `cycles` quiescent step() calls (cycle-counter advance only).
  /// Caller must hold quiescent() true for the whole window.
  void fast_forward(std::uint64_t cycles) { cycle_ += cycles; }

  /// Slots that would need rewriting to realize `candidate` from the
  /// current allocation (the selector's least-reconfiguration tie-break).
  /// With fenced slots present the cost is computed against the re-placed
  /// (realizable) form of the candidate.
  unsigned reconfig_cost(const AllocationVector& candidate) const;

  // Fault hooks (called by the processor's injection stage).
  /// Marks a slot's configuration memory as corrupted. Returns false if
  /// the slot is fenced (dead config logic cannot be upset in any way that
  /// matters). Corruption is silent: only effective_allocation() changes.
  bool corrupt_slot(unsigned slot);
  /// Permanently fences a slot: evicts the unit occupying it, aborts any
  /// rewrite touching it, and re-places the requested target around the
  /// fence. Returns false if already fenced.
  bool fence_slot(unsigned slot);

  SlotMask corrupted() const { return corrupted_; }
  SlotMask fenced() const { return fenced_; }
  /// Detected-damage slots whose repair rewrite has not completed yet.
  SlotMask repairing() const { return repairing_; }

  // Multi-core fabric hooks (src/multicore/). Both default to the
  // single-core identity: no arbiter installed, quota = every slot.
  /// Wires this loader to a shared configuration-port arbiter as `core`.
  /// nullptr detaches (rewrites start unconditionally again).
  void set_port_arbiter(ConfigPortArbiter* arbiter, unsigned core) {
    port_ = arbiter;
    port_core_ = core;
  }
  /// Restricts placement to `quota` (intersected with the real slot
  /// range): targets are re-placed inside it and units sitting on revoked
  /// slots are evicted, their rewrites aborted. Returns the number of
  /// units evicted. A full quota restores single-core behaviour exactly.
  unsigned set_quota(SlotMask quota);
  SlotMask quota() const { return quota_; }
  /// Slots placement must avoid: fenced plus outside-quota. reconfig_cost
  /// is a pure function of (allocation, unplaceable); policy cost memos
  /// key on this.
  SlotMask unplaceable() const { return fenced_ | barred_; }

  const LoaderStats& stats() const { return stats_; }
  const LoaderParams& params() const { return params_; }

  /// Attaches the cycle tracer (nullptr detaches): region rewrites emit
  /// trace_cat::kLoader duration events on per-slot lanes. Observation
  /// only — never affects loader behaviour.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Rewrite {
    SlotRegion region;
    unsigned remaining = 0;
    std::uint64_t start = 0;  ///< cycle_ when the rewrite began (tracing)
  };

  /// A requested allocation re-placed around the unplaceable slots: the
  /// placed vector, its region decode, and the units that fit nowhere.
  struct Placement {
    AllocationVector placed;
    FixedVector<SlotRegion, kMaxRfuSlots> regions;
    unsigned dropped = 0;
  };
  /// One placement memo entry. A default entry has a zero-slot `wanted`,
  /// which no real request matches.
  struct PlacementEntry {
    AllocationVector wanted;
    SlotMask unplaceable;
    Placement placement;
  };
  /// Entries in the placement memo: the three presets plus a few
  /// freeze-to-current requests under one quota.
  static constexpr unsigned kPlacementMemoEntries = 8;

  /// True if `allocation_` already implements `region` exactly.
  bool region_satisfied(const SlotRegion& region) const;
  /// Slots of `regions` not yet implemented by `allocation_`.
  unsigned unsatisfied_slots(
      const FixedVector<SlotRegion, kMaxRfuSlots>& regions) const;
  /// True when every target region is on the fabric, recomputed only
  /// after the allocation or the target changed. start_rewrites() also
  /// records the answer when its scan finds every region on the fabric.
  bool target_satisfied() const;
  /// True if any slot of [base, base+len) is part of an active rewrite.
  bool overlaps_active(unsigned base, unsigned len) const;
  void step_partial(SlotMask slot_busy);
  /// step_partial's start phase: begins rewrites of unsatisfied target
  /// regions whose slots are idle, up to the concurrency cap, and records
  /// a target found wholly on the fabric in target_satisfied()'s memo.
  void start_rewrites(SlotMask slot_busy);
  void step_full(SlotMask slot_busy);

  /// Re-places `wanted`'s unit regions onto the placeable slots, first
  /// fit in the candidate's own region order; units that fit nowhere are
  /// dropped. Requires something unplaceable (callers keep the identity
  /// case to themselves). Memoized on (wanted, unplaceable()) in a small
  /// round-robin table, so retarget() and reconfig_cost() share results.
  const Placement& place_avoiding_fence(const AllocationVector& wanted) const;
  /// Recomputes target_ from requested_ (a new request, or the unplaceable
  /// set changed).
  void retarget();
  /// The one write path to allocation_: every mutation goes through the
  /// returned reference, and the call bumps version_ first.
  AllocationVector& write_allocation() {
    ++version_;
    return allocation_;
  }
  /// The one assignment path to target_: sets it and its region decode,
  /// and bumps version_.
  void refresh_target_regions(
      const AllocationVector& target,
      const FixedVector<SlotRegion, kMaxRfuSlots>& regions);
  /// A rewrite is about to lay fresh frames over [base, base+len): clears
  /// pre-existing corruption (the write replaces the bits).
  void begin_span_write(unsigned base, unsigned len);
  /// A rewrite finished writing [base, base+len): completes any pending
  /// repairs in the span.
  void finish_span_write(unsigned base, unsigned len);
  /// One readback step of the scrubber.
  void scrub_readback();
  /// Decodes every outstanding-upset codeword (the ECC read path runs
  /// every cycle): corrects single-bit errors in place, escalates the rest.
  void ecc_check();
  /// Confirmed damage at `slot` (scrub mismatch or uncorrectable ECC):
  /// records detections for every corrupted slot of the containing unit,
  /// clears its span so the partial-reconfiguration path rewrites it, and
  /// marks target-covered slots as repairing.
  void escalate_corruption(unsigned slot);

  LoaderParams params_;
  AllocationVector allocation_;
  AllocationVector target_;     ///< realizable target actually steered to
  AllocationVector requested_;  ///< last externally requested target
  /// Cached target_.regions(): the per-cycle step path iterates the target
  /// regions, and the decode only changes when the target does.
  FixedVector<SlotRegion, kMaxRfuSlots> target_regions_;
  std::vector<Rewrite> active_;
  unsigned full_remaining_ = 0;  ///< full-reconfig mode countdown

  // Multi-core fabric state (identity defaults for single-core use).
  ConfigPortArbiter* port_ = nullptr;  ///< shared write port; never owns
  unsigned port_core_ = 0;             ///< this loader's core id at the port
  SlotMask quota_;                     ///< slots this core may place onto
  SlotMask barred_;                    ///< complement of quota_ over the fabric

  // Fault state.
  SlotMask corrupted_;   ///< silent upsets not yet detected or overwritten
  SlotMask fenced_;      ///< permanently failed slots
  SlotMask repairing_;   ///< detected damage awaiting a repair rewrite
  std::array<std::uint64_t, kMaxRfuSlots> corrupt_cycle_{};
  /// ECC mode: accumulated flipped codeword bits per slot (0 = clean) and
  /// a per-slot upset ordinal that decorrelates which bit each hit flips.
  std::array<std::uint8_t, kMaxRfuSlots> ecc_flips_{};
  std::array<std::uint8_t, kMaxRfuSlots> upset_seq_{};
  std::uint64_t cycle_ = 0;       ///< step() count, for latency bookkeeping
  unsigned scrub_countdown_ = 0;
  unsigned scrub_ptr_ = 0;        ///< next slot the readback pass visits
  std::uint64_t full_start_ = 0;  ///< full-reconfig start cycle (tracing)

  /// Bumped by write_allocation() and refresh_target_regions(), the only
  /// write paths to allocation_ and target_. A memo below is valid while
  /// its recorded version equals this one (it starts past every memo's
  /// initial version, so each memo computes on its first read).
  std::uint64_t version_ = 1;
  mutable std::uint64_t satisfied_version_ = 0;
  mutable bool target_satisfied_ = false;
  mutable std::uint64_t used_version_ = 0;
  mutable unsigned used_slots_ = 0;
  /// effective_allocation() memo for the degraded path (fault state
  /// present): valid for its version and the broken-slot mask it masked.
  mutable std::uint64_t effective_version_ = 0;
  mutable SlotMask effective_broken_;
  mutable AllocationVector effective_;
  /// place_avoiding_fence() memo; placement_next_ is the next victim.
  mutable std::array<PlacementEntry, kPlacementMemoEntries> placements_;
  mutable unsigned placement_next_ = 0;

  Tracer* tracer_ = nullptr;  ///< optional observer; never owns
  LoaderStats stats_;

  /// Trace hook: one duration event per completed region rewrite.
  void trace_rewrite(const SlotRegion& region, std::uint64_t start,
                     std::uint64_t duration) const;
};

}  // namespace steersim
