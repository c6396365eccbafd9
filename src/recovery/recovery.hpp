// Checkpoint/rollback recovery for the reconfigurable machine
// (docs/FAULTS.md).
//
// PR 1's kill-and-retry granularity recovers single executions; it cannot
// recover a run whose fabric loses slots permanently mid-flight without
// paying the full re-execution cost from cycle 0. This subsystem adds the
// missing tier: the processor periodically snapshots architectural state
// (register files, a copy-on-write-style undo journal of data-memory
// writes, the resume PC, and the loader's fabric/steering intent), and on
// a permanent slot failure or an unrecoverable ECC event it rolls the
// machine back to the last snapshot, re-places the fabric around the
// fences, and resumes. Snapshots are cheap: registers are copied, but
// memory is journaled incrementally — only the first store to an address
// per checkpoint epoch records the bytes it overwrites.
//
// The RecoveryManager owns the policy (cadence, which events trigger a
// rollback), the snapshot, the journal and the statistics; the Processor
// performs the actual capture and restore since they touch every module.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "config/allocation.hpp"
#include "memory/data_memory.hpp"
#include "memory/register_file.hpp"

namespace steersim {

/// With recovery on, an accepted permanent slot failure and an
/// uncorrectable ECC event escalated by the loader each roll the machine
/// back to its last checkpoint.
struct RecoveryParams {
  /// Cycles between architectural snapshots; 0 disables the subsystem
  /// entirely (the machine is then bit-identical to a build without it).
  unsigned checkpoint_interval = 0;

  bool enabled() const { return checkpoint_interval > 0; }
};

struct RecoveryStats {
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t rollbacks = 0;
  /// Commits undone by rollbacks and re-executed on the replay path.
  std::uint64_t instructions_replayed = 0;
  /// Sum over rollbacks of (rollback cycle - checkpoint cycle).
  std::uint64_t cycles_rewound = 0;
  /// In-flight RUU entries flushed by rollbacks.
  std::uint64_t flushed_in_flight = 0;
  std::uint64_t journal_records = 0;       ///< undo records written overall
  std::uint64_t journal_records_peak = 0;  ///< largest single-epoch journal

  /// Metric-registry enumeration (docs/OBSERVABILITY.md).
  template <typename V>
  void visit_metrics(V&& visit) const {
    visit("checkpoints_taken", static_cast<double>(checkpoints_taken));
    visit("rollbacks", static_cast<double>(rollbacks));
    visit("instructions_replayed",
          static_cast<double>(instructions_replayed));
    visit("cycles_rewound", static_cast<double>(cycles_rewound));
    visit("flushed_in_flight", static_cast<double>(flushed_in_flight));
    visit("journal_records", static_cast<double>(journal_records));
    visit("journal_records_peak",
          static_cast<double>(journal_records_peak));
  }
};

/// One architectural snapshot. Everything needed to resume: committed
/// register state, the PC of the oldest un-retired instruction, and the
/// loader's fabric view + steering intent (fences are physical and are
/// never rolled back — the restore re-places `requested` around whatever
/// is fenced *now*).
struct Checkpoint {
  std::uint64_t cycle = 0;
  std::uint64_t retired = 0;  ///< commit count at snapshot time
  std::uint32_t resume_pc = 0;
  RegisterFile regs;
  AllocationVector fabric;     ///< loader bookkeeping allocation
  AllocationVector requested;  ///< externally requested steering target
  SlotMask fenced;             ///< fence set at snapshot time
};

class RecoveryManager {
 public:
  explicit RecoveryManager(const RecoveryParams& params);

  const RecoveryParams& params() const { return params_; }

  bool checkpoint_due(std::uint64_t cycle) const {
    return cycle % params_.checkpoint_interval == 0;
  }
  /// Installs a new snapshot and opens a fresh journal epoch.
  void take_checkpoint(Checkpoint snapshot);
  bool has_checkpoint() const { return has_checkpoint_; }
  const Checkpoint& checkpoint() const;

  /// Copy-on-write-style undo journaling: called before a store commits,
  /// records the bytes about to be overwritten — once per (address, size)
  /// per checkpoint epoch, so steady-state stores to hot addresses are
  /// free after the first.
  void journal_store(const DataMemory& mem, std::uint64_t addr,
                     unsigned size);

  /// Rolls `mem` back to the checkpoint image by undoing the journal
  /// newest-first, then resets the journal for the replay epoch.
  void unwind_memory(DataMemory& mem);

  /// Accounting for a rollback the processor just performed; fires the
  /// rollback hook (tests use it to truncate observed commit streams).
  void note_rollback(std::uint64_t cycle, std::uint64_t retired,
                     unsigned flushed_in_flight);

  /// Invoked after every completed rollback with the restored checkpoint.
  void set_rollback_hook(std::function<void(const Checkpoint&)> hook) {
    on_rollback_ = std::move(hook);
  }

  const RecoveryStats& stats() const { return stats_; }

 private:
  struct UndoRecord {
    std::uint64_t addr = 0;
    std::int64_t old_value = 0;  ///< raw bytes via load_word / load_byte
    unsigned size = 0;           ///< access bytes (1 or 8)
  };

  RecoveryParams params_;
  bool has_checkpoint_ = false;
  Checkpoint checkpoint_;
  std::vector<UndoRecord> journal_;
  /// (addr, size) pairs already journaled this epoch, keyed addr*2|byte.
  std::unordered_set<std::uint64_t> journaled_;
  RecoveryStats stats_;
  std::function<void(const Checkpoint&)> on_rollback_;
};

}  // namespace steersim
