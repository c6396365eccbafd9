// Register update unit (paper Sec. 2 / [7]).
//
// A circular in-flight instruction buffer combining the roles the paper
// assigns to it: dependency buffer (tracks register dependences between
// in-flight instructions), out-of-order issue bookkeeping, operand
// forwarding (consumers read producer results straight out of the RUU),
// in-order completion (results reach the register file only at retirement,
// which also makes misprediction recovery a simple truncate-younger), and
// the store buffer (stores commit to memory at retirement; younger loads
// forward from matching older stores).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "isa/instruction.hpp"

namespace steersim {

inline constexpr std::uint64_t kNoProducer = ~std::uint64_t{0};

enum class RuuState : std::uint8_t {
  kWaiting,  ///< dispatched, not yet issued
  kIssued,   ///< executing on a functional unit
  kDone,     ///< execution complete, awaiting in-order retirement
};

struct RuuEntry {
  std::uint64_t id = 0;
  Instruction inst;
  std::uint32_t pc = 0;
  std::uint32_t predicted_next = 0;
  RuuState state = RuuState::kWaiting;
  int wakeup_row = -1;

  /// Dependency buffer: producer RUU ids snapshotted at dispatch.
  std::uint64_t src1_producer = kNoProducer;
  std::uint64_t src2_producer = kNoProducer;

  /// Results (valid once issued; architectural at kDone).
  std::int64_t int_result = 0;
  double fp_result = 0.0;
  bool branch_taken = false;
  std::uint32_t actual_next = 0;

  /// Execution was killed by a configuration upset and the entry rolled
  /// back to waiting; cleared (and counted) when it reissues.
  bool fault_retry = false;

  /// Memory bookkeeping.
  bool addr_known = false;
  std::uint64_t mem_addr = 0;
  unsigned mem_size = 0;       ///< access bytes (1 or 8)
  bool mem_faulted = false;    ///< speculative out-of-range access

  /// Pipeline timestamps (machine cycles), for tracing/visualization.
  std::uint64_t cycle_dispatch = 0;
  std::uint64_t cycle_issue = 0;
  std::uint64_t cycle_complete = 0;

  /// True if this entry writes an architectural register.
  bool writes_reg() const {
    const OpInfo& info = op_info(inst.op);
    if (info.rd_class == RegClass::kNone) {
      return false;
    }
    return info.rd_class == RegClass::kFp || inst.rd != 0;
  }
};

class RegisterUpdateUnit {
 public:
  explicit RegisterUpdateUnit(unsigned capacity);

  unsigned capacity() const {
    return static_cast<unsigned>(ring_.size());
  }
  unsigned size() const { return count_; }
  bool full() const { return count_ == capacity(); }
  bool empty() const { return count_ == 0; }

  /// Allocates the next (youngest) entry for `inst` and records it as the
  /// youngest in-flight writer of its destination register; RUU must not
  /// be full. The entry's `inst` must not change afterwards (the rename
  /// table is keyed on it).
  RuuEntry& allocate(const Instruction& inst);

  /// Entry by position, 0 = oldest.
  RuuEntry& at(unsigned pos) {
    STEERSIM_EXPECTS(pos < count_);
    return ring_[ring_index(pos)];
  }
  const RuuEntry& at(unsigned pos) const {
    STEERSIM_EXPECTS(pos < count_);
    return ring_[ring_index(pos)];
  }

  /// Entry by id; null if it already retired (or never existed). Live ids
  /// are contiguous from the head's.
  RuuEntry* find(std::uint64_t id) {
    if (count_ == 0) {
      return nullptr;
    }
    const std::uint64_t head_id = ring_[head_].id;
    if (id < head_id || id >= head_id + count_) {
      return nullptr;
    }
    return &ring_[ring_index(static_cast<unsigned>(id - head_id))];
  }
  const RuuEntry* find(std::uint64_t id) const {
    return const_cast<RegisterUpdateUnit*>(this)->find(id);
  }

  /// Latest in-flight producer of (`cls`, `reg`), or kNoProducer. Integer
  /// r0 never has a producer. One rename-table read: the table holds the
  /// register's youngest unsquashed writer, and find() rejects it once it
  /// retired (every older writer retired before it).
  std::uint64_t latest_producer(RegClass cls, std::uint8_t reg) const {
    if (cls == RegClass::kNone || (cls == RegClass::kInt && reg == 0)) {
      return kNoProducer;
    }
    const std::uint64_t id = rename_[rename_index(cls, reg)];
    return id != kNoProducer && find(id) != nullptr ? id : kNoProducer;
  }

  /// Pops the oldest entry (must be kDone or the caller knows better).
  RuuEntry retire_head();

  /// Removes every entry younger than `id`; invokes `on_squash(entry)` for
  /// each (youngest-first) so the caller can clear wake-up rows / units.
  template <typename Fn>
  unsigned squash_younger_than(std::uint64_t id, Fn on_squash) {
    unsigned squashed = 0;
    while (count_ > 0) {
      RuuEntry& youngest = at(count_ - 1);
      if (youngest.id <= id) {
        break;
      }
      on_squash(youngest);
      --count_;
      ++squashed;
    }
    // Squashed ids are reusable: every reference to them (wake-up rows,
    // decode buffer, younger entries' producer links) dies with the squash.
    // Rolling the counter back keeps live ids contiguous, which find()
    // relies on for O(1) lookup. The rename table may name a squashed
    // writer, whose id the next allocation reuses, so it is rebuilt from
    // the survivors.
    next_id_ -= squashed;
    if (squashed > 0) {
      rebuild_rename();
    }
    return squashed;
  }

  /// Removes every in-flight entry (a whole-window rollback flush), same
  /// youngest-first callback and id-recycling contract as
  /// squash_younger_than.
  template <typename Fn>
  unsigned squash_all(Fn on_squash) {
    const unsigned squashed = count_;
    while (count_ > 0) {
      on_squash(at(count_ - 1));
      --count_;
    }
    next_id_ -= squashed;
    rename_.fill(kNoProducer);
    return squashed;
  }

  void clear() {
    count_ = 0;
    rename_.fill(kNoProducer);
  }

 private:
  /// Ring index of position `pos` (< capacity) counted from the head.
  unsigned ring_index(unsigned pos) const {
    const unsigned slot = head_ + pos;
    return slot >= capacity() ? slot - capacity() : slot;
  }
  /// Integer registers first, then FP registers.
  static unsigned rename_index(RegClass cls, std::uint8_t reg) {
    static_assert(kNumIntRegs == kNumFpRegs);
    STEERSIM_EXPECTS(reg < kNumIntRegs);
    return (cls == RegClass::kFp ? kNumIntRegs : 0u) + reg;
  }
  /// Re-derives the rename table from the in-flight entries, oldest first.
  void rebuild_rename();
  /// Records `entry` as the youngest writer of its destination, if any.
  void record_writer(const RuuEntry& entry);

  std::vector<RuuEntry> ring_;
  std::uint64_t next_id_ = 0;
  unsigned head_ = 0;  ///< ring index of the oldest entry
  unsigned count_ = 0;
  /// The dependency buffer's rename table: per architectural register
  /// (integer, then FP), the id of its youngest unsquashed writer, or
  /// kNoProducer. An entry whose writer has retired stays in place and
  /// reads as kNoProducer through find().
  std::array<std::uint64_t, kNumIntRegs + kNumFpRegs> rename_;
};

}  // namespace steersim
