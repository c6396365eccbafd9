// Resource allocation vector (Sec. 3.2): one 3-bit code per RFU slot.
//
// This is the configuration loader's bookkeeping structure: it records what
// unit type occupies each slot, using the continuation encoding for the
// trailing slots of multi-slot units. The XOR-style diff between the chosen
// configuration's vector and the current vector determines which slots need
// rewriting.
#pragma once

#include <string>

#include "common/bitset.hpp"
#include "common/contracts.hpp"
#include "common/fixed_vector.hpp"
#include "config/encoding.hpp"

namespace steersim {

inline constexpr unsigned kMaxRfuSlots = 32;

using SlotMask = SmallBitset<kMaxRfuSlots>;

/// A unit instance's slot footprint.
struct SlotRegion {
  FuType type = FuType::kIntAlu;
  unsigned base = 0;
  unsigned len = 1;

  friend bool operator==(const SlotRegion&, const SlotRegion&) = default;
};

class AllocationVector {
 public:
  AllocationVector() = default;
  /// All slots empty.
  explicit AllocationVector(unsigned num_slots);

  /// Canonical placement of `counts` into `num_slots` slots: unit instances
  /// laid out contiguously in FuType order. Expects the counts to fit.
  static AllocationVector place(const FuCounts& counts, unsigned num_slots);

  unsigned num_slots() const {
    return static_cast<unsigned>(codes_.size());
  }

  std::uint8_t code(unsigned slot) const {
    STEERSIM_EXPECTS(slot < num_slots());
    return codes_[slot];
  }
  void set_code(unsigned slot, std::uint8_t code);

  /// Writes a whole unit region (head code + continuations).
  void write_region(const SlotRegion& region);
  /// Clears a span of slots to empty.
  void clear_span(unsigned base, unsigned len);

  /// Unit instances currently present (head slots with valid type codes,
  /// extended over their continuation slots).
  FixedVector<SlotRegion, kMaxRfuSlots> regions() const;

  /// Slots regions() covers (the sum of its lengths), counted without
  /// building the list.
  unsigned region_slots() const;

  /// Per-type count of complete unit instances.
  FuCounts counts() const;

  /// Slots whose codes differ from `other` (the XOR difference of Sec. 3.2).
  SlotMask diff(const AllocationVector& other) const;

  /// e.g. "ALU ALU MDU > LSU . . ." ('>' = continuation, '.' = empty).
  std::string to_string() const;

  friend bool operator==(const AllocationVector&, const AllocationVector&) =
      default;

 private:
  FixedVector<std::uint8_t, kMaxRfuSlots> codes_;
};

}  // namespace steersim
