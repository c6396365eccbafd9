#include "config/allocation.hpp"

#include "common/contracts.hpp"

namespace steersim {

AllocationVector::AllocationVector(unsigned num_slots) {
  STEERSIM_EXPECTS(num_slots <= kMaxRfuSlots);
  for (unsigned i = 0; i < num_slots; ++i) {
    codes_.push_back(kEncEmpty);
  }
}

AllocationVector AllocationVector::place(const FuCounts& counts,
                                         unsigned num_slots) {
  STEERSIM_EXPECTS(slots_used(counts) <= num_slots);
  AllocationVector alloc(num_slots);
  unsigned slot = 0;
  for (const FuType t : kAllFuTypes) {
    for (unsigned n = 0; n < counts[fu_index(t)]; ++n) {
      alloc.write_region(SlotRegion{t, slot, slot_cost(t)});
      slot += slot_cost(t);
    }
  }
  return alloc;
}

void AllocationVector::set_code(unsigned slot, std::uint8_t code) {
  STEERSIM_EXPECTS(slot < num_slots());
  STEERSIM_EXPECTS(code <= 0b111);
  codes_[slot] = code;
}

void AllocationVector::write_region(const SlotRegion& region) {
  STEERSIM_EXPECTS(region.len == slot_cost(region.type));
  STEERSIM_EXPECTS(region.base + region.len <= num_slots());
  set_code(region.base, encoding_of(region.type));
  for (unsigned i = 1; i < region.len; ++i) {
    set_code(region.base + i, kEncContinuation);
  }
}

void AllocationVector::clear_span(unsigned base, unsigned len) {
  STEERSIM_EXPECTS(base + len <= num_slots());
  for (unsigned i = 0; i < len; ++i) {
    set_code(base + i, kEncEmpty);
  }
}

FixedVector<SlotRegion, kMaxRfuSlots> AllocationVector::regions() const {
  FixedVector<SlotRegion, kMaxRfuSlots> out;
  unsigned slot = 0;
  while (slot < num_slots()) {
    const auto type = type_from_encoding(codes_[slot]);
    if (!type.has_value()) {
      ++slot;  // empty or orphaned continuation slot
      continue;
    }
    unsigned len = 1;
    while (slot + len < num_slots() &&
           codes_[slot + len] == kEncContinuation) {
      ++len;
    }
    // A truncated multi-slot unit (fewer continuations than its cost) can
    // only arise transiently while the loader is mid-rewrite; report the
    // region as its on-fabric footprint either way.
    out.push_back(SlotRegion{*type, slot, len});
    slot += len;
  }
  return out;
}

unsigned AllocationVector::region_slots() const {
  unsigned used = 0;
  bool in_region = false;  // the previous slot is a head or its extension
  for (const std::uint8_t code : codes_) {
    if (type_from_encoding(code).has_value()) {
      in_region = true;
    } else if (code != kEncContinuation) {
      in_region = false;
    }
    used += in_region ? 1 : 0;
  }
  return used;
}

FuCounts AllocationVector::counts() const {
  FuCounts c{};
  for (const auto& region : regions()) {
    // Only complete units are usable resources.
    if (region.len == slot_cost(region.type)) {
      ++c[fu_index(region.type)];
    }
  }
  return c;
}

SlotMask AllocationVector::diff(const AllocationVector& other) const {
  STEERSIM_EXPECTS(num_slots() == other.num_slots());
  SlotMask mask;
  for (unsigned i = 0; i < num_slots(); ++i) {
    if (codes_[i] != other.codes_[i]) {
      mask.set(i);
    }
  }
  return mask;
}

std::string AllocationVector::to_string() const {
  std::string out;
  for (unsigned i = 0; i < num_slots(); ++i) {
    if (i > 0) {
      out += ' ';
    }
    const auto type = type_from_encoding(codes_[i]);
    if (type.has_value()) {
      switch (*type) {
        case FuType::kIntAlu:
          out += "ALU";
          break;
        case FuType::kIntMdu:
          out += "MDU";
          break;
        case FuType::kLsu:
          out += "LSU";
          break;
        case FuType::kFpAlu:
          out += "FPA";
          break;
        case FuType::kFpMdu:
          out += "FPM";
          break;
      }
    } else if (codes_[i] == kEncContinuation) {
      out += ">";
    } else {
      out += ".";
    }
  }
  return out;
}

}  // namespace steersim
