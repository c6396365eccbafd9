// SECDED (single-error-correct, double-error-detect) protection for slot
// configuration encodings (docs/FAULTS.md).
//
// Each slot's 3-bit configuration code is stored as an extended-Hamming
// (8,4) codeword: four data bits (the code, zero-extended), three Hamming
// parity bits, and one overall parity bit. A decoder on the configuration
// read path then classifies every read:
//
//   - clean codeword            -> pass through
//   - single flipped bit        -> corrected in place (data or parity)
//   - two flipped bits          -> detected, uncorrectable
//
// This trades per-slot storage (8 bits instead of 4) for detect-at-read:
// no readback scrubbing pass is needed to notice an upset, so detection
// latency collapses from O(scrub_interval * num_slots) to the next read.
//
// Bit layout (classic extended Hamming): codeword bit i for i in 1..7 is
// Hamming position i (parity at the power-of-two positions 1, 2, 4; data
// at 3, 5, 6, 7) and bit 0 carries even parity over the whole word.
#pragma once

#include <bit>
#include <cstdint>

namespace steersim {

enum class EccOutcome : std::uint8_t {
  kClean,          ///< codeword valid as read
  kCorrected,      ///< single-bit error corrected (data intact after fix)
  kUncorrectable,  ///< double-bit error: detected, cannot be repaired
};

struct EccDecoded {
  std::uint8_t data = 0;  ///< decoded 4-bit payload (valid unless kUncorrectable)
  EccOutcome outcome = EccOutcome::kClean;
};

/// Encodes a 4-bit payload into an 8-bit SECDED codeword.
constexpr std::uint8_t ecc_encode(std::uint8_t data) {
  const auto bits = static_cast<unsigned>(data);
  const unsigned d0 = (bits >> 0) & 1u;
  const unsigned d1 = (bits >> 1) & 1u;
  const unsigned d2 = (bits >> 2) & 1u;
  const unsigned d3 = (bits >> 3) & 1u;
  const unsigned p1 = d0 ^ d1 ^ d3;  // covers positions 3, 5, 7
  const unsigned p2 = d0 ^ d2 ^ d3;  // covers positions 3, 6, 7
  const unsigned p4 = d1 ^ d2 ^ d3;  // covers positions 5, 6, 7
  unsigned cw = (p1 << 1) | (p2 << 2) | (d0 << 3) | (p4 << 4) | (d1 << 5) |
                (d2 << 6) | (d3 << 7);
  cw |= static_cast<unsigned>(std::popcount(cw)) & 1u;  // even overall parity
  return static_cast<std::uint8_t>(cw);
}

/// Decodes an 8-bit codeword, correcting a single-bit error in place.
constexpr EccDecoded ecc_decode(std::uint8_t codeword) {
  unsigned cw = codeword;
  unsigned syndrome = 0;
  for (unsigned pos = 1; pos < 8; ++pos) {
    if ((cw >> pos) & 1u) {
      syndrome ^= pos;
    }
  }
  const bool parity_even = (std::popcount(cw) & 1) == 0;

  EccDecoded out;
  if (syndrome == 0 && parity_even) {
    out.outcome = EccOutcome::kClean;
  } else if (!parity_even) {
    // Odd overall parity: exactly one bit flipped — the Hamming syndrome
    // names it (0 means the overall-parity bit itself took the hit).
    if (syndrome != 0) {
      cw ^= 1u << syndrome;
    }
    out.outcome = EccOutcome::kCorrected;
  } else {
    // Nonzero syndrome with even parity: two bits flipped. The syndrome
    // points somewhere, but correcting would miscorrect — report instead.
    out.outcome = EccOutcome::kUncorrectable;
    return out;
  }
  out.data = static_cast<std::uint8_t>(((cw >> 3) & 1u) | (((cw >> 5) & 1u) << 1) |
                                       (((cw >> 6) & 1u) << 2) |
                                       (((cw >> 7) & 1u) << 3));
  return out;
}

}  // namespace steersim
