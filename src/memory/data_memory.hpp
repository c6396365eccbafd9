// Byte-addressable data memory with bounds-checked 8/64-bit accesses.
//
// The paper's architecture has separate instruction and data memories
// (Harvard style, Fig. 1); this is the data side. Accesses are checked:
// an out-of-range access is a simulated-program bug and trips a contract
// check rather than corrupting the host.
//
// Storage is paged: a 4 KiB page is allocated, zeroed, on its first store,
// and a page never stored to reads as zeros. A machine's default 1 MiB
// memory thus costs nothing to build until a program touches it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace steersim {

class DataMemory {
 public:
  explicit DataMemory(std::size_t size_bytes);

  std::size_t size() const { return size_; }

  std::int64_t load_word(std::uint64_t addr) const;
  void store_word(std::uint64_t addr, std::int64_t value);
  std::int64_t load_byte(std::uint64_t addr) const;  ///< sign-extended
  void store_byte(std::uint64_t addr, std::int64_t value);

  double load_fp(std::uint64_t addr) const;
  void store_fp(std::uint64_t addr, double value);

  /// Loads an image of 64-bit words starting at byte address `base`.
  void load_image(std::span<const std::int64_t> words, std::uint64_t base = 0);

  /// Zeroes the whole memory (drops every page).
  void reset();

  /// Byte-wise equality of the contents; a missing page equals zeros.
  friend bool operator==(const DataMemory& a, const DataMemory& b);

  /// Page granularity. A multiple of 8, so no aligned word straddles two
  /// pages.
  static constexpr std::size_t kPageBytes = 4096;

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;

  /// The page holding `addr`, or nullptr if it was never stored to.
  const std::uint8_t* page_for_load(std::uint64_t addr) const;
  /// The page holding `addr`, allocated (zeroed) if it was never stored to.
  std::uint8_t* page_for_store(std::uint64_t addr);

  std::size_t size_;
  /// One entry per page of [0, size_); the last page may be partial (its
  /// storage is whole, but the bounds checks stop at size_).
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace steersim
