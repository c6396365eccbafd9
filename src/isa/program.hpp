// A loadable program: code image plus initial data-memory image.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hpp"

namespace steersim {

/// Ceiling on a program's initial data image (16 MiB), enforced where an
/// image is built from untrusted input (the assembler's data directives,
/// the ELF loader's segments) so a hostile size cannot demand gigabytes.
inline constexpr std::uint64_t kMaxDataImageBytes = 16ull << 20;

struct Program {
  std::string name;
  std::vector<Instruction> code;
  /// Initial data memory image in 64-bit words, loaded at byte address 0.
  std::vector<std::int64_t> data;
  /// Code labels -> instruction index (debugging / test hooks).
  std::map<std::string, std::uint32_t> code_labels;
  /// Data labels -> byte address.
  std::map<std::string, std::uint64_t> data_labels;

  /// Byte size of the initial data image.
  std::uint64_t data_bytes() const { return data.size() * 8; }

  friend bool operator==(const Program&, const Program&) = default;
};

}  // namespace steersim
