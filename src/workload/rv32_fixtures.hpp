// Committed RV32 fixture programs: hand-encoded machine-word arrays built
// from the isa/rv32.hpp encoders, so CI exercises the ELF path without a
// cross-toolchain. Three workloads cover the paper's phase axes:
//
//   rv32_int    — integer loop with a jal/jalr leaf call (IntAlu + IntMdu)
//   rv32_fp     — FP reduction over a data segment of doubles (Lsu + FpAlu
//                 + FpMdu)
//   rv32_phases — alternating integer and FP phases with a non-leading
//                 entry point (exercises the translator's entry stub)
//
// Each fixture carries architectural checks (address -> expected value
// computed by a C++ mirror of the program), so tests verify the decoder,
// translator, loader and machine agree end to end. The committed
// tests/fixtures/*.elf bytes are produced by tools/make_fixtures from
// exactly these arrays; the encoder self-test diffs committed bytes
// against freshly built ones so they cannot rot silently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hpp"

namespace steersim {

/// One architectural postcondition: the 64-bit cell at `addr` must hold
/// the expected integer (or binary64 bit pattern when `is_fp`).
struct Rv32Check {
  std::uint64_t addr = 0;
  bool is_fp = false;
  std::int64_t int_value = 0;
  double fp_value = 0.0;
};

struct Rv32Fixture {
  std::string name;
  std::string description;
  std::uint32_t text_base = 0;
  std::uint32_t entry = 0;
  std::vector<std::uint32_t> text;
  /// Optional initial data segment (empty => none).
  std::uint32_t data_vaddr = 0;
  std::vector<std::uint8_t> data;
  std::vector<Rv32Check> checks;
  /// rv32_fixture_elf()'s image, built once with the library (empty on
  /// a fixture built elsewhere).
  std::vector<std::uint8_t> elf;
};

/// All committed fixtures, built once per process.
const std::vector<Rv32Fixture>& rv32_fixture_library();

/// Lookup by name; fails a contract check if absent (use find variant for
/// user input).
const Rv32Fixture& rv32_fixture_by_name(const std::string& name);

/// Lookup by name; nullptr when absent.
const Rv32Fixture* rv32_fixture_find(const std::string& name);

/// The fixture as a deterministic ELF32 image (what make_fixtures writes
/// to tests/fixtures/<name>.elf).
std::vector<std::uint8_t> rv32_fixture_elf(const Rv32Fixture& fixture);

/// The fixture loaded and translated into a runnable Program.
Program rv32_fixture_program(const Rv32Fixture& fixture);

}  // namespace steersim
