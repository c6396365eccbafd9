// Minimal static ELF32 loader for the RV32 front end.
//
// Scope (DESIGN.md §RV32 front end): little-endian ELF32 ET_EXEC images
// for EM_RISCV, program headers only. No section headers, no relocations,
// no dynamic linking, no TLS. This is exactly enough to load the committed
// fixture binaries and statically linked bare-metal programs whose PT_LOAD
// segments are self-contained.
//
// Malformed input is never undefined behaviour: every header field is
// bounds-checked against the byte image and violations raise ElfError with
// a typed kind (truncated file, bad magic, unsupported feature, broken
// segment layout). The loader itself never reads past the input span.
//
// Memory model mapping:
//   * Exactly one PT_LOAD segment must be executable — that is the .text
//     image handed to rv32::translate (so code addresses live in the
//     translated index space, see isa/rv32.hpp).
//   * Non-executable PT_LOAD segments become the initial data-memory
//     image: a flat byte image from address 0 through the highest segment
//     end, packed into the 64-bit little-endian cells Program::data uses.
//     p_memsz beyond p_filesz (BSS) is zero-filled.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/program.hpp"

namespace steersim::elf {

/// Typed load failure; message always names the offending field.
class ElfError : public std::runtime_error {
 public:
  enum class Kind {
    kTruncated,    ///< a header or segment points past the end of the file
    kBadMagic,     ///< not an ELF file at all
    kUnsupported,  ///< valid ELF, but not little-endian RV32 ET_EXEC
    kBadLayout,    ///< overlapping/misaligned segments, no text, bad entry
  };

  ElfError(Kind kind, const std::string& message)
      : std::runtime_error("elf: " + message), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// One PT_LOAD segment, file bytes already zero-padded to p_memsz.
struct ElfSegment {
  std::uint32_t vaddr = 0;
  std::vector<std::uint8_t> bytes;  ///< p_memsz bytes (BSS zero-filled)
  bool executable = false;
};

/// Parsed image: the entry point plus every PT_LOAD segment.
struct ElfFile {
  std::uint32_t entry = 0;
  std::vector<ElfSegment> segments;
};

/// Parses headers and extracts PT_LOAD segments. Throws ElfError; never
/// reads outside `image`.
ElfFile parse_elf32(std::span<const std::uint8_t> image);

/// Parses, validates the segment layout (exactly one executable segment,
/// no overlaps, data below kMaxDataImageBytes) and translates the text
/// through the RV32 front end into a runnable Program named `name`.
/// Throws ElfError for image problems and rv32::Rv32Error for
/// untranslatable instructions.
Program load_elf_program(std::span<const std::uint8_t> image,
                         const std::string& name);

/// Deterministic ELF32 image builder — how the committed fixtures are
/// produced and how loader tests construct well-formed and malformed
/// variants without a cross-toolchain.
class ElfBuilder {
 public:
  ElfBuilder& entry(std::uint32_t addr) {
    entry_ = addr;
    return *this;
  }
  /// Adds a PT_LOAD segment. `memsz_extra` appends that many zero bytes
  /// of BSS beyond the file payload.
  ElfBuilder& segment(std::uint32_t vaddr, std::vector<std::uint8_t> bytes,
                      bool executable, std::uint32_t memsz_extra = 0);
  /// Convenience: a text segment from instruction words (little-endian).
  ElfBuilder& text(std::uint32_t vaddr,
                   std::span<const std::uint32_t> words);

  std::vector<std::uint8_t> build() const;

 private:
  struct Seg {
    std::uint32_t vaddr;
    std::vector<std::uint8_t> bytes;
    bool executable;
    std::uint32_t memsz_extra;
  };
  std::uint32_t entry_ = 0;
  std::vector<Seg> segments_;
};

}  // namespace steersim::elf
