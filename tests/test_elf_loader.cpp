// ELF32 loader tests: well-formed round trips through ElfBuilder, every
// malformed-input family mapped to its typed ElfError kind (truncation,
// bad magic, unsupported class/endian/type/machine, broken layout), and
// the committed tests/fixtures/*.elf images verified byte-identical to
// freshly encoded ones so the checked-in binaries cannot rot.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "frontend/elf_loader.hpp"
#include "isa/rv32.hpp"
#include "workload/rv32_fixtures.hpp"

namespace steersim {
namespace {

namespace rv = rv32;
using elf::ElfBuilder;
using elf::ElfError;
using elf::ElfFile;

std::vector<std::uint8_t> int_fixture_image() {
  return rv32_fixture_elf(rv32_fixture_by_name("rv32_int"));
}

/// Parses and reports the typed kind; fails the test when no ElfError is
/// raised (malformed input must never be undefined behaviour).
ElfError::Kind parse_error(const std::vector<std::uint8_t>& image) {
  try {
    (void)elf::parse_elf32(image);
  } catch (const ElfError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "parse_elf32 did not throw";
  return ElfError::Kind::kTruncated;
}

ElfError::Kind load_error(const std::vector<std::uint8_t>& image) {
  try {
    (void)elf::load_elf_program(image, "bad");
  } catch (const ElfError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "load_elf_program did not throw";
  return ElfError::Kind::kTruncated;
}

TEST(ElfLoader, ParsesTheBuilderRoundTrip) {
  const std::vector<std::uint32_t> words = {rv::addi(1, 0, 7), rv::ecall()};
  const std::vector<std::uint8_t> image = ElfBuilder()
                                              .entry(0x1000)
                                              .text(0x1000, words)
                                              .segment(0, {1, 2, 3}, false,
                                                       /*memsz_extra=*/5)
                                              .build();
  const ElfFile file = elf::parse_elf32(image);
  EXPECT_EQ(file.entry, 0x1000u);
  ASSERT_EQ(file.segments.size(), 2u);
  EXPECT_TRUE(file.segments[0].executable);
  EXPECT_EQ(file.segments[0].vaddr, 0x1000u);
  EXPECT_EQ(file.segments[0].bytes.size(), words.size() * 4);
  EXPECT_FALSE(file.segments[1].executable);
  // BSS: p_memsz beyond p_filesz arrives zero-filled.
  ASSERT_EQ(file.segments[1].bytes.size(), 8u);
  EXPECT_EQ(file.segments[1].bytes[2], 3u);
  EXPECT_EQ(file.segments[1].bytes[7], 0u);
}

TEST(ElfLoader, FixtureImagesParseToTheirDeclaredShape) {
  const ElfFile plain = elf::parse_elf32(int_fixture_image());
  EXPECT_EQ(plain.entry, 0x1000u);
  ASSERT_EQ(plain.segments.size(), 1u);
  EXPECT_TRUE(plain.segments[0].executable);

  const Rv32Fixture& fp = rv32_fixture_by_name("rv32_fp");
  const ElfFile with_data = elf::parse_elf32(rv32_fixture_elf(fp));
  EXPECT_EQ(with_data.entry, 0x2000u);
  ASSERT_EQ(with_data.segments.size(), 2u);
  EXPECT_EQ(with_data.segments[1].bytes.size(), fp.data.size());
}

TEST(ElfLoader, LoadedProgramMatchesTheDirectFixturePath) {
  // Round-tripping a fixture through its ELF image must land on the same
  // Program the in-process path builds (the service digest relies on the
  // image alone describing the job).
  for (const Rv32Fixture& fx : rv32_fixture_library()) {
    const Program direct = rv32_fixture_program(fx);
    const Program loaded =
        elf::load_elf_program(rv32_fixture_elf(fx), fx.name);
    EXPECT_EQ(loaded.code, direct.code) << fx.name;
    EXPECT_EQ(loaded.data, direct.data) << fx.name;
    EXPECT_EQ(loaded.code_labels, direct.code_labels) << fx.name;
  }
}

TEST(ElfLoader, CommittedFixtureBytesMatchFreshlyEncodedOnes) {
  // tests/fixtures/*.elf are committed binaries; tools/make_fixtures
  // writes them from the same arrays this test encodes, so any drift
  // between code and committed bytes fails here (and in the CI
  // self-check) instead of silently shipping a stale binary.
  for (const Rv32Fixture& fx : rv32_fixture_library()) {
    const std::string path = std::string(STEERSIM_SOURCE_DIR) +
                             "/tests/fixtures/" + fx.name + ".elf";
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file) << "missing committed fixture " << path
                      << " (regenerate with tools/make_fixtures)";
    const std::vector<std::uint8_t> committed(
        (std::istreambuf_iterator<char>(file)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(committed, rv32_fixture_elf(fx))
        << fx.name << " is stale (regenerate with tools/make_fixtures)";
  }
}

TEST(ElfErrors, TruncationIsAlwaysTyped) {
  const std::vector<std::uint8_t> image = int_fixture_image();

  std::vector<std::uint8_t> empty;
  EXPECT_EQ(parse_error(empty), ElfError::Kind::kTruncated);

  std::vector<std::uint8_t> header_cut(image.begin(), image.begin() + 20);
  EXPECT_EQ(parse_error(header_cut), ElfError::Kind::kTruncated);

  std::vector<std::uint8_t> phdr_cut(image.begin(), image.begin() + 60);
  EXPECT_EQ(parse_error(phdr_cut), ElfError::Kind::kTruncated);

  std::vector<std::uint8_t> payload_cut(image.begin(), image.end() - 1);
  EXPECT_EQ(parse_error(payload_cut), ElfError::Kind::kTruncated);
}

TEST(ElfErrors, NonElfAndNonRv32ImagesAreTyped) {
  std::vector<std::uint8_t> bad_magic = int_fixture_image();
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(parse_error(bad_magic), ElfError::Kind::kBadMagic);

  std::vector<std::uint8_t> elf64 = int_fixture_image();
  elf64[4] = 2;  // EI_CLASS = ELFCLASS64
  EXPECT_EQ(parse_error(elf64), ElfError::Kind::kUnsupported);

  std::vector<std::uint8_t> big_endian = int_fixture_image();
  big_endian[5] = 2;  // EI_DATA = ELFDATA2MSB
  EXPECT_EQ(parse_error(big_endian), ElfError::Kind::kUnsupported);

  std::vector<std::uint8_t> dyn = int_fixture_image();
  dyn[16] = 3;  // e_type = ET_DYN
  EXPECT_EQ(parse_error(dyn), ElfError::Kind::kUnsupported);

  std::vector<std::uint8_t> x86 = int_fixture_image();
  x86[18] = 0x3e;  // e_machine = EM_X86_64
  EXPECT_EQ(parse_error(x86), ElfError::Kind::kUnsupported);
}

TEST(ElfErrors, BrokenSegmentLayoutsAreTyped) {
  const std::vector<std::uint32_t> words = {rv::ecall()};

  // Overlapping PT_LOAD segments.
  const auto overlapping = ElfBuilder()
                               .entry(0x1000)
                               .text(0x1000, words)
                               .segment(0, {1, 2, 3, 4}, false)
                               .segment(2, {5, 6}, false)
                               .build();
  EXPECT_EQ(parse_error(overlapping), ElfError::Kind::kBadLayout);

  // No executable segment at all.
  const auto data_only =
      ElfBuilder().entry(0).segment(0, {1, 2, 3, 4}, false).build();
  EXPECT_EQ(load_error(data_only), ElfError::Kind::kBadLayout);

  // Two executable segments: which one is .text would be ambiguous.
  const auto two_text = ElfBuilder()
                            .entry(0x1000)
                            .text(0x1000, words)
                            .text(0x2000, words)
                            .build();
  EXPECT_EQ(load_error(two_text), ElfError::Kind::kBadLayout);

  // Misaligned text segment address.
  const auto misaligned =
      ElfBuilder().entry(0x1002).segment(0x1002, {0x73, 0, 0, 0}, true)
          .build();
  EXPECT_EQ(load_error(misaligned), ElfError::Kind::kBadLayout);

  // A data segment whose end exceeds the 16 MiB flat-image ceiling.
  const auto huge = ElfBuilder()
                        .entry(0x1000)
                        .text(0x1000, words)
                        .segment(static_cast<std::uint32_t>(
                                     kMaxDataImageBytes),
                                 {1}, false)
                        .build();
  EXPECT_EQ(load_error(huge), ElfError::Kind::kBadLayout);
}

TEST(ElfErrors, EntryOutsideTextIsARv32TargetError) {
  // The loader hands the entry to the translator, which rejects a target
  // outside .text with a typed Rv32Error rather than reading off the end.
  const auto image = ElfBuilder()
                         .entry(0x2000)
                         .text(0x1000, std::vector<std::uint32_t>{
                                           rv::ecall()})
                         .build();
  EXPECT_THROW((void)elf::load_elf_program(image, "bad"), rv::Rv32Error);
}

}  // namespace
}  // namespace steersim
