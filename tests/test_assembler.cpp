// Assembler tests: syntax, labels, data directives, pseudo-instructions,
// error reporting, and agreement with the reference assembler
// (tests/assembler_ref.hpp) on every source the project assembles and on
// a seeded mutation corpus.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "assembler_ref.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "steerbench_specs.hpp"
#include "workload/kernels.hpp"
#include "workload/synthetic.hpp"

namespace steersim {
namespace {

TEST(Assembler, MinimalProgram) {
  const Program p = assemble("  addi r1, r0, 5\n  halt\n");
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[0], make_ri(Opcode::kAddi, 1, 0, 5));
  EXPECT_EQ(p.code[1].op, Opcode::kHalt);
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = assemble(R"(
# full-line comment
  addi r1, r0, 1   # trailing comment
  ; semicolon comment
  halt ; done
)");
  EXPECT_EQ(p.code.size(), 2u);
}

TEST(Assembler, BackwardAndForwardBranchLabels) {
  const Program p = assemble(R"(
start:
  addi r1, r0, 3
loop:
  addi r1, r1, -1
  bne r1, r0, loop
  beq r0, r0, end
  addi r2, r0, 99
end:
  halt
)");
  ASSERT_EQ(p.code.size(), 6u);
  EXPECT_EQ(p.code[2].op, Opcode::kBne);
  EXPECT_EQ(p.code[2].imm, -1);  // back to 'loop' at pc 1 from pc 2
  EXPECT_EQ(p.code[3].op, Opcode::kBeq);
  EXPECT_EQ(p.code[3].imm, 2);  // forward to 'end' at pc 5 from pc 3
  EXPECT_EQ(p.code_labels.at("loop"), 1u);
  EXPECT_EQ(p.code_labels.at("end"), 5u);
}

TEST(Assembler, DataSectionWordsDoublesSpace) {
  const Program p = assemble(R"(
.data
a: .word 1 -2 0x10
b: .double 1.5
c: .space 3
.text
  halt
)");
  ASSERT_EQ(p.data.size(), 7u);
  EXPECT_EQ(p.data[0], 1);
  EXPECT_EQ(p.data[1], -2);
  EXPECT_EQ(p.data[2], 16);
  EXPECT_EQ(p.data[4], 0);
  EXPECT_EQ(p.data_labels.at("a"), 0u);
  EXPECT_EQ(p.data_labels.at("b"), 24u);
  EXPECT_EQ(p.data_labels.at("c"), 32u);
}

TEST(Assembler, LoadStoreOperandSyntax) {
  const Program p = assemble(R"(
  lw r1, 8(r2)
  sw r3, -16(r4)
  flw f1, 0(r5)
  fsw f2, 24(r6)
  lb r7, 3(r8)
  halt
)");
  EXPECT_EQ(p.code[0], make_ri(Opcode::kLw, 1, 2, 8));
  EXPECT_EQ(p.code[1], make_store(Opcode::kSw, 3, 4, -16));
  EXPECT_EQ(p.code[2], make_ri(Opcode::kFlw, 1, 5, 0));
  EXPECT_EQ(p.code[3], make_store(Opcode::kFsw, 2, 6, 24));
  EXPECT_EQ(p.code[4], make_ri(Opcode::kLb, 7, 8, 3));
}

TEST(Assembler, PseudoLiSmallAndLarge) {
  const Program small = assemble("  li r1, 100\n  halt\n");
  ASSERT_EQ(small.code.size(), 2u);
  EXPECT_EQ(small.code[0], make_ri(Opcode::kAddi, 1, 0, 100));

  const Program large = assemble("  li r1, 1000000\n  halt\n");
  ASSERT_EQ(large.code.size(), 3u);
  EXPECT_EQ(large.code[0].op, Opcode::kLui);
  EXPECT_EQ(large.code[1].op, Opcode::kOri);
  // (hi << 14) | lo == 1000000
  const std::int64_t reconstructed =
      (static_cast<std::int64_t>(large.code[0].imm) << 14) |
      large.code[1].imm;
  EXPECT_EQ(reconstructed, 1000000);

  const Program negative = assemble("  li r1, -100000\n  halt\n");
  ASSERT_EQ(negative.code.size(), 3u);
  const std::int64_t neg =
      (static_cast<std::int64_t>(negative.code[0].imm) << 14) |
      negative.code[1].imm;
  EXPECT_EQ(neg, -100000);
}

TEST(Assembler, PseudoLaMvCallRet) {
  const Program p = assemble(R"(
.data
  buf: .space 4
  tag: .word 7
.text
  la r1, tag
  mv r2, r1
  call fn
  halt
fn:
  ret
)");
  // la resolves to the byte address of 'tag' (4 words of buf = 32 bytes).
  EXPECT_EQ(p.code[0], make_ri(Opcode::kAddi, 1, 0, 32));
  EXPECT_EQ(p.code[1], make_rr(Opcode::kAdd, 2, 1, 0));
  EXPECT_EQ(p.code[2].op, Opcode::kJal);
  EXPECT_EQ(p.code[2].rd, kLinkReg);
  EXPECT_EQ(p.code[4].op, Opcode::kJr);
  EXPECT_EQ(p.code[4].rs1, kLinkReg);
}

TEST(Assembler, RegisterAliases) {
  const Program p = assemble("  add r1, zero, ra\n  mv sp, r1\n  halt\n");
  EXPECT_EQ(p.code[0], make_rr(Opcode::kAdd, 1, 0, 31));
  EXPECT_EQ(p.code[1], make_rr(Opcode::kAdd, 30, 1, 0));
}

TEST(Assembler, JalWithExplicitLinkRegister) {
  const Program p = assemble(R"(
  jal r5, target
target:
  halt
)");
  EXPECT_EQ(p.code[0].rd, 5);
  EXPECT_EQ(p.code[0].imm, 1);
}

TEST(AssemblerErrors, ReportLineNumbers) {
  try {
    assemble("  addi r1, r0, 1\n  bogus r1\n");
    FAIL() << "expected AssemblyError";
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(AssemblerErrors, UnknownLabel) {
  EXPECT_THROW(assemble("  beq r0, r0, nowhere\n  halt\n"), AssemblyError);
}

TEST(AssemblerErrors, DuplicateLabel) {
  EXPECT_THROW(assemble("x:\n  nop\nx:\n  halt\n"), AssemblyError);
}

TEST(AssemblerErrors, BadRegisterClass) {
  EXPECT_THROW(assemble("  fadd f1, r2, f3\n  halt\n"), AssemblyError);
  EXPECT_THROW(assemble("  add r1, f2, r3\n  halt\n"), AssemblyError);
}

TEST(AssemblerErrors, ImmediateRange) {
  EXPECT_THROW(assemble("  addi r1, r0, 999999\n"), AssemblyError);
  EXPECT_NO_THROW(assemble("  addi r1, r0, 16383\n  halt\n"));
}

TEST(AssemblerErrors, WrongOperandCount) {
  EXPECT_THROW(assemble("  add r1, r2\n"), AssemblyError);
  EXPECT_THROW(assemble("  halt r1\n"), AssemblyError);
}

TEST(Assembler, NumericBranchOffsets) {
  const Program p = assemble("  beq r0, r0, 2\n  nop\n  halt\n");
  EXPECT_EQ(p.code[0].imm, 2);
}

TEST(AssemblerErrors, NegativeSpace) {
  EXPECT_THROW(assemble(".data\nbuf: .space -1\n.text\n  halt\n"),
               AssemblyError);
}

TEST(AssemblerErrors, DataDirectiveNeedsOperandCount) {
  EXPECT_THROW(assemble(".data\n  .space\n.text\n  halt\n"), AssemblyError);
  EXPECT_THROW(assemble(".data\n  .bogus 1\n.text\n  halt\n"),
               AssemblyError);
}

TEST(AssemblerErrors, LiOutOfRange) {
  // |value| beyond 29 bits cannot be materialized by lui+ori.
  EXPECT_THROW(assemble("  li r1, 999999999999\n  halt\n"), AssemblyError);
}

TEST(AssemblerErrors, MalformedMemOperand) {
  EXPECT_THROW(assemble("  lw r1, r2\n  halt\n"), AssemblyError);
  EXPECT_THROW(assemble("  lw r1, 8(r2\n  halt\n"), AssemblyError);
  EXPECT_THROW(assemble("  lw r1, 99999(r2)\n  halt\n"), AssemblyError);
}

TEST(AssemblerErrors, RegisterIndexOutOfRange) {
  EXPECT_THROW(assemble("  add r1, r32, r2\n  halt\n"), AssemblyError);
  EXPECT_THROW(assemble("  fadd f1, f99, f2\n  halt\n"), AssemblyError);
}

TEST(Assembler, DataLabelOnItsOwnLine) {
  const Program p = assemble(R"(
.data
standalone:
  .word 42
.text
  halt
)");
  EXPECT_EQ(p.data_labels.at("standalone"), 0u);
  EXPECT_EQ(p.data[0], 42);
}

TEST(Assembler, LabelsOnSameLineAsInstruction) {
  const Program p = assemble("top:  addi r1, r0, 1\n  j top\n");
  EXPECT_EQ(p.code_labels.at("top"), 0u);
  EXPECT_EQ(p.code[1].imm, -1);
}

TEST(Assembler, HexAndNegativeImmediates) {
  const Program p = assemble("  addi r1, r0, 0x7f\n  addi r2, r0, -0x10\n"
                             "  halt\n");
  EXPECT_EQ(p.code[0].imm, 127);
  EXPECT_EQ(p.code[1].imm, -16);
}

TEST(Assembler, DoubleDirectiveBitPattern) {
  const Program p = assemble(".data\nd: .double 1.0\n.text\n  halt\n");
  EXPECT_EQ(p.data[0], 0x3ff0000000000000LL);
}

/// Asserts that assembling `source` fails with an error locating the
/// problem at exactly `expected_line` and mentioning `needle` — a bad line
/// must never crash, be skipped silently, or be blamed on another line.
void expect_error_at_line(const std::string& source, int expected_line,
                          const std::string& needle) {
  try {
    assemble(source);
    FAIL() << "expected AssemblyError for:\n" << source;
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), expected_line) << e.what();
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(expected_line)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(AssemblerErrors, MalformedOpcodeNamesItsSourceLine) {
  expect_error_at_line("  addi r1, r0, 1\n  nop\n  frobnicate r1, r2\n"
                       "  halt\n",
                       3, "frobnicate");
}

TEST(AssemblerErrors, OutOfRangeRegisterNamesItsSourceLine) {
  expect_error_at_line("# leading comment\n  nop\n\n  add r1, r32, r2\n"
                       "  halt\n",
                       4, "r32");
  expect_error_at_line("  fadd f1, f2, f40\n  halt\n", 1, "f40");
}

TEST(AssemblerErrors, BadImmediateNamesItsSourceLine) {
  // Non-numeric immediate (not a known label either).
  expect_error_at_line("  nop\n  addi r1, r0, banana\n  halt\n", 2,
                       "banana");
  // Out-of-range immediate.
  expect_error_at_line("  nop\n  nop\n  addi r1, r0, 999999\n  halt\n", 3,
                       "999999");
}


TEST(AssemblerErrors, DataImagePastTheCeilingNamesItsLine) {
  // Refused before anything is allocated: 10^12 words would be 8 TB.
  expect_error_at_line(".data\nbig: .space 1000000000000\n.text\n  halt\n", 2,
                       "16777216-byte ceiling");
  // One word past 16 MiB, whichever directive gets there.
  expect_error_at_line(".data\n  .space 2097152\n  .word 1\n.text\n  halt\n",
                       3, "16777216-byte ceiling");
  const Program full = assemble(".data\n  .space 2097152\n.text\n  halt\n");
  EXPECT_EQ(full.data_bytes(), kMaxDataImageBytes);
}

// ---------------------------------------------------------------------------
// Agreement with the reference assembler.

/// What assembling one source gives: a Program, or an error's line and
/// message.
struct Outcome {
  std::optional<Program> program;
  int line = 0;
  std::string what;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

template <typename AssembleFn>
Outcome outcome_of(AssembleFn assemble_fn, std::string_view source) {
  Outcome out;
  try {
    out.program = assemble_fn(source, "src");
  } catch (const AssemblyError& e) {
    out.line = e.line();
    out.what = e.what();
  }
  return out;
}

bool past_the_ceiling(const Outcome& outcome) {
  return outcome.what.find("-byte ceiling") != std::string::npos;
}

/// Assembles `source` with both assemblers and expects the same Program or
/// the same error; returns whether it assembled. The one intended
/// difference, a data image past kMaxDataImageBytes, is never handed to
/// the reference (it would try to allocate it): nullopt.
std::optional<bool> expect_agreement(std::string_view source,
                                     const std::string& label) {
  const Outcome got = outcome_of(
      [](std::string_view text, std::string name) {
        return assemble(text, std::move(name));
      },
      source);
  if (past_the_ceiling(got)) {
    return std::nullopt;
  }
  const Outcome want = outcome_of(
      [](std::string_view text, std::string name) {
        return ref::assemble(text, std::move(name));
      },
      source);
  EXPECT_TRUE(got == want) << label << "\n--- source:\n"
                           << source << "\n--- assemble: "
                           << (got.program ? "ok" : got.what)
                           << "\n--- reference: "
                           << (want.program ? "ok" : want.what);
  return got.program.has_value();
}

TEST(AssemblerReference, LibraryKernelsAssembleAlike) {
  for (const Kernel& kernel : kernel_library()) {
    EXPECT_EQ(expect_agreement(kernel.source, kernel.name), true);
    EXPECT_EQ(assemble(kernel.source, kernel.name),
              ref::assemble(kernel.source, kernel.name));
  }
}

TEST(AssemblerReference, SteerbenchProgramsAssembleAlike) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const SyntheticSpec& spec : steerbench_specs::all(seed)) {
      const std::string source = generate_synthetic_asm(spec);
      EXPECT_EQ(expect_agreement(source, spec.name + " seed " +
                                             std::to_string(seed)),
                true);
    }
  }
}

/// Every string literal in C++ source `code`, adjacent literals
/// concatenated and escapes decoded; raw strings included. Enough of the
/// lexical grammar for this repository's tests and examples: comments,
/// character literals and digit separators are skipped.
std::vector<std::string> string_literals(std::string_view code) {
  std::vector<std::string> out;
  std::size_t i = 0;
  const auto skip_space_and_comments = [&] {
    while (i < code.size()) {
      if (code.substr(i, 2) == "//") {
        i = code.find('\n', i);
        i = i == std::string_view::npos ? code.size() : i;
      } else if (code.substr(i, 2) == "/*") {
        i = code.find("*/", i + 2);
        i = i == std::string_view::npos ? code.size() : i + 2;
      } else if (code[i] == ' ' || code[i] == '\n' || code[i] == '\t' ||
                 code[i] == '\r') {
        ++i;
      } else {
        return;
      }
    }
  };
  // Reads one literal starting at code[i] ('"' or 'R"'); appends its text.
  const auto read_literal = [&](std::string& text) {
    if (code[i] == 'R') {
      const std::size_t open = code.find('(', i + 2);
      const std::string close =
          ")" + std::string(code.substr(i + 2, open - i - 2)) + "\"";
      const std::size_t end = code.find(close, open + 1);
      text += code.substr(open + 1, end - open - 1);
      i = end + close.size();
      return;
    }
    for (++i; i < code.size() && code[i] != '"'; ++i) {
      if (code[i] != '\\') {
        text += code[i];
        continue;
      }
      const char c = code[++i];
      switch (c) {
        case 'n': text += '\n'; break;
        case 't': text += '\t'; break;
        case 'r': text += '\r'; break;
        case 'v': text += '\v'; break;
        case 'f': text += '\f'; break;
        case 'a': text += '\a'; break;
        case 'b': text += '\b'; break;
        case 'x': {
          std::size_t end = i + 1;
          while (end < code.size() && std::isxdigit(static_cast<unsigned char>(
                                          code[end])) != 0) {
            ++end;
          }
          text += static_cast<char>(
              std::stoi(std::string(code.substr(i + 1, end - i - 1)), nullptr,
                        16));
          i = end - 1;
          break;
        }
        default:
          if (c >= '0' && c <= '7') {
            std::size_t end = i;
            while (end < code.size() && end < i + 3 && code[end] >= '0' &&
                   code[end] <= '7') {
              ++end;
            }
            text += static_cast<char>(
                std::stoi(std::string(code.substr(i, end - i)), nullptr, 8));
            i = end - 1;
          } else {
            text += c;  // \\ \" \' \?
          }
      }
    }
    ++i;  // closing quote
  };
  const auto starts_literal = [&] {
    const bool boundary =
        i == 0 ||
        (std::isalnum(static_cast<unsigned char>(code[i - 1])) == 0 &&
         code[i - 1] != '_');
    return code[i] == '"' || (boundary && code.substr(i, 2) == "R\"");
  };
  while (i < code.size()) {
    if (code.substr(i, 2) == "//" || code.substr(i, 2) == "/*") {
      skip_space_and_comments();
    } else if (code[i] == '\'') {
      if (i > 0 &&
          std::isxdigit(static_cast<unsigned char>(code[i - 1])) != 0) {
        ++i;  // digit separator, as in 1'000'000
        continue;
      }
      for (++i; i < code.size() && code[i] != '\''; ++i) {
        i += code[i] == '\\' ? 1u : 0u;
      }
      ++i;
    } else if (starts_literal()) {
      std::string text;
      while (i < code.size() && starts_literal()) {
        read_literal(text);
        skip_space_and_comments();
      }
      out.push_back(std::move(text));
    } else {
      ++i;
    }
  }
  return out;
}

TEST(AssemblerReference, LiteralScannerReadsTheForms) {
  const auto literals = string_literals(
      "f(\"a\\n\" \"b\\x41\\101\"); // \"not\" one\n"
      "g(R\"(x \"y\")\", 1'000, 'q', '\\'', R\"d(\")\")d\" /* \"no\" */);\n");
  ASSERT_EQ(literals.size(), 3u);
  EXPECT_EQ(literals[0], "a\nbAA");
  EXPECT_EQ(literals[1], "x \"y\"");
  EXPECT_EQ(literals[2], "\")\"");
}

/// Every string literal under tests/ and examples/: each source those
/// files hand to assemble() (the few they build at run time are spliced
/// from literals, which are assembled one by one), plus every other
/// string, which both assemblers must reject alike.
TEST(AssemblerReference, TestAndExampleSourcesAssembleAlike) {
  namespace fs = std::filesystem;
  std::size_t files = 0;
  std::size_t programs = 0;
  for (const char* dir : {"tests", "examples"}) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(STEERSIM_SOURCE_DIR) / dir)) {
      const fs::path& path = entry.path();
      if (path.extension() != ".cpp" && path.extension() != ".hpp") {
        continue;
      }
      std::ifstream in(path);
      std::stringstream code;
      code << in.rdbuf();
      ++files;
      for (const std::string& literal : string_literals(code.str())) {
        if (expect_agreement(literal, path.filename().string()) == true) {
          ++programs;
        }
      }
    }
  }
  EXPECT_GE(files, 40u);
  // The programs of test_processor, test_reference, test_ilp_bound,
  // test_frontend, test_rv32, the examples and this file, at least.
  EXPECT_GE(programs, 60u);
}

TEST(AssemblerReference, IntegerSpellingsParseLikeStoll) {
  // std::stoll base 0 on the whole token: whitespace it skips, signs,
  // prefixes, octal, and both ends of int64.
  for (const char* tok :
       {"0", "-0", "+7", "++7", "-+7", "+-7", "007", "08", "0777", "0x",
        "0x1F", "0X1f", "-0x10", "0x-1", "0b101", "1e3", "12abc", "\r5",
        "\v-5", "\f+5", "-\r5", "5\r", "9223372036854775807",
        "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "0x7fffffffffffffff", "0x8000000000000000",
        "-0x8000000000000000", "18446744073709551616", "0x", "-", "+",
        "00000000000000000000000000000000000000000000000000000012"}) {
    const std::string word(tok);
    expect_agreement(".data\n  .word " + word + "\n.text\n  halt\n", word);
    expect_agreement("  addi r1, r0, " + word + "\n  halt\n", word);
    expect_agreement("  add r" + word + ", r0, r0\n  halt\n", word);
    expect_agreement("  lw r1, " + word + "(r2)\n  halt\n", word);
    expect_agreement("  beq r0, r0, " + word + "\n  halt\n", word);
  }
}

/// A seeded text mutation of `source`: token deletion, duplication or
/// swap within a line, a register or immediate rewrite, or one flipped
/// bit. No mutant grows a .space past a few thousand words, so none
/// reaches the 16 MiB data ceiling that only the new assembler enforces.
std::string mutate(const std::string& source, Xoshiro256& rng) {
  std::vector<std::string> lines;
  {
    std::size_t start = 0;
    while (true) {
      const std::size_t end = source.find('\n', start);
      lines.push_back(source.substr(start, end - start));
      if (end == std::string::npos) {
        break;
      }
      start = end + 1;
    }
  }
  const auto join = [&lines] {
    std::string out;
    for (std::size_t k = 0; k < lines.size(); ++k) {
      out += lines[k];
      if (k + 1 < lines.size()) {
        out += '\n';
      }
    }
    return out;
  };
  // Tokens of one line as [begin, end) spans, split like the assembler.
  const auto spans_of = [](const std::string& line) {
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() &&
             (line[i] == ' ' || line[i] == '\t' || line[i] == ',')) {
        ++i;
      }
      const std::size_t begin = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
             line[i] != ',') {
        ++i;
      }
      if (i > begin) {
        spans.emplace_back(begin, i);
      }
    }
    return spans;
  };
  static constexpr std::array<const char*, 17> kRegisters = {
      "r0", "r31", "r32", "r-1", "r", "f0", "f31", "f32", "zero",
      "sp", "ra",  "x1",  "r1x", "r0x1f", "r010", "f7", "r+3"};
  static constexpr std::array<const char*, 20> kImmediates = {
      "0",     "-1",    "1",      "16383",  "16384",  "-16384",
      "-16385", "0x7fff", "0x",    "08",     "0777",   "99999999999",
      "-9223372036854775808", "9223372036854775808", "1e3", "+5", "12abc",
      "\r5",   "loop",  "-0"};
  static constexpr std::array<const char*, 6> kSmallCounts = {
      "0", "-1", "3", "0x10", "010", "4096"};

  const std::size_t kind = rng.next_below(6);
  if (kind == 5) {  // flip one bit of one byte
    std::string out = source;
    const std::size_t at = rng.next_below(out.size());
    out[at] = static_cast<char>(out[at] ^ (1 << rng.next_below(8)));
    return out;
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::string& line = lines[rng.next_below(lines.size())];
    const auto spans = spans_of(line);
    if (spans.empty()) {
      continue;
    }
    const auto [b, e] = spans[rng.next_below(spans.size())];
    const std::string tok = line.substr(b, e - b);
    const bool space_line = line.find(".space") != std::string::npos;
    switch (kind) {
      case 0:  // delete
        line.erase(b, e - b);
        return join();
      case 1:  // duplicate
        line.insert(e, " " + tok);
        return join();
      case 2: {  // swap with another token of the line
        if (spans.size() < 2) {
          continue;
        }
        const auto [b2, e2] = spans[rng.next_below(spans.size())];
        if (b2 == b) {
          continue;
        }
        const std::string other = line.substr(b2, e2 - b2);
        if (b2 > b) {
          line.replace(b2, e2 - b2, tok);
          line.replace(b, e - b, other);
        } else {
          line.replace(b, e - b, other);
          line.replace(b2, e2 - b2, tok);
        }
        return join();
      }
      case 3: {  // register edit
        const char lead = tok[0];
        if (!((lead == 'r' || lead == 'f') && tok.size() > 1 &&
              std::isdigit(static_cast<unsigned char>(tok[1])) != 0) &&
            tok != "zero" && tok != "sp" && tok != "ra") {
          continue;
        }
        line.replace(b, e - b, kRegisters[rng.next_below(kRegisters.size())]);
        return join();
      }
      case 4: {  // immediate edit (a mem operand's offset included)
        const std::size_t digits = tok.find_first_of("0123456789");
        if (digits == std::string::npos || (digits > 0 && tok[0] != '-')) {
          continue;
        }
        const std::size_t open = tok.find('(');
        const std::size_t len = open == std::string::npos ? e - b : open;
        const char* value =
            space_line ? kSmallCounts[rng.next_below(kSmallCounts.size())]
                       : kImmediates[rng.next_below(kImmediates.size())];
        line.replace(b, len, value);
        return join();
      }
      default:
        break;
    }
  }
  return source;
}

/// One statement per opcode (its disassembly, so every format and
/// register-class mix appears), plus every pseudo-instruction, data
/// directive and label form: the kernels use few of the FP compares and
/// conversions, whose mixed register classes decide which of two bad
/// operands is reported.
std::string every_form_source() {
  std::string out =
      ".data\nvals: .word 1 -2 0x10\ndbl: .double 1.5 -0.25\n"
      "buf: .space 4\n.text\ntop:\n  li r1, 12345\n  la r2, vals\n"
      "  mv r3, r1\n  call sub\n  b top\nsub: ret\n";
  for (unsigned i = 0; i < kNumOpcodes; ++i) {
    const Instruction inst{static_cast<Opcode>(i),
                           static_cast<std::uint8_t>(1 + i % 30),
                           static_cast<std::uint8_t>((7 * i) % 32),
                           static_cast<std::uint8_t>((13 * i) % 32),
                           static_cast<std::int32_t>(3 * i) - 20};
    out += "  " + disassemble(inst) + "\n";
  }
  out += "  beq r1, r2, top\n  jal r5, sub\n  halt\n";
  return out;
}

TEST(AssemblerReference, MutationCorpusAgrees) {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const Kernel& kernel : kernel_library()) {
    corpus.emplace_back(kernel.name, kernel.source);
  }
  corpus.emplace_back("every_form", every_form_source());
  ASSERT_EQ(expect_agreement(corpus.back().second, "every_form"), true);

  Xoshiro256 rng(20240601);
  std::size_t mutants = 0;
  std::size_t assembled = 0;
  std::size_t past_ceiling = 0;
  for (const auto& [name, text] : corpus) {
    const int count = name == "every_form" ? 1600 : 400;
    for (int k = 0; k < count; ++k) {
      const std::string source = mutate(text, rng);
      ++mutants;
      const std::optional<bool> ok =
          expect_agreement(source, name + " mutant " + std::to_string(k));
      past_ceiling += ok.has_value() ? 0u : 1u;
      assembled += ok == true ? 1u : 0u;
    }
  }
  EXPECT_EQ(past_ceiling, 0u) << "the corpus must stay under the ceiling";
  // Both verdicts are well represented.
  EXPECT_GT(assembled, mutants / 10);
  EXPECT_LT(assembled, mutants - mutants / 10);
}

}  // namespace
}  // namespace steersim
