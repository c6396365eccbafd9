// Reference oracle for the assembler: assemble() as it was when it split
// the source into one std::string per line and each of its three passes
// (data, size, emit) re-tokenized every line into std::strings,
// preserved verbatim (test-only). tests/test_assembler.cpp checks the
// one-lex assembler against it: every kernel, every test and example
// source, the steerbench programs and a seeded mutation corpus must give
// an equal Program or the same AssemblyError line and message.
#pragma once

#include <bit>
#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "isa/assembler.hpp"

namespace steersim::ref {


inline const std::map<std::string, Opcode>& mnemonic_table() {
  static const std::map<std::string, Opcode> table = [] {
    std::map<std::string, Opcode> t;
    for (unsigned i = 0; i < kNumOpcodes; ++i) {
      const auto op = static_cast<Opcode>(i);
      t.emplace(std::string(op_info(op).mnemonic), op);
    }
    return t;
  }();
  return table;
}

struct Token {
  std::string text;
};

inline std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (c == ' ' || c == '\t' || c == ',') {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

class Assembler {
 public:
  explicit Assembler(std::string_view source, std::string name) {
    program_.name = std::move(name);
    for (const auto& raw_line : split(source, '\n')) {
      std::string_view line(raw_line);
      const auto hash = line.find_first_of("#;");
      if (hash != std::string_view::npos) {
        line = line.substr(0, hash);
      }
      lines_.emplace_back(trim(line));
    }
  }

  Program run() {
    data_pass();
    code_pass(/*emit=*/false);
    code_pass(/*emit=*/true);
    return std::move(program_);
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw AssemblyError(line_number_, message);
  }

  /// Splits off a leading "label:" if present; records it via `define`.
  template <typename DefineFn>
  std::vector<std::string> strip_label(std::vector<std::string> tokens,
                                       DefineFn define) {
    if (!tokens.empty() && tokens.front().back() == ':') {
      std::string label = tokens.front().substr(0, tokens.front().size() - 1);
      if (label.empty()) {
        fail("empty label");
      }
      define(std::move(label));
      tokens.erase(tokens.begin());
    }
    return tokens;
  }

  static bool is_directive(const std::vector<std::string>& tokens,
                           std::string_view name) {
    return !tokens.empty() && tokens.front() == name;
  }

  std::int64_t parse_int(const std::string& tok) const {
    try {
      std::size_t pos = 0;
      const std::int64_t value = std::stoll(tok, &pos, 0);
      if (pos != tok.size()) {
        fail("bad integer '" + tok + "'");
      }
      return value;
    } catch (const AssemblyError&) {
      throw;
    } catch (const std::exception&) {
      fail("bad integer '" + tok + "'");
    }
  }

  double parse_fp(const std::string& tok) const {
    try {
      std::size_t pos = 0;
      const double value = std::stod(tok, &pos);
      if (pos != tok.size()) {
        fail("bad float '" + tok + "'");
      }
      return value;
    } catch (const AssemblyError&) {
      throw;
    } catch (const std::exception&) {
      fail("bad float '" + tok + "'");
    }
  }

  std::uint8_t parse_reg(const std::string& tok, RegClass cls) const {
    STEERSIM_EXPECTS(cls != RegClass::kNone);
    std::string name = tok;
    if (cls == RegClass::kInt) {
      if (name == "zero") {
        name = "r0";
      } else if (name == "sp") {
        name = "r30";
      } else if (name == "ra") {
        name = "r31";
      }
    }
    const char prefix = cls == RegClass::kInt ? 'r' : 'f';
    if (name.size() < 2 || name[0] != prefix) {
      fail(std::string("expected ") + (cls == RegClass::kInt ? "integer" : "FP") +
           " register, got '" + tok + "'");
    }
    const std::int64_t idx = parse_int(name.substr(1));
    if (idx < 0 || idx >= kNumIntRegs) {
      fail("register index out of range in '" + tok + "'");
    }
    return static_cast<std::uint8_t>(idx);
  }

  /// Parses "imm(reg)" memory operands.
  std::pair<std::int32_t, std::uint8_t> parse_mem(const std::string& tok) const {
    const auto open = tok.find('(');
    const auto close = tok.find(')', open);
    if (open == std::string::npos || close != tok.size() - 1) {
      fail("expected mem operand 'imm(reg)', got '" + tok + "'");
    }
    const std::int64_t imm =
        open == 0 ? 0 : parse_int(tok.substr(0, open));
    if (imm < kImm15Min || imm > kImm15Max) {
      fail("mem offset out of range in '" + tok + "'");
    }
    const std::uint8_t base =
        parse_reg(tok.substr(open + 1, close - open - 1), RegClass::kInt);
    return {static_cast<std::int32_t>(imm), base};
  }

  void data_pass() {
    bool in_data = false;
    line_number_ = 0;
    for (const auto& line : lines_) {
      ++line_number_;
      auto tokens = tokenize(line);
      if (tokens.empty()) {
        continue;
      }
      if (is_directive(tokens, ".data")) {
        in_data = true;
        continue;
      }
      if (is_directive(tokens, ".text")) {
        in_data = false;
        continue;
      }
      if (!in_data) {
        continue;
      }
      tokens = strip_label(std::move(tokens), [this](std::string label) {
        if (!program_.data_labels.emplace(label, program_.data.size() * 8)
                 .second) {
          fail("duplicate data label '" + label + "'");
        }
      });
      if (tokens.empty()) {
        continue;
      }
      if (tokens.front() == ".word") {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          program_.data.push_back(parse_int(tokens[i]));
        }
      } else if (tokens.front() == ".double") {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          program_.data.push_back(
              std::bit_cast<std::int64_t>(parse_fp(tokens[i])));
        }
      } else if (tokens.front() == ".space") {
        if (tokens.size() != 2) {
          fail(".space takes one operand");
        }
        const std::int64_t n = parse_int(tokens[1]);
        if (n < 0) {
          fail(".space size must be nonnegative");
        }
        program_.data.insert(program_.data.end(),
                             static_cast<std::size_t>(n), 0);
      } else {
        fail("unknown data directive '" + tokens.front() + "'");
      }
    }
  }

  /// Emits `li`-style immediate materialization (1 or 2 instructions).
  void emit_li(bool emit, std::uint8_t rd, std::int64_t value) {
    if (value >= kImm15Min && value <= kImm15Max) {
      append(emit, make_ri(Opcode::kAddi, rd, 0,
                           static_cast<std::int32_t>(value)));
      return;
    }
    // lui rd, hi; ori rd, rd, lo  where value == (hi << 14) | lo.
    const std::int64_t hi = value >> 14;
    const std::int64_t lo = value & 0x3fff;
    if (hi < kImm15Min || hi > kImm15Max) {
      fail("immediate out of range for li: " + std::to_string(value));
    }
    append(emit, make_ri(Opcode::kLui, rd, 0, static_cast<std::int32_t>(hi)));
    append(emit,
           make_ri(Opcode::kOri, rd, rd, static_cast<std::int32_t>(lo)));
  }

  void append(bool emit, const Instruction& inst) {
    if (emit) {
      program_.code.push_back(inst);
    }
    ++pc_;
  }

  std::int32_t resolve_code_label(const std::string& label, bool emit) const {
    if (!emit) {
      return 0;  // sizing pass: offsets unknown but sizes are fixed
    }
    const auto it = program_.code_labels.find(label);
    if (it == program_.code_labels.end()) {
      fail("unknown code label '" + label + "'");
    }
    return static_cast<std::int32_t>(it->second) -
           static_cast<std::int32_t>(pc_);
  }

  std::uint64_t resolve_data_label(const std::string& label) const {
    const auto it = program_.data_labels.find(label);
    if (it == program_.data_labels.end()) {
      fail("unknown data label '" + label + "'");
    }
    return it->second;
  }

  /// A branch/jump target is either a label or a numeric relative offset.
  std::int32_t parse_target(const std::string& tok, bool emit) const {
    if (!tok.empty() &&
        (std::isdigit(static_cast<unsigned char>(tok[0])) != 0 ||
         tok[0] == '-' || tok[0] == '+')) {
      return static_cast<std::int32_t>(parse_int(tok));
    }
    return resolve_code_label(tok, emit);
  }

  void expect_operands(const std::vector<std::string>& tokens,
                       std::size_t n) const {
    if (tokens.size() != n + 1) {
      fail("'" + tokens.front() + "' expects " + std::to_string(n) +
           " operand(s), got " + std::to_string(tokens.size() - 1));
    }
  }

  void parse_statement(const std::vector<std::string>& tokens, bool emit) {
    const std::string& m = tokens.front();

    // Pseudo-instructions first.
    if (m == "li") {
      expect_operands(tokens, 2);
      emit_li(emit, parse_reg(tokens[1], RegClass::kInt),
              parse_int(tokens[2]));
      return;
    }
    if (m == "la") {
      expect_operands(tokens, 2);
      emit_li(emit, parse_reg(tokens[1], RegClass::kInt),
              static_cast<std::int64_t>(resolve_data_label(tokens[2])));
      return;
    }
    if (m == "mv") {
      expect_operands(tokens, 2);
      append(emit, make_rr(Opcode::kAdd, parse_reg(tokens[1], RegClass::kInt),
                           parse_reg(tokens[2], RegClass::kInt), 0));
      return;
    }
    if (m == "b") {
      expect_operands(tokens, 1);
      append(emit, make_jump(Opcode::kJ, 0, parse_target(tokens[1], emit)));
      return;
    }
    if (m == "call") {
      expect_operands(tokens, 1);
      append(emit,
             make_jump(Opcode::kJal, kLinkReg, parse_target(tokens[1], emit)));
      return;
    }
    if (m == "ret") {
      expect_operands(tokens, 0);
      append(emit, Instruction{Opcode::kJr, 0, kLinkReg, 0, 0});
      return;
    }

    const auto it = mnemonic_table().find(m);
    if (it == mnemonic_table().end()) {
      fail("unknown mnemonic '" + m + "'");
    }
    const Opcode op = it->second;
    const OpInfo& info = op_info(op);

    switch (info.format) {
      case Format::kR: {
        if (info.rs2_class == RegClass::kNone) {
          expect_operands(tokens, 2);
          append(emit, Instruction{op, parse_reg(tokens[1], info.rd_class),
                                   parse_reg(tokens[2], info.rs1_class), 0, 0});
        } else {
          expect_operands(tokens, 3);
          append(emit, make_rr(op, parse_reg(tokens[1], info.rd_class),
                               parse_reg(tokens[2], info.rs1_class),
                               parse_reg(tokens[3], info.rs2_class)));
        }
        return;
      }
      case Format::kI: {
        if (info.is_load) {
          expect_operands(tokens, 2);
          const auto [imm, base] = parse_mem(tokens[2]);
          append(emit, Instruction{op, parse_reg(tokens[1], info.rd_class),
                                   base, 0, imm});
          return;
        }
        if (info.rs1_class == RegClass::kNone) {  // lui
          expect_operands(tokens, 2);
          const std::int64_t imm = parse_int(tokens[2]);
          if (imm < kImm15Min || imm > kImm15Max) {
            fail("immediate out of range: " + std::to_string(imm));
          }
          append(emit, make_ri(op, parse_reg(tokens[1], info.rd_class), 0,
                               static_cast<std::int32_t>(imm)));
          return;
        }
        expect_operands(tokens, 3);
        const std::int64_t imm = parse_int(tokens[3]);
        if (imm < kImm15Min || imm > kImm15Max) {
          fail("immediate out of range: " + std::to_string(imm));
        }
        append(emit, make_ri(op, parse_reg(tokens[1], info.rd_class),
                             parse_reg(tokens[2], info.rs1_class),
                             static_cast<std::int32_t>(imm)));
        return;
      }
      case Format::kS: {
        expect_operands(tokens, 2);
        const auto [imm, base] = parse_mem(tokens[2]);
        append(emit, make_store(op, parse_reg(tokens[1], info.rs2_class),
                                base, imm));
        return;
      }
      case Format::kB: {
        expect_operands(tokens, 3);
        append(emit, make_branch(op, parse_reg(tokens[1], info.rs1_class),
                                 parse_reg(tokens[2], info.rs2_class),
                                 parse_target(tokens[3], emit)));
        return;
      }
      case Format::kJ: {
        if (op == Opcode::kJal && tokens.size() == 3) {
          append(emit, make_jump(op, parse_reg(tokens[1], RegClass::kInt),
                                 parse_target(tokens[2], emit)));
          return;
        }
        expect_operands(tokens, 1);
        const std::uint8_t rd = op == Opcode::kJal ? kLinkReg : 0;
        append(emit, make_jump(op, rd, parse_target(tokens[1], emit)));
        return;
      }
      case Format::kJr: {
        expect_operands(tokens, 1);
        append(emit,
               Instruction{op, 0, parse_reg(tokens[1], RegClass::kInt), 0, 0});
        return;
      }
      case Format::kNone: {
        expect_operands(tokens, 0);
        append(emit, Instruction{op, 0, 0, 0, 0});
        return;
      }
    }
    STEERSIM_UNREACHABLE("bad format");
  }

  void code_pass(bool emit) {
    bool in_text = true;
    pc_ = 0;
    line_number_ = 0;
    for (const auto& line : lines_) {
      ++line_number_;
      auto tokens = tokenize(line);
      if (tokens.empty()) {
        continue;
      }
      if (is_directive(tokens, ".data")) {
        in_text = false;
        continue;
      }
      if (is_directive(tokens, ".text")) {
        in_text = true;
        continue;
      }
      if (!in_text) {
        continue;
      }
      tokens = strip_label(std::move(tokens), [this, emit](std::string label) {
        if (emit) {
          return;  // already recorded during the sizing pass
        }
        if (!program_.code_labels.emplace(label, pc_).second) {
          fail("duplicate code label '" + label + "'");
        }
      });
      if (tokens.empty()) {
        continue;
      }
      parse_statement(tokens, emit);
    }
  }

  std::vector<std::string> lines_;
  Program program_;
  std::uint32_t pc_ = 0;
  int line_number_ = 0;
};

/// The reference assembler: the same grammar, errors and Program as
/// steersim::assemble().
inline Program assemble(std::string_view source,
                        std::string name = "program") {
  return Assembler(source, std::move(name)).run();
}

}  // namespace steersim::ref
