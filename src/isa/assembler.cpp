#include "isa/assembler.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace steersim {
namespace {

enum class Pseudo : std::uint8_t { kNone, kLi, kLa, kMv, kB, kCall, kRet };

/// What a statement's first token names: a pseudo-instruction, or a
/// machine opcode when `pseudo` is kNone.
struct Mnemonic {
  Pseudo pseudo = Pseudo::kNone;
  Opcode op = Opcode::kNop;
};

const std::unordered_map<std::string_view, Mnemonic>& mnemonic_table() {
  static const auto table = [] {
    std::unordered_map<std::string_view, Mnemonic> t;
    for (unsigned i = 0; i < kNumOpcodes; ++i) {
      const auto op = static_cast<Opcode>(i);
      t.emplace(op_info(op).mnemonic, Mnemonic{Pseudo::kNone, op});
    }
    // Pseudo-instructions are matched before machine mnemonics.
    const std::pair<std::string_view, Pseudo> pseudos[] = {
        {"li", Pseudo::kLi}, {"la", Pseudo::kLa},     {"mv", Pseudo::kMv},
        {"b", Pseudo::kB},   {"call", Pseudo::kCall}, {"ret", Pseudo::kRet}};
    for (const auto& [name, pseudo] : pseudos) {
      t.insert_or_assign(name, Mnemonic{pseudo, Opcode::kNop});
    }
    return t;
  }();
  return table;
}

/// The characters std::isspace accepts in the "C" locale: a line is
/// trimmed of them, and std::strtoll skips them before the sign.
bool is_c_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool is_separator(char c) { return c == ' ' || c == '\t' || c == ','; }

/// std::stoll(text, &pos, 0) that must consume all of `text`: leading
/// whitespace, an optional sign, then 0x/0X hex digits, a leading-zero
/// octal number or decimal digits. nullopt where stoll would throw or
/// stop early, overflow included.
std::optional<std::int64_t> parse_integer(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && is_c_space(text[i])) {
    ++i;
  }
  bool negative = false;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    negative = text[i] == '-';
    ++i;
  }
  int base = 10;
  if (i < text.size() && text[i] == '0') {
    if (i + 1 < text.size() && (text[i + 1] == 'x' || text[i + 1] == 'X')) {
      base = 16;
      i += 2;
    } else {
      base = 8;
    }
  }
  const char* first = text.data() + i;
  const char* last = text.data() + text.size();
  std::uint64_t magnitude = 0;
  const auto [end, ec] = std::from_chars(first, last, magnitude, base);
  if (first == last || ec != std::errc{} || end != last) {
    return std::nullopt;
  }
  constexpr auto kMaxPositive =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (magnitude > kMaxPositive + (negative ? 1u : 0u)) {
    return std::nullopt;
  }
  // Two's-complement negation in unsigned arithmetic reaches INT64_MIN.
  return std::bit_cast<std::int64_t>(negative ? ~magnitude + 1 : magnitude);
}

/// One non-blank source line: tokens [first, first + count) of the flat
/// token array, and its 1-based line number.
struct Line {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  int number = 0;
};

/// A branch or jump whose target label is resolved once every code label
/// is known: code[index].imm becomes the label's pc minus index.
struct Fixup {
  std::uint32_t index = 0;
  std::string_view label;
  int line = 0;
};

using Tokens = std::span<const std::string_view>;

class Assembler {
 public:
  Assembler(std::string_view source, std::string name) {
    program_.name = std::move(name);
    lex(source);
  }

  Program run() {
    data_pass();
    code_pass();
    resolve_fixups();
    publish(data_labels_, program_.data_labels);
    publish(code_labels_, program_.code_labels);
    return std::move(program_);
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw AssemblyError(line_number_, message);
  }

  /// Splits the source into lines and tokens once; every pass reads the
  /// views. Comments ('#' or ';' to end of line) and surrounding
  /// whitespace are dropped, and blank lines are not kept.
  void lex(std::string_view source) {
    int number = 0;
    std::size_t start = 0;
    while (true) {
      ++number;
      const std::size_t newline = source.find('\n', start);
      std::string_view text = source.substr(
          start, newline == std::string_view::npos ? std::string_view::npos
                                                   : newline - start);
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '#' || text[i] == ';') {
          text = text.substr(0, i);
          break;
        }
      }
      while (!text.empty() && is_c_space(text.front())) {
        text.remove_prefix(1);
      }
      while (!text.empty() && is_c_space(text.back())) {
        text.remove_suffix(1);
      }
      const std::size_t first = tokens_.size();
      std::size_t i = 0;
      while (i < text.size()) {
        while (i < text.size() && is_separator(text[i])) {
          ++i;
        }
        const std::size_t begin = i;
        while (i < text.size() && !is_separator(text[i])) {
          ++i;
        }
        if (i > begin) {
          tokens_.push_back(text.substr(begin, i - begin));
        }
      }
      if (tokens_.size() > first) {
        const auto count = static_cast<std::uint32_t>(tokens_.size() - first);
        lines_.push_back(
            Line{static_cast<std::uint32_t>(first), count, number});
      }
      if (newline == std::string_view::npos) {
        return;
      }
      start = newline + 1;
    }
  }

  Tokens tokens_of(const Line& line) const {
    return Tokens(tokens_).subspan(line.first, line.count);
  }

  /// Splits off a leading "label:" if present.
  std::optional<std::string_view> take_label(Tokens& tokens) const {
    if (tokens.front().back() != ':') {
      return std::nullopt;
    }
    const std::string_view label =
        tokens.front().substr(0, tokens.front().size() - 1);
    if (label.empty()) {
      fail("empty label");
    }
    tokens = tokens.subspan(1);
    return label;
  }

  std::int64_t parse_int(std::string_view tok) const {
    const std::optional<std::int64_t> value = parse_integer(tok);
    if (!value) {
      fail("bad integer '" + std::string(tok) + "'");
    }
    return *value;
  }

  /// std::stod(tok, &pos) that must consume all of `tok`.
  double parse_fp(std::string_view tok) const {
    const std::string text(tok);
    char* end = nullptr;
    const int saved_errno = errno;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    const bool out_of_range = errno == ERANGE;
    errno = saved_errno;
    if (end == text.c_str() || out_of_range ||
        end != text.c_str() + text.size()) {
      fail("bad float '" + text + "'");
    }
    return value;
  }

  std::uint8_t parse_reg(std::string_view tok, RegClass cls) const {
    STEERSIM_EXPECTS(cls != RegClass::kNone);
    std::string_view name = tok;
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
      fail(std::string("expected ") +
           (cls == RegClass::kInt ? "integer" : "FP") + " register, got '" +
           std::string(tok) + "'");
    }
    const std::int64_t idx = parse_int(name.substr(1));
    if (idx < 0 || idx >= kNumIntRegs) {
      fail("register index out of range in '" + std::string(tok) + "'");
    }
    return static_cast<std::uint8_t>(idx);
  }

  /// Parses "imm(reg)" memory operands.
  std::pair<std::int32_t, std::uint8_t> parse_mem(std::string_view tok) const {
    const auto open = tok.find('(');
    const auto close = tok.find(')', open);
    if (open == std::string_view::npos || close != tok.size() - 1) {
      fail("expected mem operand 'imm(reg)', got '" + std::string(tok) + "'");
    }
    const std::int64_t imm = open == 0 ? 0 : parse_int(tok.substr(0, open));
    if (imm < kImm15Min || imm > kImm15Max) {
      fail("mem offset out of range in '" + std::string(tok) + "'");
    }
    const std::uint8_t base =
        parse_reg(tok.substr(open + 1, close - open - 1), RegClass::kInt);
    return {static_cast<std::int32_t>(imm), base};
  }

  /// Refuses, before allocating, a data image past kMaxDataImageBytes.
  void check_data_growth(std::uint64_t words) {
    constexpr std::uint64_t kMaxWords = kMaxDataImageBytes / 8;
    if (words > kMaxWords - program_.data.size()) {
      fail("data image exceeds the " + std::to_string(kMaxDataImageBytes) +
           "-byte ceiling");
    }
  }

  void data_pass() {
    bool in_data = false;
    for (const Line& line : lines_) {
      line_number_ = line.number;
      Tokens tokens = tokens_of(line);
      if (tokens.front() == ".data") {
        in_data = true;
        continue;
      }
      if (tokens.front() == ".text") {
        in_data = false;
        continue;
      }
      if (!in_data) {
        continue;
      }
      if (const auto label = take_label(tokens)) {
        if (!data_labels_.emplace(*label, program_.data.size() * 8).second) {
          fail("duplicate data label '" + std::string(*label) + "'");
        }
      }
      if (tokens.empty()) {
        continue;
      }
      const std::string_view directive = tokens.front();
      if (directive == ".word") {
        check_data_growth(tokens.size() - 1);
        for (const std::string_view tok : tokens.subspan(1)) {
          program_.data.push_back(parse_int(tok));
        }
      } else if (directive == ".double") {
        check_data_growth(tokens.size() - 1);
        for (const std::string_view tok : tokens.subspan(1)) {
          program_.data.push_back(std::bit_cast<std::int64_t>(parse_fp(tok)));
        }
      } else if (directive == ".space") {
        if (tokens.size() != 2) {
          fail(".space takes one operand");
        }
        const std::int64_t n = parse_int(tokens[1]);
        if (n < 0) {
          fail(".space size must be nonnegative");
        }
        check_data_growth(static_cast<std::uint64_t>(n));
        program_.data.insert(program_.data.end(),
                             static_cast<std::size_t>(n), 0);
      } else {
        fail("unknown data directive '" + std::string(directive) + "'");
      }
    }
  }

  void append(const Instruction& inst) { program_.code.push_back(inst); }

  /// Emits `li`-style immediate materialization (1 or 2 instructions).
  void emit_li(std::uint8_t rd, std::int64_t value) {
    if (value >= kImm15Min && value <= kImm15Max) {
      append(make_ri(Opcode::kAddi, rd, 0, static_cast<std::int32_t>(value)));
      return;
    }
    // lui rd, hi; ori rd, rd, lo  where value == (hi << 14) | lo.
    const std::int64_t hi = value >> 14;
    const std::int64_t lo = value & 0x3fff;
    if (hi < kImm15Min || hi > kImm15Max) {
      fail("immediate out of range for li: " + std::to_string(value));
    }
    append(make_ri(Opcode::kLui, rd, 0, static_cast<std::int32_t>(hi)));
    append(make_ri(Opcode::kOri, rd, rd, static_cast<std::int32_t>(lo)));
  }

  /// A branch/jump target is either a numeric relative offset or a label,
  /// which becomes a fixup on the instruction appended next.
  std::int32_t parse_target(std::string_view tok) {
    if (!tok.empty() && ((tok[0] >= '0' && tok[0] <= '9') || tok[0] == '-' ||
                         tok[0] == '+')) {
      return static_cast<std::int32_t>(parse_int(tok));
    }
    fixups_.push_back(Fixup{static_cast<std::uint32_t>(program_.code.size()),
                            tok, line_number_});
    return 0;
  }

  std::uint64_t resolve_data_label(std::string_view label) const {
    const auto it = data_labels_.find(label);
    if (it == data_labels_.end()) {
      fail("unknown data label '" + std::string(label) + "'");
    }
    return it->second;
  }

  void expect_operands(Tokens tokens, std::size_t n) const {
    if (tokens.size() != n + 1) {
      fail("'" + std::string(tokens.front()) + "' expects " +
           std::to_string(n) + " operand(s), got " +
           std::to_string(tokens.size() - 1));
    }
  }

  // Where one statement has several bad operands, the first reported is
  // the one the reference assembler's GCC build evaluated first: it built
  // instructions as make_rr(op, reg(t1), reg(t2), reg(t3)) and friends,
  // whose arguments GCC evaluates right to left. Each operand below is
  // parsed in its own statement, in that order.
  void parse_statement(Tokens tokens) {
    const std::string_view m = tokens.front();
    const auto it = mnemonic_table().find(m);
    if (it == mnemonic_table().end()) {
      fail("unknown mnemonic '" + std::string(m) + "'");
    }
    switch (it->second.pseudo) {
      case Pseudo::kLi: {
        expect_operands(tokens, 2);
        const std::int64_t value = parse_int(tokens[2]);
        emit_li(parse_reg(tokens[1], RegClass::kInt), value);
        return;
      }
      case Pseudo::kLa: {
        expect_operands(tokens, 2);
        const auto address =
            static_cast<std::int64_t>(resolve_data_label(tokens[2]));
        emit_li(parse_reg(tokens[1], RegClass::kInt), address);
        return;
      }
      case Pseudo::kMv: {
        expect_operands(tokens, 2);
        const std::uint8_t rs = parse_reg(tokens[2], RegClass::kInt);
        append(make_rr(Opcode::kAdd, parse_reg(tokens[1], RegClass::kInt), rs,
                       0));
        return;
      }
      case Pseudo::kB:
        expect_operands(tokens, 1);
        append(make_jump(Opcode::kJ, 0, parse_target(tokens[1])));
        return;
      case Pseudo::kCall:
        expect_operands(tokens, 1);
        append(make_jump(Opcode::kJal, kLinkReg, parse_target(tokens[1])));
        return;
      case Pseudo::kRet:
        expect_operands(tokens, 0);
        append(Instruction{Opcode::kJr, 0, kLinkReg, 0, 0});
        return;
      case Pseudo::kNone:
        parse_machine(it->second.op, tokens);
        return;
    }
    STEERSIM_UNREACHABLE("bad pseudo");
  }

  void parse_machine(Opcode op, Tokens tokens) {
    const OpInfo& info = op_info(op);
    switch (info.format) {
      case Format::kR: {
        if (info.rs2_class == RegClass::kNone) {
          expect_operands(tokens, 2);
          const std::uint8_t rd = parse_reg(tokens[1], info.rd_class);
          append(Instruction{op, rd, parse_reg(tokens[2], info.rs1_class), 0,
                             0});
        } else {
          expect_operands(tokens, 3);
          const std::uint8_t rs2 = parse_reg(tokens[3], info.rs2_class);
          const std::uint8_t rs1 = parse_reg(tokens[2], info.rs1_class);
          append(make_rr(op, parse_reg(tokens[1], info.rd_class), rs1, rs2));
        }
        return;
      }
      case Format::kI: {
        if (info.is_load) {
          expect_operands(tokens, 2);
          const auto [imm, base] = parse_mem(tokens[2]);
          append(Instruction{op, parse_reg(tokens[1], info.rd_class), base, 0,
                             imm});
          return;
        }
        if (info.rs1_class == RegClass::kNone) {  // lui
          expect_operands(tokens, 2);
          const std::int32_t imm = parse_imm15(tokens[2]);
          append(make_ri(op, parse_reg(tokens[1], info.rd_class), 0, imm));
          return;
        }
        expect_operands(tokens, 3);
        const std::int32_t imm = parse_imm15(tokens[3]);
        const std::uint8_t rs1 = parse_reg(tokens[2], info.rs1_class);
        append(make_ri(op, parse_reg(tokens[1], info.rd_class), rs1, imm));
        return;
      }
      case Format::kS: {
        expect_operands(tokens, 2);
        const auto [imm, base] = parse_mem(tokens[2]);
        append(
            make_store(op, parse_reg(tokens[1], info.rs2_class), base, imm));
        return;
      }
      case Format::kB: {
        expect_operands(tokens, 3);
        const std::int32_t target = parse_target(tokens[3]);
        const std::uint8_t rs2 = parse_reg(tokens[2], info.rs2_class);
        append(make_branch(op, parse_reg(tokens[1], info.rs1_class), rs2,
                           target));
        return;
      }
      case Format::kJ: {
        if (op == Opcode::kJal && tokens.size() == 3) {
          const std::int32_t target = parse_target(tokens[2]);
          append(make_jump(op, parse_reg(tokens[1], RegClass::kInt), target));
          return;
        }
        expect_operands(tokens, 1);
        const std::uint8_t rd = op == Opcode::kJal ? kLinkReg : 0;
        append(make_jump(op, rd, parse_target(tokens[1])));
        return;
      }
      case Format::kJr: {
        expect_operands(tokens, 1);
        append(Instruction{op, 0, parse_reg(tokens[1], RegClass::kInt), 0, 0});
        return;
      }
      case Format::kNone: {
        expect_operands(tokens, 0);
        append(Instruction{op, 0, 0, 0, 0});
        return;
      }
    }
    STEERSIM_UNREACHABLE("bad format");
  }

  std::int32_t parse_imm15(std::string_view tok) const {
    const std::int64_t imm = parse_int(tok);
    if (imm < kImm15Min || imm > kImm15Max) {
      fail("immediate out of range: " + std::to_string(imm));
    }
    return static_cast<std::int32_t>(imm);
  }

  void code_pass() {
    program_.code.reserve(lines_.size());
    bool in_text = true;
    for (const Line& line : lines_) {
      line_number_ = line.number;
      Tokens tokens = tokens_of(line);
      if (tokens.front() == ".data") {
        in_text = false;
        continue;
      }
      if (tokens.front() == ".text") {
        in_text = true;
        continue;
      }
      if (!in_text) {
        continue;
      }
      if (const auto label = take_label(tokens)) {
        const auto pc = static_cast<std::uint32_t>(program_.code.size());
        if (!code_labels_.emplace(*label, pc).second) {
          fail("duplicate code label '" + std::string(*label) + "'");
        }
      }
      if (!tokens.empty()) {
        parse_statement(tokens);
      }
    }
  }

  /// Patches every label target, in source order, so the first unknown
  /// label is the one reported.
  void resolve_fixups() {
    for (const Fixup& fixup : fixups_) {
      const auto it = code_labels_.find(fixup.label);
      if (it == code_labels_.end()) {
        line_number_ = fixup.line;
        fail("unknown code label '" + std::string(fixup.label) + "'");
      }
      program_.code[fixup.index].imm = static_cast<std::int32_t>(it->second) -
                                       static_cast<std::int32_t>(fixup.index);
    }
  }

  /// Fills one of Program's label maps, in key order, with owned copies of
  /// the names.
  template <typename Value>
  static void publish(
      const std::unordered_map<std::string_view, Value>& labels,
      std::map<std::string, Value>& out) {
    std::vector<std::pair<std::string_view, Value>> sorted(labels.begin(),
                                                           labels.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [name, value] : sorted) {
      out.emplace_hint(out.end(), name, value);
    }
  }

  std::vector<Line> lines_;
  std::vector<std::string_view> tokens_;
  std::unordered_map<std::string_view, std::uint64_t> data_labels_;
  std::unordered_map<std::string_view, std::uint32_t> code_labels_;
  std::vector<Fixup> fixups_;
  Program program_;
  int line_number_ = 0;
};

}  // namespace

Program assemble(std::string_view source, std::string name) {
  return Assembler(source, std::move(name)).run();
}

}  // namespace steersim
