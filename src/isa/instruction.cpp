#include "isa/instruction.hpp"

#include "common/contracts.hpp"

namespace steersim {
namespace {

constexpr std::uint32_t field(std::uint32_t value, unsigned shift) {
  return value << shift;
}

constexpr std::uint32_t extract(std::uint32_t word, unsigned shift,
                                unsigned bits) {
  return (word >> shift) & ((1u << bits) - 1u);
}

constexpr std::int32_t sign_extend(std::uint32_t value, unsigned bits) {
  const std::uint32_t sign_bit = 1u << (bits - 1);
  return static_cast<std::int32_t>((value ^ sign_bit)) -
         static_cast<std::int32_t>(sign_bit);
}

void check_reg(std::uint8_t r) { STEERSIM_EXPECTS(r < kNumIntRegs); }

std::string reg_name(RegClass cls, std::uint8_t r) {
  std::string name(1, cls == RegClass::kFp ? 'f' : 'r');
  name += std::to_string(r);
  return name;
}

}  // namespace

std::uint32_t encode(const Instruction& inst) {
  const OpInfo& info = op_info(inst.op);
  check_reg(inst.rd);
  check_reg(inst.rs1);
  check_reg(inst.rs2);
  std::uint32_t word = field(static_cast<std::uint32_t>(inst.op), 25);
  switch (info.format) {
    case Format::kR:
      word |= field(inst.rd, 20) | field(inst.rs1, 15) | field(inst.rs2, 10);
      break;
    case Format::kI:
      STEERSIM_EXPECTS(inst.imm >= kImm15Min && inst.imm <= kImm15Max);
      word |= field(inst.rd, 20) | field(inst.rs1, 15) |
              (static_cast<std::uint32_t>(inst.imm) & 0x7fffu);
      break;
    case Format::kS:
    case Format::kB:
      STEERSIM_EXPECTS(inst.imm >= kImm15Min && inst.imm <= kImm15Max);
      word |= field(inst.rs1, 20) | field(inst.rs2, 15) |
              (static_cast<std::uint32_t>(inst.imm) & 0x7fffu);
      break;
    case Format::kJ:
      STEERSIM_EXPECTS(inst.imm >= kImm20Min && inst.imm <= kImm20Max);
      word |= field(inst.rd, 20) |
              (static_cast<std::uint32_t>(inst.imm) & 0xfffffu);
      break;
    case Format::kJr:
      word |= field(inst.rs1, 20);
      break;
    case Format::kNone:
      break;
  }
  return word;
}

Instruction decode(std::uint32_t word) {
  const auto op_bits = extract(word, 25, 7);
  STEERSIM_EXPECTS(op_bits < kNumOpcodes);
  Instruction inst;
  inst.op = static_cast<Opcode>(op_bits);
  const OpInfo& info = op_info(inst.op);
  switch (info.format) {
    case Format::kR:
      inst.rd = static_cast<std::uint8_t>(extract(word, 20, 5));
      inst.rs1 = static_cast<std::uint8_t>(extract(word, 15, 5));
      inst.rs2 = static_cast<std::uint8_t>(extract(word, 10, 5));
      break;
    case Format::kI:
      inst.rd = static_cast<std::uint8_t>(extract(word, 20, 5));
      inst.rs1 = static_cast<std::uint8_t>(extract(word, 15, 5));
      inst.imm = sign_extend(extract(word, 0, 15), 15);
      break;
    case Format::kS:
    case Format::kB:
      inst.rs1 = static_cast<std::uint8_t>(extract(word, 20, 5));
      inst.rs2 = static_cast<std::uint8_t>(extract(word, 15, 5));
      inst.imm = sign_extend(extract(word, 0, 15), 15);
      break;
    case Format::kJ:
      inst.rd = static_cast<std::uint8_t>(extract(word, 20, 5));
      inst.imm = sign_extend(extract(word, 0, 20), 20);
      break;
    case Format::kJr:
      inst.rs1 = static_cast<std::uint8_t>(extract(word, 20, 5));
      break;
    case Format::kNone:
      break;
  }
  return inst;
}

std::string disassemble(const Instruction& inst) {
  const OpInfo& info = op_info(inst.op);
  const std::string m(info.mnemonic);
  switch (info.format) {
    case Format::kR:
      if (info.rs2_class == RegClass::kNone) {
        return m + " " + reg_name(info.rd_class, inst.rd) + ", " +
               reg_name(info.rs1_class, inst.rs1);
      }
      return m + " " + reg_name(info.rd_class, inst.rd) + ", " +
             reg_name(info.rs1_class, inst.rs1) + ", " +
             reg_name(info.rs2_class, inst.rs2);
    case Format::kI:
      if (info.is_load) {
        return m + " " + reg_name(info.rd_class, inst.rd) + ", " +
               std::to_string(inst.imm) + "(" +
               reg_name(info.rs1_class, inst.rs1) + ")";
      }
      if (info.rs1_class == RegClass::kNone) {  // lui
        return m + " " + reg_name(info.rd_class, inst.rd) + ", " +
               std::to_string(inst.imm);
      }
      return m + " " + reg_name(info.rd_class, inst.rd) + ", " +
             reg_name(info.rs1_class, inst.rs1) + ", " +
             std::to_string(inst.imm);
    case Format::kS:
      return m + " " + reg_name(info.rs2_class, inst.rs2) + ", " +
             std::to_string(inst.imm) + "(" +
             reg_name(info.rs1_class, inst.rs1) + ")";
    case Format::kB:
      return m + " " + reg_name(info.rs1_class, inst.rs1) + ", " +
             reg_name(info.rs2_class, inst.rs2) + ", " +
             std::to_string(inst.imm);
    case Format::kJ:
      if (inst.op == Opcode::kJal) {
        return m + " " + reg_name(RegClass::kInt, inst.rd) + ", " +
               std::to_string(inst.imm);
      }
      return m + " " + std::to_string(inst.imm);
    case Format::kJr:
      return m + " " + reg_name(RegClass::kInt, inst.rs1);
    case Format::kNone:
      return m;
  }
  STEERSIM_UNREACHABLE("bad format");
}

Instruction make_rr(Opcode op, std::uint8_t rd, std::uint8_t rs1,
                    std::uint8_t rs2) {
  STEERSIM_EXPECTS(op_info(op).format == Format::kR);
  return {op, rd, rs1, rs2, 0};
}

Instruction make_ri(Opcode op, std::uint8_t rd, std::uint8_t rs1,
                    std::int32_t imm) {
  STEERSIM_EXPECTS(op_info(op).format == Format::kI);
  return {op, rd, rs1, 0, imm};
}

Instruction make_store(Opcode op, std::uint8_t value_reg,
                       std::uint8_t base_reg, std::int32_t imm) {
  STEERSIM_EXPECTS(op_info(op).format == Format::kS);
  return {op, 0, base_reg, value_reg, imm};
}

Instruction make_branch(Opcode op, std::uint8_t rs1, std::uint8_t rs2,
                        std::int32_t offset) {
  STEERSIM_EXPECTS(op_info(op).format == Format::kB);
  return {op, 0, rs1, rs2, offset};
}

Instruction make_jump(Opcode op, std::uint8_t rd, std::int32_t offset) {
  STEERSIM_EXPECTS(op_info(op).format == Format::kJ);
  return {op, rd, 0, 0, offset};
}

}  // namespace steersim
