// Opcode set of the steersim RISC ISA.
//
// A deliberately small MIPS-flavoured ISA with the one property the paper
// requires: each opcode is served by exactly one functional-unit type.
// Latencies follow common textbook superscalar models (ALU 1, load 3,
// multiply 4, divide 12, FP add 3, FP multiply 5, FP divide 16, sqrt 20).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/contracts.hpp"
#include "isa/fu_type.hpp"

namespace steersim {

enum class Opcode : std::uint8_t {
  // Integer ALU, register-register.
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kSll,
  kSrl,
  kSra,
  kSlt,
  kSltu,
  // Integer ALU, register-immediate.
  kAddi,
  kAndi,
  kOri,
  kXori,
  kSlti,
  kSlli,
  kSrli,
  kSrai,
  kLui,
  kNop,
  // Control flow (resolved on the Int-ALU).
  kBeq,
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kJ,
  kJal,
  kJr,
  kHalt,
  // Integer multiply/divide.
  kMul,
  kMulh,
  kDiv,
  kRem,
  // Loads/stores (integer and FP data).
  kLw,
  kLb,
  kSw,
  kSb,
  kFlw,
  kFsw,
  // FP ALU.
  kFadd,
  kFsub,
  kFmin,
  kFmax,
  kFabs,
  kFneg,
  kFeq,
  kFlt,
  kFle,
  kCvtIF,  ///< int -> fp
  kCvtFI,  ///< fp -> int (truncating)
  // FP multiply/divide.
  kFmul,
  kFdiv,
  kFsqrt,

  kCount_,
};

inline constexpr unsigned kNumOpcodes = static_cast<unsigned>(Opcode::kCount_);

/// Instruction encoding formats (fields used by the opcode).
enum class Format : std::uint8_t {
  kR,     ///< rd, rs1, rs2
  kI,     ///< rd, rs1, imm15   (ALU-immediate and loads)
  kS,     ///< rs1, rs2, imm15  (stores: mem[rs1+imm] = rs2)
  kB,     ///< rs1, rs2, imm15  (conditional branch, pc-relative)
  kJ,     ///< rd, imm20        (J ignores rd; JAL links into rd)
  kJr,    ///< rs1
  kNone,  ///< no operands (NOP, HALT)
};

/// Which register file an operand slot addresses.
enum class RegClass : std::uint8_t { kNone, kInt, kFp };

struct OpInfo {
  std::string_view mnemonic;
  FuType fu;
  Format format;
  std::uint8_t latency;  ///< execution latency in cycles (>= 1)
  RegClass rd_class;
  RegClass rs1_class;
  RegClass rs2_class;
  bool is_branch;  ///< conditional branch
  bool is_jump;    ///< unconditional control transfer
  bool is_load;
  bool is_store;
  bool is_halt;
};

/// Per-opcode metadata, indexed by opcode (defined in opcode.cpp). Read
/// it through op_info(), which range-checks the index.
extern const std::array<OpInfo, kNumOpcodes> kOpTable;

/// Metadata for an opcode; total function over valid opcodes. Inline: the
/// pipeline stages consult it many times per simulated cycle.
inline const OpInfo& op_info(Opcode op) {
  const auto idx = static_cast<std::size_t>(op);
  STEERSIM_EXPECTS(idx < kNumOpcodes);
  return kOpTable[idx];
}

/// Functional-unit type required by an opcode (paper: exactly one per op).
inline FuType fu_type_of(Opcode op) { return op_info(op).fu; }

/// True for any instruction that can redirect the PC.
inline bool is_control(Opcode op) {
  const auto& info = op_info(op);
  return info.is_branch || info.is_jump;
}

}  // namespace steersim
