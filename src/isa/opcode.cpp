#include "isa/opcode.hpp"

namespace steersim {
namespace {

constexpr OpInfo make_alu_rr(std::string_view mnemonic) {
  return {mnemonic, FuType::kIntAlu, Format::kR,       1,
          RegClass::kInt, RegClass::kInt, RegClass::kInt,
          false,          false,          false,        false, false};
}

constexpr OpInfo make_alu_ri(std::string_view mnemonic) {
  return {mnemonic, FuType::kIntAlu, Format::kI,        1,
          RegClass::kInt, RegClass::kInt, RegClass::kNone,
          false,          false,          false,         false, false};
}

constexpr OpInfo make_branch(std::string_view mnemonic) {
  return {mnemonic, FuType::kIntAlu, Format::kB,       1,
          RegClass::kNone, RegClass::kInt, RegClass::kInt,
          true,            false,          false,       false, false};
}

constexpr OpInfo make_mdu(std::string_view mnemonic, std::uint8_t latency) {
  return {mnemonic, FuType::kIntMdu, Format::kR,       latency,
          RegClass::kInt, RegClass::kInt, RegClass::kInt,
          false,          false,          false,        false, false};
}

constexpr OpInfo make_fp_rr(std::string_view mnemonic, FuType fu,
                            std::uint8_t latency) {
  return {mnemonic, fu,            Format::kR,      latency,
          RegClass::kFp, RegClass::kFp, RegClass::kFp,
          false,         false,         false,       false, false};
}

constexpr OpInfo make_fp_cmp(std::string_view mnemonic) {
  // FP compares read the FP file but write an integer predicate.
  return {mnemonic, FuType::kFpAlu, Format::kR,     3,
          RegClass::kInt, RegClass::kFp, RegClass::kFp,
          false,          false,         false,      false, false};
}

constexpr std::array<OpInfo, kNumOpcodes> build_table() {
  std::array<OpInfo, kNumOpcodes> t{};
  auto at = [&t](Opcode op) -> OpInfo& {
    return t[static_cast<std::size_t>(op)];
  };

  at(Opcode::kAdd) = make_alu_rr("add");
  at(Opcode::kSub) = make_alu_rr("sub");
  at(Opcode::kAnd) = make_alu_rr("and");
  at(Opcode::kOr) = make_alu_rr("or");
  at(Opcode::kXor) = make_alu_rr("xor");
  at(Opcode::kSll) = make_alu_rr("sll");
  at(Opcode::kSrl) = make_alu_rr("srl");
  at(Opcode::kSra) = make_alu_rr("sra");
  at(Opcode::kSlt) = make_alu_rr("slt");
  at(Opcode::kSltu) = make_alu_rr("sltu");

  at(Opcode::kAddi) = make_alu_ri("addi");
  at(Opcode::kAndi) = make_alu_ri("andi");
  at(Opcode::kOri) = make_alu_ri("ori");
  at(Opcode::kXori) = make_alu_ri("xori");
  at(Opcode::kSlti) = make_alu_ri("slti");
  at(Opcode::kSlli) = make_alu_ri("slli");
  at(Opcode::kSrli) = make_alu_ri("srli");
  at(Opcode::kSrai) = make_alu_ri("srai");
  at(Opcode::kLui) = {"lui",          FuType::kIntAlu, Format::kI,      1,
                      RegClass::kInt, RegClass::kNone, RegClass::kNone,
                      false,          false,           false,           false,
                      false};
  at(Opcode::kNop) = {"nop",           FuType::kIntAlu, Format::kNone,   1,
                      RegClass::kNone, RegClass::kNone, RegClass::kNone,
                      false,           false,           false,           false,
                      false};

  at(Opcode::kBeq) = make_branch("beq");
  at(Opcode::kBne) = make_branch("bne");
  at(Opcode::kBlt) = make_branch("blt");
  at(Opcode::kBge) = make_branch("bge");
  at(Opcode::kBltu) = make_branch("bltu");
  at(Opcode::kBgeu) = make_branch("bgeu");
  at(Opcode::kJ) = {"j",             FuType::kIntAlu, Format::kJ,      1,
                    RegClass::kNone, RegClass::kNone, RegClass::kNone,
                    false,           true,            false,           false,
                    false};
  at(Opcode::kJal) = {"jal",          FuType::kIntAlu, Format::kJ,      1,
                      RegClass::kInt, RegClass::kNone, RegClass::kNone,
                      false,          true,            false,           false,
                      false};
  at(Opcode::kJr) = {"jr",            FuType::kIntAlu, Format::kJr,     1,
                     RegClass::kNone, RegClass::kInt,  RegClass::kNone,
                     false,           true,            false,           false,
                     false};
  at(Opcode::kHalt) = {"halt",          FuType::kIntAlu, Format::kNone, 1,
                       RegClass::kNone, RegClass::kNone, RegClass::kNone,
                       false,           false,           false,         false,
                       true};

  at(Opcode::kMul) = make_mdu("mul", 4);
  at(Opcode::kMulh) = make_mdu("mulh", 4);
  at(Opcode::kDiv) = make_mdu("div", 12);
  at(Opcode::kRem) = make_mdu("rem", 12);

  at(Opcode::kLw) = {"lw",           FuType::kLsu,   Format::kI,      3,
                     RegClass::kInt, RegClass::kInt, RegClass::kNone,
                     false,          false,          true,            false,
                     false};
  at(Opcode::kLb) = {"lb",           FuType::kLsu,   Format::kI,      3,
                     RegClass::kInt, RegClass::kInt, RegClass::kNone,
                     false,          false,          true,            false,
                     false};
  at(Opcode::kSw) = {"sw",            FuType::kLsu,  Format::kS,      3,
                     RegClass::kNone, RegClass::kInt, RegClass::kInt,
                     false,           false,          false,          true,
                     false};
  at(Opcode::kSb) = {"sb",            FuType::kLsu,  Format::kS,      3,
                     RegClass::kNone, RegClass::kInt, RegClass::kInt,
                     false,           false,          false,          true,
                     false};
  at(Opcode::kFlw) = {"flw",         FuType::kLsu,   Format::kI,      3,
                      RegClass::kFp, RegClass::kInt, RegClass::kNone,
                      false,         false,          true,            false,
                      false};
  at(Opcode::kFsw) = {"fsw",           FuType::kLsu,  Format::kS,     3,
                      RegClass::kNone, RegClass::kInt, RegClass::kFp,
                      false,           false,          false,         true,
                      false};

  at(Opcode::kFadd) = make_fp_rr("fadd", FuType::kFpAlu, 3);
  at(Opcode::kFsub) = make_fp_rr("fsub", FuType::kFpAlu, 3);
  at(Opcode::kFmin) = make_fp_rr("fmin", FuType::kFpAlu, 3);
  at(Opcode::kFmax) = make_fp_rr("fmax", FuType::kFpAlu, 3);
  at(Opcode::kFabs) = {"fabs",        FuType::kFpAlu, Format::kR,      3,
                       RegClass::kFp, RegClass::kFp,  RegClass::kNone,
                       false,         false,          false,           false,
                       false};
  at(Opcode::kFneg) = {"fneg",        FuType::kFpAlu, Format::kR,      3,
                       RegClass::kFp, RegClass::kFp,  RegClass::kNone,
                       false,         false,          false,           false,
                       false};
  at(Opcode::kFeq) = make_fp_cmp("feq");
  at(Opcode::kFlt) = make_fp_cmp("flt");
  at(Opcode::kFle) = make_fp_cmp("fle");
  at(Opcode::kCvtIF) = {"cvt.i.f",     FuType::kFpAlu, Format::kR,      3,
                        RegClass::kFp, RegClass::kInt, RegClass::kNone,
                        false,         false,          false,           false,
                        false};
  at(Opcode::kCvtFI) = {"cvt.f.i",      FuType::kFpAlu, Format::kR,      3,
                        RegClass::kInt, RegClass::kFp,  RegClass::kNone,
                        false,          false,          false,           false,
                        false};

  at(Opcode::kFmul) = make_fp_rr("fmul", FuType::kFpMdu, 5);
  at(Opcode::kFdiv) = make_fp_rr("fdiv", FuType::kFpMdu, 16);
  at(Opcode::kFsqrt) = {"fsqrt",       FuType::kFpMdu, Format::kR,      20,
                        RegClass::kFp, RegClass::kFp,  RegClass::kNone,
                        false,         false,          false,           false,
                        false};

  return t;
}

}  // namespace

constexpr std::array<OpInfo, kNumOpcodes> kOpTable = build_table();

}  // namespace steersim
