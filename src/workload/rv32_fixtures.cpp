#include "workload/rv32_fixtures.hpp"

#include <bit>

#include "common/contracts.hpp"
#include "frontend/elf_loader.hpp"
#include "isa/rv32.hpp"

namespace steersim {
namespace {

namespace rv = rv32;

void append_double(std::vector<std::uint8_t>& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff));
  }
}

/// rv32_int: 599 iterations of a leaf call computing a mul/div/rem mix.
///
///    0  addi x10, x0, 600      # N
///    1  addi x11, x0, 1        # i
///    2  addi x12, x0, 0        # acc
///  loop (3):
///    3  jal  x1, func          # +24 bytes -> word 9
///    4  add  x12, x12, x13
///    5  addi x11, x11, 1
///    6  bne  x11, x10, loop    # -12 bytes -> word 3
///    7  sw   x12, 0(x0)
///    8  ecall
///  func (9):
///    9  mul  x13, x11, x11
///   10  srli x14, x13, 3
///   11  add  x13, x13, x14
///   12  div  x14, x13, x11
///   13  rem  x15, x13, x10
///   14  add  x13, x14, x15
///   15  jalr x0, x1, 0         # ret
Rv32Fixture build_int_fixture() {
  Rv32Fixture fx;
  fx.name = "rv32_int";
  fx.description =
      "integer mul/div/rem loop with a jal/jalr leaf call (599 iterations)";
  fx.text_base = 0x1000;
  fx.entry = 0x1000;
  fx.text = {
      rv::addi(10, 0, 600),
      rv::addi(11, 0, 1),
      rv::addi(12, 0, 0),
      rv::jal(1, 24),
      rv::add(12, 12, 13),
      rv::addi(11, 11, 1),
      rv::bne(11, 10, -12),
      rv::sw(0, 12, 0),
      rv::ecall(),
      rv::mul(13, 11, 11),
      rv::srli(14, 13, 3),
      rv::add(13, 13, 14),
      rv::div(14, 13, 11),
      rv::rem(15, 13, 10),
      rv::add(13, 14, 15),
      rv::jalr(0, 1, 0),
  };
  // C++ mirror of the program (64-bit register semantics).
  std::int64_t acc = 0;
  for (std::int64_t i = 1; i != 600; ++i) {
    std::int64_t t = i * i;
    t += static_cast<std::int64_t>(static_cast<std::uint64_t>(t) >> 3);
    acc += t / i + t % 600;
  }
  fx.checks.push_back(Rv32Check{0, false, acc, 0.0});
  return fx;
}

/// rv32_fp: squared-plus-ratio reduction over 256 doubles loaded from the
/// data segment at address 0; result stored at 4096 via a lui-built base.
///
///    0  addi x1, x0, 0         # i
///    1  addi x2, x0, 256       # N
///    2  addi x3, x0, 0         # byte pointer
///    3  fcvt.s.w f1, x0        # acc = 0.0
///  loop (4):
///    4  flw  f2, 0(x3)
///    5  fmul f3, f2, f2
///    6  fadd f1, f1, f3
///    7  fdiv f4, f3, f2
///    8  fadd f1, f1, f4
///    9  addi x3, x3, 8
///   10  addi x1, x1, 1
///   11  bne  x1, x2, loop      # -28 bytes -> word 4
///   12  lui  x4, 1             # 4096
///   13  fsw  f1, 0(x4)
///   14  ecall
Rv32Fixture build_fp_fixture() {
  Rv32Fixture fx;
  fx.name = "rv32_fp";
  fx.description =
      "FP mul/add/div reduction over a 256-double data segment";
  fx.text_base = 0x2000;
  fx.entry = 0x2000;
  fx.text = {
      rv::addi(1, 0, 0),
      rv::addi(2, 0, 256),
      rv::addi(3, 0, 0),
      rv::fcvt_s_w(1, 0),
      rv::flw(2, 3, 0),
      rv::fmul_s(3, 2, 2),
      rv::fadd_s(1, 1, 3),
      rv::fdiv_s(4, 3, 2),
      rv::fadd_s(1, 1, 4),
      rv::addi(3, 3, 8),
      rv::addi(1, 1, 1),
      rv::bne(1, 2, -28),
      rv::lui(4, 1),
      rv::fsw(4, 1, 0),
      rv::ecall(),
  };
  fx.data_vaddr = 0;
  double acc = 0.0;
  for (unsigned i = 0; i < 256; ++i) {
    const double a = 1.0 + static_cast<double>(i % 9) * 0.5;
    append_double(fx.data, a);
    const double sq = a * a;
    acc += sq;
    acc += sq / a;
  }
  fx.checks.push_back(Rv32Check{4096, true, 0, acc});
  return fx;
}

/// rv32_phases: six outer rounds alternating an integer phase (leaf call
/// + div/rem) and an FP phase (cvt/mul/add/div). The entry point is word
/// 4, *after* the callee — a non-leading entry exercising the
/// translator's jump stub.
///
///  helper (0, 0x3000):
///    0  mul  x7, x5, x5
///    1  add  x6, x6, x7
///    2  jalr x0, x1, 0
///    3  ecall                  # padding, never reached
///  entry (4, 0x3010):
///    4  addi x10, x0, 6        # outer rounds
///    5  addi x6, x0, 0         # int acc
///    6  fcvt.s.w f1, x0        # fp acc
///  outer (7):
///    7  addi x5, x0, 1
///    8  addi x4, x0, 200
///  iloop (9):
///    9  jal  x1, helper        # -36 bytes -> word 0
///   10  div  x7, x6, x5
///   11  rem  x8, x7, x4
///   12  add  x6, x6, x8
///   13  addi x5, x5, 1
///   14  bne  x5, x4, iloop     # -20 bytes -> word 9
///   15  addi x5, x0, 1
///   16  fcvt.s.w f2, x5
///  floop (17):
///   17  fcvt.s.w f3, x5
///   18  fmul f4, f3, f3
///   19  fadd f1, f1, f4
///   20  fdiv f5, f4, f3
///   21  fadd f2, f2, f5
///   22  addi x5, x5, 1
///   23  bne  x5, x4, floop     # -24 bytes -> word 17
///   24  fadd f1, f1, f2
///   25  addi x10, x10, -1
///   26  bne  x10, x0, outer    # -76 bytes -> word 7
///   27  lui  x9, 2             # 8192
///   28  sw   x6, 0(x9)
///   29  fsw  f1, 8(x9)
///   30  ecall
Rv32Fixture build_phases_fixture() {
  Rv32Fixture fx;
  fx.name = "rv32_phases";
  fx.description =
      "alternating integer and FP phases (6 rounds), non-leading entry";
  fx.text_base = 0x3000;
  fx.entry = 0x3010;
  fx.text = {
      rv::mul(7, 5, 5),
      rv::add(6, 6, 7),
      rv::jalr(0, 1, 0),
      rv::ecall(),
      rv::addi(10, 0, 6),
      rv::addi(6, 0, 0),
      rv::fcvt_s_w(1, 0),
      rv::addi(5, 0, 1),
      rv::addi(4, 0, 200),
      rv::jal(1, -36),
      rv::div(7, 6, 5),
      rv::rem(8, 7, 4),
      rv::add(6, 6, 8),
      rv::addi(5, 5, 1),
      rv::bne(5, 4, -20),
      rv::addi(5, 0, 1),
      rv::fcvt_s_w(2, 5),
      rv::fcvt_s_w(3, 5),
      rv::fmul_s(4, 3, 3),
      rv::fadd_s(1, 1, 4),
      rv::fdiv_s(5, 4, 3),
      rv::fadd_s(2, 2, 5),
      rv::addi(5, 5, 1),
      rv::bne(5, 4, -24),
      rv::fadd_s(1, 1, 2),
      rv::addi(10, 10, -1),
      rv::bne(10, 0, -76),
      rv::lui(9, 2),
      rv::sw(9, 6, 0),
      rv::fsw(9, 1, 8),
      rv::ecall(),
  };
  // C++ mirror.
  std::int64_t int_acc = 0;
  double fp_acc = 0.0;
  for (int round = 0; round < 6; ++round) {
    for (std::int64_t i = 1; i != 200; ++i) {
      int_acc += i * i;
      int_acc += (int_acc / i) % 200;
    }
    double f2 = 1.0;
    for (std::int64_t i = 1; i != 200; ++i) {
      const double v = static_cast<double>(i);
      const double sq = v * v;
      fp_acc += sq;
      f2 += sq / v;
    }
    fp_acc += f2;
  }
  fx.checks.push_back(Rv32Check{8192, false, int_acc, 0.0});
  fx.checks.push_back(Rv32Check{8200, true, 0, fp_acc});
  return fx;
}

}  // namespace

const std::vector<Rv32Fixture>& rv32_fixture_library() {
  static const std::vector<Rv32Fixture> fixtures = [] {
    std::vector<Rv32Fixture> built = {
        build_int_fixture(),
        build_fp_fixture(),
        build_phases_fixture(),
    };
    for (Rv32Fixture& fx : built) {
      fx.elf = rv32_fixture_elf(fx);
    }
    return built;
  }();
  return fixtures;
}

const Rv32Fixture* rv32_fixture_find(const std::string& name) {
  for (const Rv32Fixture& fx : rv32_fixture_library()) {
    if (fx.name == name) {
      return &fx;
    }
  }
  return nullptr;
}

const Rv32Fixture& rv32_fixture_by_name(const std::string& name) {
  const Rv32Fixture* fx = rv32_fixture_find(name);
  STEERSIM_EXPECTS(fx != nullptr);
  return *fx;
}

std::vector<std::uint8_t> rv32_fixture_elf(const Rv32Fixture& fixture) {
  elf::ElfBuilder builder;
  builder.entry(fixture.entry).text(fixture.text_base, fixture.text);
  if (!fixture.data.empty()) {
    builder.segment(fixture.data_vaddr, fixture.data, false);
  }
  return builder.build();
}

Program rv32_fixture_program(const Rv32Fixture& fixture) {
  const std::vector<std::uint8_t> image = rv32_fixture_elf(fixture);
  return elf::load_elf_program(image, fixture.name);
}

}  // namespace steersim
