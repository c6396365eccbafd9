#include "workload/kernels.hpp"

#include <cstdint>
#include <functional>

#include "common/contracts.hpp"
#include "isa/assembler.hpp"

namespace steersim {
namespace {

std::string word_list(unsigned n,
                      const std::function<std::int64_t(unsigned)>& value) {
  std::string out = ".word";
  for (unsigned i = 0; i < n; ++i) {
    out += ' ';
    out += std::to_string(value(i));
  }
  return out;
}

std::string double_list(unsigned n,
                        const std::function<double(unsigned)>& value) {
  std::string out = ".double";
  for (unsigned i = 0; i < n; ++i) {
    out += ' ';
    out += std::to_string(value(i));
  }
  return out;
}

/// Packs a NUL-terminated string into little-endian 64-bit words.
std::string packed_string(const std::string& text) {
  std::vector<std::int64_t> words((text.size() + 1 + 7) / 8, 0);
  for (std::size_t i = 0; i < text.size(); ++i) {
    words[i / 8] |= static_cast<std::int64_t>(
                        static_cast<std::uint8_t>(text[i]))
                    << (8 * (i % 8));
  }
  std::string out = ".word";
  for (const auto w : words) {
    out += ' ';
    out += std::to_string(w);
  }
  return out;
}

std::vector<Kernel> build_kernels() {
  std::vector<Kernel> kernels;

  kernels.push_back(Kernel{
      "fib", "iterative Fibonacci(30); serial integer dependency chain",
      R"(  li r1, 30
  addi r2, r0, 0
  addi r3, r0, 1
fib_loop:
  add r4, r2, r3
  mv r2, r3
  mv r3, r4
  addi r1, r1, -1
  bne r1, r0, fib_loop
  la r5, out
  sw r2, 0(r5)
  halt
.data
out: .word 0
)"});

  kernels.push_back(Kernel{
      "sum_array", "integer reduction over 64 words (load + ALU)",
      R"(  la r1, arr
  li r2, 64
  addi r3, r0, 0
sum_loop:
  lw r4, 0(r1)
  add r3, r3, r4
  addi r1, r1, 8
  addi r2, r2, -1
  bne r2, r0, sum_loop
  la r5, out
  sw r3, 0(r5)
  halt
.data
arr: )" + word_list(64, [](unsigned i) { return i + 1; }) + R"(
out: .word 0
)"});

  kernels.push_back(Kernel{
      "dot_int", "integer dot product, 48 elements (loads + multiply)",
      R"(  la r1, a
  la r2, b
  li r3, 48
  addi r4, r0, 0
dot_loop:
  lw r5, 0(r1)
  lw r6, 0(r2)
  mul r7, r5, r6
  add r4, r4, r7
  addi r1, r1, 8
  addi r2, r2, 8
  addi r3, r3, -1
  bne r3, r0, dot_loop
  la r8, out
  sw r4, 0(r8)
  halt
.data
a: )" + word_list(48, [](unsigned i) { return i + 1; }) + R"(
b: )" + word_list(48, [](unsigned i) { return 2 * i + 1; }) + R"(
out: .word 0
)"});

  kernels.push_back(Kernel{
      "saxpy", "y[i] = 2.5*x[i] + y[i] over 64 doubles (FP pipeline)",
      R"(  la r1, xs
  la r2, ys
  la r3, aconst
  flw f1, 0(r3)
  li r4, 64
saxpy_loop:
  flw f2, 0(r1)
  flw f3, 0(r2)
  fmul f4, f2, f1
  fadd f5, f4, f3
  fsw f5, 0(r2)
  addi r1, r1, 8
  addi r2, r2, 8
  addi r4, r4, -1
  bne r4, r0, saxpy_loop
  halt
.data
aconst: .double 2.5
xs: )" + double_list(64, [](unsigned i) { return i; }) + R"(
ys: )" + double_list(64, [](unsigned) { return 1.0; }) + R"(
)"});

  kernels.push_back(Kernel{
      "memcpy_words", "copy 128 words (pure load/store streaming)",
      R"(  la r1, src
  la r2, dst
  li r3, 128
copy_loop:
  lw r4, 0(r1)
  sw r4, 0(r2)
  addi r1, r1, 8
  addi r2, r2, 8
  addi r3, r3, -1
  bne r3, r0, copy_loop
  halt
.data
src: )" + word_list(128, [](unsigned i) { return 1000 + i; }) + R"(
dst: .space 128
)"});

  kernels.push_back(Kernel{
      "fir", "4-tap FIR filter over 64 samples (FP multiply-accumulate)",
      R"(  la r1, x
  li r4, 60
fir_outer:
  la r2, taps
  mv r6, r1
  addi r5, r0, 4
  cvt.i.f f1, r0
fir_inner:
  flw f2, 0(r6)
  flw f3, 0(r2)
  fmul f4, f2, f3
  fadd f1, f1, f4
  addi r6, r6, 8
  addi r2, r2, 8
  addi r5, r5, -1
  bne r5, r0, fir_inner
  la r7, outv
  li r8, 60
  sub r8, r8, r4
  slli r8, r8, 3
  add r7, r7, r8
  fsw f1, 0(r7)
  addi r1, r1, 8
  addi r4, r4, -1
  bne r4, r0, fir_outer
  halt
.data
taps: .double 0.25 0.5 0.25 0.125
x: )" + double_list(64, [](unsigned i) { return 0.5 * i; }) + R"(
outv: .space 60
)"});

  kernels.push_back(Kernel{
      "matmul_int", "8x8 integer matrix multiply (B = identity, so C = A)",
      R"(  la r4, A
  la r5, B
  la r6, C
  addi r1, r0, 0
mm_i:
  addi r2, r0, 0
mm_j:
  addi r3, r0, 0
  addi r7, r0, 0
mm_k:
  slli r8, r1, 3
  add r8, r8, r3
  slli r8, r8, 3
  add r8, r8, r4
  lw r9, 0(r8)
  slli r10, r3, 3
  add r10, r10, r2
  slli r10, r10, 3
  add r10, r10, r5
  lw r11, 0(r10)
  mul r12, r9, r11
  add r7, r7, r12
  addi r3, r3, 1
  slti r13, r3, 8
  bne r13, r0, mm_k
  slli r8, r1, 3
  add r8, r8, r2
  slli r8, r8, 3
  add r8, r8, r6
  sw r7, 0(r8)
  addi r2, r2, 1
  slti r13, r2, 8
  bne r13, r0, mm_j
  addi r1, r1, 1
  slti r13, r1, 8
  bne r13, r0, mm_i
  halt
.data
A: )" + word_list(64, [](unsigned i) { return i; }) + R"(
B: )" +
          word_list(64,
                    [](unsigned i) { return (i / 8 == i % 8) ? 1 : 0; }) +
          R"(
C: .space 64
)"});

  kernels.push_back(Kernel{
      "strlen", "byte-wise string scan (unaligned lb accesses)",
      std::string(R"(  la r1, str
  addi r2, r0, 0
len_loop:
  lb r3, 0(r1)
  beq r3, r0, len_done
  addi r1, r1, 1
  addi r2, r2, 1
  j len_loop
len_done:
  la r4, out
  sw r2, 0(r4)
  halt
.data
str: )") +
          packed_string("the quick brown fox jumps over the lazy dog") +
          R"(
out: .word 0
)"});

  kernels.push_back(Kernel{
      "newton_sqrt",
      "Newton iteration for sqrt(2), 16 steps (serial FP divide chain)",
      R"(  la r1, consts
  flw f1, 0(r1)
  flw f2, 8(r1)
  flw f3, 16(r1)
  li r2, 16
nw_loop:
  fdiv f4, f1, f2
  fadd f5, f2, f4
  fmul f2, f5, f3
  addi r2, r2, -1
  bne r2, r0, nw_loop
  la r3, out
  fsw f2, 0(r3)
  halt
.data
consts: .double 2.0 1.0 0.5
out: .double 0.0
)"});

  kernels.push_back(Kernel{
      "crc_mix", "shift/xor mixing over 64 words (ALU-dense with loads)",
      R"(  la r1, arr
  li r2, 64
  addi r3, r0, -1
crc_loop:
  lw r4, 0(r1)
  slli r5, r3, 1
  srli r6, r3, 3
  xor r3, r5, r4
  xor r3, r3, r6
  addi r1, r1, 8
  addi r2, r2, -1
  bne r2, r0, crc_loop
  la r7, out
  sw r3, 0(r7)
  halt
.data
arr: )" +
          word_list(64, [](unsigned i) {
            return static_cast<std::int64_t>(i) * 2654435761LL;
          }) + R"(
out: .word 0
)"});

  kernels.push_back(Kernel{
      "vector_scale", "c[i] = 3.0 * a[i] over 96 doubles (FP streaming)",
      std::string(R"(  la r1, a
  la r2, c
  la r3, k
  flw f1, 0(r3)
  li r4, 96
vs_loop:
  flw f2, 0(r1)
  fmul f3, f2, f1
  fsw f3, 0(r2)
  addi r1, r1, 8
  addi r2, r2, 8
  addi r4, r4, -1
  bne r4, r0, vs_loop
  halt
.data
k: .double 3.0
a: )") + double_list(96, [](unsigned i) { return 0.25 * i + 1.0; }) + R"(
c: .space 96
)"});

  kernels.push_back(Kernel{
      "bubble_sort",
      "bubble sort 32 words, worst case (branchy, swap-heavy memory)",
      std::string(R"(  la r1, arr
  li r2, 32
  addi r3, r2, -1
bs_outer:
  mv r4, r1
  mv r5, r3
bs_inner:
  lw r6, 0(r4)
  lw r7, 8(r4)
  bge r7, r6, bs_noswap
  sw r7, 0(r4)
  sw r6, 8(r4)
bs_noswap:
  addi r4, r4, 8
  addi r5, r5, -1
  bne r5, r0, bs_inner
  addi r3, r3, -1
  bne r3, r0, bs_outer
  halt
.data
arr: )") + word_list(32, [](unsigned i) { return 32 - i; }) + R"(
)"});

  kernels.push_back(Kernel{
      "binsearch",
      "binary search of 8 keys in a 64-entry sorted array (data-dependent "
      "branches)",
      R"(  la r9, sarr
  la r10, keys
  li r11, 8
  addi r12, r0, 0
key_loop:
  lw r13, 0(r10)
  addi r1, r0, 0
  li r2, 64
search_loop:
  bge r1, r2, key_done
  add r3, r1, r2
  srli r3, r3, 1
  slli r4, r3, 3
  add r5, r9, r4
  lw r6, 0(r5)
  beq r6, r13, key_found
  blt r6, r13, go_right
  mv r2, r3
  j search_loop
go_right:
  addi r1, r3, 1
  j search_loop
key_found:
  addi r12, r12, 1
key_done:
  addi r10, r10, 8
  addi r11, r11, -1
  bne r11, r0, key_loop
  la r14, out
  sw r12, 0(r14)
  halt
.data
sarr: )" + word_list(64, [](unsigned i) { return 3 * i + 1; }) + R"(
keys: .word 1 49 94 190 2 50 95 191
out: .word 0
)"});

  kernels.push_back(Kernel{
      "transpose",
      "8x8 integer matrix transpose (strided addressing, no ALU chains)",
      R"(  la r1, M
  la r2, T
  addi r3, r0, 0
tr_i:
  addi r4, r0, 0
tr_j:
  slli r5, r3, 3
  add r5, r5, r4
  slli r5, r5, 3
  add r5, r5, r1
  lw r6, 0(r5)
  slli r7, r4, 3
  add r7, r7, r3
  slli r7, r7, 3
  add r7, r7, r2
  sw r6, 0(r7)
  addi r4, r4, 1
  slti r8, r4, 8
  bne r8, r0, tr_j
  addi r3, r3, 1
  slti r8, r3, 8
  bne r8, r0, tr_i
  halt
.data
M: )" + word_list(64, [](unsigned i) { return 100 + i; }) + R"(
T: .space 64
)"});

  kernels.push_back(Kernel{
      "histogram",
      "bins[v&7]++ over 128 values (store-to-load forwarding stress)",
      R"(  la r1, vals
  la r2, bins
  li r3, 128
h_loop:
  lw r4, 0(r1)
  andi r4, r4, 7
  slli r4, r4, 3
  add r5, r4, r2
  lw r6, 0(r5)
  addi r6, r6, 1
  sw r6, 0(r5)
  addi r1, r1, 8
  addi r3, r3, -1
  bne r3, r0, h_loop
  halt
.data
vals: )" +
          word_list(128,
                    [](unsigned i) {
                      return static_cast<std::int64_t>((i * 37 + 11) % 23);
                    }) +
          R"(
bins: .space 8
)"});

  return kernels;
}

}  // namespace

Program Kernel::assemble_program() const { return assemble(source, name); }

const std::vector<Kernel>& kernel_library() {
  static const std::vector<Kernel> kernels = build_kernels();
  return kernels;
}

const Kernel& kernel_by_name(const std::string& name) {
  for (const auto& k : kernel_library()) {
    if (k.name == name) {
      return k;
    }
  }
  STEERSIM_UNREACHABLE("unknown kernel");
}

}  // namespace steersim
