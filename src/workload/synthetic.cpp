#include "workload/synthetic.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>
#include <type_traits>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"

namespace steersim {
namespace {

// Register conventions used by generated code.
constexpr unsigned kOuterCounter = 1;
constexpr unsigned kArrayBase = 2;
constexpr unsigned kLoopCounter = 3;
constexpr unsigned kIntPoolBase = 8;
constexpr unsigned kIntPoolSize = 16;
constexpr unsigned kFpPoolBase = 1;
constexpr unsigned kFpPoolSize = 16;

enum class Category : std::uint8_t {
  kIntAlu,
  kIntMul,
  kIntDiv,
  kLoad,
  kStore,
  kFpLoad,
  kFpStore,
  kFpAdd,
  kFpMul,
  kFpDiv,
  kBranch,
};

/// Appends the decimal spelling of `value`.
void append_uint(std::string& out, std::uint64_t value) {
  std::array<char, 20> buf;
  char* end = std::to_chars(buf.data(), buf.data() + buf.size(), value).ptr;
  out.append(buf.data(), end);
}

/// Appends `parts` (strings and unsigned numbers) and a newline.
template <typename... Parts>
void append_line(std::string& out, const Parts&... parts) {
  const auto append = [&out](const auto& part) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(part)>>) {
      append_uint(out, part);
    } else {
      out += part;
    }
  };
  (append(parts), ...);
  out += '\n';
}


class BodyEmitter {
 public:
  BodyEmitter(const SyntheticSpec& spec, Xoshiro256& rng, std::string& out)
      : spec_(spec), rng_(rng), out_(out) {}

  void emit_body(const PhaseSpec& phase, unsigned phase_idx) {
    const MixSpec& mix = phase.mix;
    const std::array<std::pair<Category, double>, 11> weights = {{
        {Category::kIntAlu, mix.int_alu},
        {Category::kIntMul, mix.int_mul},
        {Category::kIntDiv, mix.int_div},
        {Category::kLoad, mix.load},
        {Category::kStore, mix.store},
        {Category::kFpLoad, mix.fp_load},
        {Category::kFpStore, mix.fp_store},
        {Category::kFpAdd, mix.fp_add},
        {Category::kFpMul, mix.fp_mul},
        {Category::kFpDiv, mix.fp_div},
        {Category::kBranch, mix.branch},
    }};
    const double total = mix.total();
    STEERSIM_EXPECTS(total > 0.0);

    for (unsigned i = 0; i < phase.body_length; ++i) {
      if (pending_skip_ > 0 && --pending_skip_ == 0) {
        emit_skip_label();
      }
      double pick = rng_.next_double() * total;
      Category cat = Category::kIntAlu;
      for (const auto& [c, w] : weights) {
        if (pick < w) {
          cat = c;
          break;
        }
        pick -= w;
      }
      // A branch as the final body instruction would need its landing
      // label outside the body; just use an ALU op instead.
      if (cat == Category::kBranch &&
          (pending_skip_ > 0 || i + 3 >= phase.body_length)) {
        cat = Category::kIntAlu;
      }
      emit_one(cat, phase_idx, i);
    }
    if (pending_skip_ > 0) {
      emit_skip_label();
      pending_skip_ = 0;
    }
  }

 private:
  unsigned pick_int_src() {
    if (!recent_int_.empty() && rng_.next_bool(spec_.dep_density)) {
      return recent_int_[rng_.next_below(recent_int_.size())];
    }
    return static_cast<unsigned>(rng_.next_below(kIntPoolSize));
  }
  unsigned pick_fp_src() {
    if (!recent_fp_.empty() && rng_.next_bool(spec_.dep_density)) {
      return recent_fp_[rng_.next_below(recent_fp_.size())];
    }
    return static_cast<unsigned>(rng_.next_below(kFpPoolSize));
  }
  unsigned pick_int_dst() {
    const auto dst = static_cast<unsigned>(rng_.next_below(kIntPoolSize));
    note_recent(recent_int_, dst);
    return dst;
  }
  unsigned pick_fp_dst() {
    const auto dst = static_cast<unsigned>(rng_.next_below(kFpPoolSize));
    note_recent(recent_fp_, dst);
    return dst;
  }
  static void note_recent(std::vector<unsigned>& recent, unsigned reg) {
    recent.push_back(reg);
    if (recent.size() > 4) {
      recent.erase(recent.begin());
    }
  }

  std::uint64_t random_offset() {
    const unsigned limit = std::min(spec_.array_words, 2047u);
    return 8 * rng_.next_below(limit);
  }

  void emit_skip_label() { append_line(out_, skip_label_, ":"); }

  /// "  op Xrd, Xrs1, Xrs2" over one register file (`file` "r" or "f").
  void emit_rrr(std::string_view op, std::string_view file, unsigned base,
                unsigned rd, unsigned rs1, unsigned rs2) {
    append_line(out_, "  ", op, " ", file, base + rd, ", ", file, base + rs1,
                ", ", file, base + rs2);
  }

  /// "  op Xreg, offset(r2)".
  void emit_mem(std::string_view op, std::string_view file, unsigned reg,
                std::uint64_t offset) {
    append_line(out_, "  ", op, " ", file, reg, ", ", offset, "(r",
                kArrayBase, ")");
  }

  // Each random draw is its own statement, in the order the generator's
  // first version made them. That version built every line as one `+`
  // chain, e.g. "  mul " + reg(dst) + ", " + reg(src1) + ", " + reg(src2),
  // whose operands are unsequenced; GCC evaluates them right to left, so
  // it drew src2, then src1, then dst (and a memory op's offset before its
  // register). Keeping that order keeps every generated program, and each
  // count measured on one, byte-identical, whatever compiler builds this.
  void emit_one(Category cat, unsigned phase_idx, unsigned inst_idx) {
    switch (cat) {
      case Category::kIntAlu: {
        static constexpr std::array<std::string_view, 6> kOps = {
            "add", "sub", "xor", "and", "or", "slt"};
        const unsigned src2 = pick_int_src();
        const unsigned src1 = pick_int_src();
        const unsigned dst = pick_int_dst();
        const std::string_view op = kOps[rng_.next_below(kOps.size())];
        emit_rrr(op, "r", kIntPoolBase, dst, src1, src2);
        break;
      }
      case Category::kIntMul:
      case Category::kIntDiv: {
        const unsigned src2 = pick_int_src();
        const unsigned src1 = pick_int_src();
        const unsigned dst = pick_int_dst();
        emit_rrr(cat == Category::kIntMul ? "mul" : "div", "r", kIntPoolBase,
                 dst, src1, src2);
        break;
      }
      case Category::kLoad: {
        const std::uint64_t offset = random_offset();
        emit_mem("lw", "r", kIntPoolBase + pick_int_dst(), offset);
        break;
      }
      case Category::kStore: {
        const std::uint64_t offset = random_offset();
        emit_mem("sw", "r", kIntPoolBase + pick_int_src(), offset);
        break;
      }
      case Category::kFpLoad: {
        const std::uint64_t offset = random_offset();
        emit_mem("flw", "f", kFpPoolBase + pick_fp_dst(), offset);
        break;
      }
      case Category::kFpStore: {
        const std::uint64_t offset = random_offset();
        emit_mem("fsw", "f", kFpPoolBase + pick_fp_src(), offset);
        break;
      }
      case Category::kFpAdd:
      case Category::kFpMul:
      case Category::kFpDiv: {
        std::string_view op = cat == Category::kFpMul ? "fmul" : "fdiv";
        if (cat == Category::kFpAdd) {
          op = rng_.next_bool(0.5) ? "fadd" : "fsub";
        }
        const unsigned src2 = pick_fp_src();
        const unsigned src1 = pick_fp_src();
        const unsigned dst = pick_fp_dst();
        emit_rrr(op, "f", kFpPoolBase, dst, src1, src2);
        break;
      }
      case Category::kBranch: {
        skip_label_ = "skip_";
        append_uint(skip_label_, phase_idx);
        skip_label_ += '_';
        append_uint(skip_label_, inst_idx);
        pending_skip_ = 1 + static_cast<unsigned>(rng_.next_below(3));
        const unsigned src2 = pick_int_src();
        const unsigned src1 = pick_int_src();
        append_line(out_, "  blt r", kIntPoolBase + src1, ", r",
                    kIntPoolBase + src2, ", ", skip_label_);
        break;
      }
    }
  }

  const SyntheticSpec& spec_;
  Xoshiro256& rng_;
  std::string& out_;
  std::vector<unsigned> recent_int_;
  std::vector<unsigned> recent_fp_;
  unsigned pending_skip_ = 0;
  std::string skip_label_;
};

}  // namespace

std::string generate_synthetic_asm(const SyntheticSpec& spec) {
  STEERSIM_EXPECTS(!spec.phases.empty());
  STEERSIM_EXPECTS(spec.outer_repeats >= 1);
  STEERSIM_EXPECTS(spec.array_words >= 16);

  Xoshiro256 rng(spec.seed);
  std::string out;
  // About 20 bytes per body line, plus the prologue and loop control.
  std::size_t body_lines = 0;
  for (const PhaseSpec& phase : spec.phases) {
    body_lines += phase.body_length + 5;
  }
  out.reserve(2048 + 24 * body_lines);
  append_line(out, "# synthetic workload '", spec.name, "'");
  append_line(out, ".data");
  append_line(out, "arr: .space ", spec.array_words);
  append_line(out, ".text");
  append_line(out, "  la r", kArrayBase, ", arr");
  append_line(out, "  li r", kOuterCounter, ", ", spec.outer_repeats);

  // Initialize the integer pool with small distinct constants and seed the
  // array's first words so loads see nonzero data.
  for (unsigned i = 0; i < kIntPoolSize; ++i) {
    append_line(out, "  addi r", kIntPoolBase + i, ", r0, ", 3 + 7 * i);
  }
  for (unsigned i = 0; i < kIntPoolSize; ++i) {
    append_line(out, "  sw r", kIntPoolBase + i, ", ", 8 * i, "(r",
                kArrayBase, ")");
  }
  for (unsigned i = 0; i < kFpPoolSize; ++i) {
    append_line(out, "  cvt.i.f f", kFpPoolBase + i, ", r",
                kIntPoolBase + (i % kIntPoolSize));
  }

  append_line(out, "outer:");
  BodyEmitter emitter(spec, rng, out);
  for (unsigned p = 0; p < spec.phases.size(); ++p) {
    const PhaseSpec& phase = spec.phases[p];
    STEERSIM_EXPECTS(phase.body_length >= 1 && phase.iterations >= 1);
    append_line(out, "phase", p, ":");
    append_line(out, "  li r", kLoopCounter, ", ", phase.iterations);
    append_line(out, "phase", p, "_loop:");
    emitter.emit_body(phase, p);
    append_line(out, "  addi r", kLoopCounter, ", r", kLoopCounter, ", -1");
    append_line(out, "  bne r", kLoopCounter, ", r0, phase", p, "_loop");
  }
  append_line(out, "  addi r", kOuterCounter, ", r", kOuterCounter, ", -1");
  append_line(out, "  bne r", kOuterCounter, ", r0, outer");
  append_line(out, "  halt");
  return out;
}

Program generate_synthetic(const SyntheticSpec& spec) {
  return assemble(generate_synthetic_asm(spec), spec.name);
}

SyntheticSpec single_phase(const MixSpec& mix, unsigned body_length,
                           unsigned iterations, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.name = mix.name;
  spec.phases.push_back(PhaseSpec{mix, body_length, iterations});
  spec.seed = seed;
  return spec;
}

SyntheticSpec alternating_phases(unsigned phase_instructions,
                                 unsigned num_phase_pairs,
                                 std::uint64_t seed) {
  STEERSIM_EXPECTS(phase_instructions >= 64);
  SyntheticSpec spec;
  spec.name = "alternating";
  spec.seed = seed;
  const unsigned body = 64;
  const unsigned iters = std::max(1u, phase_instructions / body);
  for (unsigned i = 0; i < num_phase_pairs; ++i) {
    spec.phases.push_back(PhaseSpec{int_heavy_mix(), body, iters});
    spec.phases.push_back(PhaseSpec{fp_heavy_mix(), body, iters});
  }
  return spec;
}

}  // namespace steersim
