#include "workload/synthetic.hpp"

#include <algorithm>
#include <array>

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
        out_ += skip_label_ + ":\n";
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
      out_ += skip_label_ + ":\n";
      pending_skip_ = 0;
    }
  }

 private:
  std::string int_reg(unsigned idx) const {
    std::string reg = "r";
    reg += std::to_string(kIntPoolBase + idx);
    return reg;
  }
  std::string fp_reg(unsigned idx) const {
    std::string reg = "f";
    reg += std::to_string(kFpPoolBase + idx);
    return reg;
  }

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

  std::string random_offset() {
    const unsigned limit = std::min(spec_.array_words, 2047u);
    return std::to_string(8 * rng_.next_below(limit));
  }

  void emit_one(Category cat, unsigned phase_idx, unsigned inst_idx) {
    switch (cat) {
      case Category::kIntAlu: {
        static constexpr std::array<const char*, 6> kOps = {
            "add", "sub", "xor", "and", "or", "slt"};
        out_ += std::string("  ") + kOps[rng_.next_below(kOps.size())] +
                " " + int_reg(pick_int_dst()) + ", " +
                int_reg(pick_int_src()) + ", " + int_reg(pick_int_src()) +
                "\n";
        break;
      }
      case Category::kIntMul:
        out_ += "  mul " + int_reg(pick_int_dst()) + ", " +
                int_reg(pick_int_src()) + ", " + int_reg(pick_int_src()) +
                "\n";
        break;
      case Category::kIntDiv:
        out_ += "  div " + int_reg(pick_int_dst()) + ", " +
                int_reg(pick_int_src()) + ", " + int_reg(pick_int_src()) +
                "\n";
        break;
      case Category::kLoad:
        out_ += "  lw " + int_reg(pick_int_dst()) + ", " + random_offset() +
                "(r" + std::to_string(kArrayBase) + ")\n";
        break;
      case Category::kStore:
        out_ += "  sw " + int_reg(pick_int_src()) + ", " + random_offset() +
                "(r" + std::to_string(kArrayBase) + ")\n";
        break;
      case Category::kFpLoad:
        out_ += "  flw " + fp_reg(pick_fp_dst()) + ", " + random_offset() +
                "(r" + std::to_string(kArrayBase) + ")\n";
        break;
      case Category::kFpStore:
        out_ += "  fsw " + fp_reg(pick_fp_src()) + ", " + random_offset() +
                "(r" + std::to_string(kArrayBase) + ")\n";
        break;
      case Category::kFpAdd: {
        const char* op = rng_.next_bool(0.5) ? "fadd" : "fsub";
        out_ += std::string("  ") + op + " " + fp_reg(pick_fp_dst()) + ", " +
                fp_reg(pick_fp_src()) + ", " + fp_reg(pick_fp_src()) + "\n";
        break;
      }
      case Category::kFpMul:
        out_ += "  fmul " + fp_reg(pick_fp_dst()) + ", " +
                fp_reg(pick_fp_src()) + ", " + fp_reg(pick_fp_src()) + "\n";
        break;
      case Category::kFpDiv:
        out_ += "  fdiv " + fp_reg(pick_fp_dst()) + ", " +
                fp_reg(pick_fp_src()) + ", " + fp_reg(pick_fp_src()) + "\n";
        break;
      case Category::kBranch: {
        skip_label_ = "skip_" + std::to_string(phase_idx) + "_" +
                      std::to_string(inst_idx);
        pending_skip_ = 1 + static_cast<unsigned>(rng_.next_below(3));
        out_ += "  blt " + int_reg(pick_int_src()) + ", " +
                int_reg(pick_int_src()) + ", " + skip_label_ + "\n";
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
  out += "# synthetic workload '" + spec.name + "'\n";
  out += ".data\n";
  out += "arr: .space " + std::to_string(spec.array_words) + "\n";
  out += ".text\n";
  out += "  la r" + std::to_string(kArrayBase) + ", arr\n";
  out += "  li r" + std::to_string(kOuterCounter) + ", " +
         std::to_string(spec.outer_repeats) + "\n";

  // Initialize the integer pool with small distinct constants and seed the
  // array's first words so loads see nonzero data.
  for (unsigned i = 0; i < kIntPoolSize; ++i) {
    out += "  addi r" + std::to_string(kIntPoolBase + i) + ", r0, " +
           std::to_string(3 + 7 * i) + "\n";
  }
  for (unsigned i = 0; i < kIntPoolSize; ++i) {
    out += "  sw r" + std::to_string(kIntPoolBase + i) + ", " +
           std::to_string(8 * i) + "(r" + std::to_string(kArrayBase) +
           ")\n";
  }
  for (unsigned i = 0; i < kFpPoolSize; ++i) {
    out += "  cvt.i.f f" + std::to_string(kFpPoolBase + i) + ", r" +
           std::to_string(kIntPoolBase + (i % kIntPoolSize)) + "\n";
  }

  out += "outer:\n";
  BodyEmitter emitter(spec, rng, out);
  for (unsigned p = 0; p < spec.phases.size(); ++p) {
    const PhaseSpec& phase = spec.phases[p];
    STEERSIM_EXPECTS(phase.body_length >= 1 && phase.iterations >= 1);
    const std::string label = "phase" + std::to_string(p);
    out += label + ":\n";
    out += "  li r" + std::to_string(kLoopCounter) + ", " +
           std::to_string(phase.iterations) + "\n";
    out += label + "_loop:\n";
    emitter.emit_body(phase, p);
    out += "  addi r" + std::to_string(kLoopCounter) + ", r" +
           std::to_string(kLoopCounter) + ", -1\n";
    out += "  bne r" + std::to_string(kLoopCounter) + ", r0, " + label +
           "_loop\n";
  }
  out += "  addi r" + std::to_string(kOuterCounter) + ", r" +
         std::to_string(kOuterCounter) + ", -1\n";
  out += "  bne r" + std::to_string(kOuterCounter) + ", r0, outer\n";
  out += "  halt\n";
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
