// The synthetic programs steerbench's simulator workloads generate
// (bench/e2e/sim_workloads.cpp): sim_phased's alternating phases,
// sim_serial's FP-divide chains and mc_split4's int-heavy, phased and
// fp-heavy tenants. Tests that pin the generator's output or compare the
// assembler against its reference build the same five shapes.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/mix.hpp"
#include "workload/synthetic.hpp"

namespace steersim::steerbench_specs {

/// `loops` loops of `mix`, 64-instruction bodies, `instructions` in all.
inline void add_loops(SyntheticSpec& spec, const MixSpec& mix,
                      unsigned instructions, unsigned loops) {
  constexpr unsigned kBody = 64;
  for (unsigned i = 0; i < loops; ++i) {
    spec.phases.push_back(PhaseSpec{mix, kBody, instructions / loops / kBody});
  }
}

inline SyntheticSpec phased(unsigned phase_instructions, unsigned pairs,
                            std::uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "phased";
  spec.seed = seed;
  for (unsigned i = 0; i < pairs; ++i) {
    add_loops(spec, int_heavy_mix(), phase_instructions, 4);
    add_loops(spec, fp_heavy_mix(), phase_instructions, 4);
  }
  return spec;
}

inline SyntheticSpec steady(const MixSpec& mix, unsigned instructions,
                            std::uint64_t seed) {
  SyntheticSpec spec;
  spec.name = mix.name;
  spec.seed = seed;
  add_loops(spec, mix, instructions, 64);
  return spec;
}

inline SyntheticSpec serial(std::uint64_t seed) {
  MixSpec mix;
  mix.name = "serial_fdiv";
  mix.int_alu = 0.1;
  mix.fp_div = 1.0;
  SyntheticSpec spec = steady(mix, 1u << 20, seed);
  spec.dep_density = 1.0;
  return spec;
}

/// The five shapes at `seed`: sim_phased, sim_serial, then mc_split4's
/// int-heavy, phased and fp-heavy tenants (its fourth tenant is the
/// phased shape again at another seed).
inline std::vector<SyntheticSpec> all(std::uint64_t seed) {
  return {phased(1u << 16, 16, seed), serial(seed),
          steady(int_heavy_mix(), 1u << 18, seed), phased(1u << 14, 8, seed),
          steady(fp_heavy_mix(), 1u << 18, seed)};
}

}  // namespace steersim::steerbench_specs
