// Command-line ELF runner: load a static RV32 ELF (or a named committed
// fixture), translate it through the RV32 front end and execute it on the
// reconfigurable superscalar, printing the full statistics report.
//
//   $ ./tools/run_elf program.elf [policy] [--dump-words N] [--report ID]
//                      [--trace PATH]
//   $ ./tools/run_elf --fixture rv32_phases steered --report elf_smoke
//
// policy ∈ steered|static-ffu|static-integer|static-memory|static-float|
//          oracle|full-reconfig|random|greedy            (default steered)
//
// --report ID writes BENCH_<ID>.json in the steersim-bench/1 schema (the
// same report path every bench uses), so tools/bench_compare can diff two
// runs — CI runs the committed fixtures twice and requires the simulated
// metrics to be bit-identical.
//
// --trace PATH streams a Chrome trace-event JSON of the run (open in
// Perfetto / chrome://tracing); see docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "frontend/elf_loader.hpp"
#include "isa/rv32.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/rv32_fixtures.hpp"

using namespace steersim;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (program.elf | --fixture NAME) [policy] "
               "[--dump-words N] [--report ID] [--trace PATH]\n"
               "fixtures:",
               argv0);
  for (const Rv32Fixture& fx : rv32_fixture_library()) {
    std::fprintf(stderr, " %s", fx.name.c_str());
  }
  std::fputc('\n', stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage(argv[0]);
  }

  std::string input_name;
  std::vector<std::uint8_t> image;
  PolicySpec spec;
  unsigned dump_words = 0;
  std::string report_id;
  std::string trace_path;

  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--fixture") == 0 && a + 1 < argc) {
      input_name = argv[++a];
      const Rv32Fixture* fx = rv32_fixture_find(input_name);
      if (fx == nullptr) {
        std::fprintf(stderr, "unknown fixture '%s'\n", input_name.c_str());
        return usage(argv[0]);
      }
      image = rv32_fixture_elf(*fx);
    } else if (std::strcmp(argv[a], "--dump-words") == 0 && a + 1 < argc) {
      dump_words = static_cast<unsigned>(std::atoi(argv[++a]));
    } else if (std::strcmp(argv[a], "--report") == 0 && a + 1 < argc) {
      report_id = argv[++a];
    } else if (std::strcmp(argv[a], "--trace") == 0 && a + 1 < argc) {
      trace_path = argv[++a];
    } else if (input_name.empty() && argv[a][0] != '-') {
      input_name = argv[a];
      std::ifstream file(input_name, std::ios::binary);
      if (!file) {
        std::fprintf(stderr, "cannot open '%s'\n", input_name.c_str());
        return 2;
      }
      image.assign(std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>());
    } else if (!parse_policy(argv[a], spec)) {
      std::fprintf(stderr, "unknown policy '%s'\n", argv[a]);
      return usage(argv[0]);
    }
  }
  if (image.empty()) {
    std::fprintf(stderr, "no ELF input\n");
    return usage(argv[0]);
  }

  Program program;
  try {
    program = elf::load_elf_program(image, input_name);
  } catch (const elf::ElfError& e) {
    std::fprintf(stderr, "%s: %s\n", input_name.c_str(), e.what());
    return 1;
  } catch (const rv32::Rv32Error& e) {
    std::fprintf(stderr, "%s: %s\n", input_name.c_str(), e.what());
    return 1;
  }
  std::printf("loaded %zu instructions, %zu data words (%zu ELF bytes)\n",
              program.code.size(), program.data.size(), image.size());

  MachineConfig config;
  if (!trace_path.empty()) {
    config.trace.enabled = true;
    config.trace.path = trace_path;
  }
  std::unique_ptr<Processor> cpu;
  try {
    cpu = make_processor(program, config, spec);
  } catch (const std::invalid_argument& e) {  // e.g. data past data memory
    std::fprintf(stderr, "%s: %s\n", input_name.c_str(), e.what());
    return 1;
  }
  const std::uint64_t max_cycles = bench::cycle_budget();
  const RunOutcome outcome = cpu->run(max_cycles);

  const SimResult result = collect_result(*cpu, spec, outcome);
  std::fputs(format_report(result).c_str(), stdout);
  if (!trace_path.empty()) {
    cpu->tracer()->close();  // finalize the JSON document before reporting
    std::printf("trace: %s (%llu events)\n", trace_path.c_str(),
                static_cast<unsigned long long>(
                    cpu->tracer()->events_emitted()));
  }

  if (outcome == RunOutcome::kFault || outcome == RunOutcome::kStalled) {
    std::fprintf(stderr, "%s\n", cpu->fault_message().c_str());
    return 1;
  }
  if (dump_words > 0) {
    std::printf("data memory (first %u words):\n", dump_words);
    for (unsigned w = 0; w < dump_words; ++w) {
      std::printf("  [%4u] %lld\n", w * 8,
                  static_cast<long long>(cpu->memory().load_word(w * 8)));
    }
  }
  if (!report_id.empty()) {
    bench::BenchReport report(report_id);
    report.note("input", input_name)
        .note("policy", result.policy)
        .note("max_cycles", max_cycles)
        .note("code_size", program.code.size())
        .add_sim_result(input_name + "/" + result.policy, result)
        .embed_result(input_name + "/" + result.policy, result);
    if (!report.write()) {
      return 1;
    }
  }
  return outcome == RunOutcome::kHalted || outcome == RunOutcome::kMaxCycles
             ? 0
             : 1;
}
