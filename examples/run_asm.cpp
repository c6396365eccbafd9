// Command-line assembly runner: assemble a .s file and execute it on the
// reconfigurable superscalar, printing the full statistics report and
// (optionally) the final data-memory words.
//
//   $ ./examples/run_asm program.s [policy] [--dump-words N]
//
// policy ∈ steered|static-ffu|static-integer|static-memory|static-float|
//          oracle|full-reconfig|random|greedy            (default steered)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "isa/assembler.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

using namespace steersim;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s program.s [policy] [--dump-words N]\n", argv[0]);
    return 2;
  }
  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "cannot open '%s'\n", argv[1]);
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  PolicySpec spec;
  unsigned dump_words = 0;
  for (int a = 2; a < argc; ++a) {
    if (std::strcmp(argv[a], "--dump-words") == 0 && a + 1 < argc) {
      dump_words = static_cast<unsigned>(std::atoi(argv[++a]));
    } else if (!parse_policy(argv[a], spec)) {
      std::fprintf(stderr, "unknown policy '%s'\n", argv[a]);
      return 2;
    }
  }

  Program program;
  try {
    program = assemble(buffer.str(), argv[1]);
  } catch (const AssemblyError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
    return 1;
  }
  std::printf("assembled %zu instructions, %zu data words, %zu labels\n",
              program.code.size(), program.data.size(),
              program.code_labels.size());

  MachineConfig config;
  std::unique_ptr<Processor> cpu;
  try {
    cpu = make_processor(program, config, spec);
  } catch (const std::invalid_argument& e) {  // e.g. data past data memory
    std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
    return 1;
  }
  const RunOutcome outcome = cpu->run();

  const SimResult result = collect_result(*cpu, spec, outcome);
  std::fputs(format_report(result).c_str(), stdout);

  if (outcome == RunOutcome::kFault) {
    std::fprintf(stderr, "fault: %s\n", cpu->fault_message().c_str());
    return 1;
  }
  if (outcome == RunOutcome::kStalled) {
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
  return outcome == RunOutcome::kHalted ? 0 : 1;
}
