// Assembler for the steersim RISC ISA. The source is lexed once, into
// views of the caller's text; a data pass lays out the data image and its
// labels, then one code pass emits the instructions and patches label
// targets at the end. No view outlives assemble(): the Program owns
// copies of every name.
//
// Grammar (one statement per line, '#' or ';' starts a comment, commas are
// optional whitespace):
//
//   .text                         switch to code section (default)
//   .data                         switch to data section
//   label:                        define a label in the current section
//   .word  v1 v2 ...              emit 64-bit integer words (data section)
//   .double v1 v2 ...             emit doubles, bit-cast into words
//   .space N                      emit N zero words
//   add r1, r2, r3                machine instructions per the ISA
//   lw  r1, 8(r2)   /  sw r1, 8(r2)
//   beq r1, r2, label             branch targets are labels
//
// Pseudo-instructions: li rd, imm; la rd, data_label; mv rd, rs;
// call label (jal r31); ret (jr r31); b label (j).
//
// Register aliases: zero=r0, sp=r30, ra=r31.
//
// The data image may not exceed kMaxDataImageBytes (isa/program.hpp): a
// directive that would pass it is an error, raised before allocating.
//
// Errors in the source are user-input errors and are reported by throwing
// AssemblyError with the offending line number (Core Guidelines E.x: use
// exceptions at the input boundary only).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "isa/program.hpp"

namespace steersim {

class AssemblyError : public std::runtime_error {
 public:
  AssemblyError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Assembles `source` into a Program named `name`.
/// Throws AssemblyError on malformed input.
Program assemble(std::string_view source, std::string name = "program");

}  // namespace steersim
