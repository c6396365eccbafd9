// Tiny string-formatting helpers shared by the table printer, the
// disassembler and the repro binaries. Kept deliberately minimal; anything
// fancier should go through Table/Csv in src/sim.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace steersim {

/// Fixed-precision decimal rendering ("3.14"); no locale, no scientific.
/// NaN renders as "-" so empty statistics are visibly empty in reports.
std::string format_double(double value, int precision);

/// Strict positive-decimal parse for environment/CLI knobs: accepts only
/// pure decimal digit strings whose value is > 0 and fits in 64 bits.
/// Signs ("-1" would wrap through strtoull), whitespace, hex, exponents
/// and overflow all yield nullopt.
std::optional<std::uint64_t> parse_positive_u64(std::string_view text);

/// Left-pads (or right-pads if width < 0) to |width| columns with spaces.
std::string pad(std::string_view text, int width);

/// Splits on a delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Renders a bit pattern LSB-last ("0b101" style without the prefix),
/// exactly `bits` characters wide.
std::string format_bits(std::uint64_t value, unsigned bits);

/// Appends `text` to `out` escaped for use inside a JSON string literal
/// (quotes, backslashes, control bytes). Shared by the tracer, the metric
/// registry and the bench-report writer.
void append_json_escaped(std::string& out, std::string_view text);

/// Renders a double as a JSON value: integral values without a fraction,
/// others via %.17g round-trip precision, non-finite as a quoted string
/// (JSON has no NaN/Inf literals).
std::string json_number(double value);

/// The same spelling written into `buf`, for comparisons that must not
/// allocate; the view points into `buf`.
std::string_view json_number(double value, std::array<char, 32>& buf);

}  // namespace steersim
