#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <system_error>

#include "common/contracts.hpp"

namespace steersim {

std::string format_double(double value, int precision) {
  STEERSIM_EXPECTS(precision >= 0 && precision <= 17);
  if (std::isnan(value)) {
    return "-";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::optional<std::uint64_t> parse_positive_u64(std::string_view text) {
  if (text.empty()) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // would overflow 64 bits
    }
    value = value * 10 + digit;
  }
  if (value == 0) {
    return std::nullopt;
  }
  return value;
}

std::string pad(std::string_view text, int width) {
  const bool left_pad = width >= 0;
  const auto target = static_cast<std::size_t>(left_pad ? width : -width);
  if (text.size() >= target) {
    return std::string(text);
  }
  std::string spaces(target - text.size(), ' ');
  return left_pad ? spaces + std::string(text) : std::string(text) + spaces;
}

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())) != 0) {
    text.remove_suffix(1);
  }
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

void append_json_escaped(std::string& out, std::string_view text) {
  // Each maximal run of plain characters goes out in one append; only the
  // characters that need an escape are handled one by one.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c != '"' && c != '\\' && c >= 0x20) {
      continue;
    }
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

std::string json_number(double value) {
  std::array<char, 32> buf;
  return std::string(json_number(value, buf));
}

std::string_view json_number(double value, std::array<char, 32>& buf) {
  if (!std::isfinite(value)) {
    return std::isnan(value) ? "\"nan\""
                             : (value > 0 ? "\"inf\"" : "\"-inf\"");
  }
  char* const first = buf.data();
  char* const last = first + buf.size();
  // std::to_chars with explicit precision renders exactly like printf
  // "%.17g" in the "C" locale, but is locale-independent: canonical
  // renderings (and the FNV-1a digests over them) stay byte-identical
  // even when the process sets a comma-decimal global locale.
  const auto [ptr, ec] =
      std::abs(value) < 1e15 &&
              value == static_cast<double>(static_cast<std::int64_t>(value))
          ? std::to_chars(first, last, static_cast<std::int64_t>(value))
          : std::to_chars(first, last, value, std::chars_format::general,
                          17);
  STEERSIM_ENSURES(ec == std::errc{});
  return {first, static_cast<std::size_t>(ptr - first)};
}

std::string format_bits(std::uint64_t value, unsigned bits) {
  STEERSIM_EXPECTS(bits >= 1 && bits <= 64);
  std::string out(bits, '0');
  for (unsigned i = 0; i < bits; ++i) {
    if ((value >> i) & 1u) {
      out[bits - 1 - i] = '1';
    }
  }
  return out;
}

}  // namespace steersim
