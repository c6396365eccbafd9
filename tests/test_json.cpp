// JSON layer tests for the canonical-rendering guarantees the service
// digest and cache depend on: \uXXXX escapes (including surrogate pairs)
// decode to real UTF-8 and re-render symmetrically, 64-bit integers
// round-trip digit-identical past 2^53, the run-copying string escaper and
// scanner stay byte-identical to a per-character oracle on every byte, and
// number parsing/rendering is locale-independent — flipping the global
// locale to a comma decimal point must not change a single rendered byte.
#include <gtest/gtest.h>

#include <clocale>
#include <cstdint>
#include <cstdio>
#include <locale>
#include <string>
#include <string_view>
#include <vector>

#include "sim/json.hpp"

namespace steersim {
namespace {

JsonValue parsed(const std::string& text) {
  JsonValue doc;
  EXPECT_TRUE(parse_json_strict(text, doc)) << text;
  return doc;
}

bool parses(const std::string& text) {
  JsonValue doc;
  return parse_json_strict(text, doc);
}

TEST(JsonUnicode, EscapesDecodeToUtf8) {
  EXPECT_EQ(parsed("\"\\u0041\"").string, "A");
  EXPECT_EQ(parsed("\"\\u00e9\"").string, "\xc3\xa9");          // é
  EXPECT_EQ(parsed("\"\\u20ac\"").string, "\xe2\x82\xac");      // €
  // Surrogate pair: U+1F600 needs a 4-byte sequence.
  EXPECT_EQ(parsed("\"\\ud83d\\ude00\"").string, "\xf0\x9f\x98\x80");
  // Mixed with plain characters and short escapes.
  EXPECT_EQ(parsed("\"a\\u0041\\n\"").string, "aA\n");
}

TEST(JsonUnicode, LoneAndMalformedSurrogatesAreRejected) {
  EXPECT_FALSE(parses("\"\\ud800\""));        // lone high surrogate
  EXPECT_FALSE(parses("\"\\udc00\""));        // lone low surrogate
  EXPECT_FALSE(parses("\"\\ud800x\""));       // high not followed by \u
  EXPECT_FALSE(parses("\"\\ud800\\u0041\"")); // high followed by non-low
  EXPECT_FALSE(parses("\"\\u12\""));          // too few hex digits
  EXPECT_FALSE(parses("\"\\uzzzz\""));        // not hex at all
}

TEST(JsonUnicode, RenderEscapesSymmetrically) {
  JsonValue doc;
  doc.kind = JsonValue::Kind::kString;
  doc.string = "tab\there \"quoted\" \x01 and \xe2\x82\xac";
  const std::string rendered = render_json(doc);
  // Control characters escape, multi-byte UTF-8 passes through raw.
  EXPECT_NE(rendered.find("\\t"), std::string::npos);
  EXPECT_NE(rendered.find("\\\""), std::string::npos);
  EXPECT_NE(rendered.find("\\u0001"), std::string::npos);
  EXPECT_NE(rendered.find("\xe2\x82\xac"), std::string::npos);
  // And the round trip is exact.
  EXPECT_EQ(parsed(rendered).string, doc.string);
}

// --- Codec byte identity ---------------------------------------------------

/// The escaper one character at a time: the reference the run-copying
/// append_json_escaped must match byte for byte.
std::string escaped_per_character(std::string_view text) {
  std::string out;
  for (const char c : text) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Every byte 0x00-0xFF alone, twice in a row, and at the start, middle
/// and end of long plain runs, plus all 256 bytes in one string.
std::vector<std::string> codec_cases() {
  const std::string run(300, 'm');
  std::vector<std::string> cases;
  std::string every_byte;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    cases.push_back(one);
    cases.push_back(one + one);
    cases.push_back(one + run);
    cases.push_back(run + one + run);
    cases.push_back(run + one);
    every_byte += one;
  }
  cases.push_back(every_byte);
  cases.push_back(run);
  cases.push_back("");
  return cases;
}

TEST(JsonCodec, EscaperMatchesThePerCharacterOracleOnEveryByte) {
  for (const std::string& text : codec_cases()) {
    std::string out = "prefix:";
    append_json_escaped(out, text);
    EXPECT_EQ(out, "prefix:" + escaped_per_character(text))
        << "input of " << text.size() << " bytes";
  }
}

TEST(JsonCodec, EveryByteRoundTripsThroughRenderAndStrictParse) {
  for (const std::string& text : codec_cases()) {
    JsonValue doc;
    doc.kind = JsonValue::Kind::kString;
    doc.string = text;
    JsonValue back;
    ASSERT_TRUE(parse_json_strict(render_json(doc), back))
        << render_json(doc);
    ASSERT_EQ(back.kind, JsonValue::Kind::kString);
    EXPECT_EQ(back.string, text) << "input of " << text.size() << " bytes";
  }
}

TEST(JsonCodec, ParserDecodesEscapesBetweenLongRuns) {
  const std::string run(100, 'r');
  const std::string wire = "\"" + run + "\\n" + run + "\\/\\b\\f" + run +
                           "\\u0041\\\"" + run + "\\\\\"";
  EXPECT_EQ(parsed(wire).string,
            run + "\n" + run + "/\b\f" + run + "A\"" + run + "\\");
  EXPECT_FALSE(parses("\"" + run));             // unterminated run
  EXPECT_FALSE(parses("\"" + run + "\\"));      // dangling backslash
  EXPECT_FALSE(parses("\"" + run + "\\x\""));   // unknown escape
}

TEST(JsonIntegers, U64RoundTripsDigitIdenticalPast2p53) {
  for (const std::string token :
       {"9007199254740993",      // 2^53 + 1: first double casualty
        "18446744073709551615",  // UINT64_MAX
        "12345678901234567890"}) {
    const JsonValue doc = parsed(token);
    ASSERT_EQ(doc.kind, JsonValue::Kind::kNumber) << token;
    EXPECT_EQ(doc.repr, JsonValue::NumberRepr::kU64) << token;
    std::uint64_t value = 0;
    EXPECT_TRUE(doc.as_u64(value)) << token;
    EXPECT_EQ(render_json(doc), token);
  }
  EXPECT_EQ(parsed("18446744073709551615").u64,
            18446744073709551615ull);
}

TEST(JsonIntegers, NegativeI64RoundTripsDigitIdentical) {
  for (const std::string token :
       {"-9223372036854775808", "-9007199254740993"}) {
    const JsonValue doc = parsed(token);
    ASSERT_EQ(doc.kind, JsonValue::Kind::kNumber) << token;
    EXPECT_EQ(doc.repr, JsonValue::NumberRepr::kI64) << token;
    std::uint64_t value = 0;
    EXPECT_FALSE(doc.as_u64(value)) << "negative must not read as u64";
    EXPECT_EQ(render_json(doc), token);
  }
}

TEST(JsonIntegers, SmallIntegersStayExactThroughAsU64) {
  const JsonValue doc = parsed("42");
  std::uint64_t value = 0;
  EXPECT_TRUE(doc.as_u64(value));
  EXPECT_EQ(value, 42u);
  EXPECT_EQ(render_json(doc), "42");
}

TEST(JsonNumbers, DoublesStillParseAndRoundTrip) {
  for (const std::string token : {"1.5", "-0.25"}) {
    const JsonValue doc = parsed(token);
    ASSERT_EQ(doc.kind, JsonValue::Kind::kNumber) << token;
    EXPECT_EQ(doc.repr, JsonValue::NumberRepr::kDouble) << token;
    EXPECT_EQ(render_json(doc), token);
  }
  EXPECT_DOUBLE_EQ(parsed("1e3").number, 1000.0);
}

// --- Locale independence --------------------------------------------------

/// A numpunct facet with a comma decimal point and dot grouping — the
/// classic German-style formatting that breaks printf/strtod round trips.
class CommaDecimal : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Flips both the C locale (if any non-"C" locale exists in the image)
/// and the C++ global locale, restoring them on destruction.
class LocaleFlipper {
 public:
  LocaleFlipper() : previous_(std::locale()) {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR", "C.utf8"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        c_flipped_ = true;
        break;
      }
    }
    // The facet flip works even in a container with only the C locale.
    std::locale::global(std::locale(std::locale::classic(),
                                    new CommaDecimal));
  }
  ~LocaleFlipper() {
    std::locale::global(previous_);
    std::setlocale(LC_ALL, "C");
  }

 private:
  std::locale previous_;
  bool c_flipped_ = false;
};

TEST(JsonLocale, RenderingIsByteStableUnderALocaleFlip) {
  // A config-digest-shaped document: doubles that a comma-decimal locale
  // would mangle, plus a u64 past 2^53. The canonical rendering (and
  // therefore every digest derived from it) must not move by one byte.
  const std::string text =
      R"({"alpha":0.1,"big":9007199254740993,"gamma":1234.5678,)"
      R"("tiny":1e-07})";
  const std::string before = render_json(parsed(text));
  const std::string tenth = json_number(0.1);
  const std::string mixed = json_number(1234.5678);

  {
    LocaleFlipper flip;
    EXPECT_EQ(render_json(parsed(text)), before)
        << "rendering changed under a flipped locale";
    // Parsing is locale-independent too: "0,1"-style output would also
    // corrupt reads, so a full parse of the pre-flip bytes must succeed
    // and re-render identically.
    JsonValue doc;
    ASSERT_TRUE(parse_json_strict(before, doc));
    EXPECT_EQ(render_json(doc), before);
    EXPECT_EQ(json_number(0.1), tenth);
    EXPECT_EQ(json_number(1234.5678), mixed);
    EXPECT_EQ(tenth.find(','), std::string::npos);
  }

  // And back: the restore really restored.
  EXPECT_EQ(render_json(parsed(text)), before);
}

}  // namespace
}  // namespace steersim
