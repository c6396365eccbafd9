// JSON layer tests for the canonical-rendering guarantees the service
// digest and cache depend on: \uXXXX escapes (including surrogate pairs)
// decode to real UTF-8 and re-render symmetrically, 64-bit integers
// round-trip digit-identical past 2^53, the run-copying string escaper and
// scanner stay byte-identical to a per-character oracle on every byte, and
// number parsing/rendering is locale-independent — flipping the global
// locale to a comma decimal point must not change a single rendered byte.
// Numbers follow RFC 8259's grammar exactly, nesting is bounded, and the
// pull reader's canonical() agrees with render_json.
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
  for (const std::string token : {"1.5", "-0.25", "1e+17"}) {
    const JsonValue doc = parsed(token);
    ASSERT_EQ(doc.kind, JsonValue::Kind::kNumber) << token;
    EXPECT_EQ(doc.repr, JsonValue::NumberRepr::kDouble) << token;
    EXPECT_EQ(render_json(doc), token);
  }
  EXPECT_DOUBLE_EQ(parsed("1e3").number, 1000.0);
  EXPECT_EQ(render_json(parsed("1e3")), "1000");
  EXPECT_EQ(render_json(parsed("18446744073709551615")),
            "18446744073709551615");
  EXPECT_EQ(render_json(parsed("-0")), "0");
  EXPECT_EQ(render_json(parsed("2.5E-3")), "0.0025000000000000001");
}

TEST(JsonNumbers, MalformedTokensFailInsteadOfReadingAPrefix) {
  // Each used to read as the longest valid prefix of its run of
  // [0-9.eE+-], or as 0: "7-3" as 7, "--5" as 0, "1e" as 1.
  for (const std::string token :
       {"7-3", "--5", "1e", "-", "1.2.3", "+7", "01", ".5", "1.", "-01",
        "1e+", "1.e5", "0x10", "1_000", "- 1", "1e400", "-1e400", "1e-400"}) {
    EXPECT_FALSE(parses(token)) << token;
    EXPECT_FALSE(parses("[" + token + "]")) << token;
    EXPECT_FALSE(parses(R"({"n":)" + token + "}")) << token;
  }
}

// --- Nesting bound --------------------------------------------------------

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonNesting, DeepNestingFailsTheParseInsteadOfTheStack) {
  EXPECT_FALSE(parses(nested_arrays(100'000)));
  std::string objects;
  for (int level = 0; level < 100'000; ++level) {
    objects += R"({"k":)";
  }
  objects += '0';
  objects.append(100'000, '}');
  EXPECT_FALSE(parses(objects));
}

TEST(JsonNesting, TheBoundIsExactlyKMaxJsonDepth) {
  EXPECT_TRUE(parses(nested_arrays(kMaxJsonDepth)));
  EXPECT_FALSE(parses(nested_arrays(kMaxJsonDepth + 1)));
  // Depth counts open containers, not how many were opened in all.
  std::string siblings = "[";
  for (std::size_t k = 0; k < 3 * kMaxJsonDepth; ++k) {
    siblings += k > 0 ? "," : "";
    siblings += nested_arrays(kMaxJsonDepth - 1);
  }
  EXPECT_TRUE(parses(siblings + "]"));
  JsonValue doc;
  std::size_t consumed = 0;
  EXPECT_FALSE(
      parse_json_prefix(nested_arrays(kMaxJsonDepth + 1), doc, consumed));
}

// --- Pull reader -----------------------------------------------------------

TEST(JsonReader, TokensComeInDocumentOrderWithTheirBytes) {
  using Token = JsonReader::Token;
  JsonReader reader(R"( {"a" : [1, "x\n", true, null], "b":{}} )");
  const std::vector<std::pair<Token, std::string>> expected = {
      {Token::kObjectBegin, "{"}, {Token::kKey, R"("a")"},
      {Token::kArrayBegin, "["},  {Token::kNumber, "1"},
      {Token::kString, R"("x\n")"}, {Token::kTrue, "true"},
      {Token::kNull, "null"},     {Token::kArrayEnd, "]"},
      {Token::kKey, R"("b")"},    {Token::kObjectBegin, "{"},
      {Token::kObjectEnd, "}"},   {Token::kObjectEnd, "}"}};
  for (const auto& [token, raw] : expected) {
    ASSERT_EQ(reader.next(), token) << raw;
    EXPECT_EQ(reader.raw(), raw);
  }
  EXPECT_EQ(reader.next(), Token::kEnd);
  EXPECT_EQ(reader.next(), Token::kEnd);
}

TEST(JsonReader, SkipReadsPastOneValueAndErrorsAreSticky) {
  using Token = JsonReader::Token;
  JsonReader reader(R"({"skip":{"x":[1,{"y":[]}]},"keep":2})");
  ASSERT_EQ(reader.next(), Token::kObjectBegin);
  ASSERT_EQ(reader.next(), Token::kKey);
  ASSERT_TRUE(reader.skip(reader.next()));
  ASSERT_EQ(reader.next(), Token::kKey);
  EXPECT_EQ(reader.text(), "keep");
  ASSERT_EQ(reader.next(), Token::kNumber);
  EXPECT_EQ(reader.number().u64, 2u);

  JsonReader broken(R"({"a":[1,2}})");
  ASSERT_EQ(broken.next(), Token::kObjectBegin);
  ASSERT_EQ(broken.next(), Token::kKey);
  EXPECT_FALSE(broken.skip(broken.next()));
  EXPECT_EQ(broken.next(), Token::kError);
  EXPECT_EQ(broken.next(), Token::kError);
}

TEST(JsonReader, CanonicalMeansSpelledAsRenderJsonSpellsIt) {
  // canonical() of a lone scalar must agree with comparing the token to
  // render_json of what it parses to.
  for (const std::string token :
       {"0", "-0", "17", "-17", "1.5", "1.50", "1e3", "1000", "1e+17",
        "1E+17", "100000000000000000", "18446744073709551615",
        "18446744073709551616", "0.10000000000000001", "0.1",
        R"("plain")", R"("tab\t")", R"("\u0009")", R"("\u0001")",
        R"("A")", R"("\u0041")", R"("\/")", R"("\"q\"")", "\"raw\x01\"",
        "\"raw\ttab\"", "\"\xf0\x9f\x98\x80\"", R"("😀")", "true",
        "null"}) {
    JsonReader reader(token);
    ASSERT_NE(reader.next(), JsonReader::Token::kError) << token;
    EXPECT_EQ(reader.canonical(), render_json(parsed(token)) == token)
        << token;
  }
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
