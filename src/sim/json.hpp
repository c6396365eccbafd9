// The repo's one JSON tokenizer, and the DOM built on it. Header-only so
// test binaries can use it without a link edge.
//
// JsonReader is a pull reader: each next() reads one token (a bracket, a
// member name or a scalar) in a single forward pass over the text and
// checks the grammar as it goes. Strings decode \uXXXX escapes to real
// UTF-8 (surrogate pairs included) and come back as views, into the text
// itself when they hold neither an escape nor a raw control byte, so a
// reader that only looks allocates nothing. Numbers must match RFC
// 8259's grammar exactly and fit a double; they parse with
// std::from_chars (locale-independent, so canonical renderings and FNV-1a
// digests are stable under any global locale), and digit-only tokens keep
// an exact 64-bit integer so protocol fields >= 2^53 round-trip without
// double rounding. Arrays and objects nest at most kMaxJsonDepth deep.
// The wire codec (svc/protocol.cpp) reads frames with the reader
// directly.
//
// JsonValue is the DOM that parse_json_strict/parse_json_prefix build from
// the reader's tokens, for the bench-regression comparator
// (sim/bench_compare.hpp), the tools/ CLI, the tests and steerbench's
// records. render_json writes a JsonValue back out canonically.
#pragma once

#include <array>
#include <bitset>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/strings.hpp"

namespace steersim {

/// How deep arrays and objects may nest. What this repo writes nests at
/// most 4 deep; the bound stops a hostile frame from recursing the DOM
/// builder off its thread's stack.
inline constexpr std::size_t kMaxJsonDepth = 128;

/// A number token's value. A double loses integers past 2^53, so a
/// digit-only token that fits 64 bits also keeps its exact integer: cycle
/// budgets and wall-clock fields render back digit-identical.
struct JsonNumber {
  enum class NumberRepr { kDouble, kU64, kI64 };
  double number = 0.0;
  NumberRepr repr = NumberRepr::kDouble;
  std::uint64_t u64 = 0;  ///< valid when repr == kU64
  std::int64_t i64 = 0;   ///< valid when repr == kI64 (negative integers)

  /// Exact unsigned read: true when the value is representable as u64
  /// without rounding (integer-carried, or an integral double below
  /// 2^53 — anything bigger only exists as a digit-only token).
  bool as_u64(std::uint64_t& out) const {
    switch (repr) {
      case NumberRepr::kU64:
        out = u64;
        return true;
      case NumberRepr::kI64:
        return false;  // negative
      case NumberRepr::kDouble:
        break;
    }
    if (number < 0.0 || number > 9007199254740992.0 ||
        number != static_cast<double>(static_cast<std::uint64_t>(number))) {
      return false;
    }
    out = static_cast<std::uint64_t>(number);
    return true;
  }
};

/// render_json's spelling of a number, written into `buf`: an integer
/// token's exact digits, json_number's spelling for anything else.
inline std::string_view render_number(const JsonNumber& value,
                                      std::array<char, 32>& buf) {
  char* const first = buf.data();
  char* const last = first + buf.size();
  std::to_chars_result written{};
  switch (value.repr) {
    case JsonNumber::NumberRepr::kU64:
      written = std::to_chars(first, last, value.u64);
      break;
    case JsonNumber::NumberRepr::kI64:
      written = std::to_chars(first, last, value.i64);
      break;
    case JsonNumber::NumberRepr::kDouble:
      return json_number(value.number, buf);
  }
  return {first, static_cast<std::size_t>(written.ptr - first)};
}

/// One forward pass over a JSON text, one token per next(); see the top
/// of this file.
class JsonReader {
 public:
  enum class Token : std::uint8_t {
    kObjectBegin,
    kObjectEnd,
    kArrayBegin,
    kArrayEnd,
    kKey,     ///< an object member's name, decoded in text()
    kString,  ///< decoded in text()
    kNumber,  ///< parsed in number()
    kTrue,
    kFalse,
    kNull,
    kEnd,    ///< the value is complete and only whitespace followed it
    kError,  ///< malformed text or nesting past kMaxJsonDepth; sticky
  };

  explicit JsonReader(std::string_view text) : text_(text) { skip_ws(); }

  /// The next token. Once the one top-level value is complete: kEnd if
  /// only whitespace is left, else kError.
  Token next() {
    switch (expect_) {
      case Expect::kValue:
        return value();
      case Expect::kFirstElement:
        return peek(']') ? close(Token::kArrayEnd) : value();
      case Expect::kFirstMember:
        return peek('}') ? close(Token::kObjectEnd) : key();
      case Expect::kSeparator:
        if (peek(',')) {
          ++pos_;
          skip_ws();
          return in_object() ? key() : value();
        }
        if (in_object() ? peek('}') : peek(']')) {
          return close(in_object() ? Token::kObjectEnd : Token::kArrayEnd);
        }
        return fail();
      case Expect::kDone:
        if (pos_ == text_.size()) {
          last_ = Token::kEnd;
          return Token::kEnd;
        }
        return fail();
      case Expect::kFailed:
        break;
    }
    return Token::kError;
  }

  /// Reads past the value that `first`, the token next() just returned,
  /// begins: a scalar is already whole, an array or object is read
  /// through its closing bracket. False if the text is malformed there.
  bool skip(Token first) {
    switch (first) {
      case Token::kObjectBegin:
      case Token::kArrayBegin: {
        const std::size_t depth = depth_;
        while (depth_ >= depth) {
          if (next() == Token::kError) {
            return false;
          }
        }
        return true;
      }
      case Token::kString:
      case Token::kNumber:
      case Token::kTrue:
      case Token::kFalse:
      case Token::kNull:
        return true;
      default:
        return false;
    }
  }

  /// The last kKey or kString, decoded: a view into the text when it is
  /// plain(), else into the reader's copy, valid until the next string
  /// that is not.
  std::string_view text() const { return text_view_; }
  /// True when the last kKey or kString holds neither an escape nor a
  /// raw control byte, so its bytes are its text.
  bool plain() const { return plain_; }
  const JsonNumber& number() const { return number_; }
  /// The last token's bytes as they stand in the text.
  std::string_view raw() const { return raw_; }
  /// Bytes read so far, whitespace after the last token included.
  std::size_t offset() const { return pos_; }

  /// True when the last token is spelled exactly as render_json spells
  /// what it parsed to: a key or string as append_json_escaped writes
  /// its decoded text, a number as render_number writes it. Brackets and
  /// literals have only one spelling.
  bool canonical() const {
    switch (last_) {
      case Token::kKey:
      case Token::kString: {
        if (plain_) {
          return true;  // append_json_escaped leaves it as it is
        }
        std::string spelled = "\"";
        append_json_escaped(spelled, text_view_);
        spelled += '"';
        return spelled == raw_;
      }
      case Token::kNumber: {
        if (number_.repr == JsonNumber::NumberRepr::kU64) {
          return true;  // the grammar leaves it no other spelling
        }
        std::array<char, 32> buf;
        return render_number(number_, buf) == raw_;
      }
      default:
        return true;
    }
  }

 private:
  /// What the grammar allows next.
  enum class Expect : std::uint8_t {
    kValue,         // at the top, or after a member's ':'
    kFirstElement,  // after '[': a value or ']'
    kFirstMember,   // after '{': a key or '}'
    kSeparator,     // after a value in a container: ',' or its close
    kDone,          // after the top-level value
    kFailed,
  };

  /// Whitespace is what std::isspace takes in the "C" locale, whatever
  /// the global locale is.
  void skip_ws() {
    std::size_t pos = pos_;
    while (pos < text_.size() &&
           (text_[pos] == ' ' || (text_[pos] >= '\t' && text_[pos] <= '\r'))) {
      ++pos;
    }
    pos_ = pos;
  }
  bool peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool in_object() const { return in_object_[depth_ - 1]; }

  Token fail() {
    expect_ = Expect::kFailed;
    last_ = Token::kError;
    return Token::kError;
  }

  /// Ends the token that began at `begin`: records its bytes, then skips
  /// the whitespace after it.
  Token emit(Token token, std::size_t begin) {
    raw_ = std::string_view(text_.data() + begin, pos_ - begin);
    last_ = token;
    skip_ws();
    return token;
  }

  /// A value just ended; what may follow depends on its container.
  Token value_done(Token token, std::size_t begin) {
    expect_ = depth_ == 0 ? Expect::kDone : Expect::kSeparator;
    return emit(token, begin);
  }

  Token value() {
    const std::size_t begin = pos_;
    if (pos_ == text_.size()) {
      return fail();
    }
    switch (text_[pos_]) {
      case '{':
        return open(true, begin);
      case '[':
        return open(false, begin);
      case '"':
        return scan_string() ? value_done(Token::kString, begin) : fail();
      case 't':
        return literal("true", Token::kTrue, begin);
      case 'f':
        return literal("false", Token::kFalse, begin);
      case 'n':
        return literal("null", Token::kNull, begin);
      default:
        return scan_number() ? value_done(Token::kNumber, begin) : fail();
    }
  }

  Token literal(std::string_view word, Token token, std::size_t begin) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail();
    }
    pos_ += word.size();
    return value_done(token, begin);
  }

  Token open(bool object, std::size_t begin) {
    if (depth_ == kMaxJsonDepth) {
      return fail();
    }
    in_object_[depth_++] = object;
    ++pos_;
    expect_ = object ? Expect::kFirstMember : Expect::kFirstElement;
    return emit(object ? Token::kObjectBegin : Token::kArrayBegin, begin);
  }

  Token close(Token token) {
    const std::size_t begin = pos_++;
    --depth_;
    return value_done(token, begin);
  }

  Token key() {
    const std::size_t begin = pos_;
    if (!peek('"') || !scan_string()) {
      return fail();
    }
    emit(Token::kKey, begin);
    if (!peek(':')) {
      return fail();
    }
    ++pos_;
    skip_ws();
    expect_ = Expect::kValue;
    return Token::kKey;
  }

  /// Consumes exactly four hex digits into `out`.
  bool hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) {
      return false;
    }
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      std::uint32_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint32_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        nibble = static_cast<std::uint32_t>(c - 'A') + 10;
      } else {
        return false;
      }
      out = (out << 4) | nibble;
    }
    pos_ += 4;
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  /// \uXXXX after the backslash: decodes to UTF-8, pairing surrogates.
  /// Lone or mismatched surrogates are malformed input and fail the parse
  /// (never a placeholder byte — round trips must be byte-identical).
  bool unicode_escape(std::string& out) {
    ++pos_;  // consume 'u'
    std::uint32_t cp = 0;
    if (!hex4(cp)) {
      return false;
    }
    if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return false;  // low surrogate with no preceding high surrogate
    }
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return false;
      }
      pos_ += 2;
      std::uint32_t low = 0;
      if (!hex4(low) || low < 0xDC00 || low > 0xDFFF) {
        return false;
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
    return true;
  }

  /// A string at pos_ (its opening quote), into text_view_.
  bool scan_string() {
    const std::size_t begin = ++pos_;
    std::size_t end = begin;
    while (end < text_.size() && text_[end] != '"' && text_[end] != '\\' &&
           static_cast<unsigned char>(text_[end]) >= 0x20) {
      ++end;
    }
    if (end == text_.size()) {
      return false;  // unterminated
    }
    plain_ = text_[end] == '"';
    if (plain_) {
      text_view_ = std::string_view(text_.data() + begin, end - begin);
      pos_ = end + 1;
      return true;
    }
    scratch_.assign(text_.data() + begin, end - begin);
    pos_ = end;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      // Each maximal run of plain characters goes out in one append.
      end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
        ++end;
      }
      scratch_.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ < text_.size() && text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        switch (text_[pos_]) {
          case '"':
            scratch_ += '"';
            break;
          case '\\':
            scratch_ += '\\';
            break;
          case '/':
            scratch_ += '/';
            break;
          case 'n':
            scratch_ += '\n';
            break;
          case 't':
            scratch_ += '\t';
            break;
          case 'r':
            scratch_ += '\r';
            break;
          case 'b':
            scratch_ += '\b';
            break;
          case 'f':
            scratch_ += '\f';
            break;
          case 'u':
            if (!unicode_escape(scratch_)) {
              return false;
            }
            continue;  // unicode_escape consumed its own characters
          default:
            return false;
        }
        ++pos_;
      }
    }
    if (!peek('"')) {
      return false;
    }
    ++pos_;
    text_view_ = scratch_;
    return true;
  }

  /// One or more decimal digits.
  bool digits() {
    std::size_t pos = pos_;
    while (pos < text_.size() && text_[pos] >= '0' && text_[pos] <= '9') {
      ++pos;
    }
    const bool any = pos > pos_;
    pos_ = pos;
    return any;
  }

  /// A number at pos_, into number_. The token must match RFC 8259's
  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and its value must
  /// fit a double; anything else fails instead of reading as some other
  /// number.
  bool scan_number() {
    const std::size_t begin = pos_;
    if (peek('-')) {
      ++pos_;
    }
    if (peek('0')) {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    const bool integer = !peek('.') && !peek('e') && !peek('E');
    if (peek('.')) {
      ++pos_;
      if (!digits()) {
        return false;
      }
    }
    if (peek('e') || peek('E')) {
      ++pos_;
      if (peek('+') || peek('-')) {
        ++pos_;
      }
      if (!digits()) {
        return false;
      }
    }
    const char* const first = text_.data() + begin;
    const char* const last = text_.data() + pos_;
    number_ = JsonNumber{};
    if (integer) {
      // Integers past 64 bits fall through to the double.
      if (*first != '-') {
        if (std::from_chars(first, last, number_.u64).ec == std::errc{}) {
          number_.repr = JsonNumber::NumberRepr::kU64;
          number_.number = static_cast<double>(number_.u64);
          return true;
        }
      } else if (std::from_chars(first, last, number_.i64).ec ==
                 std::errc{}) {
        number_.repr = JsonNumber::NumberRepr::kI64;
        number_.number = static_cast<double>(number_.i64);
        return true;
      }
    }
    return std::from_chars(first, last, number_.number).ec == std::errc{};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Expect expect_ = Expect::kValue;
  std::size_t depth_ = 0;
  std::bitset<kMaxJsonDepth> in_object_;  // per open container
  Token last_ = Token::kError;
  std::string_view raw_;
  std::string_view text_view_;
  bool plain_ = false;
  JsonNumber number_;
  std::string scratch_;  // strings that are not plain decode here
};

/// A document node. A kNumber node's value is its JsonNumber part.
struct JsonValue : JsonNumber {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  bool as_u64(std::uint64_t& out) const {
    return kind == Kind::kNumber && JsonNumber::as_u64(out);
  }
};

/// Builds the value that `token`, the token `reader` just returned,
/// begins. An object keeps the first of any repeated key. The reader's
/// nesting bound bounds the recursion.
inline bool build_json(JsonReader& reader, JsonReader::Token token,
                       JsonValue& out) {
  using Token = JsonReader::Token;
  switch (token) {
    case Token::kObjectBegin:
      out.kind = JsonValue::Kind::kObject;
      for (token = reader.next(); token == Token::kKey;
           token = reader.next()) {
        std::string key(reader.text());
        JsonValue member;
        if (!build_json(reader, reader.next(), member)) {
          return false;
        }
        out.object.emplace(std::move(key), std::move(member));
      }
      return token == Token::kObjectEnd;
    case Token::kArrayBegin:
      out.kind = JsonValue::Kind::kArray;
      for (token = reader.next(); token != Token::kArrayEnd;
           token = reader.next()) {
        JsonValue element;
        if (!build_json(reader, token, element)) {
          return false;
        }
        out.array.push_back(std::move(element));
      }
      return true;
    case Token::kString:
      out.kind = JsonValue::Kind::kString;
      out.string = reader.text();
      return true;
    case Token::kNumber:
      out.kind = JsonValue::Kind::kNumber;
      static_cast<JsonNumber&>(out) = reader.number();
      return true;
    case Token::kTrue:
    case Token::kFalse:
      out.kind = JsonValue::Kind::kBool;
      out.boolean = token == Token::kTrue;
      return true;
    case Token::kNull:
      out.kind = JsonValue::Kind::kNull;
      return true;
    default:
      return false;
  }
}

/// Strict entry point: `text` must be exactly one JSON value — trailing
/// garbage is rejected, so `{"a":1}{"b":2}` can never be mistaken for one
/// document.
inline bool parse_json_strict(std::string_view text, JsonValue& out) {
  JsonReader reader(text);
  return build_json(reader, reader.next(), out) &&
         reader.next() == JsonReader::Token::kEnd;
}

/// Lenient entry point for streams: parses the first top-level value and
/// reports how many bytes it consumed (trailing whitespace included),
/// leaving anything after it — e.g. the next message of a JSON-lines
/// stream — for the caller.
inline bool parse_json_prefix(std::string_view text, JsonValue& out,
                              std::size_t& consumed) {
  JsonReader reader(text);
  if (!build_json(reader, reader.next(), out)) {
    return false;
  }
  consumed = reader.offset();
  return true;
}

/// Canonical re-serialization: object keys in sorted (std::map) order,
/// numbers via render_number, strings escaped. Two JsonValues parsed from
/// equivalent documents render identically, which is what the round-trip
/// tests compare; JsonReader::canonical() checks a token against the same
/// spelling.
inline std::string render_json(const JsonValue& value) {
  std::string out;
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out = "null";
      break;
    case JsonValue::Kind::kBool:
      out = value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      std::array<char, 32> buf;
      out = render_number(value, buf);
      break;
    }
    case JsonValue::Kind::kString:
      out += '"';
      append_json_escaped(out, value.string);
      out += '"';
      break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& element : value.array) {
        if (!first) {
          out += ',';
        }
        first = false;
        out += render_json(element);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (!first) {
          out += ',';
        }
        first = false;
        out += '"';
        append_json_escaped(out, key);
        out += "\":";
        out += render_json(member);
      }
      out += '}';
      break;
    }
  }
  return out;
}

}  // namespace steersim
