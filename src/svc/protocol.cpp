#include "svc/protocol.hpp"

#include <algorithm>
#include <bit>

#include "common/strings.hpp"
#include "sim/json.hpp"

namespace steersim::svc {

namespace {

void append_string_field(std::string& out, std::string_view key,
                         std::string_view value, bool& first) {
  if (!first) {
    out += ',';
  }
  first = false;
  out += '"';
  append_json_escaped(out, key);
  out += "\":\"";
  append_json_escaped(out, value);
  out += '"';
}

void append_number_field(std::string& out, std::string_view key, double value,
                         bool& first) {
  if (!first) {
    out += ',';
  }
  first = false;
  out += '"';
  append_json_escaped(out, key);
  out += "\":";
  out += json_number(value);
}

/// Integer protocol fields (cycle budgets, wall_ms, counters) render from
/// the 64-bit value directly: routing them through double would silently
/// round anything >= 2^53.
void append_u64_field(std::string& out, std::string_view key,
                      std::uint64_t value, bool& first) {
  if (!first) {
    out += ',';
  }
  first = false;
  out += '"';
  append_json_escaped(out, key);
  out += "\":";
  out += std::to_string(value);
}

void append_bool_field(std::string& out, std::string_view key, bool value,
                       bool& first) {
  if (!first) {
    out += ',';
  }
  first = false;
  out += '"';
  append_json_escaped(out, key);
  out += "\":";
  out += value ? "true" : "false";
}

void append_raw_field(std::string& out, std::string_view key,
                      std::string_view raw_json, bool& first) {
  if (!first) {
    out += ',';
  }
  first = false;
  out += '"';
  append_json_escaped(out, key);
  out += "\":";
  out += raw_json;
}

using Token = JsonReader::Token;

constexpr std::string_view kMalformed = "malformed JSON frame";

bool malformed(std::string& error) {
  error = kMalformed;
  return false;
}

/// A value of the wrong kind: `message` says which, unless the reader
/// failed (kError), in which case the frame is malformed.
bool wrong_kind(Token token, std::string message, std::string& error) {
  error =
      token == Token::kError ? std::string(kMalformed) : std::move(message);
  return false;
}

/// "field 'KEY' must be WHAT".
std::string must_be(std::string_view key, std::string_view what) {
  std::string message = "field '";
  message += key;
  message += "' must be ";
  message += what;
  return message;
}

/// Field readers: each reads the value after a key the caller just took
/// from `reader`.
bool string_field(JsonReader& reader, std::string_view key,
                  std::string& out, std::string& error) {
  const Token token = reader.next();
  if (token != Token::kString) {
    return wrong_kind(token, must_be(key, "a string"), error);
  }
  out = reader.text();
  return true;
}

bool u64_field(JsonReader& reader, std::string_view key, std::uint64_t& out,
               std::string& error) {
  const Token token = reader.next();
  if (token != Token::kNumber || !reader.number().as_u64(out)) {
    return wrong_kind(token, must_be(key, "a non-negative integer"), error);
  }
  return true;
}

bool bool_field(JsonReader& reader, std::string_view key, bool& out,
                std::string& error) {
  const Token token = reader.next();
  if (token != Token::kTrue && token != Token::kFalse) {
    return wrong_kind(token, must_be(key, "a boolean"), error);
  }
  out = token == Token::kTrue;
  return true;
}

/// Skips the value after a key the caller does not read.
bool skip_value(JsonReader& reader, std::string& error) {
  return reader.skip(reader.next()) || malformed(error);
}

/// Index of `name` in `keys`, or N when it is none of them.
template <std::size_t N>
std::size_t key_index(const std::string_view (&keys)[N],
                      std::string_view name) {
  return static_cast<std::size_t>(
      std::find(keys, keys + N, name) - keys);
}

/// A request's `multi`: one object per core. As at the top level, unknown
/// keys are skipped and a repeated key keeps its first value.
bool read_multi(JsonReader& reader, std::vector<MultiEntry>& out,
                std::string& error) {
  static constexpr std::string_view kKeys[] = {"kernel", "elf", "policy"};
  Token token = reader.next();
  if (token != Token::kArrayBegin) {
    return wrong_kind(token, "field 'multi' must be an array", error);
  }
  for (token = reader.next(); token != Token::kArrayEnd;
       token = reader.next()) {
    if (token != Token::kObjectBegin) {
      return wrong_kind(token, "field 'multi' entries must be objects", error);
    }
    MultiEntry core;
    unsigned seen = 0;
    for (token = reader.next(); token == Token::kKey; token = reader.next()) {
      const std::size_t key = key_index(kKeys, reader.text());
      if (key == std::size(kKeys) || (seen & (1u << key)) != 0) {
        if (!skip_value(reader, error)) {
          return false;
        }
        continue;
      }
      seen |= 1u << key;
      std::string& field =
          key == 0 ? core.kernel : (key == 1 ? core.elf : core.policy);
      if (!string_field(reader, kKeys[key], field, error)) {
        return false;
      }
    }
    if (token != Token::kObjectEnd) {
      return malformed(error);
    }
    out.push_back(std::move(core));
  }
  return true;
}

/// A request's `config`: knob name -> number, kept sorted by name. A
/// repeated name keeps its first value, whatever the later ones are.
bool read_config(JsonReader& reader,
                 std::vector<std::pair<std::string, double>>& out,
                 std::string& error) {
  Token token = reader.next();
  if (token != Token::kObjectBegin) {
    return wrong_kind(token, "field 'config' must be an object", error);
  }
  for (token = reader.next(); token == Token::kKey; token = reader.next()) {
    std::string name(reader.text());
    const auto at = std::lower_bound(
        out.begin(), out.end(), name,
        [](const auto& knob, const std::string& n) { return knob.first < n; });
    if (at != out.end() && at->first == name) {
      if (!skip_value(reader, error)) {
        return false;
      }
      continue;
    }
    const Token value = reader.next();
    if (value != Token::kNumber) {
      return wrong_kind(value, "config knob '" + name + "' must be a number",
                        error);
    }
    out.emplace(at, std::move(name), reader.number().number);
  }
  return token == Token::kObjectEnd || malformed(error);
}

/// A reply's `metrics`: the object canonical_metrics_json writes, kept as
/// its bytes. Its keys must ascend strictly in byte order (the std::map
/// order it was rendered in), every key and value must be spelled as
/// render_json spells it, each value a number or a string, and nothing
/// may stand between the tokens. Anything else was damaged on the way.
bool canonical_object(JsonReader& reader, std::string_view& bytes,
                      std::string& error) {
  Token token = reader.next();
  if (token != Token::kObjectBegin) {
    return wrong_kind(token, "field 'metrics' must be an object", error);
  }
  const char* const begin = reader.raw().data();
  // Bytes of the canonical spelling: '{', then per member its key, ':',
  // its value and the ',' or '}' after it.
  std::size_t spelled = 1;
  std::string_view previous;
  std::string previous_copy;  // previous, when it was not plain
  for (token = reader.next(); token == Token::kKey; token = reader.next()) {
    const std::string_view key = reader.text();
    if (!reader.canonical() || (spelled > 1 && key <= previous)) {
      error = "field 'metrics' is not canonical";
      return false;
    }
    spelled += reader.raw().size() + 1;
    if (reader.plain()) {
      previous = key;
    } else {
      previous_copy.assign(key);
      previous = previous_copy;
    }
    const Token value = reader.next();
    if ((value != Token::kNumber && value != Token::kString) ||
        !reader.canonical()) {
      return wrong_kind(value, "field 'metrics' is not canonical", error);
    }
    spelled += reader.raw().size() + 1;
  }
  if (token != Token::kObjectEnd) {
    return malformed(error);
  }
  bytes = std::string_view(
      begin, static_cast<std::size_t>(reader.raw().data() + 1 - begin));
  if (bytes.size() != (spelled == 1 ? 2 : spelled)) {
    error = "field 'metrics' is not canonical";  // whitespace inside
    return false;
  }
  return true;
}

}  // namespace

std::string_view request_type_name(RequestType type) {
  switch (type) {
    case RequestType::kSubmit:
      return "submit";
    case RequestType::kPing:
      return "ping";
    case RequestType::kStats:
      return "stats";
    case RequestType::kShutdown:
      return "shutdown";
  }
  return "?";
}

std::string_view reply_type_name(ReplyType type) {
  switch (type) {
    case ReplyType::kResult:
      return "result";
    case ReplyType::kError:
      return "error";
    case ReplyType::kPong:
      return "pong";
    case ReplyType::kStats:
      return "stats";
    case ReplyType::kGoodbye:
      return "goodbye";
  }
  return "?";
}

std::string Request::to_json() const {
  std::string out = "{";
  bool first = true;
  append_string_field(out, "type", request_type_name(type), first);
  if (!id.empty()) {
    append_string_field(out, "id", id, first);
  }
  if (type == RequestType::kSubmit) {
    if (!kernel.empty()) {
      append_string_field(out, "kernel", kernel, first);
    }
    if (!asm_source.empty()) {
      append_string_field(out, "asm", asm_source, first);
    }
    if (!elf.empty()) {
      append_string_field(out, "elf", elf, first);
    }
    if (policy != "steered") {
      append_string_field(out, "policy", policy, first);
    }
    if (max_cycles != 0) {
      append_u64_field(out, "max_cycles", max_cycles, first);
    }
    if (wall_ms != 0) {
      append_u64_field(out, "wall_ms", wall_ms, first);
    }
    if (interval != 1) {
      append_u64_field(out, "interval", interval, first);
    }
    if (confirm != 1) {
      append_u64_field(out, "confirm", confirm, first);
    }
    if (lookahead) {
      append_bool_field(out, "lookahead", lookahead, first);
    }
    if (seed != 42) {
      append_u64_field(out, "seed", seed, first);
    }
    if (!multi.empty()) {
      std::string entries = "[";
      for (std::size_t k = 0; k < multi.size(); ++k) {
        if (k > 0) {
          entries += ',';
        }
        entries += '{';
        bool entry_first = true;
        if (!multi[k].kernel.empty()) {
          append_string_field(entries, "kernel", multi[k].kernel,
                              entry_first);
        }
        if (!multi[k].elf.empty()) {
          append_string_field(entries, "elf", multi[k].elf, entry_first);
        }
        if (multi[k].policy != "steered") {
          append_string_field(entries, "policy", multi[k].policy,
                              entry_first);
        }
        entries += '}';
      }
      entries += ']';
      append_raw_field(out, "multi", entries, first);
      if (arbiter != "round-robin") {
        append_string_field(out, "arbiter", arbiter, first);
      }
    }
    if (!config.empty()) {
      auto sorted = config;
      std::sort(sorted.begin(), sorted.end());
      std::string knobs = "{";
      bool knob_first = true;
      for (const auto& [name, value] : sorted) {
        append_number_field(knobs, name, value, knob_first);
      }
      knobs += '}';
      append_raw_field(out, "config", knobs, first);
    }
  }
  out += '}';
  return out;
}

bool Request::parse(std::string_view text, Request& out, std::string& error) {
  enum Key : std::size_t {
    kType, kId, kKernel, kAsm, kElf, kPolicy, kMaxCycles, kWallMs,
    kInterval, kConfirm, kLookahead, kSeed, kMulti, kArbiter, kConfig,
  };
  static constexpr std::string_view kKeys[] = {
      "type",     "id",       "kernel",  "asm",   "elf",
      "policy",   "max_cycles", "wall_ms", "interval", "confirm",
      "lookahead", "seed",    "multi",   "arbiter", "config"};
  JsonReader reader(text);
  Token token = reader.next();
  if (token != Token::kObjectBegin) {
    return wrong_kind(token, "request must be a JSON object", error);
  }
  Request parsed;
  std::string type;
  // Read only for a multi submit, so its kind is checked only then.
  std::string arbiter;
  bool arbiter_is_string = true;
  unsigned seen = 0;
  for (token = reader.next(); token == Token::kKey; token = reader.next()) {
    // Unknown keys are skipped whatever their value, and a repeated key
    // keeps its first value.
    const std::size_t key = key_index(kKeys, reader.text());
    if (key == std::size(kKeys) || (seen & (1u << key)) != 0) {
      if (!skip_value(reader, error)) {
        return false;
      }
      continue;
    }
    seen |= 1u << key;
    const std::string_view name = kKeys[key];
    bool ok = true;
    switch (key) {
      case kType:
        ok = string_field(reader, name, type, error);
        break;
      case kId:
        ok = string_field(reader, name, parsed.id, error);
        break;
      case kKernel:
        ok = string_field(reader, name, parsed.kernel, error);
        break;
      case kAsm:
        ok = string_field(reader, name, parsed.asm_source, error);
        break;
      case kElf:
        ok = string_field(reader, name, parsed.elf, error);
        break;
      case kPolicy:
        ok = string_field(reader, name, parsed.policy, error);
        break;
      case kMaxCycles:
        ok = u64_field(reader, name, parsed.max_cycles, error);
        break;
      case kWallMs:
        ok = u64_field(reader, name, parsed.wall_ms, error);
        break;
      case kInterval:
        ok = u64_field(reader, name, parsed.interval, error);
        break;
      case kConfirm:
        ok = u64_field(reader, name, parsed.confirm, error);
        break;
      case kLookahead:
        ok = bool_field(reader, name, parsed.lookahead, error);
        break;
      case kSeed:
        ok = u64_field(reader, name, parsed.seed, error);
        break;
      case kMulti:
        ok = read_multi(reader, parsed.multi, error);
        break;
      case kArbiter: {
        const Token value = reader.next();
        arbiter_is_string = value == Token::kString;
        if (arbiter_is_string) {
          arbiter = reader.text();
        } else {
          ok = reader.skip(value) || malformed(error);
        }
        break;
      }
      case kConfig:
        ok = read_config(reader, parsed.config, error);
        break;
    }
    if (!ok) {
      return false;
    }
  }
  if (token != Token::kObjectEnd || reader.next() != Token::kEnd) {
    return malformed(error);
  }
  if (type == "submit") {
    parsed.type = RequestType::kSubmit;
  } else if (type == "ping") {
    parsed.type = RequestType::kPing;
  } else if (type == "stats") {
    parsed.type = RequestType::kStats;
  } else if (type == "shutdown") {
    parsed.type = RequestType::kShutdown;
  } else {
    error = type.empty() ? "missing request 'type'"
                         : "unknown request type '" + type + "'";
    return false;
  }
  if ((seen & (1u << kMulti)) != 0 && (seen & (1u << kArbiter)) != 0) {
    if (!arbiter_is_string) {
      error = "field 'arbiter' must be a string";
      return false;
    }
    parsed.arbiter = std::move(arbiter);
  }
  out = std::move(parsed);
  return true;
}

std::string Reply::to_json() const {
  std::string out = "{";
  bool first = true;
  append_string_field(out, "type", reply_type_name(type), first);
  if (!id.empty()) {
    append_string_field(out, "id", id, first);
  }
  switch (type) {
    case ReplyType::kResult:
      append_string_field(out, "cache", cache, first);
      append_string_field(out, "digest", digest, first);
      append_string_field(out, "policy", policy, first);
      append_string_field(out, "outcome", outcome, first);
      append_u64_field(out, "cycles", cycles, first);
      append_u64_field(out, "retired", retired, first);
      if (!metrics_json.empty()) {
        append_raw_field(out, "metrics", metrics_json, first);
      }
      break;
    case ReplyType::kError:
      append_string_field(out, "code", code, first);
      append_bool_field(out, "retriable", retriable, first);
      if (!message.empty()) {
        append_string_field(out, "message", message, first);
      }
      break;
    case ReplyType::kPong:
    case ReplyType::kGoodbye:
      break;
    case ReplyType::kStats:
      if (!stats_json.empty()) {
        append_raw_field(out, "metrics", stats_json, first);
      }
      break;
  }
  out += '}';
  return out;
}

bool Reply::parse(std::string_view text, Reply& out, std::string& error) {
  enum Key : std::size_t {
    kType, kId, kCache, kDigest, kPolicy, kOutcome, kCycles, kRetired,
    kMetrics, kCode, kRetriable, kMessage,
  };
  static constexpr std::string_view kKeys[] = {
      "type",    "id",     "cache",   "digest",  "policy",    "outcome",
      "cycles",  "retired", "metrics", "code",   "retriable", "message"};
  JsonReader reader(text);
  Token token = reader.next();
  if (token != Token::kObjectBegin) {
    return wrong_kind(token, "reply must be a JSON object", error);
  }
  Reply parsed;
  std::string type;
  std::string_view metrics;
  unsigned seen = 0;
  for (token = reader.next(); token == Token::kKey; token = reader.next()) {
    const std::size_t key = key_index(kKeys, reader.text());
    if (key == std::size(kKeys) || (seen & (1u << key)) != 0) {
      error = (key == std::size(kKeys) ? "unexpected key '"
                                       : "repeated key '") +
              std::string(reader.text()) + "' in a reply";
      return false;
    }
    seen |= 1u << key;
    const std::string_view name = kKeys[key];
    bool ok = true;
    switch (key) {
      case kType:
        ok = string_field(reader, name, type, error);
        break;
      case kId:
        ok = string_field(reader, name, parsed.id, error);
        break;
      case kCache:
        ok = string_field(reader, name, parsed.cache, error);
        break;
      case kDigest:
        ok = string_field(reader, name, parsed.digest, error);
        break;
      case kPolicy:
        ok = string_field(reader, name, parsed.policy, error);
        break;
      case kOutcome:
        ok = string_field(reader, name, parsed.outcome, error);
        break;
      case kCycles:
        ok = u64_field(reader, name, parsed.cycles, error);
        break;
      case kRetired:
        ok = u64_field(reader, name, parsed.retired, error);
        break;
      case kMetrics:
        ok = canonical_object(reader, metrics, error);
        break;
      case kCode:
        ok = string_field(reader, name, parsed.code, error);
        break;
      case kRetriable:
        ok = bool_field(reader, name, parsed.retriable, error);
        break;
      case kMessage:
        ok = string_field(reader, name, parsed.message, error);
        break;
    }
    if (!ok) {
      return false;
    }
  }
  if (token != Token::kObjectEnd || reader.next() != Token::kEnd) {
    return malformed(error);
  }
  // The keys each type may carry: exactly the ones to_json() can write.
  // A bit flip in a key name leaves a well-formed frame whose field would
  // silently read as its default (a flipped "retriable" turns a retriable
  // error final).
  constexpr unsigned kBare = 1u << kType | 1u << kId;
  unsigned allowed = kBare;
  if (type == "result") {
    parsed.type = ReplyType::kResult;
    allowed |= 1u << kCache | 1u << kDigest | 1u << kPolicy |
               1u << kOutcome | 1u << kCycles | 1u << kRetired |
               1u << kMetrics;
  } else if (type == "error") {
    parsed.type = ReplyType::kError;
    allowed |= 1u << kCode | 1u << kRetriable | 1u << kMessage;
  } else if (type == "pong") {
    parsed.type = ReplyType::kPong;
  } else if (type == "stats") {
    parsed.type = ReplyType::kStats;
    allowed |= 1u << kMetrics;
  } else if (type == "goodbye") {
    parsed.type = ReplyType::kGoodbye;
  } else {
    error = type.empty() ? "missing reply 'type'"
                         : "unknown reply type '" + type + "'";
    return false;
  }
  if ((seen & ~allowed) != 0) {
    error = "unexpected key '" +
            std::string(kKeys[std::countr_zero(seen & ~allowed)]) +
            "' in a " + type + " reply";
    return false;
  }
  if (parsed.type == ReplyType::kError &&
      (seen & (1u << kRetriable)) == 0) {
    error = "error reply without 'retriable'";
    return false;
  }
  (parsed.type == ReplyType::kStats ? parsed.stats_json
                                    : parsed.metrics_json) = metrics;
  out = std::move(parsed);
  return true;
}

Reply Reply::error(std::string id, std::string_view code, std::string message,
                   bool retriable) {
  Reply reply;
  reply.type = ReplyType::kError;
  reply.id = std::move(id);
  reply.code = std::string(code);
  reply.message = std::move(message);
  reply.retriable = retriable;
  return reply;
}

}  // namespace steersim::svc
