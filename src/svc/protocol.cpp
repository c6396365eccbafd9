#include "svc/protocol.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

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

/// Field accessors that accumulate a problem description instead of
/// throwing: `ok` latches false on the first type mismatch.
std::string read_string(const JsonValue& object, const std::string& key,
                        std::string fallback, bool& ok, std::string& error) {
  const JsonValue* field = object.get(key);
  if (field == nullptr) {
    return fallback;
  }
  if (field->kind != JsonValue::Kind::kString) {
    ok = false;
    error = "field '" + key + "' must be a string";
    return fallback;
  }
  return field->string;
}

std::uint64_t read_u64(const JsonValue& object, const std::string& key,
                       std::uint64_t fallback, bool& ok, std::string& error) {
  const JsonValue* field = object.get(key);
  if (field == nullptr) {
    return fallback;
  }
  std::uint64_t value = 0;
  if (field->kind != JsonValue::Kind::kNumber || !field->as_u64(value)) {
    ok = false;
    error = "field '" + key + "' must be a non-negative integer";
    return fallback;
  }
  return value;
}

bool read_bool(const JsonValue& object, const std::string& key, bool fallback,
               bool& ok, std::string& error) {
  const JsonValue* field = object.get(key);
  if (field == nullptr) {
    return fallback;
  }
  if (field->kind != JsonValue::Kind::kBool) {
    ok = false;
    error = "field '" + key + "' must be a boolean";
    return fallback;
  }
  return field->boolean;
}

/// The keys each reply type may carry: exactly the ones to_json() can
/// write. A reply is parsed strictly against them, because a bit flip in
/// a key name leaves a well-formed frame whose field would silently read
/// as its default (a flipped "retriable" turns a retriable error final).
std::span<const std::string_view> reply_keys(ReplyType type) {
  static constexpr std::string_view kResult[] = {
      "type",    "id",     "cache",   "digest", "policy",
      "outcome", "cycles", "retired", "metrics"};
  static constexpr std::string_view kError[] = {"type", "id", "code",
                                                "retriable", "message"};
  static constexpr std::string_view kStats[] = {"type", "id", "metrics"};
  static constexpr std::string_view kBare[] = {"type", "id"};
  switch (type) {
    case ReplyType::kResult:
      return kResult;
    case ReplyType::kError:
      return kError;
    case ReplyType::kStats:
      return kStats;
    case ReplyType::kPong:
    case ReplyType::kGoodbye:
      break;
  }
  return kBare;
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
  JsonValue doc;
  if (!parse_json_strict(text, doc)) {
    error = "malformed JSON frame";
    return false;
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    error = "request must be a JSON object";
    return false;
  }
  bool ok = true;
  const std::string type = read_string(doc, "type", "", ok, error);
  Request parsed;
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
  parsed.id = read_string(doc, "id", "", ok, error);
  parsed.kernel = read_string(doc, "kernel", "", ok, error);
  parsed.asm_source = read_string(doc, "asm", "", ok, error);
  parsed.elf = read_string(doc, "elf", "", ok, error);
  parsed.policy = read_string(doc, "policy", "steered", ok, error);
  parsed.max_cycles = read_u64(doc, "max_cycles", 0, ok, error);
  parsed.wall_ms = read_u64(doc, "wall_ms", 0, ok, error);
  parsed.interval = read_u64(doc, "interval", 1, ok, error);
  parsed.confirm = read_u64(doc, "confirm", 1, ok, error);
  parsed.lookahead = read_bool(doc, "lookahead", false, ok, error);
  parsed.seed = read_u64(doc, "seed", 42, ok, error);
  if (const JsonValue* entries = doc.get("multi")) {
    if (entries->kind != JsonValue::Kind::kArray) {
      error = "field 'multi' must be an array";
      return false;
    }
    for (const JsonValue& entry : entries->array) {
      if (entry.kind != JsonValue::Kind::kObject) {
        error = "field 'multi' entries must be objects";
        return false;
      }
      MultiEntry core;
      core.kernel = read_string(entry, "kernel", "", ok, error);
      core.elf = read_string(entry, "elf", "", ok, error);
      core.policy = read_string(entry, "policy", "steered", ok, error);
      parsed.multi.push_back(std::move(core));
    }
    parsed.arbiter = read_string(doc, "arbiter", "round-robin", ok, error);
  }
  if (const JsonValue* knobs = doc.get("config")) {
    if (knobs->kind != JsonValue::Kind::kObject) {
      error = "field 'config' must be an object";
      return false;
    }
    for (const auto& [name, value] : knobs->object) {
      if (value.kind != JsonValue::Kind::kNumber) {
        error = "config knob '" + name + "' must be a number";
        return false;
      }
      parsed.config.emplace_back(name, value.number);  // map order: sorted
    }
  }
  if (!ok) {
    return false;
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
  JsonValue doc;
  if (!parse_json_strict(text, doc)) {
    error = "malformed JSON frame";
    return false;
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    error = "reply must be a JSON object";
    return false;
  }
  bool ok = true;
  const std::string type = read_string(doc, "type", "", ok, error);
  Reply parsed;
  if (type == "result") {
    parsed.type = ReplyType::kResult;
  } else if (type == "error") {
    parsed.type = ReplyType::kError;
  } else if (type == "pong") {
    parsed.type = ReplyType::kPong;
  } else if (type == "stats") {
    parsed.type = ReplyType::kStats;
  } else if (type == "goodbye") {
    parsed.type = ReplyType::kGoodbye;
  } else {
    error = type.empty() ? "missing reply 'type'"
                         : "unknown reply type '" + type + "'";
    return false;
  }
  const std::span<const std::string_view> keys = reply_keys(parsed.type);
  for (const auto& [key, value] : doc.object) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      error = "unexpected key '" + key + "' in a " + type + " reply";
      return false;
    }
  }
  if (parsed.type == ReplyType::kError && doc.get("retriable") == nullptr) {
    error = "error reply without 'retriable'";
    return false;
  }
  parsed.id = read_string(doc, "id", "", ok, error);
  parsed.cache = read_string(doc, "cache", "", ok, error);
  parsed.digest = read_string(doc, "digest", "", ok, error);
  parsed.policy = read_string(doc, "policy", "", ok, error);
  parsed.outcome = read_string(doc, "outcome", "", ok, error);
  parsed.cycles = read_u64(doc, "cycles", 0, ok, error);
  parsed.retired = read_u64(doc, "retired", 0, ok, error);
  parsed.code = read_string(doc, "code", "", ok, error);
  parsed.retriable = read_bool(doc, "retriable", false, ok, error);
  parsed.message = read_string(doc, "message", "", ok, error);
  if (const JsonValue* metrics = doc.get("metrics")) {
    if (metrics->kind != JsonValue::Kind::kObject) {
      error = "field 'metrics' must be an object";
      return false;
    }
    // Canonical re-rendering (sorted keys, round-trip numbers): the wire
    // form is canonical too, so parse(to_json()) is byte-stable.
    (parsed.type == ReplyType::kStats ? parsed.stats_json
                                      : parsed.metrics_json) =
        render_json(*metrics);
  }
  if (!ok) {
    return false;
  }
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

std::string Fnv1a::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

}  // namespace steersim::svc
