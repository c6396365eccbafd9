// Reference oracle for the wire codec: Request::parse and Reply::parse as
// they were when they read each frame into a JsonValue DOM, preserved
// verbatim (test-only). tests/test_service.cpp checks the one-pass
// parsers against them: a reply the one-pass parser accepts must be one
// the reference accepts, parsed to an equal Reply; a request must get the
// same verdict and an equal Request.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <string_view>

#include "sim/json.hpp"
#include "svc/protocol.hpp"

namespace steersim::svc::ref {

/// Field accessors that accumulate a problem description instead of
/// throwing: `ok` latches false on the first type mismatch.
inline std::string read_string(const JsonValue& object,
                               const std::string& key, std::string fallback,
                               bool& ok, std::string& error) {
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

inline std::uint64_t read_u64(const JsonValue& object, const std::string& key,
                              std::uint64_t fallback, bool& ok,
                              std::string& error) {
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

inline bool read_bool(const JsonValue& object, const std::string& key,
                      bool fallback, bool& ok, std::string& error) {
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
/// write.
inline std::span<const std::string_view> reply_keys(ReplyType type) {
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

inline bool parse_request(std::string_view text, Request& out,
                          std::string& error) {
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

inline bool parse_reply(std::string_view text, Reply& out,
                        std::string& error) {
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

}  // namespace steersim::svc::ref
