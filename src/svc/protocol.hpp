// Wire protocol for the steersimd job server (docs/SERVICE.md).
//
// JSON-lines over a Unix domain socket: each frame is exactly one JSON
// object terminated by '\n', read in one forward pass by json.hpp's
// JsonReader, which rejects trailing bytes, so `{"a":1}{"b":2}` can never
// be read as one message. Requests carry an assembly program or named
// workload kernel plus MachineConfig/PolicySpec overrides; replies are
// either a full result (the metric registry of the finished simulation,
// rendered canonically so a cache-hit reply is byte-identical to the cold
// run that populated it) or a typed error with a retriable bit
// (`queue_full` is the backpressure signal).
//
// Every message kind round-trips: to_json() then parse() compares equal
// (operator==), which tests/test_service.cpp enforces per kind.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace steersim::svc {

/// Protocol revision, echoed nowhere but bumped on breaking change.
inline constexpr std::string_view kProtocolVersion = "steersim-svc/1";

enum class RequestType : std::uint8_t {
  kSubmit,    ///< run (or cache-serve) one simulation
  kPing,      ///< liveness probe
  kStats,     ///< service metric registry snapshot
  kShutdown,  ///< drain in-flight jobs, then exit
};

std::string_view request_type_name(RequestType type);

/// One core's workload in a multi-core submit: a named kernel or a named
/// RV32 ELF fixture (exactly one), plus that core's steering policy.
struct MultiEntry {
  std::string kernel;
  std::string elf;
  std::string policy = "steered";

  bool operator==(const MultiEntry&) const = default;
};

/// One client request. Submit fields are meaningful only for kSubmit;
/// defaults here are the protocol defaults (absent keys parse to these,
/// and default-valued fields are omitted on the wire, so a round trip is
/// exact).
struct Request {
  RequestType type = RequestType::kPing;
  /// Client correlation id, echoed verbatim in the reply.
  std::string id;

  // --- submit payload ---------------------------------------------------
  /// Named workload kernel (src/workload/kernels.hpp); exclusive with
  /// `asm_source` and `elf`.
  std::string kernel;
  /// Inline assembly program (docs/ISA.md grammar).
  std::string asm_source;
  /// Named committed RV32 ELF fixture (src/workload/rv32_fixtures.hpp);
  /// the job digest covers the ELF image bytes, so identical binaries
  /// share one cache entry regardless of the name they were submitted
  /// under.
  std::string elf;
  /// Policy label: steered|static-ffu|static-integer|static-memory|
  /// static-float|oracle|full-reconfig|random|greedy.
  std::string policy = "steered";
  /// Per-job deadline in simulated cycles; 0 = server default budget.
  std::uint64_t max_cycles = 0;
  /// Per-job wall-clock deadline in host milliseconds; 0 = none. Measured
  /// from admission (queue wait counts). Enforced by the SimService
  /// watchdog: an overdue job answers a retriable `wall_deadline` error
  /// and, if its worker ignores cancellation past the grace period, the
  /// worker is poisoned and replaced. Not part of the cache digest — a
  /// wall deadline is an SLA, not simulated semantics.
  std::uint64_t wall_ms = 0;
  /// Steering decision interval / hysteresis / lookahead (PolicySpec).
  std::uint64_t interval = 1;
  std::uint64_t confirm = 1;
  bool lookahead = false;
  std::uint64_t seed = 42;
  /// Multi-core submit: one entry per core (1..8), exclusive with
  /// `kernel`/`asm_source`/`elf`. Empty = single-core submit.
  std::vector<MultiEntry> multi;
  /// Fabric arbiter policy for multi-core submits:
  /// round-robin|priority|prop-share.
  std::string arbiter = "round-robin";
  /// MachineConfig overrides as (knob, value) pairs, kept sorted by knob
  /// name (canonical order for digesting and round-trip equality). Knob
  /// names are validated server-side; unknown knobs are a bad_request.
  std::vector<std::pair<std::string, double>> config;

  std::string to_json() const;
  /// Parses one frame; on failure returns false and sets `error`. Lenient
  /// about keys: an unknown one is skipped whatever its value, and a
  /// repeated one keeps its first value.
  static bool parse(std::string_view text, Request& out, std::string& error);

  bool operator==(const Request&) const = default;
};

enum class ReplyType : std::uint8_t {
  kResult,   ///< completed simulation (cold or cache-served)
  kError,    ///< typed failure, possibly retriable
  kPong,     ///< answer to ping
  kStats,    ///< service metric snapshot
  kGoodbye,  ///< shutdown acknowledged; server drains and exits
};

std::string_view reply_type_name(ReplyType type);

/// Error codes a client can dispatch on (docs/SERVICE.md §Failure modes
/// has the full code × retriability × client-behavior table). Retriable
/// codes mean the submit is safe to resend verbatim — resubmission is
/// idempotent because identical jobs share one FNV-1a digest and cache
/// entry. `deadline` means the *cycle* budget elapsed before HALT;
/// `wall_deadline` means the *host* wall-clock budget did.
namespace error_code {
inline constexpr std::string_view kQueueFull = "queue_full";
inline constexpr std::string_view kDeadline = "deadline";
inline constexpr std::string_view kWallDeadline = "wall_deadline";
inline constexpr std::string_view kWorkerCrashed = "worker_crashed";
inline constexpr std::string_view kTimeout = "timeout";
inline constexpr std::string_view kBadRequest = "bad_request";
inline constexpr std::string_view kShuttingDown = "shutting_down";
inline constexpr std::string_view kSimFault = "sim_fault";
inline constexpr std::string_view kCancelled = "cancelled";
/// Never sent by the server: synthesized by SteersimClient when the
/// transport itself failed (connect/read/write error or reply timeout).
inline constexpr std::string_view kTransport = "transport";
}  // namespace error_code

/// One server reply. Result fields are meaningful only for kResult, error
/// fields only for kError, `stats_json` only for kStats.
struct Reply {
  ReplyType type = ReplyType::kPong;
  std::string id;

  // --- result payload ---------------------------------------------------
  /// "hit" when served from the digest-keyed cache, else "miss".
  std::string cache;
  /// FNV-1a job digest (cache key) as 16 hex digits; lets a client prove
  /// two submits were considered identical work.
  std::string digest;
  std::string policy;
  /// RunOutcome name: halted|max_cycles|stalled|fault.
  std::string outcome;
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  /// Full end-of-run metric registry as one canonical JSON object (sorted
  /// keys); identical bytes on a cache hit.
  std::string metrics_json;

  // --- error payload ----------------------------------------------------
  std::string code;
  bool retriable = false;
  std::string message;

  // --- stats payload ----------------------------------------------------
  /// Service metric registry (svc.*) as one canonical JSON object.
  std::string stats_json;

  std::string to_json() const;
  /// Strict parse of one frame. Unlike a request, a reply may carry only
  /// the keys to_json() writes for its type, each at most once, an error
  /// reply must carry `retriable`, and `metrics` must be spelled as
  /// canonical_metrics_json spells it: a frame a bit flip damaged fails
  /// here instead of parsing with a field reset to its default. The
  /// metrics bytes become metrics_json/stats_json as they are.
  static bool parse(std::string_view text, Reply& out, std::string& error);

  bool operator==(const Reply&) const = default;

  /// Convenience constructors.
  static Reply error(std::string id, std::string_view code,
                     std::string message, bool retriable = false);
};

}  // namespace steersim::svc
