// Resilient steersimd client library (docs/SERVICE.md §Failure modes).
//
// Extracted from tools/steersim_client.cpp so the CLI, the resilience
// bench and the chaos smoke all share one retry discipline instead of
// three ad-hoc ones. SteersimClient keeps a persistent connection to the
// daemon and turns the protocol's failure taxonomy into behaviour:
//
//   transport failures (connect refused, EOF mid-reply, read timeout, a
//   reply past wire::kMaxFrameBytes, unparseable frame — i.e. a
//   chaos-corrupted one) close the socket, reconnect, and retry;
//
//   retriable error replies (`queue_full`, `wall_deadline`,
//   `worker_crashed`, `timeout`) retry on the live connection;
//
//   everything else is returned to the caller verbatim.
//
// Retries are paced by capped exponential backoff with full jitter —
// delay ~ U[0, min(cap, base·2^attempt)] — the AWS-style variant that
// decorrelates a thundering herd of clients hammering a queue_full
// daemon. Resubmission is idempotent by construction: identical submits
// hash to the same FNV-1a job digest, so a retry either hits the result
// cache (the first attempt actually completed and was lost in transit)
// or re-runs the same deterministic simulation.
//
// When every attempt is exhausted the caller gets a synthesized error
// reply with code `transport` — a code the server itself never sends.
//
// POSIX only; framing lives in svc/wire.hpp.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "svc/protocol.hpp"
#include "svc/wire.hpp"

namespace steersim::svc {

struct ClientOptions {
  std::string socket_path;
  /// Nonblocking connect() deadline.
  std::uint64_t connect_timeout_ms = 2'000;
  /// Deadline for one complete reply frame to arrive.
  std::uint64_t read_timeout_ms = 10'000;
  /// Total tries per call() — first attempt plus retries.
  unsigned max_attempts = 8;
  /// Backoff ceiling grows base·2^attempt up to cap; the actual delay is
  /// uniform in [0, ceiling] (full jitter). base 0 disables sleeping.
  std::uint64_t backoff_base_ms = 5;
  std::uint64_t backoff_cap_ms = 1'000;
  /// Seeds the jitter RNG: deterministic sleep sequences per client.
  std::uint64_t jitter_seed = 1;
};

/// Lifetime counters, exposed so benches can report retry pressure.
struct ClientStats {
  std::uint64_t attempts = 0;           ///< request frames sent
  std::uint64_t connects = 0;           ///< successful connect()s
  std::uint64_t reconnects = 0;         ///< connects after the first
  std::uint64_t retries_retriable = 0;  ///< retried on retriable errors
  std::uint64_t retries_transport = 0;  ///< retried on transport failure
  std::uint64_t timeouts = 0;           ///< read deadlines that expired
};

class SteersimClient {
 public:
  explicit SteersimClient(ClientOptions options);
  ~SteersimClient();

  SteersimClient(const SteersimClient&) = delete;
  SteersimClient& operator=(const SteersimClient&) = delete;

  /// Full resilience loop: up to max_attempts tries with backoff, as
  /// described above. Always returns a Reply — on total failure, a
  /// synthesized retriable error with code `transport`. Not thread-safe;
  /// use one client per thread.
  Reply call(const Request& request);

  /// One attempt, no retry and no backoff: false on transport failure
  /// (with `error` set), true with the parsed reply otherwise. The
  /// socket is closed on failure so the next call reconnects.
  bool call_once(const Request& request, Reply& reply, std::string& error);

  /// Drops the connection (next call reconnects). Idempotent.
  void close();
  bool connected() const { return fd_ >= 0; }

  const ClientStats& stats() const { return stats_; }
  const ClientOptions& options() const { return options_; }

  /// Full-jitter backoff: uniform in [0, min(cap, base << attempt)],
  /// shift-overflow safe. Exposed for tests.
  static std::uint64_t backoff_delay_ms(unsigned attempt,
                                        std::uint64_t base_ms,
                                        std::uint64_t cap_ms,
                                        Xoshiro256& rng);

 private:
  /// The next reply frame, or false with `error` set.
  bool read_reply(std::string_view& frame, std::string& error);

  ClientOptions options_;
  Xoshiro256 rng_;
  ClientStats stats_;
  int fd_ = -1;
  /// Cleared on close, so a stale half-frame can never prefix the reply
  /// on the next connection.
  wire::FrameReader reader_;
};

}  // namespace steersim::svc
