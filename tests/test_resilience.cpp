// Resilience-surface tests (docs/SERVICE.md §Failure modes): the idle-read
// (slowloris) timeout, SIGPIPE immunity when a client vanishes before its
// reply, SteersimClient's reconnect/retry/backoff discipline — including
// recovery through injected frame chaos — and the full-jitter backoff math.
//
// The socket tests drive a real SocketServer over a Unix domain socket in
// /tmp; they are POSIX-only, like the server itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "svc/chaos.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace steersim::svc {
namespace {

// ---------------------------------------------------------------------------
// Full-jitter backoff: pure math, portable.

TEST(Backoff, ZeroBaseNeverSleeps) {
  Xoshiro256 rng(1);
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    EXPECT_EQ(SteersimClient::backoff_delay_ms(attempt, 0, 1000, rng), 0u);
  }
}

TEST(Backoff, DelayIsBoundedByTheGrowingCeilingAndTheCap) {
  Xoshiro256 rng(42);
  std::set<std::uint64_t> seen;
  for (int draw = 0; draw < 200; ++draw) {
    EXPECT_LE(SteersimClient::backoff_delay_ms(0, 8, 1000, rng), 8u);
    EXPECT_LE(SteersimClient::backoff_delay_ms(3, 8, 1000, rng), 64u);
    // Attempt 77 would shift base off the end of uint64: the cap holds.
    const std::uint64_t capped =
        SteersimClient::backoff_delay_ms(77, 8, 1000, rng);
    EXPECT_LE(capped, 1000u);
    seen.insert(capped);
  }
  EXPECT_GT(seen.size(), 1u) << "full jitter must actually jitter";
}

// ---------------------------------------------------------------------------
// Client vs a daemon that does not exist: fail fast, typed, retriable.

TEST(Client, AbsentDaemonYieldsASynthesizedTransportError) {
  ClientOptions options;
  options.socket_path = "/tmp/steersim-test-no-such-daemon.sock";
  options.connect_timeout_ms = 200;
  options.max_attempts = 3;
  options.backoff_base_ms = 0;
  SteersimClient client(options);

  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "anyone-home";
  const Reply reply = client.call(ping);
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kTransport)
      << "a code the server never sends: unmistakably client-side";
  EXPECT_TRUE(reply.retriable);
  EXPECT_EQ(reply.id, "anyone-home");
  EXPECT_NE(reply.message.find("after 3 attempts"), std::string::npos)
      << reply.message;
  EXPECT_EQ(client.stats().connects, 0u);
  EXPECT_FALSE(client.connected());
}

#ifndef _WIN32

// ---------------------------------------------------------------------------
// Socket-level harness: a real SimService + SocketServer on a /tmp socket.

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/steersim-test-" + std::string(tag) + "-" +
         std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

class ServerHarness {
 public:
  ServerHarness(const ServiceConfig& config, ServerOptions options,
                const char* tag)
      : service_(config) {
    options.socket_path = unique_socket_path(tag);
    server_ = std::make_unique<SocketServer>(service_, options);
    listening_ = server_->listen();
    EXPECT_TRUE(listening_);
    if (listening_) {
      serve_thread_ = std::jthread([this] { server_->serve(); });
    }
  }

  ~ServerHarness() {
    server_->stop();
    if (serve_thread_.joinable()) {
      serve_thread_.join();
    }
    ::unlink(server_->socket_path().c_str());
  }

  SimService& service() { return service_; }
  const std::string& path() const { return server_->socket_path(); }

 private:
  SimService service_;
  std::unique_ptr<SocketServer> server_;
  bool listening_ = false;
  std::jthread serve_thread_;
};

int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool raw_send(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
#ifdef MSG_NOSIGNAL
    const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                          MSG_NOSIGNAL);
#else
    const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
#endif
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until EOF or `deadline_ms`; returns everything received.
std::string raw_read_until_eof(int fd, int deadline_ms) {
  std::string out;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  char buffer[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      break;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready <= 0) {
      break;
    }
    const auto n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      break;  // EOF (or error): the server closed its side
    }
    out.append(buffer, static_cast<std::size_t>(n));
  }
  return out;
}

Request submit_fib(std::uint64_t seed, std::string id = "") {
  Request request;
  request.type = RequestType::kSubmit;
  request.kernel = "fib";
  request.seed = seed;
  request.id = std::move(id);
  return request;
}

// ---------------------------------------------------------------------------
// Satellite: the slowloris guard. A connection holding a half frame open
// gets a typed retriable `timeout` error, then the server closes it.

TEST(Resilience, IdleConnectionIsTimedOutWithATypedError) {
  ServerHarness harness({.workers = 1, .queue_capacity = 4},
                        {.idle_timeout_ms = 100}, "idle");
  const int fd = raw_connect(harness.path());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, R"({"type":"ping")"));  // half a frame, no '\n'

  const std::string received = raw_read_until_eof(fd, 5000);
  ::close(fd);
  const std::size_t newline = received.find('\n');
  ASSERT_NE(newline, std::string::npos)
      << "expected one error frame, got: " << received;
  Reply reply;
  std::string error;
  ASSERT_TRUE(Reply::parse(received.substr(0, newline), reply, error))
      << error;
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kTimeout);
  EXPECT_TRUE(reply.retriable) << "an idle cut invites a clean retry";
  EXPECT_EQ(received.substr(newline + 1), "")
      << "nothing after the error frame: the connection is closed";
}

// ---------------------------------------------------------------------------
// Satellite: SIGPIPE immunity. A client that submits and vanishes before
// reading its reply must cost the daemon one EPIPE, not the process.

TEST(Resilience, ServerSurvivesAClientThatVanishesBeforeItsReply) {
  ServerHarness harness({.workers = 1, .queue_capacity = 4}, {}, "vanish");
  const int fd = raw_connect(harness.path());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, submit_fib(1, "doomed").to_json() + "\n"));
  ::close(fd);  // gone before the reply: the server's write hits EPIPE

  // Wait for the submit to have been processed, then prove the daemon is
  // still answering.
  for (int i = 0; i < 2000 && harness.service().stats().submitted == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(harness.service().stats().submitted, 1u);

  ClientOptions options;
  options.socket_path = harness.path();
  SteersimClient client(options);
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "still-there";
  const Reply pong = client.call(ping);
  ASSERT_EQ(pong.type, ReplyType::kPong) << pong.message;
  EXPECT_EQ(pong.id, "still-there");
}

// ---------------------------------------------------------------------------
// Tentpole: the resilient client completes every job through frame chaos.

TEST(Resilience, ClientRetriesThroughFrameChaosToEventualSuccess) {
  ChaosSpec spec;
  spec.site(ChaosSite::kFrameDrop) = 0.5;
  spec.site(ChaosSite::kFrameCorrupt) = 0.25;
  spec.seed = 1234;
  ChaosInjector::install(std::make_unique<ChaosInjector>(spec));

  {
    ServerHarness harness({.workers = 2, .queue_capacity = 8}, {}, "chaos");
    ClientOptions options;
    options.socket_path = harness.path();
    options.read_timeout_ms = 2000;
    options.max_attempts = 64;
    options.backoff_base_ms = 1;
    options.backoff_cap_ms = 4;
    SteersimClient client(options);

    // Type is the only safe assertion on the payload: a corrupt-site bit
    // flip in a *data* byte (say, inside `outcome`) yields a frame that
    // still parses — the protocol has no checksum, so such corruption is
    // indistinguishable from a genuine reply. A flip that breaks the
    // JSON or the type tag is caught by strict parsing and retried.
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const Reply reply = client.call(submit_fib(seed));
      ASSERT_EQ(reply.type, ReplyType::kResult)
          << "seed " << seed << ": " << reply.message;
    }
    const ClientStats stats = client.stats();
    EXPECT_GE(stats.retries_transport, 1u)
        << "a 50% drop rate must have forced at least one retry";
    EXPECT_GE(stats.reconnects, 1u)
        << "dropped frames close the connection: reconnects follow";
    EXPECT_GT(stats.attempts, 6u);
  }
  // The harness (and its connection threads) are down: safe to retire the
  // injector.
  ChaosInjector::install(nullptr);
}

// ---------------------------------------------------------------------------
// Retriable error replies retry on the live connection (no reconnect).

TEST(Resilience, RetriableErrorRepliesRetryWithoutReconnecting) {
  ServerHarness harness({.workers = 1,
                         .queue_capacity = 4,
                         .cancel_check_cycles = 512,
                         .watchdog_poll_ms = 5,
                         .watchdog_grace_ms = 10'000},
                        {}, "retriable");
  ClientOptions options;
  options.socket_path = harness.path();
  options.max_attempts = 2;
  options.backoff_base_ms = 0;
  SteersimClient client(options);

  Request hopeless;
  hopeless.type = RequestType::kSubmit;
  hopeless.asm_source = "loop:\n  addi r1, r1, 1\n  beq r0, r0, loop\n";
  hopeless.max_cycles = 40'000'000;
  hopeless.wall_ms = 30;
  const Reply reply = client.call(hopeless);
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kWallDeadline)
      << "attempts exhausted: the last retriable reply comes back verbatim";
  EXPECT_TRUE(reply.retriable);

  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.retries_retriable, 1u);
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.reconnects, 0u)
      << "error replies are healthy transport: keep the connection";
  EXPECT_EQ(harness.service().stats().wall_deadline_exceeded, 2u);
}

// ---------------------------------------------------------------------------
// Hostile frames under max_frame_bytes. A value nested 100,000 arrays deep
// used to recurse the connection thread off its stack and end the
// process; malformed numbers used to run as some other number. Each now
// answers bad_request, and the connection still answers the ping after.

/// Reads until `lines` newline-terminated frames arrived, EOF or the
/// deadline; returns the complete frames.
std::vector<std::string> raw_read_lines(int fd, std::size_t lines,
                                        int deadline_ms) {
  std::vector<std::string> out;
  std::string pending;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  char buffer[4096];
  while (out.size() < lines) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      break;
    }
    const auto n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      break;
    }
    pending.append(buffer, static_cast<std::size_t>(n));
    for (std::size_t newline = pending.find('\n');
         newline != std::string::npos; newline = pending.find('\n')) {
      out.push_back(pending.substr(0, newline));
      pending.erase(0, newline + 1);
    }
  }
  return out;
}

TEST(Resilience, HostileFramesAnswerBadRequestAndTheConnectionLives) {
  ServerHarness harness({.workers = 1, .queue_capacity = 4}, {}, "hostile");
  const int fd = raw_connect(harness.path());
  ASSERT_GE(fd, 0);
  const std::string nested = R"({"type":"ping","x":)" +
                             std::string(100'000, '[') +
                             std::string(100'000, ']') + "}";
  ASSERT_EQ(nested.size() + 1, 200'021u);  // with its newline
  const std::vector<std::string> hostile = {
      nested,
      R"({"type":"submit","kernel":"fib","max_cycles":7-3})",
      R"({"type":"submit","kernel":"fib","max_cycles":--5})",
      R"({"type":"submit","kernel":"fib","seed":1e})"};
  std::string frames;
  for (const std::string& frame : hostile) {
    frames += frame + "\n";
  }
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "after";
  ASSERT_TRUE(raw_send(fd, frames + ping.to_json() + "\n"));

  const std::vector<std::string> replies =
      raw_read_lines(fd, hostile.size() + 1, 10'000);
  ::close(fd);
  ASSERT_EQ(replies.size(), hostile.size() + 1);
  for (std::size_t k = 0; k < replies.size(); ++k) {
    Reply reply;
    std::string error;
    ASSERT_TRUE(Reply::parse(replies[k], reply, error)) << error;
    if (k < hostile.size()) {
      EXPECT_EQ(reply.code, error_code::kBadRequest) << replies[k];
    } else {
      EXPECT_EQ(reply.type, ReplyType::kPong);
      EXPECT_EQ(reply.id, "after");
    }
  }
  EXPECT_EQ(harness.service().stats().submitted, 0u)
      << "no malformed submit ran";
}

#endif  // !_WIN32

}  // namespace
}  // namespace steersim::svc
