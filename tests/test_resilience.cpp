// Resilience-surface tests (docs/SERVICE.md §Failure modes): the idle-read
// (slowloris) timeout, SIGPIPE immunity when a client vanishes before its
// reply, SteersimClient's reconnect/retry/backoff discipline — including
// recovery through injected frame chaos — the full-jitter backoff math,
// and wire::FrameReader's framing, alone and at both ends of a socket.
//
// The socket tests drive a real SocketServer over a Unix domain socket in
// /tmp, through the same svc/wire.hpp the server and client use.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
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
#include "svc/wire.hpp"

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

/// A connection to `path`; -1 (and a test failure) when none is made.
int open_connection(const std::string& path) {
  std::string error;
  const int fd = wire::connect_unix(path, 2'000, error);
  EXPECT_GE(fd, 0) << error;
  return fd;
}

/// Reads frames until `count` arrived or a read ends otherwise (EOF, a
/// failure, 10 s without a frame); `last` is the final read's result.
std::vector<std::string> read_frames(int fd, std::size_t count,
                                     wire::FrameReader& reader,
                                     wire::Read& last) {
  std::vector<std::string> out;
  std::string_view frame;
  while ((last = reader.next(fd, 10'000, wire::Pace::kFrame, frame)) ==
         wire::Read::kFrame) {
    out.emplace_back(frame);
    if (out.size() == count) {
      break;
    }
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
  const int fd = open_connection(harness.path());
  ASSERT_GE(fd, 0);
  std::string error;
  ASSERT_TRUE(wire::write_all(fd, R"({"type":"ping")", error))
      << error;  // half a frame, no '\n'

  wire::FrameReader reader;
  wire::Read last{};
  const std::vector<std::string> frames = read_frames(fd, 2, reader, last);
  ::close(fd);
  ASSERT_EQ(frames.size(), 1u) << "expected one error frame";
  Reply reply;
  ASSERT_TRUE(Reply::parse(frames[0], reply, error)) << error;
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kTimeout);
  EXPECT_TRUE(reply.retriable) << "an idle cut invites a clean retry";
  EXPECT_EQ(last, wire::Read::kEof);
  EXPECT_EQ(reader.pending(), 0u)
      << "nothing after the error frame: the connection is closed";
}

// ---------------------------------------------------------------------------
// Satellite: SIGPIPE immunity. A client that submits and vanishes before
// reading its reply must cost the daemon one EPIPE, not the process.

TEST(Resilience, ServerSurvivesAClientThatVanishesBeforeItsReply) {
  ServerHarness harness({.workers = 1, .queue_capacity = 4}, {}, "vanish");
  const int fd = open_connection(harness.path());
  ASSERT_GE(fd, 0);
  std::string error;
  ASSERT_TRUE(
      wire::write_all(fd, wire::encode(submit_fib(1, "doomed").to_json()),
                      error))
      << error;
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
// Hostile frames under wire::kMaxFrameBytes. A value nested 100,000
// arrays deep used to recurse the connection thread off its stack and end
// the process; malformed numbers used to run as some other number. Each
// now answers bad_request, and the connection still answers the ping
// after.

TEST(Resilience, HostileFramesAnswerBadRequestAndTheConnectionLives) {
  ServerHarness harness({.workers = 1, .queue_capacity = 4}, {}, "hostile");
  const int fd = open_connection(harness.path());
  ASSERT_GE(fd, 0);
  const std::string nested = R"({"type":"ping","x":)" +
                             std::string(100'000, '[') +
                             std::string(100'000, ']') + "}";
  ASSERT_EQ(nested.size() + 1, 200'021u);  // with its newline
  const std::vector<std::string> hostile = {
      nested,
      R"({"type":"submit","kernel":"fib","max_cycles":7-3})",
      R"({"type":"submit","kernel":"fib","max_cycles":--5})",
      R"({"type":"submit","kernel":"fib","seed":1e})",
      // One word past the default 1 MiB data memory: it assembles and is
      // queued, and the worker's Processor refuses it.
      R"({"type":"submit","asm":".data\nbig: .space 131073\n)"
      R"(.text\n  halt\n"})",
      // 8 TB of data: the assembler refuses it before allocating.
      R"({"type":"submit","asm":".data\nbig: .space 1000000000000\n)"
      R"(.text\n  halt\n"})"};
  std::string frames;
  for (const std::string& frame : hostile) {
    frames += wire::encode(frame);
  }
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "after";
  std::string error;
  ASSERT_TRUE(
      wire::write_all(fd, frames + wire::encode(ping.to_json()), error))
      << error;

  wire::FrameReader reader;
  wire::Read last{};
  const std::vector<std::string> replies =
      read_frames(fd, hostile.size() + 1, reader, last);
  ::close(fd);
  ASSERT_EQ(replies.size(), hostile.size() + 1);
  for (std::size_t k = 0; k < replies.size(); ++k) {
    Reply reply;
    ASSERT_TRUE(Reply::parse(replies[k], reply, error)) << error;
    if (k < hostile.size()) {
      EXPECT_EQ(reply.code, error_code::kBadRequest) << replies[k];
    } else {
      EXPECT_EQ(reply.type, ReplyType::kPong);
      EXPECT_EQ(reply.id, "after");
    }
  }
  EXPECT_EQ(harness.service().stats().submitted, 2u)
      << "no malformed frame reached a submit; the two data-image ones did";
  EXPECT_NE(replies[4].find("data_memory_bytes"), std::string::npos)
      << replies[4];
  EXPECT_NE(replies[5].find("line 2: data image exceeds"), std::string::npos)
      << replies[5];
}

// ---------------------------------------------------------------------------
// Framing at both ends: one wire::kMaxFrameBytes bound, and empty lines.

TEST(Resilience, ServerSkipsEmptyLines) {
  ServerHarness harness({.workers = 1, .queue_capacity = 4}, {}, "empty");
  const int fd = open_connection(harness.path());
  ASSERT_GE(fd, 0);
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "one";
  std::string bytes = "\n\n" + wire::encode(ping.to_json()) + "\n";
  ping.id = "two";
  bytes += wire::encode(ping.to_json());
  std::string error;
  ASSERT_TRUE(wire::write_all(fd, bytes, error)) << error;

  wire::FrameReader reader;
  wire::Read last{};
  const std::vector<std::string> replies = read_frames(fd, 2, reader, last);
  ::close(fd);
  ASSERT_EQ(replies.size(), 2u);
  const std::array<const char*, 2> ids = {"one", "two"};
  for (std::size_t k = 0; k < ids.size(); ++k) {
    Reply reply;
    ASSERT_TRUE(Reply::parse(replies[k], reply, error)) << error;
    EXPECT_EQ(reply.type, ReplyType::kPong) << "an empty line is no request";
    EXPECT_EQ(reply.id, ids[k]);
  }
}

TEST(Resilience, PartialFramePastTheBoundAnswersBadRequestAndCloses) {
  ServerHarness harness({.workers = 1, .queue_capacity = 4}, {}, "bound");
  const int fd = open_connection(harness.path());
  ASSERT_GE(fd, 0);
  std::string error;
  ASSERT_TRUE(wire::write_all(
      fd, std::string(wire::kMaxFrameBytes + 1, 'x'), error))
      << error;

  wire::FrameReader reader;
  wire::Read last{};
  const std::vector<std::string> replies = read_frames(fd, 2, reader, last);
  ::close(fd);
  ASSERT_EQ(replies.size(), 1u);
  Reply reply;
  ASSERT_TRUE(Reply::parse(replies[0], reply, error)) << error;
  EXPECT_EQ(reply.code, error_code::kBadRequest);
  EXPECT_EQ(reply.message, "frame exceeds 1048576 bytes");
  EXPECT_EQ(last, wire::Read::kEof) << "the server closes after answering";
  EXPECT_EQ(harness.service().stats().submitted, 0u);
}

TEST(Client, UnterminatedReplyPastTheBoundFailsAtOnce) {
  // A fake daemon that answers any request with 1 MiB + 1 bytes and no
  // newline, then holds the connection open until the client leaves.
  const std::string path = unique_socket_path("fake");
  std::string error;
  const int listen_fd = wire::listen_unix(path, error);
  ASSERT_GE(listen_fd, 0) << error;
  std::jthread daemon([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    wire::FrameReader reader;
    std::string_view frame;
    std::string write_error;
    if (reader.next(fd, 10'000, wire::Pace::kFrame, frame) ==
        wire::Read::kFrame) {
      wire::write_all(fd, std::string(wire::kMaxFrameBytes + 1, 'x'),
                      write_error);
      reader.next(fd, 10'000, wire::Pace::kFrame, frame);  // client's EOF
    }
    ::close(fd);
  });

  ClientOptions options;
  options.socket_path = path;
  options.read_timeout_ms = 10'000;
  SteersimClient client(options);
  Request ping;
  ping.type = RequestType::kPing;
  Reply reply;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.call_once(ping, reply, error));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(error, "reply exceeds 1048576 bytes");
  EXPECT_LT(waited, std::chrono::seconds(5))
      << "the bound fails the read at once, not after read_timeout_ms";
  EXPECT_EQ(client.stats().timeouts, 0u);
  EXPECT_FALSE(client.connected());
  ::shutdown(listen_fd, SHUT_RDWR);  // an accept() still waiting returns
  daemon.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace steersim::svc
