// proto_fuzz — mutational protocol fuzz harness for steersimd
// (docs/SERVICE.md §Failure modes).
//
//   $ proto_fuzz [--frames N] [--seed S] [--socket PATH]
//
// Forks a child process that hosts a SimService + SocketServer on a
// private socket, then throws N seeded mutations of valid protocol frames
// at it: bit flips, span deletions/duplications, junk insertion,
// digit-run inflation (the "max_cycles": 99999... classics), truncation,
// frame concatenation, embedded newlines and an unknown key nesting
// hundreds of thousands of arrays or objects deep. The contract under
// test is the server's worst-case posture, not its parser's taste: for
// EVERY mutant the daemon must either answer a typed error / normal
// reply or cleanly drop the connection — never crash, never wedge. Each
// iteration chases the mutant with a uniquely-id'd ping on the same
// connection; because the server answers frames in order, seeing that
// pong proves the mutant was fully digested. EOF counts as a clean drop.
// Only a deadline expiry (hang) or a dead server fails the run, with the
// offending iteration, seed and mutant bytes printed for replay. The
// daemon runs in its own process so that a crash kills only it: the
// fuzzer then reaps it and prints the signal that ended it beside the
// replay data.
//
// Exit codes: 0 all mutants handled, 1 hang/crash detected, 2 usage.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

using namespace steersim;
using namespace steersim::svc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--frames N] [--seed S] [--socket PATH]\n",
               argv0);
  return 2;
}

/// Valid frames the mutator starts from — every request kind except
/// shutdown (the fuzz run must outlive its own inputs).
std::vector<std::string> build_corpus() {
  std::vector<std::string> corpus;
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "corpus-ping";
  corpus.push_back(ping.to_json());
  Request stats;
  stats.type = RequestType::kStats;
  corpus.push_back(stats.to_json());
  Request submit;
  submit.type = RequestType::kSubmit;
  submit.id = "corpus-submit";
  submit.kernel = "fib";
  submit.max_cycles = 1000;
  corpus.push_back(submit.to_json());
  submit.kernel = "";
  submit.asm_source = "loop:\n  addi r1, r1, 1\n  beq r0, r0, loop\n";
  submit.policy = "oracle";
  submit.wall_ms = 50;
  submit.config.emplace_back("fetch_width", 4.0);
  corpus.push_back(submit.to_json());
  Request knobs;
  knobs.type = RequestType::kSubmit;
  knobs.kernel = "crc_mix";
  knobs.interval = 64;
  knobs.confirm = 2;
  knobs.lookahead = true;
  knobs.seed = 7;
  corpus.push_back(knobs.to_json());
  return corpus;
}

/// Applies 1-3 random mutations drawn from the classic mutational-fuzz
/// menu. May return an empty string (total truncation) — still a legal
/// thing to throw at a server.
std::string mutate(const std::vector<std::string>& corpus, Xoshiro256& rng) {
  std::string frame = corpus[static_cast<std::size_t>(
      rng.next_below(corpus.size()))];
  const std::uint64_t rounds = 1 + rng.next_below(3);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    switch (rng.next_below(9)) {
      case 0: {  // bit flip
        if (frame.empty()) {
          break;
        }
        const std::size_t pos =
            static_cast<std::size_t>(rng.next_below(frame.size()));
        frame[pos] = static_cast<char>(
            static_cast<unsigned char>(frame[pos]) ^
            (1u << rng.next_below(8)));
        break;
      }
      case 1: {  // delete a span
        if (frame.empty()) {
          break;
        }
        const std::size_t start =
            static_cast<std::size_t>(rng.next_below(frame.size()));
        const std::size_t len = 1 + static_cast<std::size_t>(rng.next_below(
                                        frame.size() - start));
        frame.erase(start, len);
        break;
      }
      case 2: {  // duplicate a span
        if (frame.empty()) {
          break;
        }
        const std::size_t start =
            static_cast<std::size_t>(rng.next_below(frame.size()));
        const std::size_t len =
            1 + static_cast<std::size_t>(
                    rng.next_below(std::min<std::size_t>(
                        32, frame.size() - start)));
        frame.insert(start, frame.substr(start, len));
        break;
      }
      case 3: {  // insert junk bytes
        const std::size_t pos = static_cast<std::size_t>(
            rng.next_below(frame.size() + 1));
        std::string junk;
        const std::uint64_t count = 1 + rng.next_below(8);
        for (std::uint64_t j = 0; j < count; ++j) {
          junk += static_cast<char>(rng.next_below(256));
        }
        frame.insert(pos, junk);
        break;
      }
      case 4: {  // inflate a digit run into a huge number
        const std::size_t digit = frame.find_first_of("0123456789");
        if (digit == std::string::npos) {
          break;
        }
        std::size_t end = digit;
        while (end < frame.size() &&
               frame[end] >= '0' && frame[end] <= '9') {
          ++end;
        }
        std::string huge = "9";
        const std::uint64_t digits = 1 + rng.next_below(30);
        for (std::uint64_t d = 0; d < digits; ++d) {
          huge += static_cast<char>('0' + rng.next_below(10));
        }
        frame.replace(digit, end - digit, huge);
        break;
      }
      case 5: {  // truncate
        frame.resize(static_cast<std::size_t>(
            rng.next_below(frame.size() + 1)));
        break;
      }
      case 6: {  // concatenate another corpus frame (framing confusion)
        frame += corpus[static_cast<std::size_t>(
            rng.next_below(corpus.size()))];
        break;
      }
      case 7: {  // embed a newline (splits into two bogus frames)
        const std::size_t pos = static_cast<std::size_t>(
            rng.next_below(frame.size() + 1));
        frame.insert(pos, 1, '\n');
        break;
      }
      case 8: {  // an unknown key whose value nests up to ~400k deep
        // Two bytes a level for arrays, five for objects: the frame stays
        // under wire::kMaxFrameBytes.
        if (frame.size() > 100'000) {
          break;
        }
        const bool arrays = rng.next_below(2) == 0;
        const std::size_t depth = static_cast<std::size_t>(
            1 + rng.next_below(arrays ? 400'000 : 160'000));
        std::string nest = "\"nest\":";
        nest.reserve(nest.size() + depth * (arrays ? 2 : 5) + 2);
        for (std::size_t level = 0; level < depth; ++level) {
          nest += arrays ? "[" : "{\"\":";
        }
        nest += arrays ? "" : "0";
        nest.append(depth, arrays ? ']' : '}');
        frame.insert(frame.empty() ? 0 : 1, nest + ",");
        break;
      }
    }
  }
  return frame;
}

enum class Outcome { kSurvived, kDropped, kHang };

/// Reads replies until the chaser pong (or EOF / a silence of
/// `deadline_ms`). The pong id is matched as a substring of any reply
/// frame, which is robust even if earlier mutant-triggered replies
/// interleave.
Outcome await_pong(int fd, const std::string& pong_id,
                   std::uint64_t deadline_ms) {
  wire::FrameReader reader;
  while (true) {
    std::string_view frame;
    switch (reader.next(fd, deadline_ms, wire::Pace::kIdle, frame)) {
      case wire::Read::kFrame:
        if (frame.find(pong_id) != std::string_view::npos) {
          return Outcome::kSurvived;
        }
        break;
      case wire::Read::kTimeout:
        return Outcome::kHang;
      default:
        return Outcome::kDropped;  // clean close is an acceptable answer
    }
  }
}

void dump_mutant(const std::string& mutant) {
  std::fprintf(stderr, "mutant (%zu bytes):", mutant.size());
  for (const char c : mutant) {
    std::fprintf(stderr, " %02x", static_cast<unsigned char>(c));
  }
  std::fprintf(stderr, "\n");
}

/// The daemon process: hosts the service until a shutdown request. Writes
/// one byte to `ready_fd` once it listens (closing it unwritten means the
/// listen failed). Returns the process exit code.
int serve_daemon(const std::string& socket_path, int ready_fd) {
  // Small budgets keep even a mutant that parses into a *valid* submit
  // cheap; a short idle timeout exercises the slowloris guard too.
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 16;
  config.cache_entries = 128;
  config.default_max_cycles = 2'000;
  config.max_cycles_ceiling = 20'000;
  SimService service(config);
  ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.idle_timeout_ms = 2'000;
  SocketServer server(service, server_options);
  if (!server.listen()) {
    ::close(ready_fd);
    return 1;
  }
  const char ready = 1;
  const bool told = ::write(ready_fd, &ready, 1) == 1;
  ::close(ready_fd);
  if (!told) {
    return 1;
  }
  server.serve();
  return 0;
}

/// The daemon child, reaped at most once. A fuzzer that gives up on a
/// live child kills it on the way out.
class Daemon {
 public:
  explicit Daemon(pid_t pid) : pid_(pid) {}
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      exited(5'000);
    }
  }

  /// Reaps the child if it has exited, waiting up to `wait_ms` for it.
  /// True once it is gone.
  bool exited(std::uint64_t wait_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(wait_ms);
    while (!reaped_) {
      const pid_t got = ::waitpid(pid_, &status_, WNOHANG);
      if (got == pid_ || (got < 0 && errno != EINTR)) {
        reaped_ = true;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return reaped_;
  }

  /// How the reaped child ended, e.g. "killed by signal 6 (Aborted)".
  std::string how() const {
    if (WIFSIGNALED(status_)) {
      const int sig = WTERMSIG(status_);
      const char* name = ::strsignal(sig);
      return "killed by signal " + std::to_string(sig) + " (" +
             (name != nullptr ? name : "?") + ")";
    }
    if (WIFEXITED(status_)) {
      return "exited with status " + std::to_string(WEXITSTATUS(status_));
    }
    return "ended";
  }
  bool clean_exit() const {
    return reaped_ && WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  }

 private:
  pid_t pid_;
  int status_ = 0;
  bool reaped_ = false;
};

/// The replay report for a daemon that died on the mutant of `iteration`.
int report_death(const Daemon& daemon, std::uint64_t iteration,
                 std::uint64_t seed, const std::string& mutant) {
  std::fprintf(stderr,
               "proto_fuzz: FAIL at iteration %llu (seed %llu): server %s\n",
               static_cast<unsigned long long>(iteration),
               static_cast<unsigned long long>(seed), daemon.how().c_str());
  dump_mutant(mutant);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t frames = 10'000;
  std::uint64_t seed = 1;
  std::string socket_path;
  for (int a = 1; a < argc; ++a) {
    const auto flag_u64 = [&](std::uint64_t& out) {
      if (a + 1 >= argc) {
        return false;
      }
      const auto value = parse_positive_u64(argv[++a]);
      if (!value) {
        return false;
      }
      out = *value;
      return true;
    };
    if (std::strcmp(argv[a], "--frames") == 0) {
      if (!flag_u64(frames)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[a], "--seed") == 0) {
      if (!flag_u64(seed)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[a], "--socket") == 0) {
      if (a + 1 >= argc) {
        return usage(argv[0]);
      }
      socket_path = argv[++a];
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) {
    socket_path =
        "/tmp/steersim-fuzz-" + std::to_string(::getpid()) + ".sock";
  }

  // Fork before any thread exists (the service starts its workers in the
  // child), so the child is a clean single-threaded copy.
  int ready[2];
  if (::pipe(ready) != 0) {
    std::perror("proto_fuzz: pipe");
    return 1;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("proto_fuzz: fork");
    return 1;
  }
  if (pid == 0) {
    ::close(ready[0]);
    const int code = serve_daemon(socket_path, ready[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(ready[1]);
  Daemon daemon(pid);
  char byte = 0;
  ssize_t got = 0;
  do {
    got = ::read(ready[0], &byte, 1);
  } while (got < 0 && errno == EINTR);
  ::close(ready[0]);
  if (got != 1) {
    daemon.exited(5'000);
    std::fprintf(stderr, "proto_fuzz: FAIL: server did not start (%s)\n",
                 daemon.how().c_str());
    return 1;
  }

  const std::vector<std::string> corpus = build_corpus();
  Xoshiro256 rng(seed);
  std::uint64_t survived = 0;
  std::uint64_t dropped = 0;
  constexpr std::uint64_t kDeadlineMs = 5'000;
  constexpr std::uint64_t kDropGraceMs = 20;

  std::string error;
  std::string last_mutant;  // the previous iteration's, for a late death
  for (std::uint64_t i = 0; i < frames; ++i) {
    const int fd = wire::connect_unix(socket_path, kDeadlineMs, error);
    if (fd < 0) {
      // The listener is gone: the previous mutant killed the daemon.
      if (i > 0 && daemon.exited(kDeadlineMs)) {
        return report_death(daemon, i - 1, seed, last_mutant);
      }
      std::fprintf(stderr,
                   "proto_fuzz: FAIL at iteration %llu: cannot connect (%s)\n",
                   static_cast<unsigned long long>(i), error.c_str());
      return 1;
    }
    const std::string mutant = mutate(corpus, rng);
    const std::string pong_id = "fz-" + std::to_string(i);
    Request chaser;
    chaser.type = RequestType::kPing;
    chaser.id = pong_id;
    // Terminate the mutant with our own newline so the chaser is always
    // its own frame, whatever the mutant did to its framing.
    const bool sent = wire::write_all(
        fd, mutant + '\n' + wire::encode(chaser.to_json()), error);
    const Outcome outcome =
        sent ? await_pong(fd, pong_id, kDeadlineMs) : Outcome::kDropped;
    ::close(fd);
    switch (outcome) {
      case Outcome::kSurvived:
        ++survived;
        break;
      case Outcome::kDropped:
        // A drop is a fine answer from a live daemon, and the only one a
        // dying daemon gives: allow the dying one a moment to be reaped,
        // so the death is pinned on this mutant (drops are rare).
        if (daemon.exited(kDropGraceMs)) {
          return report_death(daemon, i, seed, mutant);
        }
        ++dropped;
        break;
      case Outcome::kHang:
        std::fprintf(stderr,
                     "proto_fuzz: FAIL at iteration %llu (seed %llu): no "
                     "reply within %llu ms\n",
                     static_cast<unsigned long long>(i),
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(kDeadlineMs));
        dump_mutant(mutant);
        return 1;
    }
    last_mutant = mutant;
  }

  // Clean shutdown proves the daemon is still fully in control.
  const int fd = wire::connect_unix(socket_path, kDeadlineMs, error);
  if (fd < 0) {
    if (frames > 0 && daemon.exited(kDeadlineMs)) {
      return report_death(daemon, frames - 1, seed, last_mutant);
    }
    std::fprintf(stderr, "proto_fuzz: FAIL: server gone at shutdown\n");
    return 1;
  }
  Request shutdown_request;
  shutdown_request.type = RequestType::kShutdown;
  shutdown_request.id = "fz-shutdown";
  wire::write_all(fd, wire::encode(shutdown_request.to_json()), error);
  const Outcome outcome = await_pong(fd, "fz-shutdown", kDeadlineMs);
  ::close(fd);
  if (outcome == Outcome::kHang || !daemon.exited(kDeadlineMs)) {
    std::fprintf(stderr, "proto_fuzz: FAIL: shutdown hung\n");
    return 1;
  }
  if (!daemon.clean_exit()) {
    std::fprintf(stderr, "proto_fuzz: FAIL: server %s at shutdown\n",
                 daemon.how().c_str());
    return 1;
  }
  std::printf("proto_fuzz: %llu mutants, %llu answered, %llu dropped, "
              "0 hangs (seed %llu)\n",
              static_cast<unsigned long long>(frames),
              static_cast<unsigned long long>(survived),
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(seed));
  return 0;
}
