// JSON-lines-over-Unix-domain-socket front end for SimService
// (docs/SERVICE.md). POSIX only; framing lives in svc/wire.hpp.
//
// One accept loop, one thread per connection: each '\n'-terminated frame
// is parsed with the strict json.hpp entry point, dispatched through
// SimService::handle (submits block that connection's thread — admission
// control lives in the bounded job queue, not the socket layer), and
// answered with one reply line. A frame longer than wire::kMaxFrameBytes
// is answered with `bad_request` and the connection closed. A shutdown
// request answers `goodbye`, stops the accept loop, unblocks every open
// connection, and drains the service before serve() returns.
#pragma once

#include <memory>
#include <string>

#include "svc/service.hpp"

namespace steersim::svc {

struct ServerOptions {
  std::string socket_path = {};
  /// Slowloris guard: a connection that stays silent this long (e.g. a
  /// partial frame, then nothing) is answered with a retriable `timeout`
  /// error and closed, so it cannot pin its thread forever. 0 disables.
  std::uint64_t idle_timeout_ms = 30'000;
};

class SocketServer {
 public:
  SocketServer(SimService& service, ServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens on the socket path (an existing stale socket file
  /// is removed first). False on error, with a message to stderr.
  bool listen();

  /// Accept loop; returns after a shutdown request (or stop()) once every
  /// connection thread has exited and the service has drained. Calls
  /// listen() if it has not been called yet.
  bool serve();

  /// Thread-safe: ends the accept loop and unblocks open connections.
  void stop();

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Connection;
  void handle_connection(Connection& conn);
  /// Joins and discards connection threads that have finished, so a
  /// long-lived daemon does not accumulate one dead jthread per client.
  void reap_finished();

  SimService& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  /// Open connections, guarded by impl-side mutex (see server.cpp).
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace steersim::svc
