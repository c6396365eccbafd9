#include "svc/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/chaos.hpp"
#include "svc/wire.hpp"

namespace steersim::svc {

/// One accepted client. `fd` lives under State::mutex (set to -1 when the
/// handler closes it, so stop() can never shutdown() a recycled
/// descriptor number); `done` tells the reaper the thread is joinable
/// without blocking.
struct SocketServer::Connection {
  int fd = -1;
  std::atomic<bool> done{false};
  std::jthread thread;
};

struct SocketServer::State {
  std::mutex mutex;
  std::vector<std::unique_ptr<Connection>> connections;
  bool stopping = false;
};

namespace {

/// Renders and writes one reply frame, applying chaos frame faults when
/// an injector is installed. Returns false when the connection should
/// close (write error, or an injected drop/truncate). Goodbye frames are
/// exempt from chaos so a chaos-storm run can always shut the daemon
/// down cleanly.
bool send_frame(int fd, const Reply& reply) {
  std::string frame = wire::encode(reply.to_json());
  std::string error;  // a failed write just closes the connection
  if (reply.type != ReplyType::kGoodbye) {
    if (auto chaos = ChaosInjector::global()) {
      if (chaos->roll(ChaosSite::kFrameDrop)) {
        return false;  // swallow the reply; client sees EOF
      }
      if (chaos->roll(ChaosSite::kFrameDelay)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(chaos->spec().delay_ms));
      }
      if (chaos->roll(ChaosSite::kFrameTruncate)) {
        wire::write_all(
            fd, std::string_view(frame).substr(0, frame.size() / 2), error);
        return false;
      }
      chaos->corrupt(frame);
    }
  }
  return wire::write_all(fd, frame, error);
}

}  // namespace

SocketServer::SocketServer(SimService& service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      state_(std::make_unique<State>()) {}

SocketServer::~SocketServer() {
  stop();
  reap_finished();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

bool SocketServer::listen() {
  if (listen_fd_ >= 0) {
    return true;
  }
  // A client that disconnects while a reply is in flight must cost at
  // most one failed write, never a process-killing SIGPIPE (belt: the
  // suspenders are wire::write_all, which never raises it).
  std::signal(SIGPIPE, SIG_IGN);
  std::string error;
  listen_fd_ = wire::listen_unix(options_.socket_path, error);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "steersimd: %s\n", error.c_str());
    return false;
  }
  return true;
}

void SocketServer::stop() {
  if (state_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->stopping = true;
  if (listen_fd_ >= 0) {
    // Unblocks accept(); the fd itself is closed by the destructor so a
    // concurrent accept never races a recycled descriptor number.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  for (const auto& conn : state_->connections) {
    if (conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RDWR);  // unblocks poll/read; thread exits
    }
  }
}

void SocketServer::reap_finished() {
  if (state_ == nullptr) {
    return;
  }
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    for (auto it = state_->connections.begin();
         it != state_->connections.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = state_->connections.erase(it);
      } else {
        ++it;
      }
    }
  }
  finished.clear();  // jthread joins (threads already past their last line)
}

void SocketServer::handle_connection(Connection& conn) {
  const int fd = conn.fd;
  const std::uint64_t idle_ms = options_.idle_timeout_ms > 0
                                    ? options_.idle_timeout_ms
                                    : wire::kForever;
  // Answers one frame; false once the connection should close.
  const auto answer = [&](std::string_view frame) {
    if (frame.empty()) {
      return true;
    }
    Request request;
    std::string parse_error;
    Reply reply;
    if (Request::parse(frame, request, parse_error)) {
      reply = service_.handle(request);
    } else {
      reply = Reply::error("", error_code::kBadRequest, parse_error);
    }
    if (!send_frame(fd, reply)) {
      return false;  // client went away mid-reply (or chaos cut it)
    }
    if (reply.type == ReplyType::kGoodbye) {
      stop();
      return false;
    }
    return true;
  };
  wire::FrameReader reader;
  for (bool open = true; open;) {
    std::string_view frame;
    switch (reader.next(fd, idle_ms, wire::Pace::kIdle, frame)) {
      case wire::Read::kFrame:
        open = answer(frame);
        break;
      case wire::Read::kTimeout:
        // Slowloris guard: the peer owes us (the rest of) a frame and
        // has gone quiet; tell it why it is being cut off, then close.
        send_frame(fd, Reply::error(
                           "", error_code::kTimeout,
                           "no frame for " +
                               std::to_string(options_.idle_timeout_ms) +
                               " ms; closing idle connection",
                           /*retriable=*/true));
        open = false;
        break;
      case wire::Read::kTooLong:
        send_frame(fd, Reply::error("", error_code::kBadRequest,
                                    "frame exceeds " +
                                        std::to_string(wire::kMaxFrameBytes) +
                                        " bytes"));
        open = false;
        break;
      case wire::Read::kEof:
      case wire::Read::kError:
        open = false;  // client closed (or stop() shut the fd down)
        break;
    }
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  ::close(fd);
  conn.fd = -1;
  conn.done.store(true, std::memory_order_release);
}

bool SocketServer::serve() {
  if (!listen()) {
    return false;
  }
  while (true) {
    reap_finished();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->stopping) {
        if (fd >= 0) {
          ::close(fd);
        }
        break;
      }
      if (fd < 0) {
        if (errno == EINTR) {
          continue;
        }
        std::perror("steersimd: accept");
        break;
      }
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      Connection* raw = conn.get();
      state_->connections.push_back(std::move(conn));
      raw->thread =
          std::jthread([this, raw] { handle_connection(*raw); });
    }
  }
  {
    // Unblock any connection still reading, then join them all.
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stopping = true;
    for (const auto& conn : state_->connections) {
      if (conn->fd >= 0) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    connections.swap(state_->connections);
  }
  connections.clear();  // join
  service_.begin_shutdown();
  service_.drain();
  return true;
}

}  // namespace steersim::svc
