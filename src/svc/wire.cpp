#include "svc/wire.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>

namespace steersim::svc::wire {

namespace {

using Clock = std::chrono::steady_clock;

/// Reads ask for at least this much room at the end of the buffer.
constexpr std::size_t kReadChunk = 4096;

/// "<call>: <strerror(errno)>", with errno read before anything
/// allocates.
std::string describe(const char* call) {
  const char* reason = std::strerror(errno);
  return std::string(call) + ": " + reason;
}

/// The address bind() and connect() share; false when `path` is empty
/// or too long for sun_path (never silently truncated).
bool unix_address(const std::string& path, sockaddr_un& addr,
                  std::string& error) {
  addr = sockaddr_un{};
  addr.sun_family = AF_UNIX;
  if (path.empty()) {
    error = "empty socket path";
    return false;
  }
  if (path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long: " + path;
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

const sockaddr* as_sockaddr(const sockaddr_un& addr) {
  return reinterpret_cast<const sockaddr*>(&addr);
}

Clock::time_point deadline_after(std::uint64_t timeout_ms) {
  // 2^40 ms is 35 years: far enough, and clear of the clock's overflow.
  return Clock::now() + std::chrono::milliseconds(
                            std::min<std::uint64_t>(timeout_ms, 1ull << 40));
}

/// Milliseconds until `deadline`, rounded up so poll() never wakes early,
/// clamped into poll()'s int domain; 0 once it has passed.
int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
  return static_cast<int>(
      std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
}

}  // namespace

std::string encode(std::string body) {
  body += '\n';
  return body;
}

int listen_unix(const std::string& path, std::string& error) {
  sockaddr_un addr;
  if (!unix_address(path, addr, error)) {
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = describe("socket");
    return -1;
  }
  ::unlink(path.c_str());  // a stale socket from a past run
  if (::bind(fd, as_sockaddr(addr), sizeof(addr)) < 0) {
    error = describe("bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) < 0) {
    error = describe("listen");
    ::close(fd);
    ::unlink(path.c_str());
    return -1;
  }
  return fd;
}

int connect_unix(const std::string& path, std::uint64_t timeout_ms,
                 std::string& error) {
  sockaddr_un addr;
  if (!unix_address(path, addr, error)) {
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = describe("socket");
    return -1;
  }
  // Nonblocking connect, so a hung daemon costs timeout_ms rather than
  // forever; the descriptor reverts to blocking afterwards (reads are
  // paced by poll(), and writes to a Unix socket virtually never block).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, as_sockaddr(addr), sizeof(addr)) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      error = "connect " + path + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready =
        ::poll(&pfd, 1, remaining_ms(deadline_after(timeout_ms)));
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      error = "connect " + path +
              (ready == 0 ? ": timed out"
                          : std::string(": ") +
                                std::strerror(so_error != 0 ? so_error
                                                            : errno));
      ::close(fd);
      return -1;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return fd;
}

bool write_all(int fd, std::string_view bytes, std::string& error) {
  while (!bytes.empty()) {
#if defined(MSG_NOSIGNAL)
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
#else
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
#endif
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      error = n < 0 ? describe("write") : "write: connection closed";
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

Read FrameReader::next(int fd, std::uint64_t timeout_ms, Pace pace,
                       std::string_view& frame) {
  Clock::time_point deadline = deadline_after(timeout_ms);
  while (true) {
    const char* newline =
        scanned_ < end_ ? static_cast<const char*>(std::memchr(
                              buf_.data() + scanned_, '\n', end_ - scanned_))
                        : nullptr;
    const std::size_t stop =
        newline != nullptr
            ? static_cast<std::size_t>(newline - buf_.data())
            : end_;
    if (stop - head_ > kMaxFrameBytes) {
      return Read::kTooLong;
    }
    if (newline != nullptr) {
      frame = std::string_view(buf_.data() + head_, stop - head_);
      head_ = scanned_ = stop + 1;
      return Read::kFrame;
    }
    scanned_ = end_;

    if (timeout_ms != kForever) {
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
      if (ready < 0) {
        if (errno == EINTR) {
          continue;
        }
        error_ = describe("poll");
        return Read::kError;
      }
      if (ready == 0) {
        if (Clock::now() >= deadline) {
          return Read::kTimeout;
        }
        continue;
      }
    }
    // Room for one chunk at the end: slide the unreturned bytes to the
    // front (the frame last returned is given up now), then grow.
    if (buf_.size() - end_ < kReadChunk) {
      if (head_ > 0) {
        std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(end_),
                  buf_.begin());
        end_ -= head_;
        scanned_ -= head_;
        head_ = 0;
      }
      if (buf_.size() - end_ < kReadChunk) {
        buf_.resize(std::max(2 * buf_.size(), end_ + kReadChunk));
      }
    }
    const ssize_t n = ::read(fd, buf_.data() + end_, buf_.size() - end_);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      error_ = describe("read");
      return Read::kError;
    }
    if (n == 0) {
      return Read::kEof;
    }
    end_ += static_cast<std::size_t>(n);
    if (pace == Pace::kIdle) {
      deadline = deadline_after(timeout_ms);
    }
  }
}

void FrameReader::clear() {
  head_ = scanned_ = end_ = 0;
  error_.clear();
}

}  // namespace steersim::svc::wire
