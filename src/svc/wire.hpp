// The steersimd transport (docs/SERVICE.md §Wire protocol): stream sockets
// in the Unix domain carrying frames, each one body followed by '\n', of
// at most kMaxFrameBytes. This is the one place where framing is decided:
// SocketServer, SteersimClient, tools/proto_fuzz and the socket tests all
// address, write and read through it. POSIX only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace steersim::svc::wire {

/// The largest frame body either end accepts: a longer one, complete or
/// not, is a kTooLong read rather than an unbounded buffer.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/// A timeout that never expires.
inline constexpr std::uint64_t kForever = UINT64_MAX;

/// The frame carrying `body` (which holds no '\n'): the body, then '\n'.
std::string encode(std::string body);

/// Binds and listens on `path`, replacing a stale socket file there.
/// The listening descriptor, or -1 with `error` set.
int listen_unix(const std::string& path, std::string& error);

/// Connects to the socket at `path`, giving up after `timeout_ms`. The
/// connected (blocking) descriptor, or -1 with `error` set.
int connect_unix(const std::string& path, std::uint64_t timeout_ms,
                 std::string& error);

/// Writes all of `bytes`, through short writes and EINTR, and never
/// raises SIGPIPE: a vanished peer is a false return with `error` set.
bool write_all(int fd, std::string_view bytes, std::string& error);

/// What FrameReader::next() found.
enum class Read : std::uint8_t {
  kFrame,    ///< a complete frame
  kEof,      ///< the peer closed; pending() bytes of a frame were cut off
  kTimeout,  ///< the timeout expired first
  kTooLong,  ///< a frame passed kMaxFrameBytes
  kError,    ///< poll() or read() failed; see error()
};

/// What a FrameReader timeout bounds.
enum class Pace : std::uint8_t {
  kFrame,  ///< the whole wait for one frame (a reply deadline)
  kIdle,   ///< each silence between reads (an idle-connection guard)
};

/// Splits the bytes of one connection into frames, within and across
/// reads. Reads land in one buffer and a frame is handed out as a view
/// of it, so a frame that arrives in one read costs one poll(), one
/// read() and no copy.
class FrameReader {
 public:
  /// The next frame's body (without its '\n') into `frame`, valid until
  /// the next call of next() or clear(). Waits at most `timeout_ms` for
  /// the frame, or between reads with Pace::kIdle; kForever waits without
  /// limit. An empty line is an empty frame.
  Read next(int fd, std::uint64_t timeout_ms, Pace pace,
            std::string_view& frame);

  /// Bytes held of a frame whose newline has not arrived.
  std::size_t pending() const { return end_ - head_; }

  /// "poll: ..." or "read: ..." after a kError.
  const std::string& error() const { return error_; }

  /// Forgets every buffered byte (for a fresh connection).
  void clear();

 private:
  std::vector<char> buf_;
  /// Unreturned bytes are [head_, end_), and [head_, scanned_) holds no
  /// newline.
  std::size_t head_ = 0;
  std::size_t scanned_ = 0;
  std::size_t end_ = 0;
  std::string error_;
};

}  // namespace steersim::svc::wire
