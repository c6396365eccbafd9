#include "svc/client.hpp"

#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

namespace steersim::svc {

SteersimClient::SteersimClient(ClientOptions options)
    : options_(std::move(options)), rng_(options_.jitter_seed) {}

SteersimClient::~SteersimClient() { close(); }

std::uint64_t SteersimClient::backoff_delay_ms(unsigned attempt,
                                               std::uint64_t base_ms,
                                               std::uint64_t cap_ms,
                                               Xoshiro256& rng) {
  if (base_ms == 0 || cap_ms == 0) {
    return 0;
  }
  std::uint64_t ceiling = cap_ms;
  if (attempt < 63) {
    const std::uint64_t shifted = base_ms << attempt;
    // A shift that wrapped shows up as a round trip mismatch.
    if ((shifted >> attempt) == base_ms && shifted < cap_ms) {
      ceiling = shifted;
    }
  }
  return rng.next_below(ceiling + 1);  // full jitter: U[0, ceiling]
}

Reply SteersimClient::call(const Request& request) {
  const unsigned attempts = options_.max_attempts == 0
                                ? 1u
                                : options_.max_attempts;
  std::string last_error = "no attempt made";
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const std::uint64_t delay = backoff_delay_ms(
          attempt - 1, options_.backoff_base_ms, options_.backoff_cap_ms,
          rng_);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
    Reply reply;
    std::string error;
    if (!call_once(request, reply, error)) {
      last_error = error;
      if (attempt + 1 < attempts) {
        ++stats_.retries_transport;
      }
      continue;
    }
    if (reply.type == ReplyType::kError && reply.retriable &&
        attempt + 1 < attempts) {
      ++stats_.retries_retriable;
      last_error = std::string(reply.code) + ": " + reply.message;
      continue;
    }
    return reply;
  }
  return Reply::error(request.id, error_code::kTransport,
                      last_error + " (after " + std::to_string(attempts) +
                          " attempts)",
                      /*retriable=*/true);
}

void SteersimClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.clear();
}

bool SteersimClient::read_reply(std::string_view& frame, std::string& error) {
  switch (reader_.next(fd_, options_.read_timeout_ms, wire::Pace::kFrame,
                       frame)) {
    case wire::Read::kFrame:
      return true;
    case wire::Read::kTimeout:
      ++stats_.timeouts;
      error = "no reply within " + std::to_string(options_.read_timeout_ms) +
              " ms";
      return false;
    case wire::Read::kTooLong:
      error = "reply exceeds " + std::to_string(wire::kMaxFrameBytes) +
              " bytes";
      return false;
    case wire::Read::kEof:
      error = "connection closed before a reply arrived";
      return false;
    case wire::Read::kError:
      error = reader_.error();
      return false;
  }
  return false;
}

bool SteersimClient::call_once(const Request& request, Reply& reply,
                               std::string& error) {
  if (fd_ < 0) {
    fd_ = wire::connect_unix(options_.socket_path,
                             options_.connect_timeout_ms, error);
    if (fd_ < 0) {
      return false;
    }
    ++stats_.connects;
    if (stats_.connects > 1) {
      ++stats_.reconnects;
    }
  }
  ++stats_.attempts;
  std::string_view frame;
  if (!wire::write_all(fd_, wire::encode(request.to_json()), error) ||
      !read_reply(frame, error)) {
    close();
    return false;
  }
  std::string parse_error;
  if (!Reply::parse(frame, reply, parse_error)) {
    // A frame that does not parse is indistinguishable from corruption
    // in transit: treat it as a transport failure so the caller's retry
    // goes to a fresh connection.
    error = "malformed reply: " + parse_error;
    close();
    return false;
  }
  return true;
}

}  // namespace steersim::svc
