// wire::FrameReader over a socket pair: frames split across reads,
// several frames in one read, empty lines, EOF mid-frame, the deadline
// and the kMaxFrameBytes bound. The server and client ends of the same
// module are exercised in tests/test_resilience.cpp.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "svc/wire.hpp"

namespace steersim::svc::wire {
namespace {

/// Two connected stream sockets; `writer` feeds the reader's `reader`.
class SocketPair {
 public:
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    reader = fds[0];
    writer = fds[1];
  }
  ~SocketPair() {
    ::close(reader);
    close_writer();
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  void write(std::string_view bytes) {
    std::string error;
    EXPECT_TRUE(write_all(writer, bytes, error)) << error;
  }
  void close_writer() {
    if (writer >= 0) {
      ::close(writer);
      writer = -1;
    }
  }

  int reader = -1;
  int writer = -1;
};

TEST(Wire, EncodeAppendsTheNewline) {
  EXPECT_EQ(encode(R"({"type":"ping"})"), "{\"type\":\"ping\"}\n");
  EXPECT_EQ(encode(""), "\n");
}

TEST(Wire, AFrameSplitAcrossReadsComesOutWhole) {
  SocketPair pair;
  FrameReader reader;
  std::string_view frame;
  pair.write(R"({"type":)");
  // Nothing complete yet: the deadline expires and the half stays held.
  EXPECT_EQ(reader.next(pair.reader, 20, Pace::kFrame, frame), Read::kTimeout);
  EXPECT_EQ(reader.pending(), 8u);
  pair.write(R"("ping"})" "\n");
  ASSERT_EQ(reader.next(pair.reader, 5'000, Pace::kFrame, frame),
            Read::kFrame);
  EXPECT_EQ(frame, R"({"type":"ping"})");
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(Wire, SeveralFramesInOneReadComeOutInOrder) {
  SocketPair pair;
  pair.write("a\nbb\n\nccc\ndd");
  FrameReader reader;
  std::string_view frame;
  for (const std::string_view want : {"a", "bb", "", "ccc"}) {
    ASSERT_EQ(reader.next(pair.reader, 5'000, Pace::kFrame, frame),
              Read::kFrame);
    EXPECT_EQ(frame, want) << "an empty line is an empty frame";
  }
  EXPECT_EQ(reader.pending(), 2u);
}

TEST(Wire, EofMidFrameReportsTheBytesCutOff) {
  SocketPair pair;
  pair.write("whole\nhalf");
  pair.close_writer();
  FrameReader reader;
  std::string_view frame;
  ASSERT_EQ(reader.next(pair.reader, 5'000, Pace::kFrame, frame),
            Read::kFrame);
  EXPECT_EQ(frame, "whole");
  EXPECT_EQ(reader.next(pair.reader, 5'000, Pace::kFrame, frame), Read::kEof);
  EXPECT_EQ(reader.pending(), 4u);
  reader.clear();
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(Wire, TheDeadlineBoundsTheWholeFrameUnlessPacedByIdleness) {
  SocketPair pair;
  FrameReader reader;
  std::string_view frame;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.next(pair.reader, 50, Pace::kFrame, frame), Read::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));

  // Ten bytes 30 ms apart: past a 150 ms frame deadline, well inside a
  // 2 s idle bound.
  const auto trickle = [&pair] {
    for (int k = 0; k < 10; ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      pair.write("x");
    }
    pair.write("\n");
  };
  {
    std::jthread writer(trickle);
    EXPECT_EQ(reader.next(pair.reader, 150, Pace::kFrame, frame),
              Read::kTimeout);
  }
  reader.clear();
  ASSERT_EQ(reader.next(pair.reader, 5'000, Pace::kFrame, frame),
            Read::kFrame);  // the rest of the first trickle
  {
    std::jthread writer(trickle);
    ASSERT_EQ(reader.next(pair.reader, 2'000, Pace::kIdle, frame),
              Read::kFrame);
    EXPECT_EQ(frame, "xxxxxxxxxx");
  }
}

TEST(Wire, FramesAreBoundedAtExactlyKMaxFrameBytes) {
  SocketPair pair;
  // More than the socket buffer holds: the writer runs beside the reader.
  std::jthread writer([&pair] {
    std::string error;
    write_all(pair.writer,
              encode(std::string(kMaxFrameBytes, 'a')) +
                  std::string(kMaxFrameBytes + 1, 'b'),
              error);
  });
  FrameReader reader;
  std::string_view frame;
  EXPECT_EQ(reader.next(pair.reader, 10'000, Pace::kFrame, frame),
            Read::kFrame);
  EXPECT_EQ(frame.size(), kMaxFrameBytes);
  EXPECT_EQ(reader.next(pair.reader, 10'000, Pace::kFrame, frame),
            Read::kTooLong);
  ::shutdown(pair.reader, SHUT_RDWR);  // a writer still blocked fails now
  writer.join();
}

TEST(Wire, ConnectRejectsAPathTooLongForTheAddress) {
  std::string error;
  EXPECT_EQ(connect_unix("/tmp/" + std::string(200, 'p'), 100, error), -1);
  EXPECT_EQ(error.rfind("socket path too long", 0), 0u) << error;
  EXPECT_EQ(listen_unix("", error), -1);
  EXPECT_EQ(error, "empty socket path");
}

}  // namespace
}  // namespace steersim::svc::wire
