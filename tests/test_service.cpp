// steersimd service tests (docs/SERVICE.md): protocol round-trips for
// every request/reply kind, strict JSON framing, the one-pass codec
// against the DOM parsers it replaced (tests/protocol_dom_ref.hpp), the
// bounded queue's backpressure contract, worker-pool restartability, LRU
// cache behavior, and the SimService end-to-end guarantees the issue pins
// down — a replayed submit returns identical metrics with the second reply
// flagged "cache":"hit", and a flooded queue answers `queue_full` instead
// of hanging or dropping.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv1a.hpp"
#include "protocol_dom_ref.hpp"
#include "sim/json.hpp"
#include "svc/cache.hpp"
#include "svc/chaos.hpp"
#include "svc/protocol.hpp"
#include "svc/queue.hpp"
#include "svc/service.hpp"
#include "svc/worker_pool.hpp"
#include "workload/kernels.hpp"

namespace steersim::svc {
namespace {

// ---------------------------------------------------------------------------
// Protocol round-trips: parse(to_json()) must compare equal for every kind.

Request parsed_request(const Request& in) {
  Request out;
  std::string error;
  EXPECT_TRUE(Request::parse(in.to_json(), out, error)) << error;
  return out;
}

Reply parsed_reply(const Reply& in) {
  Reply out;
  std::string error;
  EXPECT_TRUE(Reply::parse(in.to_json(), out, error)) << error;
  return out;
}

MultiEntry kernel_entry(std::string name, std::string policy = "steered") {
  MultiEntry entry;
  entry.kernel = std::move(name);
  entry.policy = std::move(policy);
  return entry;
}

MultiEntry elf_entry(std::string name, std::string policy = "steered") {
  MultiEntry entry;
  entry.elf = std::move(name);
  entry.policy = std::move(policy);
  return entry;
}

TEST(Protocol, RequestRoundTripsEveryKind) {
  for (const RequestType type :
       {RequestType::kPing, RequestType::kStats, RequestType::kShutdown}) {
    Request request;
    request.type = type;
    request.id = "req-7";
    EXPECT_EQ(parsed_request(request), request)
        << request_type_name(type);
  }
}

TEST(Protocol, SubmitRoundTripsWithDefaultsAndWithEveryFieldSet) {
  Request minimal;
  minimal.type = RequestType::kSubmit;
  minimal.kernel = "fib";
  EXPECT_EQ(parsed_request(minimal), minimal);

  Request full;
  full.type = RequestType::kSubmit;
  full.id = "job-42";
  full.asm_source = "loop:\n  addi r1, r1, 1\n  beq r0, r0, loop\n";
  full.policy = "oracle";
  full.max_cycles = 123456;
  full.interval = 64;
  full.confirm = 3;
  full.lookahead = true;
  full.seed = 7;
  full.wall_ms = 1500;
  full.config = {{"fetch_width", 8.0}, {"use_dcache", 1.0}};
  EXPECT_EQ(parsed_request(full), full);
  // Byte-stable: rendering the parsed message reproduces the same bytes.
  EXPECT_EQ(parsed_request(full).to_json(), full.to_json());
}

TEST(Protocol, IntegersPast2p53RoundTripExactly) {
  // Cycle budgets and counters are u64 on the wire; routing them through
  // a double would silently round anything >= 2^53. 2^53 + 1 is the
  // first casualty, so it is the canary.
  constexpr std::uint64_t kCanary = 9007199254740993ull;  // 2^53 + 1

  Request request;
  request.type = RequestType::kSubmit;
  request.kernel = "fib";
  request.max_cycles = kCanary;
  request.wall_ms = 18446744073709551615ull;  // UINT64_MAX
  request.seed = (1ull << 62) + 3;
  EXPECT_EQ(parsed_request(request), request);
  EXPECT_NE(request.to_json().find("9007199254740993"), std::string::npos);
  EXPECT_NE(request.to_json().find("18446744073709551615"),
            std::string::npos);

  Reply reply;
  reply.type = ReplyType::kResult;
  reply.cache = "miss";
  reply.digest = "0123456789abcdef";
  reply.policy = "steered";
  reply.outcome = "halted";
  reply.cycles = kCanary;
  reply.retired = kCanary + 2;
  reply.metrics_json = R"({"core.cycles":9007199254740993})";
  EXPECT_EQ(parsed_reply(reply), reply);
  // The embedded metrics object re-renders canonically, digit-identical.
  EXPECT_EQ(parsed_reply(reply).to_json(), reply.to_json());
}

TEST(Protocol, ElfSubmitRoundTrips) {
  Request request;
  request.type = RequestType::kSubmit;
  request.id = "elf-1";
  request.elf = "rv32_phases";
  request.max_cycles = 250000;
  EXPECT_EQ(parsed_request(request), request);
  EXPECT_EQ(parsed_request(request).to_json(), request.to_json());
}

TEST(Protocol, MultiSubmitRoundTrips) {
  Request request;
  request.type = RequestType::kSubmit;
  request.id = "multi-1";
  request.multi.push_back(kernel_entry("fib"));
  request.multi.push_back(elf_entry("rv32_int", "greedy"));
  request.arbiter = "prop-share";
  request.max_cycles = 100000;
  EXPECT_EQ(parsed_request(request), request);
  EXPECT_EQ(parsed_request(request).to_json(), request.to_json());

  // Default arbiter and default per-core policies stay off the wire.
  Request defaults;
  defaults.type = RequestType::kSubmit;
  defaults.multi.push_back(kernel_entry("fib"));
  EXPECT_EQ(parsed_request(defaults), defaults);
  EXPECT_EQ(defaults.to_json().find("arbiter"), std::string::npos);
  EXPECT_EQ(defaults.to_json().find("policy"), std::string::npos);
}

TEST(Protocol, ReplyRoundTripsEveryKind) {
  Reply pong;
  pong.type = ReplyType::kPong;
  pong.id = "p";
  EXPECT_EQ(parsed_reply(pong), pong);

  Reply goodbye;
  goodbye.type = ReplyType::kGoodbye;
  EXPECT_EQ(parsed_reply(goodbye), goodbye);

  Reply stats;
  stats.type = ReplyType::kStats;
  stats.stats_json = R"({"svc.admitted":2,"svc.submitted":4})";
  EXPECT_EQ(parsed_reply(stats), stats);

  Reply result;
  result.type = ReplyType::kResult;
  result.id = "job-42";
  result.cache = "miss";
  result.digest = "6de84f50c6a075fd";
  result.policy = "steered";
  result.outcome = "halted";
  result.cycles = 89;
  result.retired = 156;
  result.metrics_json = R"({"core.cycles":89,"core.retired":156})";
  EXPECT_EQ(parsed_reply(result), result);
  EXPECT_EQ(parsed_reply(result).to_json(), result.to_json());
}

TEST(Protocol, ErrorReplyRoundTripsWithRetriableBit) {
  const Reply retriable =
      Reply::error("j1", error_code::kQueueFull, "queue at capacity",
                   /*retriable=*/true);
  EXPECT_EQ(retriable.type, ReplyType::kError);
  EXPECT_TRUE(retriable.retriable);
  EXPECT_EQ(parsed_reply(retriable), retriable);

  const Reply fatal =
      Reply::error("j2", error_code::kBadRequest, "unknown kernel");
  EXPECT_FALSE(fatal.retriable);
  EXPECT_EQ(parsed_reply(fatal), fatal);
}

TEST(Protocol, EveryBitFlipOfARetriableErrorFailsToParseOrStaysRetriable) {
  // A corrupted frame must never parse as a final answer. Each single-bit
  // mutant of the crash handler's reply either fails to parse (the client
  // reconnects and resubmits) or still says retriable.
  for (const std::string id : {"", "job-7"}) {
    const std::string frame =
        Reply::error(id, error_code::kWorkerCrashed,
                     "worker crashed while running this job; resubmit",
                     /*retriable=*/true)
            .to_json();
    int parsed = 0;
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutant = frame;
        mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
        Reply reply;
        std::string error;
        if (Reply::parse(mutant, reply, error)) {
          ++parsed;
          EXPECT_TRUE(reply.retriable) << mutant;
        }
      }
    }
    EXPECT_GT(parsed, 0) << "flips inside string values still parse";
  }
}

TEST(Protocol, ReplyParseAcceptsOnlyTheKeysToJsonWrites) {
  Reply reply;
  std::string error;
  EXPECT_TRUE(Reply::parse(
      R"({"type":"error","code":"queue_full","retriable":false})", reply,
      error))
      << error;
  EXPECT_FALSE(Reply::parse(
      R"({"type":"error","code":"worker_crashed","retriablE":true})", reply,
      error));
  EXPECT_FALSE(Reply::parse(R"({"type":"error","code":"queue_full"})", reply,
                            error))
      << "to_json always writes 'retriable' on an error";
  EXPECT_FALSE(Reply::parse(R"({"type":"pong","cycles":1})", reply, error))
      << "a result key in a pong";
  EXPECT_FALSE(
      Reply::parse(R"({"type":"result","code":"x"})", reply, error))
      << "an error key in a result";
  // Requests stay lenient: unknown keys are skipped.
  Request request;
  EXPECT_TRUE(Request::parse(R"({"type":"ping","future_key":1})", request,
                             error))
      << error;
}

TEST(Protocol, ConcatenatedFramesAreRejected) {
  // The strict framing the protocol relies on: two objects on one line can
  // never be read as one message.
  Request request;
  std::string error;
  const std::string frame = Request{}.to_json();
  EXPECT_TRUE(Request::parse(frame, request, error));
  EXPECT_FALSE(Request::parse(frame + frame, request, error));
  EXPECT_FALSE(Request::parse(frame + " x", request, error));

  Reply reply;
  const std::string reply_frame = Reply{}.to_json();
  EXPECT_TRUE(Reply::parse(reply_frame, reply, error));
  EXPECT_FALSE(Reply::parse(reply_frame + reply_frame, reply, error));
}

TEST(Protocol, StrictJsonRejectsTrailingGarbageLenientPrefixDoesNot) {
  JsonValue value;
  EXPECT_TRUE(parse_json_strict(R"({"a":1})", value));
  EXPECT_FALSE(parse_json_strict(R"({"a":1}{"b":2})", value));
  EXPECT_FALSE(parse_json_strict(R"({"a":1} trailing)", value));
  EXPECT_TRUE(parse_json_strict("  {\"a\":1}\n", value))
      << "surrounding whitespace is not garbage";

  std::size_t consumed = 0;
  EXPECT_TRUE(parse_json_prefix(R"({"a":1}{"b":2})", value, consumed));
  EXPECT_EQ(consumed, 7u);
  EXPECT_EQ(render_json(value), R"({"a":1})");
}

TEST(Protocol, RenderJsonIsCanonical) {
  JsonValue value;
  ASSERT_TRUE(parse_json_strict(R"({ "b" : 2 , "a" : [ 1 , true , "x" ] })",
                                value));
  EXPECT_EQ(render_json(value), R"({"a":[1,true,"x"],"b":2})")
      << "keys sorted, whitespace normalized";
}

TEST(Protocol, Fnv1aChunkSentinelPreventsAliasing) {
  const std::uint64_t ab_c = Fnv1a().mix("ab").mix("c").value();
  const std::uint64_t a_bc = Fnv1a().mix("a").mix("bc").value();
  EXPECT_NE(ab_c, a_bc);
  EXPECT_EQ(Fnv1a().mix("ab").mix("c").hex().size(), 16u);
  EXPECT_EQ(Fnv1a().mix("x").value(), Fnv1a().mix("x").value());
}

// ---------------------------------------------------------------------------
// BoundedQueue: explicit backpressure, close-then-drain semantics.

TEST(BoundedQueue, TryPushReportsFullInsteadOfBlocking) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3)) << "at capacity: reject, never wait";
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_TRUE(queue.try_push(3)) << "pop freed a slot";
}

TEST(BoundedQueue, CloseDrainsQueuedItemsThenReturnsNullopt) {
  BoundedQueue<int> queue(4);
  queue.try_push(1);
  queue.try_push(2);
  queue.close();
  EXPECT_FALSE(queue.try_push(3)) << "closed queues admit nothing";
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt) << "closed and drained";
  queue.reopen();
  EXPECT_TRUE(queue.try_push(4));
  EXPECT_EQ(queue.pop(), 4);
}

TEST(BoundedQueue, ZeroCapacityIsPinnedToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_FALSE(queue.try_push(2));
}

// ---------------------------------------------------------------------------
// WorkerPool: drains on stop, restartable.

TEST(WorkerPool, StopDrainsEveryQueuedJobAndStartRestarts) {
  BoundedQueue<int> queue(64);
  std::atomic<int> sum{0};
  WorkerPool<int> pool(queue, [&sum](int& job) { sum += job; });

  pool.start(3);
  EXPECT_EQ(pool.workers(), 3u);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(queue.try_push(i));
  }
  pool.stop();  // close + drain + join: all ten jobs must have run
  EXPECT_EQ(sum.load(), 55);
  EXPECT_FALSE(pool.running());

  pool.start(1);  // second generation reuses the reopened queue
  ASSERT_TRUE(queue.try_push(45));
  pool.stop();
  EXPECT_EQ(sum.load(), 100);
}

// Spins until `pred` holds; fails the test (returns false) after ~2 s so a
// broken pool cannot hang the suite.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(WorkerPool, CrashingJobIsIsolatedCountedAndHandedToTheHandler) {
  BoundedQueue<int> queue(8);
  std::atomic<int> sum{0};
  std::atomic<int> crashed_job{0};
  std::atomic<int> handler_runs{0};
  WorkerPool<int> pool(queue, [&sum](int& job) {
    if (job == -7) {
      throw std::runtime_error("boom");
    }
    if (job == -9) {
      throw ChaosCrash{};  // not a std::exception: needs the catch-all
    }
    sum += job;
  });
  pool.set_crash_handler([&](int& job, std::exception_ptr error) {
    crashed_job = job;
    ++handler_runs;
    EXPECT_NE(error, nullptr);
  });

  pool.start(2);
  for (const int job : {-7, 1, 2, 3}) {
    ASSERT_TRUE(queue.try_push(job));
  }
  pool.stop();
  EXPECT_EQ(sum.load(), 6) << "the crash costs one job, not the pool";
  EXPECT_EQ(pool.crashes(), 1u);
  EXPECT_EQ(handler_runs.load(), 1);
  EXPECT_EQ(crashed_job.load(), -7);

  // Restart after the exception: the next generation is undamaged, and a
  // crash that is NOT a std::exception is absorbed just the same.
  pool.start(1);
  ASSERT_TRUE(queue.try_push(-9));
  ASSERT_TRUE(queue.try_push(4));
  pool.stop();
  EXPECT_EQ(sum.load(), 10);
  EXPECT_EQ(pool.crashes(), 2u);
  EXPECT_EQ(crashed_job.load(), -9);
}

TEST(WorkerPool, ReplaceEvictsAWedgedWorkerWithoutLosingCapacity) {
  BoundedQueue<int> queue(8);
  std::atomic<bool> wedged{false};
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  std::atomic<unsigned> seen_slot{WorkerPool<int>::kNoSlot};
  WorkerPool<int> pool(queue, [&](int& job) {
    seen_slot = WorkerPool<int>::current_slot();
    if (job == 0) {  // simulates a worker that ignores cancellation
      wedged = true;
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ++done;
  });
  EXPECT_EQ(WorkerPool<int>::current_slot(), WorkerPool<int>::kNoSlot)
      << "only worker threads have a slot";

  pool.start(1);
  ASSERT_TRUE(queue.try_push(0));
  ASSERT_TRUE(eventually([&] { return wedged.load(); }));
  EXPECT_EQ(seen_slot.load(), 0u);

  EXPECT_FALSE(pool.replace(99)) << "unknown slot";
  ASSERT_TRUE(pool.replace(0));
  EXPECT_EQ(pool.replaced(), 1u);
  EXPECT_EQ(pool.workers(), 1u) << "the slot is refilled, not removed";

  // The replacement serves new work while the evictee is still stuck.
  ASSERT_TRUE(queue.try_push(5));
  ASSERT_TRUE(eventually([&] { return done.load() == 1; }));

  release = true;  // let the detached straggler reach its exit check
  pool.stop();     // waits for joined AND detached workers
  EXPECT_EQ(done.load(), 2);
  EXPECT_FALSE(pool.replace(0)) << "stopped pools have nothing to evict";
}

// ---------------------------------------------------------------------------
// ResultCache: LRU order, refresh on lookup, disabled at capacity 0.

Reply result_reply(std::string id) {
  Reply reply;
  reply.type = ReplyType::kResult;
  reply.id = std::move(id);
  return reply;
}

TEST(ResultCache, EvictsLeastRecentlyUsedAndRefreshesOnLookup) {
  ResultCache cache(2);
  cache.insert(1, result_reply("one"));
  cache.insert(2, result_reply("two"));
  EXPECT_TRUE(cache.lookup(1).has_value());  // 1 becomes most recent
  cache.insert(3, result_reply("three"));    // evicts 2, not 1
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(2).has_value());
  ASSERT_TRUE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.lookup(1)->id, "one");
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.insert(1, result_reply("one"));
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

// ---------------------------------------------------------------------------
// SimService end-to-end (in-process; the socket layer is exercised by the
// CI service-smoke job).

Request submit_kernel(std::string kernel, std::string id = "") {
  Request request;
  request.type = RequestType::kSubmit;
  request.kernel = std::move(kernel);
  request.id = std::move(id);
  return request;
}

TEST(SimService, ReplayedSubmitHitsCacheWithByteIdenticalMetrics) {
  // A named kernel and an inline asm program: both digest their source
  // text, and only the cold run assembles.
  Request asm_request;
  asm_request.type = RequestType::kSubmit;
  asm_request.id = "asm-job";
  asm_request.asm_source = "  addi r1, r0, 5\n  add r2, r1, r1\n  halt\n";
  for (const Request& request : {submit_kernel("fib", "job-1"), asm_request}) {
    SimService service({.workers = 2, .queue_capacity = 8});

    const Reply cold = service.handle(request);
    ASSERT_EQ(cold.type, ReplyType::kResult) << cold.message;
    EXPECT_EQ(cold.cache, "miss");
    EXPECT_EQ(cold.outcome, "halted");
    EXPECT_GT(cold.cycles, 0u);
    EXPECT_FALSE(cold.metrics_json.empty());
    EXPECT_EQ(cold.digest.size(), 16u);

    const Reply hit = service.handle(request);
    ASSERT_EQ(hit.type, ReplyType::kResult) << hit.message;
    EXPECT_EQ(hit.cache, "hit");

    // Identical simulated metrics: the hit differs from the cold run only
    // in the cache flag — restoring it makes the replies bit-identical.
    Reply normalized = hit;
    normalized.cache = "miss";
    EXPECT_EQ(normalized, cold);
    EXPECT_EQ(normalized.to_json(), cold.to_json());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.completed, 1u) << "a hit reruns nothing";
  }
}

TEST(SimService, DistinctConfigsGetDistinctDigests) {
  SimService service({.workers = 1, .queue_capacity = 4});
  const Reply base = service.handle(submit_kernel("fib"));
  Request tweaked = submit_kernel("fib");
  tweaked.config = {{"fetch_width", 8.0}};
  const Reply other = service.handle(tweaked);
  ASSERT_EQ(base.type, ReplyType::kResult) << base.message;
  ASSERT_EQ(other.type, ReplyType::kResult) << other.message;
  EXPECT_NE(base.digest, other.digest);
  EXPECT_EQ(other.cache, "miss") << "a different config is different work";
}

Request submit_elf(std::string fixture, std::string id = "") {
  Request request;
  request.type = RequestType::kSubmit;
  request.elf = std::move(fixture);
  request.id = std::move(id);
  return request;
}

TEST(SimService, ElfSubmitRunsAndReplaysFromCache) {
  SimService service({.workers = 2, .queue_capacity = 8});
  const Request request = submit_elf("rv32_int", "elf-job");

  const Reply cold = service.handle(request);
  ASSERT_EQ(cold.type, ReplyType::kResult) << cold.message;
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(cold.outcome, "halted");
  EXPECT_GT(cold.cycles, 0u);
  EXPECT_FALSE(cold.metrics_json.empty());

  const Reply hit = service.handle(request);
  ASSERT_EQ(hit.type, ReplyType::kResult) << hit.message;
  EXPECT_EQ(hit.cache, "hit");
  Reply normalized = hit;
  normalized.cache = "miss";
  EXPECT_EQ(normalized.to_json(), cold.to_json());

  // The digest covers the ELF image bytes, not the fixture name, and is
  // distinct from an unrelated binary's digest.
  const Reply other = service.handle(submit_elf("rv32_fp"));
  ASSERT_EQ(other.type, ReplyType::kResult) << other.message;
  EXPECT_NE(other.digest, cold.digest);
}

Request submit_multi(std::vector<MultiEntry> entries,
                     std::string arbiter = "round-robin",
                     std::string id = "") {
  Request request;
  request.type = RequestType::kSubmit;
  request.multi = std::move(entries);
  request.arbiter = std::move(arbiter);
  request.id = std::move(id);
  request.max_cycles = 60000;
  return request;
}

TEST(SimService, MultiSubmitRunsMergesMetricsAndReplaysFromCache) {
  SimService service({.workers = 2, .queue_capacity = 8});
  const Request request = submit_multi(
      {kernel_entry("fib"), kernel_entry("saxpy", "greedy")},
      "round-robin", "mc-1");

  const Reply cold = service.handle(request);
  ASSERT_EQ(cold.type, ReplyType::kResult) << cold.message;
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(cold.outcome, "halted");
  EXPECT_EQ(cold.policy, "multi:round-robin");
  EXPECT_GT(cold.cycles, 0u);
  EXPECT_GT(cold.retired, 0u);
  // Per-core namespaces plus fabric counters, merged in one registry.
  EXPECT_NE(cold.metrics_json.find("\"core0.sim.ipc\""), std::string::npos);
  EXPECT_NE(cold.metrics_json.find("\"core1.sim.ipc\""), std::string::npos);
  EXPECT_NE(cold.metrics_json.find("\"fabric.port_grants\""),
            std::string::npos);

  const Reply hit = service.handle(request);
  ASSERT_EQ(hit.type, ReplyType::kResult) << hit.message;
  EXPECT_EQ(hit.cache, "hit");
  Reply normalized = hit;
  normalized.cache = "miss";
  EXPECT_EQ(normalized.to_json(), cold.to_json());

  // The arbiter is part of the digest: different arbitration is
  // different work.
  const Reply other = service.handle(submit_multi(
      {kernel_entry("fib"), kernel_entry("saxpy", "greedy")},
      "priority"));
  ASSERT_EQ(other.type, ReplyType::kResult) << other.message;
  EXPECT_EQ(other.cache, "miss");
  EXPECT_NE(other.digest, cold.digest);
}

TEST(SimService, MultiBadRequestsAreTypedAndNotRetriable) {
  SimService service({.workers = 1, .queue_capacity = 4});

  Request mixed = submit_multi({kernel_entry("fib")});
  mixed.kernel = "fib";
  const Reply exclusive = service.handle(mixed);
  ASSERT_EQ(exclusive.type, ReplyType::kError);
  EXPECT_EQ(exclusive.code, error_code::kBadRequest);
  EXPECT_FALSE(exclusive.retriable);

  const Reply arbiter =
      service.handle(submit_multi({kernel_entry("fib")}, "no-such-arbiter"));
  EXPECT_EQ(arbiter.code, error_code::kBadRequest);

  const Reply both = service.handle(
      submit_multi({[] {
        MultiEntry entry = kernel_entry("fib");
        entry.elf = "rv32_int";
        return entry;
      }()}));
  EXPECT_EQ(both.code, error_code::kBadRequest);

  const Reply unknown =
      service.handle(submit_multi({kernel_entry("no_such_kernel")}));
  EXPECT_EQ(unknown.code, error_code::kBadRequest);

  const Reply too_many = service.handle(submit_multi(
      std::vector<MultiEntry>(9, kernel_entry("fib"))));
  EXPECT_EQ(too_many.code, error_code::kBadRequest);
}

TEST(SimService, ElfBadRequestsAreTypedAndNotRetriable) {
  SimService service({.workers = 1, .queue_capacity = 4});

  const Reply unknown = service.handle(submit_elf("no_such_fixture"));
  ASSERT_EQ(unknown.type, ReplyType::kError);
  EXPECT_EQ(unknown.code, error_code::kBadRequest);
  EXPECT_FALSE(unknown.retriable);

  Request both = submit_elf("rv32_int");
  both.kernel = "fib";
  EXPECT_EQ(service.handle(both).code, error_code::kBadRequest);
}

TEST(SimService, BadRequestsAreTypedAndNotRetriable) {
  SimService service({.workers = 1, .queue_capacity = 4});

  const Reply unknown = service.handle(submit_kernel("no_such_kernel"));
  ASSERT_EQ(unknown.type, ReplyType::kError);
  EXPECT_EQ(unknown.code, error_code::kBadRequest);
  EXPECT_FALSE(unknown.retriable);

  Request both = submit_kernel("fib");
  both.asm_source = "halt\n";
  EXPECT_EQ(service.handle(both).code, error_code::kBadRequest);

  Request bad_policy = submit_kernel("fib");
  bad_policy.policy = "clairvoyant";
  EXPECT_EQ(service.handle(bad_policy).code, error_code::kBadRequest);

  Request bad_knob = submit_kernel("fib");
  bad_knob.config = {{"warp_drive", 1.0}};
  EXPECT_EQ(service.handle(bad_knob).code, error_code::kBadRequest);

  Request bad_asm;
  bad_asm.type = RequestType::kSubmit;
  bad_asm.asm_source = "frobnicate r1, r2\n";
  EXPECT_EQ(service.handle(bad_asm).code, error_code::kBadRequest);

  EXPECT_EQ(service.stats().bad_requests, 5u);
}

TEST(SimService, RequestErrorsAnswerBeforeProgramErrors) {
  // Only a cache miss builds its program, after every request field is
  // checked: a malformed program with a bad knob or policy answers the
  // knob or policy error. An unknown name is still found first.
  SimService service({.workers = 1, .queue_capacity = 4});
  Request bad_asm;
  bad_asm.type = RequestType::kSubmit;
  bad_asm.asm_source = "frobnicate r1, r2\n";

  Request bad_knob = bad_asm;
  bad_knob.config = {{"warp_drive", 1.0}};
  const Reply knob = service.handle(bad_knob);
  EXPECT_EQ(knob.code, error_code::kBadRequest);
  EXPECT_EQ(knob.message, "unknown config knob 'warp_drive'");

  Request bad_policy = bad_asm;
  bad_policy.policy = "clairvoyant";
  EXPECT_EQ(service.handle(bad_policy).message,
            "unknown policy 'clairvoyant'");

  Request unknown = submit_kernel("no_such_kernel");
  unknown.config = {{"warp_drive", 1.0}};
  EXPECT_EQ(service.handle(unknown).message,
            "unknown kernel 'no_such_kernel'");

  EXPECT_EQ(service.stats().cache_misses, 0u)
      << "none of these reached the cache";
}

TEST(SimService, BadProgramCountsOneBadRequestAndOneCacheMiss) {
  SimService service({.workers = 1, .queue_capacity = 4});
  Request bad_asm;
  bad_asm.type = RequestType::kSubmit;
  bad_asm.asm_source = "frobnicate r1, r2\n";

  for (std::uint64_t round = 1; round <= 2; ++round) {
    const Reply reply = service.handle(bad_asm);
    ASSERT_EQ(reply.type, ReplyType::kError);
    EXPECT_EQ(reply.code, error_code::kBadRequest);
    EXPECT_EQ(reply.message.rfind("assembly failed: ", 0), 0u)
        << reply.message;
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.bad_requests, round);
    EXPECT_EQ(stats.cache_misses, round) << "a bad program is never cached";
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.admitted, 0u);
  }
}

TEST(SimService, OverBudgetJobIsRejectedWithDeadline) {
  SimService service({.workers = 1, .queue_capacity = 4});
  Request request;
  request.type = RequestType::kSubmit;
  // Never halts: the budget must end the run.
  request.asm_source = "loop:\n  addi r1, r1, 1\n  beq r0, r0, loop\n";
  request.max_cycles = 200;
  const Reply reply = service.handle(request);
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kDeadline);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);

  // Multi-core jobs share the same budget branch.
  Request multi = submit_multi({kernel_entry("fib"), kernel_entry("saxpy")});
  multi.max_cycles = 200;
  const Reply multi_reply = service.handle(multi);
  ASSERT_EQ(multi_reply.type, ReplyType::kError);
  EXPECT_EQ(multi_reply.code, error_code::kDeadline) << multi_reply.message;
  EXPECT_FALSE(multi_reply.retriable);
  EXPECT_EQ(service.stats().deadline_exceeded, 2u);
}

TEST(SimService, StallingJobIsASimFaultWithTheDigestNotADeadline) {
  // No halt: after two instructions nothing ever retires again. The
  // worker's cancellation windows must not reset the stall detector, so
  // the job stops at the stall limit with the machine-state digest long
  // before its budget runs out.
  SimService service({.workers = 1, .queue_capacity = 4});
  Request request;
  request.type = RequestType::kSubmit;
  request.asm_source = "  addi r1, r0, 1\n  addi r2, r1, 2\n";
  request.max_cycles = 300'000;
  const Reply reply = service.handle(request);
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kSimFault) << reply.message;
  EXPECT_FALSE(reply.retriable);
  EXPECT_EQ(reply.message.rfind(
                "stalled: no retirement for 100000 cycles at cycle 100006", 0),
            0u)
      << reply.message;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sim_faults, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

TEST(SimService, CacheKeysMatchThePinnedDigests) {
  // Every cached result is keyed on these digests: a change to how a
  // request resolves to program bytes, or to the effective-config
  // rendering, would silently orphan the whole cache. Request fields not
  // set here keep their protocol defaults.
  SimService service({.workers = 1, .queue_capacity = 4});
  Request asm_job;
  asm_job.type = RequestType::kSubmit;
  asm_job.asm_source = "  addi r1, r0, 7\n  halt\n";
  Request multi = submit_multi({kernel_entry("fib"),
                                kernel_entry("saxpy", "greedy"),
                                elf_entry("rv32_int")},
                               "prop-share");
  multi.max_cycles = 0;
  Request tuned = submit_kernel("saxpy");
  tuned.policy = "oracle";
  tuned.config = {{"fetch_width", 8.0}};
  tuned.max_cycles = 123456;
  const std::vector<std::pair<Request, std::string>> pinned = {
      {submit_kernel("fib"), "6de84f50c6a075fd"},
      {asm_job, "dc6ab02b0ffb4240"},
      {submit_elf("rv32_int"), "594a17742db5f29d"},
      {multi, "463583de3479f452"},
      {tuned, "9b1f9722bcb2a325"},
  };
  for (const auto& [request, digest] : pinned) {
    const Reply reply = service.handle(request);
    ASSERT_EQ(reply.type, ReplyType::kResult) << reply.message;
    EXPECT_EQ(reply.digest, digest) << request.to_json();
  }
}

TEST(SimService, FloodedQueueAnswersQueueFullNotAHangOrDrop) {
  // One worker, a one-slot queue, caching off: a burst of concurrent
  // submits must split into completed jobs and immediate retriable
  // queue_full rejections — every caller gets exactly one reply.
  SimService service({.workers = 1, .queue_capacity = 1, .cache_entries = 0});
  constexpr int kClients = 8;
  std::vector<Reply> replies(kClients);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&service, &replies, c] {
        Request request = submit_kernel("matmul_int");
        request.seed = static_cast<std::uint64_t>(c);  // distinct jobs
        replies[static_cast<std::size_t>(c)] = service.handle(request);
      });
    }
  }
  int completed = 0;
  int rejected = 0;
  for (const Reply& reply : replies) {
    if (reply.type == ReplyType::kResult) {
      ++completed;
    } else {
      ASSERT_EQ(reply.type, ReplyType::kError);
      EXPECT_EQ(reply.code, error_code::kQueueFull);
      EXPECT_TRUE(reply.retriable) << "backpressure must invite a retry";
      ++rejected;
    }
  }
  EXPECT_EQ(completed + rejected, kClients) << "no reply lost";
  EXPECT_GE(completed, 1);
  EXPECT_GE(rejected, 1) << "a one-slot queue cannot absorb the burst";
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full,
            static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed));
}

TEST(SimService, ShutdownStopsAdmissionAndDrains) {
  SimService service({.workers = 2, .queue_capacity = 8});
  Request shutdown;
  shutdown.type = RequestType::kShutdown;
  EXPECT_EQ(service.handle(shutdown).type, ReplyType::kGoodbye);
  EXPECT_TRUE(service.draining());
  const Reply late = service.handle(submit_kernel("fib"));
  ASSERT_EQ(late.type, ReplyType::kError);
  EXPECT_EQ(late.code, error_code::kShuttingDown);
  service.drain();
}

TEST(SimService, CancelAllStopsInFlightJobsAtTheCheckWindow) {
  SimService service(
      {.workers = 1, .queue_capacity = 4, .cancel_check_cycles = 1024});
  Request request;
  request.type = RequestType::kSubmit;
  request.asm_source = "loop:\n  addi r1, r1, 1\n  beq r0, r0, loop\n";
  request.max_cycles = 40'000'000;  // far beyond any test's patience

  Reply reply;
  std::jthread submitter(
      [&service, &request, &reply] { reply = service.handle(request); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.cancel_all();
  submitter.join();

  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kCancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(SimService, PingAndStatsRequestsAnswerInline) {
  SimService service({.workers = 1, .queue_capacity = 4});
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "are-you-there";
  const Reply pong = service.handle(ping);
  EXPECT_EQ(pong.type, ReplyType::kPong);
  EXPECT_EQ(pong.id, "are-you-there");

  (void)service.handle(submit_kernel("fib"));
  Request stats;
  stats.type = RequestType::kStats;
  const Reply reply = service.handle(stats);
  ASSERT_EQ(reply.type, ReplyType::kStats);
  JsonValue value;
  ASSERT_TRUE(parse_json_strict(reply.stats_json, value))
      << "stats payload must be one strict JSON object";
  EXPECT_NE(reply.stats_json.find("\"svc.submitted\":1"), std::string::npos);
  EXPECT_NE(reply.stats_json.find("\"svc.workers\":1"), std::string::npos);

  const MetricRegistry registry = service.metrics();
  ASSERT_NE(registry.find("svc.completed"), nullptr);
  EXPECT_EQ(registry.find("svc.completed")->value, 1.0);
  ASSERT_NE(registry.find("svc.latency_ms_p50"), nullptr)
      << "latency quantiles ride the same registry";
}

TEST(SimService, JobDigestIsStableAndInputSensitive) {
  const std::uint64_t a = SimService::job_digest("halt\n", "fetch_width=4;");
  EXPECT_EQ(a, SimService::job_digest("halt\n", "fetch_width=4;"));
  EXPECT_NE(a, SimService::job_digest("halt\n", "fetch_width=8;"));
  EXPECT_NE(a, SimService::job_digest("nop\nhalt\n", "fetch_width=4;"));
}

// ---------------------------------------------------------------------------
// Wall-clock deadlines and the watchdog (docs/SERVICE.md §Failure modes).

/// Installs a programmatic chaos injector for one test and guarantees it
/// is removed again even on assertion failure. Tests must quiesce any
/// thread that might still be inside an injector hook (e.g. sleep past
/// stall_ms) before the guard's scope ends.
class ChaosGuard {
 public:
  explicit ChaosGuard(const ChaosSpec& spec) {
    ChaosInjector::install(std::make_unique<ChaosInjector>(spec));
  }
  ~ChaosGuard() { ChaosInjector::install(nullptr); }
  ChaosGuard(const ChaosGuard&) = delete;
  ChaosGuard& operator=(const ChaosGuard&) = delete;
};

TEST(SimService, WallDeadlineCancelsOverdueJobCooperatively) {
  SimService service({.workers = 1,
                      .queue_capacity = 4,
                      .cancel_check_cycles = 512,
                      .watchdog_poll_ms = 5,
                      // Generous grace: the worker notices the cooperative
                      // cancel long before the poison path would fire.
                      .watchdog_grace_ms = 10'000});
  Request request;
  request.type = RequestType::kSubmit;
  request.asm_source = "loop:\n  addi r1, r1, 1\n  beq r0, r0, loop\n";
  request.max_cycles = 40'000'000;
  request.wall_ms = 30;

  const Reply reply = service.handle(request);
  ASSERT_EQ(reply.type, ReplyType::kError) << reply.message;
  EXPECT_EQ(reply.code, error_code::kWallDeadline);
  EXPECT_TRUE(reply.retriable) << "a wall deadline invites a resubmit";
  EXPECT_NE(reply.message.find("wall deadline"), std::string::npos);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.wall_deadline_exceeded, 1u);
  EXPECT_EQ(stats.workers_poisoned, 0u)
      << "a cooperative worker must not be evicted";
  EXPECT_GE(stats.watchdog_scans, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(SimService, PlainJobsNeverWakeTheWatchdog) {
  SimService service({.workers = 1, .queue_capacity = 4});
  ASSERT_EQ(service.handle(submit_kernel("fib")).type, ReplyType::kResult);
  EXPECT_EQ(service.stats().watchdog_scans, 0u)
      << "without wall_ms the watchdog sleeps: zero overhead";
}

TEST(SimService, WallDeadlineIsAnSlaNotPartOfTheCacheDigest) {
  SimService service({.workers = 1, .queue_capacity = 4});
  const Reply cold = service.handle(submit_kernel("fib"));
  ASSERT_EQ(cold.type, ReplyType::kResult) << cold.message;

  Request again = submit_kernel("fib");
  again.wall_ms = 60'000;  // generous: can never fire
  const Reply hit = service.handle(again);
  ASSERT_EQ(hit.type, ReplyType::kResult) << hit.message;
  EXPECT_EQ(hit.cache, "hit") << "wall_ms changes no simulated semantics";
  EXPECT_EQ(hit.digest, cold.digest);
}

TEST(SimService, WedgedWorkerIsPoisonedReplacedAndTheReplyStillArrives) {
  ChaosSpec spec;
  spec.site(ChaosSite::kWorkerStall) = 1.0;
  spec.stall_ms = 300;  // ignores cancellation far past the grace window
  spec.seed = 9;
  const ChaosGuard chaos(spec);

  SimService service({.workers = 1,
                      .queue_capacity = 4,
                      .cache_entries = 0,
                      .watchdog_poll_ms = 5,
                      .watchdog_grace_ms = 40});
  Request request = submit_kernel("fib");
  request.wall_ms = 20;
  const Reply reply = service.handle(request);
  ASSERT_EQ(reply.type, ReplyType::kError) << reply.message;
  EXPECT_EQ(reply.code, error_code::kWallDeadline);
  EXPECT_TRUE(reply.retriable);

  // deliver() unblocks this thread *before* the watchdog finishes the
  // eviction bookkeeping: wait for the poison counter, don't race it.
  EXPECT_TRUE(eventually(
      [&] { return service.stats().workers_poisoned == 1; }));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.workers_poisoned, 1u);
  EXPECT_EQ(stats.wall_deadline_exceeded, 1u);
  EXPECT_EQ(stats.workers, 1u) << "capacity survives the eviction";

  // Let the detached straggler clear its stall and exit before the guard
  // tears the injector down, then prove the replacement worker is healthy.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ChaosInjector::install(nullptr);
  const Reply ok = service.handle(submit_kernel("fib"));
  EXPECT_EQ(ok.type, ReplyType::kResult) << ok.message;
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(SimService, WorkerCrashAnswersRetriableErrorAndThePoolSurvives) {
  ChaosSpec spec;
  spec.site(ChaosSite::kWorkerCrash) = 1.0;
  spec.seed = 3;
  const ChaosGuard chaos(spec);

  SimService service({.workers = 2, .queue_capacity = 4});
  const Reply reply = service.handle(submit_kernel("fib"));
  ASSERT_EQ(reply.type, ReplyType::kError) << reply.message;
  EXPECT_EQ(reply.code, error_code::kWorkerCrashed);
  EXPECT_TRUE(reply.retriable);
  EXPECT_EQ(service.stats().worker_crashes, 1u);

  ChaosInjector::install(nullptr);
  const Reply ok = service.handle(submit_kernel("fib"));
  ASSERT_EQ(ok.type, ReplyType::kResult)
      << "a crash consumes a job, never a worker: " << ok.message;
  EXPECT_EQ(ok.cache, "miss") << "the crashed attempt cached nothing";
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.workers, 2u);
}

// ---------------------------------------------------------------------------
// The one-pass codec against the DOM parsers it replaced
// (tests/protocol_dom_ref.hpp). A reply it accepts, the reference accepts
// as an equal Reply; it may reject more (a damaged metrics object). A
// request gets the reference's verdict and an equal Request.

/// Parses `frame` both ways; returns whether the one-pass parser took it.
bool reply_parses_within_reference(std::string_view frame) {
  Reply reply;
  std::string error;
  if (!Reply::parse(frame, reply, error)) {
    return false;
  }
  Reply reference;
  std::string reference_error;
  EXPECT_TRUE(ref::parse_reply(frame, reference, reference_error))
      << reference_error << ": " << frame;
  EXPECT_EQ(reply, reference) << frame;
  return true;
}

void expect_request_matches_reference(std::string_view frame) {
  Request request;
  Request reference;
  std::string error;
  std::string reference_error;
  const bool parsed = Request::parse(frame, request, error);
  ASSERT_EQ(parsed, ref::parse_request(frame, reference, reference_error))
      << (parsed ? reference_error : error) << ": " << frame;
  if (parsed) {
    EXPECT_EQ(request, reference) << frame;
  }
}

/// Every single-bit mutant of `frame`: the ones each parser accepts.
struct MutantCounts {
  int accepted = 0;
  int reference_accepted = 0;
};

MutantCounts reply_mutants(const std::string& frame) {
  MutantCounts counts;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = frame;
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
      counts.accepted += reply_parses_within_reference(mutant) ? 1 : 0;
      Reply reference;
      std::string error;
      counts.reference_accepted +=
          ref::parse_reply(mutant, reference, error) ? 1 : 0;
    }
  }
  return counts;
}

/// Real replies: every library kernel under four policies, one
/// multi-core result and a stats snapshot.
std::vector<Reply> service_replies() {
  std::vector<Reply> replies;
  SimService service({.workers = 2, .queue_capacity = 64});
  for (const Kernel& kernel : kernel_library()) {
    for (const char* policy : {"steered", "static-ffu", "oracle", "greedy"}) {
      Request request = submit_kernel(kernel.name, kernel.name + "/" + policy);
      request.policy = policy;
      replies.push_back(service.handle(request));
      EXPECT_EQ(replies.back().type, ReplyType::kResult)
          << kernel.name << " " << policy << ": " << replies.back().message;
    }
  }
  replies.push_back(service.handle(submit_multi(
      {kernel_entry("fib"), kernel_entry("saxpy", "greedy")}, "prop-share",
      "multi")));
  EXPECT_EQ(replies.back().type, ReplyType::kResult)
      << replies.back().message;
  Request stats;
  stats.type = RequestType::kStats;
  replies.push_back(service.handle(stats));
  EXPECT_EQ(replies.back().type, ReplyType::kStats);
  return replies;
}

TEST(ProtocolReference, EveryReplyToJsonWritesParsesAsTheReferenceReadsIt) {
  std::vector<Reply> replies = service_replies();
  Reply pong;
  pong.type = ReplyType::kPong;
  replies.push_back(pong);
  pong.id = "p\"1\\\n\x01";
  replies.push_back(pong);
  Reply goodbye;
  goodbye.type = ReplyType::kGoodbye;
  replies.push_back(goodbye);
  replies.push_back(Reply::error("", error_code::kQueueFull, "", true));
  replies.push_back(
      Reply::error("j", error_code::kBadRequest, "unknown kernel 'x'"));
  Reply empty_metrics;
  empty_metrics.type = ReplyType::kResult;
  empty_metrics.metrics_json = "{}";
  replies.push_back(empty_metrics);
  for (const Reply& reply : replies) {
    const std::string frame = reply.to_json();
    ASSERT_TRUE(reply_parses_within_reference(frame)) << frame;
    Reply parsed;
    std::string error;
    ASSERT_TRUE(Reply::parse(frame, parsed, error));
    EXPECT_EQ(parsed, reply) << frame;
  }
}

TEST(ProtocolReference, EveryBitFlipParsesOnlyAsTheReferenceReadsIt) {
  const std::vector<Reply> replies = service_replies();
  const Reply& fib = replies.front();
  ASSERT_EQ(fib.id, "fib/steered");
  Reply pong;
  pong.type = ReplyType::kPong;
  pong.id = "p-1";
  Reply goodbye;
  goodbye.type = ReplyType::kGoodbye;
  for (const Reply& reply :
       {fib, replies.back(),
        Reply::error("j-7", error_code::kWorkerCrashed, "resubmit", true),
        pong, goodbye}) {
    const MutantCounts counts = reply_mutants(reply.to_json());
    EXPECT_LE(counts.accepted, counts.reference_accepted);
    if (!reply.metrics_json.empty() || !reply.stats_json.empty()) {
      // Flips that leave a metrics object non-canonical now fail; flips
      // that keep it canonical still parse (a checksum's job).
      EXPECT_LT(counts.accepted, counts.reference_accepted)
          << reply_type_name(reply.type);
      EXPECT_GT(counts.accepted, 0);
    }
  }
}

TEST(ProtocolReference, NonCanonicalMetricsFailTheParse) {
  const auto result = [](std::string_view metrics) {
    return R"({"type":"result","cache":"miss","cycles":1,"metrics":)" +
           std::string(metrics) + "}";
  };
  // The reference re-renders each of these canonically and accepts it.
  for (const std::string_view metrics :
       {R"({"b":1,"a":2})", R"({"a":1,"a":2})", R"({"a":1,"a":1})",
        R"({ "a":1})", R"({"a" :1})", R"({"a": 1})", R"({"a":1 })",
        R"({"a":1, "b":2})", "{\n}", R"({"\u0061":1})", R"({"a\/b":1})",
        R"({"a":1.0})", R"({"a":-0})", R"({"a":1e3})", R"({"a":1E+17})",
        R"({"a":0.10})", R"({"a":"\u0041"})", R"({"a":true})",
        R"({"a":null})", R"({"a":[1]})", R"({"a":{}})"}) {
    Reply reply;
    std::string error;
    EXPECT_FALSE(Reply::parse(result(metrics), reply, error)) << metrics;
    EXPECT_TRUE(ref::parse_reply(result(metrics), reply, error)) << metrics;
  }
  // Both parsers reject a number outside RFC 8259's grammar.
  for (const std::string_view metrics : {R"({"a":01})", R"({"a":1-0})"}) {
    Reply reply;
    std::string error;
    EXPECT_FALSE(Reply::parse(result(metrics), reply, error)) << metrics;
    EXPECT_FALSE(ref::parse_reply(result(metrics), reply, error)) << metrics;
  }
  // Canonical spellings parse, escapes and strings included.
  for (const std::string_view metrics :
       {"{}", R"({"":0,"a":-1})", R"({"a\"b":1,"a\\b":2})",
        R"({"\u0001":1,"\n":2,"a":"nan","b":"-inf"})",
        R"({"a":0.10000000000000001,"b":1e+17,"c":1000})",
        "{\"\xc3\xa9\":18446744073709551615,\"\xf0\x9f\x98\x80\":-5}"}) {
    EXPECT_TRUE(reply_parses_within_reference(result(metrics))) << metrics;
  }
  // Keys ascend by byte, as std::map orders them: 'B' < 'a' < '\xc3'.
  EXPECT_TRUE(reply_parses_within_reference(
      result("{\"B\":1,\"a\":2,\"\xc3\xa9\":3}")));
  EXPECT_FALSE(reply_parses_within_reference(
      result("{\"\xc3\xa9\":1,\"a\":2}")));
}

TEST(ProtocolReference, RepliesCarryEachKeyAtMostOnce) {
  Reply reply;
  std::string error;
  for (const std::string_view frame :
       {R"({"type":"pong","type":"pong"})",
        R"({"type":"pong","id":"a","id":"a"})",
        R"({"type":"error","code":"x","retriable":true,"retriable":false})",
        R"({"type":"result","cycles":1,"cycles":2})"}) {
    EXPECT_FALSE(Reply::parse(frame, reply, error)) << frame;
    EXPECT_TRUE(ref::parse_reply(frame, reply, error)) << frame;
  }
}

TEST(ProtocolReference, RequestsGetTheReferenceVerdictAndValue) {
  Request full;
  full.type = RequestType::kSubmit;
  full.id = "job-42";
  full.asm_source = "loop:\n  addi r1, r1, 1\n  beq r0, r0, loop\n";
  full.policy = "oracle";
  full.max_cycles = 123456;
  full.wall_ms = 1500;
  full.interval = 64;
  full.confirm = 3;
  full.lookahead = true;
  full.seed = 7;
  full.config = {{"fetch_width", 8.0}, {"use_dcache", 1.0}};
  const Request multi = submit_multi(
      {kernel_entry("fib"), elf_entry("rv32_int", "greedy")}, "prop-share",
      "m");
  for (const std::string_view frame : {
           // Lenient: unknown keys skipped whatever their value, repeated
           // keys keep the first value, arbiter read only with multi.
           R"({"type":"ping","future":{"a":[1,{"b":null}],"c":"é"}})",
           R"({"type":"submit","kernel":"fib","kernel":5})",
           R"({"type":"submit","kernel":5,"kernel":"fib"})",
           R"({"type":"ping","type":"submit"})",
           R"({"type":"submit","kernel":"fib","arbiter":5})",
           R"({"type":"submit","multi":[],"arbiter":5})",
           R"({"type":"submit","multi":[],"arbiter":"x","arbiter":5})",
           R"({"arbiter":"p","multi":[{"kernel":"a","x":[],"kernel":1}],)"
           R"("type":"submit"})",
           R"({"type":"submit","multi":[{"elf":"e","policy":"greedy"},{}]})",
           R"({"type":"submit","multi":[1]})",
           R"({"type":"submit","multi":{}})",
           R"({"type":"submit","multi":[{"policy":7}]})",
           R"({"type":"submit","config":{"b":2,"a":1,"b":"x"}})",
           R"({"type":"submit","config":{"b":"x","a":1,"b":2}})",
           R"({"type":"submit","config":{"z":1e2,"a":-0.5,)"
           R"("m":18446744073709551615}})",
           R"({"type":"submit","config":[]})",
           R"({"type":"submit","config":{}})",
           // Scalar kinds and number readings.
           R"({"type":"submit","max_cycles":1e3,"seed":5.0,"wall_ms":-0.0})",
           R"({"type":"submit","max_cycles":-0})",
           R"({"type":"submit","max_cycles":1.5})",
           R"({"type":"submit","max_cycles":9007199254740993})",
           R"({"type":"submit","max_cycles":18446744073709551616})",
           R"({"type":"submit","max_cycles":"7"})",
           R"({"type":"submit","lookahead":1})",
           R"({"type":"submit","lookahead":false,"lookahead":1})",
           R"({"type":"submit","id":null})",
           R"({"type":"ping","id":"😀"})",
           // Shape.
           " \t\r\n{ \"type\" : \"stats\" } \n", R"({"type":""})", "{}",
           R"({"type":5})", R"({"type":"halt"})", "[]", "null", "7", "",
           R"({"type":"ping"})" R"({"type":"ping"})", R"({"type":"ping",})",
           // Malformed numbers and over-deep nesting fail on both sides.
           R"({"type":"submit","kernel":"fib","max_cycles":7-3})",
           R"({"type":"submit","kernel":"fib","max_cycles":--5})",
           R"({"type":"submit","kernel":"fib","seed":1e})"}) {
    expect_request_matches_reference(frame);
  }
  expect_request_matches_reference(R"({"type":"ping","x":)" +
                                   std::string(kMaxJsonDepth, '[') +
                                   std::string(kMaxJsonDepth, ']') + "}");
  for (const Request& request : {full, multi}) {
    const std::string frame = request.to_json();
    expect_request_matches_reference(frame);
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutant = frame;
        mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
        expect_request_matches_reference(mutant);
      }
    }
  }
}

TEST(ProtocolReference, MalformedNumbersFailInsteadOfReadingAsOthers) {
  // Each of these used to run: max_cycles 7, max_cycles 0 (the server's
  // default budget), seed 1. The server answers a parse failure with
  // bad_request.
  Request request;
  std::string error;
  for (const std::string_view frame :
       {R"({"type":"submit","kernel":"fib","max_cycles":7-3})",
        R"({"type":"submit","kernel":"fib","max_cycles":--5})",
        R"({"type":"submit","kernel":"fib","seed":1e})"}) {
    EXPECT_FALSE(Request::parse(frame, request, error)) << frame;
    EXPECT_EQ(error, "malformed JSON frame");
  }
  Reply reply;
  EXPECT_FALSE(Reply::parse(R"({"type":"result","cycles":1-0})", reply,
                            error));
}

// ---------------------------------------------------------------------------
// ChaosSpec grammar and ChaosInjector determinism.

TEST(Chaos, SpecParsesProbabilitiesDurationsAndSeed) {
  ChaosSpec spec;
  std::string error;
  ASSERT_TRUE(ChaosSpec::parse(
      "corrupt=0.15, drop=0.1, stall=1, stall_ms=40 : 4242", spec, error))
      << error;
  EXPECT_DOUBLE_EQ(spec.site(ChaosSite::kFrameCorrupt), 0.15);
  EXPECT_DOUBLE_EQ(spec.site(ChaosSite::kFrameDrop), 0.1);
  EXPECT_DOUBLE_EQ(spec.site(ChaosSite::kWorkerStall), 1.0);
  EXPECT_DOUBLE_EQ(spec.site(ChaosSite::kWorkerCrash), 0.0);
  EXPECT_EQ(spec.stall_ms, 40u);
  EXPECT_EQ(spec.seed, 4242u);
  EXPECT_TRUE(spec.any());
}

TEST(Chaos, SpecRejectsMalformedInput) {
  ChaosSpec spec;
  std::string error;
  EXPECT_FALSE(ChaosSpec::parse("", spec, error));
  EXPECT_FALSE(ChaosSpec::parse("warp_drive=0.5", spec, error))
      << "unknown key";
  EXPECT_FALSE(ChaosSpec::parse("drop=1.5", spec, error))
      << "probability above 1";
  EXPECT_FALSE(ChaosSpec::parse("drop=-0.1", spec, error));
  EXPECT_FALSE(ChaosSpec::parse("drop=0.5:nope", spec, error))
      << "non-numeric seed";
  EXPECT_FALSE(ChaosSpec::parse("stall_ms=40", spec, error))
      << "durations alone enable no site";
  EXPECT_FALSE(ChaosSpec::parse("drop=0", spec, error))
      << "all-zero spec is a configuration mistake, not silence";
  EXPECT_FALSE(ChaosSpec::parse("drop", spec, error)) << "missing '='";
}

TEST(Chaos, SameSpecReplaysTheSameInjectionSequence) {
  ChaosSpec spec;
  spec.site(ChaosSite::kFrameDrop) = 0.5;
  spec.seed = 77;
  ChaosInjector a(spec);
  ChaosInjector b(spec);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.roll(ChaosSite::kFrameDrop), b.roll(ChaosSite::kFrameDrop));
  }
  EXPECT_EQ(a.count(ChaosSite::kFrameDrop), b.count(ChaosSite::kFrameDrop));
  EXPECT_GT(a.count(ChaosSite::kFrameDrop), 0u);
  EXPECT_LT(a.count(ChaosSite::kFrameDrop), 200u);
  EXPECT_FALSE(a.roll(ChaosSite::kWorkerCrash))
      << "zero-probability sites consume no randomness";
}

TEST(Chaos, CorruptFlipsExactlyOneBit) {
  ChaosSpec spec;
  spec.site(ChaosSite::kFrameCorrupt) = 1.0;
  spec.seed = 11;
  ChaosInjector injector(spec);
  const std::string original = R"({"id":"j","type":"pong"})";
  std::string frame = original;
  ASSERT_TRUE(injector.corrupt(frame));
  ASSERT_EQ(frame.size(), original.size());
  int flipped = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    flipped += std::popcount(static_cast<unsigned char>(
        static_cast<unsigned char>(frame[i]) ^
        static_cast<unsigned char>(original[i])));
  }
  EXPECT_EQ(flipped, 1);
  EXPECT_EQ(injector.count(ChaosSite::kFrameCorrupt), 1u);
  EXPECT_EQ(injector.summary(), "corrupt=1");
}

}  // namespace
}  // namespace steersim::svc
