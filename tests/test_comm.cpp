// Tests for the dist ranks' comm::Mailbox: delivery deadlines, per-sender
// ordering under unequal delays, batch and deadline bounds on take(),
// post and wake() wakeups, and many-to-one traffic under concurrency. Also the
// shared wire vocabulary: pooled buffers, span codecs, and the telemetry
// leg — kTelemetry frames round-trip through the FrameReader, malformed
// payloads are rejected, and reserved-but-unknown frame kinds are
// skipped so an old reader survives a newer writer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <new>
#include <thread>

#include "comm/mailbox.hpp"
#include "comm/wire.hpp"
#include "obs/telemetry.hpp"

// ------------------------------------------------- allocation counting
// A counting global allocator lets the pooled-encode test assert "the
// steady-state hot path allocates nothing" instead of trusting a code
// read. The counter only increments; tests compare before/after.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// noinline: if the optimizer inlines these down to malloc/free at a
// call site, GCC's -Wmismatched-new-delete pairs the raw free against
// the (still symbolic) operator new and reports a false mismatch.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace gridpipe::comm {
namespace {

using namespace std::chrono_literals;

Message msg(int source, int value, Clock::time_point deliver_at) {
  wire::Bytes payload(sizeof(int));
  std::memcpy(payload.data(), &value, sizeof(int));
  return Message{source, wire::FrameKind::kTask, std::move(payload),
                 deliver_at};
}

int int_of(const Message& m) {
  int value = 0;
  std::memcpy(&value, m.payload.data(), sizeof(int));
  return value;
}

std::vector<int> ints_of(const std::vector<Message>& batch) {
  std::vector<int> out;
  for (const Message& m : batch) out.push_back(int_of(m));
  return out;
}

// ----------------------------------------------------------- mailbox

TEST(Mailbox, MessageInvisibleBeforeDeliverAt) {
  Mailbox inbox;
  const auto posted = Clock::now();
  inbox.post(msg(1, 42, posted + 40ms));
  EXPECT_TRUE(inbox.take(16, Clock::now()).empty());

  const auto got = inbox.take(16, Clock::now() + 5s);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(int_of(got[0]), 42);
  EXPECT_EQ(got[0].source, 1);
  EXPECT_EQ(got[0].kind, wire::FrameKind::kTask);
  EXPECT_GE(Clock::now() - posted, 40ms) << "handed out before deliver_at";
}

TEST(Mailbox, SenderOrderSurvivesUnequalDelays) {
  Mailbox inbox;
  const auto now = Clock::now();
  // Sender 1's first message is slow and its second instant: the second
  // must wait behind the first. Sender 2 is not held up by either.
  inbox.post(msg(1, 10, now + 40ms));
  inbox.post(msg(1, 11, now));
  inbox.post(msg(2, 20, now));
  EXPECT_EQ(ints_of(inbox.take(16, Clock::now())), std::vector<int>{20});

  std::vector<int> got;
  const auto deadline = Clock::now() + 5s;
  while (got.size() < 2 && Clock::now() < deadline) {
    for (int v : ints_of(inbox.take(16, deadline))) got.push_back(v);
  }
  EXPECT_EQ(got, (std::vector<int>{10, 11}));
}

TEST(Mailbox, DeliveredMessagesComeInArrivalOrderAcrossSenders) {
  Mailbox inbox;
  const auto now = Clock::now();
  for (int i = 0; i < 6; ++i) inbox.post(msg(i % 3, i, now));
  EXPECT_EQ(ints_of(inbox.take(16, now)),
            (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Mailbox, TakeHonoursMaxNAndDeadline) {
  Mailbox inbox;
  const auto now = Clock::now();
  for (int i = 0; i < 5; ++i) inbox.post(msg(0, i, now));
  EXPECT_TRUE(inbox.take(0, Clock::time_point::max()).empty());
  EXPECT_EQ(ints_of(inbox.take(2, Clock::now())), (std::vector<int>{0, 1}));
  EXPECT_EQ(ints_of(inbox.take(16, Clock::now())),
            (std::vector<int>{2, 3, 4}));

  // Empty mailbox: a timed take returns empty once its deadline passes.
  const auto start = Clock::now();
  EXPECT_TRUE(inbox.take(16, start + 30ms).empty());
  EXPECT_GE(Clock::now() - start, 30ms);

  // A message due after the deadline stays put.
  inbox.post(msg(0, 9, Clock::now() + 10s));
  EXPECT_TRUE(inbox.take(16, Clock::now() + 20ms).empty());
}

// Regression guard for lost wakeups: a taker blocked with no deadline
// must be woken by a post that races its predicate-check-to-block
// window. Run under a watchdog so a lost wakeup reports as a failure
// instead of a ctest timeout (TSan does not flag lost wakeups).
TEST(Mailbox, BlockedTakeWokenByPost) {
  auto run_cycles = std::async(std::launch::async, [] {
    for (int cycle = 0; cycle < 500; ++cycle) {
      Mailbox inbox;
      auto taken = std::async(std::launch::async, [&inbox] {
        return inbox.take(1, Clock::time_point::max());
      });
      if (cycle % 2 == 0) std::this_thread::sleep_for(50us);
      inbox.post(msg(0, cycle, Clock::now()));
      const auto got = taken.get();
      if (got.size() != 1 || int_of(got[0]) != cycle) return false;
    }
    return true;
  });
  ASSERT_EQ(run_cycles.wait_for(60s), std::future_status::ready)
      << "take() hung: a blocked taker lost the post wakeup";
  EXPECT_TRUE(run_cycles.get());
}

// wake() must end a take that is blocked with no message and no
// deadline — the dist controller's idle wait with epochs off — even when
// it races the taker's predicate-check-to-block window. Watchdog as
// above: a lost wake is a hang, not a race report.
TEST(Mailbox, WakeInterruptsBlockedTake) {
  auto run_cycles = std::async(std::launch::async, [] {
    for (int cycle = 0; cycle < 500; ++cycle) {
      Mailbox inbox;
      auto taken = std::async(std::launch::async, [&inbox] {
        return inbox.take(16, Clock::time_point::max());
      });
      if (cycle % 2 == 0) std::this_thread::sleep_for(50us);
      inbox.wake();
      if (!taken.get().empty()) return false;
    }
    return true;
  });
  ASSERT_EQ(run_cycles.wait_for(60s), std::future_status::ready)
      << "take() hung: a blocked taker lost the wake";
  EXPECT_TRUE(run_cycles.get());
}

// A wake with no taker waiting ends the next take, and only that one:
// wakes do not add up and do not stick.
TEST(Mailbox, WakeBeforeTakeReturnsOnce) {
  Mailbox inbox;
  inbox.wake();
  inbox.wake();
  auto start = Clock::now();
  EXPECT_TRUE(inbox.take(16, start + 10s).empty());
  EXPECT_LT(Clock::now() - start, 5s) << "a pending wake did not end take()";

  start = Clock::now();
  EXPECT_TRUE(inbox.take(16, start + 30ms).empty());
  EXPECT_GE(Clock::now() - start, 30ms) << "the wake stuck";

  // A take that returns messages consumes a pending wake with them.
  inbox.wake();
  inbox.post(msg(0, 7, Clock::now()));
  EXPECT_EQ(ints_of(inbox.take(16, Clock::now() + 10s)), std::vector<int>{7});
  start = Clock::now();
  EXPECT_TRUE(inbox.take(16, start + 30ms).empty());
  EXPECT_GE(Clock::now() - start, 30ms) << "the wake stuck";
}

// clear() empties the mailbox for reuse: waiting messages and a pending
// wake are both gone, and later posts deliver as usual.
TEST(Mailbox, ClearDropsMessagesAndPendingWake) {
  Mailbox inbox;
  inbox.post(msg(0, 1, Clock::now()));
  inbox.post(msg(1, 2, Clock::now() + 1h));
  inbox.wake();
  inbox.clear();
  const auto start = Clock::now();
  EXPECT_TRUE(inbox.take(16, start + 30ms).empty());
  EXPECT_GE(Clock::now() - start, 30ms) << "the wake survived clear()";
  inbox.post(msg(0, 3, Clock::now()));
  EXPECT_EQ(ints_of(inbox.take(16, Clock::now() + 10s)), std::vector<int>{3});
}

// Stress: many senders with mixed delays, one taker; every message
// arrives exactly once and each sender's messages stay in order.
TEST(Mailbox, ManyToOneStress) {
  constexpr int kSenders = 4;
  constexpr int kPerSender = 500;
  Mailbox inbox;
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&inbox, s] {
      for (int i = 0; i < kPerSender; ++i) {
        const auto delay = std::chrono::microseconds((i * 7 + s) % 5 * 20);
        inbox.post(msg(s, i, Clock::now() + delay));
      }
    });
  }
  std::vector<std::vector<int>> seen(kSenders);
  int total = 0;
  const auto deadline = Clock::now() + 30s;
  while (total < kSenders * kPerSender && Clock::now() < deadline) {
    for (const Message& m : inbox.take(16, deadline)) {
      seen[static_cast<std::size_t>(m.source)].push_back(int_of(m));
      ++total;
    }
  }
  for (auto& t : senders) t.join();
  EXPECT_TRUE(inbox.take(16, Clock::now()).empty());
  for (int s = 0; s < kSenders; ++s) {
    std::vector<int> expected(kPerSender);
    for (int i = 0; i < kPerSender; ++i) expected[i] = i;
    EXPECT_EQ(seen[static_cast<std::size_t>(s)], expected) << "sender " << s;
  }
}

// ------------------------------------------------- telemetry wire leg

obs::TelemetryBatch sample_telemetry() {
  obs::TelemetryBatch batch;
  obs::TraceEvent e;
  e.name = "filter";
  e.kind = obs::SpanKind::kStage;
  e.start = 2.0;
  e.duration = 0.125;
  e.tid = 3;
  e.item = 11;
  e.stage = 1;
  batch.events.push_back(std::move(e));
  batch.counters.push_back({"stage_executions", 4});
  return batch;
}

TEST(TelemetryWire, FrameRoundTripsThroughReader) {
  const obs::TelemetryBatch batch = sample_telemetry();
  const wire::Frame frame{wire::FrameKind::kTelemetry, 2,
                          obs::encode_telemetry(batch)};
  const auto encoded = wire::encode_frame(frame);

  wire::FrameReader reader;
  reader.feed(encoded.data(), encoded.size());
  const auto decoded = reader.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, wire::FrameKind::kTelemetry);
  EXPECT_EQ(decoded->node, 2u);
  EXPECT_EQ(obs::decode_telemetry(decoded->payload), batch);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(TelemetryWire, MalformedPayloadInsideValidFrameRejected) {
  // The frame envelope can be perfectly well-formed around garbage
  // telemetry bytes — the payload decoder must still throw.
  auto payload = obs::encode_telemetry(sample_telemetry());
  payload.pop_back();  // truncated
  const wire::Frame frame{wire::FrameKind::kTelemetry, 0, payload};
  wire::FrameReader reader;
  const auto encoded = wire::encode_frame(frame);
  reader.feed(encoded.data(), encoded.size());
  const auto decoded = reader.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_THROW(obs::decode_telemetry(decoded->payload), std::invalid_argument);
}

TEST(TelemetryWire, ReservedKindsSkippedForForwardCompat) {
  // A newer writer may emit kinds in the reserved band (kHealth+1 ..
  // kMaxReservedKind); this reader must skip them, count them, and keep
  // decoding what it does understand. Anything past the band is stream
  // corruption and still throws.
  wire::FrameReader reader;
  for (const std::uint32_t kind : {8u, wire::kMaxReservedKind}) {
    std::vector<std::byte> future(12 + 3);
    const std::uint32_t len = 3;
    std::memcpy(future.data(), &len, 4);
    std::memcpy(future.data() + 4, &kind, 4);
    reader.feed(future.data(), future.size());
  }
  const wire::Frame understood{wire::FrameKind::kTelemetry, 1,
                               obs::encode_telemetry(sample_telemetry())};
  const auto encoded = wire::encode_frame(understood);
  reader.feed(encoded.data(), encoded.size());

  const auto decoded = reader.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, understood);
  EXPECT_EQ(reader.skipped_unknown(), 2u);
  EXPECT_EQ(reader.buffered(), 0u);

  std::vector<std::byte> corrupt(12);
  const std::uint32_t bad_kind = wire::kMaxReservedKind + 1;
  std::memcpy(corrupt.data() + 4, &bad_kind, 4);
  reader.feed(corrupt.data(), corrupt.size());
  EXPECT_THROW(reader.next(), std::invalid_argument);
}

TEST(TelemetryWire, BatchRidesTheMailboxAsKTelemetry) {
  // In-process ranks don't need framing: the telemetry payload travels
  // as an ordinary kTelemetry message, same as the dist executor ships it.
  const obs::TelemetryBatch batch = sample_telemetry();
  Mailbox inbox;
  inbox.post({1, wire::FrameKind::kTelemetry, obs::encode_telemetry(batch),
              Clock::now()});
  const auto got = inbox.take(1, Clock::now());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].source, 1);
  EXPECT_EQ(got[0].kind, wire::FrameKind::kTelemetry);
  EXPECT_EQ(obs::decode_telemetry(got[0].payload), batch);
}

// --------------------------------------------------- pooled zero-copy

TEST(BufferPool, RecyclesCapacityAndRespectsCaps) {
  wire::BufferPool pool(/*max_buffers=*/2, /*max_retained_bytes=*/1024);
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_TRUE(pool.acquire().empty());  // empty pool: fresh buffer

  wire::Bytes a(100);
  const std::byte* data = a.data();
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);
  wire::Bytes back = pool.acquire();
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_TRUE(back.empty()) << "recycled buffers come back cleared";
  EXPECT_GE(back.capacity(), 100u);
  EXPECT_EQ(back.data() == nullptr ? data : back.data(), data)
      << "same storage, no fresh allocation";

  // Oversized buffers are freed, not pooled.
  wire::Bytes big(2048);
  pool.release(std::move(big));
  EXPECT_EQ(pool.pooled(), 0u);
  // Zero-capacity buffers are not worth pooling either.
  pool.release(wire::Bytes{});
  EXPECT_EQ(pool.pooled(), 0u);
  // The pool holds at most max_buffers.
  pool.release(wire::Bytes(10));
  pool.release(wire::Bytes(10));
  pool.release(wire::Bytes(10));
  EXPECT_EQ(pool.pooled(), 2u);
}

TEST(BufferPool, SteadyStateTaskHopDoesNotAllocate) {
  // The tentpole contract: composing [frame header][task header][payload]
  // into a pooled buffer allocates nothing once the buffer grew to size.
  wire::BufferPool pool;
  const wire::Bytes payload(256, std::byte{7});
  const auto hop = [&] {
    wire::Bytes buf = pool.acquire();
    const std::size_t off =
        wire::begin_frame(buf, wire::FrameKind::kTask, 1);
    wire::encode_task_header_into(buf, 42, 3);
    const std::size_t at = buf.size();
    buf.resize(at + payload.size());
    std::memcpy(buf.data() + at, payload.data(), payload.size());
    wire::end_frame(buf, off);
    pool.release(std::move(buf));
  };
  for (int i = 0; i < 4; ++i) hop();  // warm the pooled buffer

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) hop();
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state pooled encode must be allocation-free";
}

TEST(WireSpan, TaskViewRoundTripsInPlace) {
  wire::Bytes buf;
  const wire::Bytes payload{std::byte{1}, std::byte{2}, std::byte{3}};
  wire::encode_task_into(buf, 77, 2, payload);
  EXPECT_EQ(buf, wire::encode_task(77, 2, payload));
  const wire::TaskView view = wire::decode_task(wire::ByteSpan(buf));
  EXPECT_EQ(view.item, 77u);
  EXPECT_EQ(view.stage, 2u);
  ASSERT_EQ(view.payload.size(), payload.size());
  // Zero copy: the view aliases the wire buffer itself.
  EXPECT_EQ(view.payload.data(), buf.data() + wire::kTaskHeaderBytes);
}

TEST(WireSpan, EveryTruncationOfEveryCodecThrows) {
  // Task: any prefix shorter than the fixed header must throw (beyond
  // the header every length is a valid payload).
  const wire::Bytes task = wire::encode_task(9, 1, wire::Bytes(5));
  for (std::size_t cut = 0; cut < wire::kTaskHeaderBytes; ++cut) {
    EXPECT_THROW(wire::decode_task(wire::ByteSpan(task.data(), cut)),
                 std::invalid_argument)
        << "cut at " << cut;
  }

  // f64: exactly 8 bytes, nothing else.
  const wire::Bytes f64 = wire::encode_f64(1.5);
  EXPECT_DOUBLE_EQ(wire::decode_f64(wire::ByteSpan(f64)), 1.5);
  for (std::size_t cut = 0; cut < f64.size(); ++cut) {
    EXPECT_THROW(wire::decode_f64(wire::ByteSpan(f64.data(), cut)),
                 std::invalid_argument)
        << "cut at " << cut;
  }

  // Mapping: every strict prefix of a replicated mapping must throw.
  sched::Mapping mapping(std::vector<grid::NodeId>{2, 0, 1});
  mapping.add_replica(1, 2);
  const wire::Bytes good = wire::encode_mapping(mapping);
  EXPECT_EQ(wire::decode_mapping(wire::ByteSpan(good)), mapping);
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_THROW(wire::decode_mapping(wire::ByteSpan(good.data(), cut)),
                 std::invalid_argument)
        << "cut at " << cut;
  }
}

TEST(WireSpan, FrameViewAliasesReaderBufferUntilNextFeed) {
  const wire::Frame frame{wire::FrameKind::kTask, 4,
                          wire::encode_task(1, 0, wire::Bytes(16))};
  const wire::Bytes encoded = wire::encode_frame(frame);
  wire::FrameReader reader;
  reader.feed(encoded.data(), encoded.size());
  const auto view = reader.next_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->kind, frame.kind);
  EXPECT_EQ(view->node, frame.node);
  EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                         frame.payload.begin(), frame.payload.end()));
  EXPECT_FALSE(reader.next_view().has_value());
}

TEST(WireSpan, BeginEndFrameMatchesEncodeFrame) {
  const wire::Frame frame{wire::FrameKind::kSpeedObs, 3,
                          wire::encode_f64(0.25)};
  wire::Bytes composed;
  const std::size_t off =
      wire::begin_frame(composed, frame.kind, frame.node);
  wire::encode_f64_into(composed, 0.25);
  wire::end_frame(composed, off);
  EXPECT_EQ(composed, wire::encode_frame(frame));

  // Two frames back to back in one buffer parse as two frames.
  const std::size_t off2 =
      wire::begin_frame(composed, wire::FrameKind::kShutdown, 1);
  wire::end_frame(composed, off2);
  wire::FrameReader reader;
  reader.feed(composed.data(), composed.size());
  EXPECT_EQ(reader.next(), frame);
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->kind, wire::FrameKind::kShutdown);
  EXPECT_FALSE(reader.next().has_value());
}

}  // namespace
}  // namespace gridpipe::comm
