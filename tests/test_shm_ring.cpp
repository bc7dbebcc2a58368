// Tests for the shared-memory SPSC ring that carries comm::wire frames
// between sibling worker processes: layout/validity, byte-stream
// integrity across the wrap point, all-or-nothing full behavior, close
// semantics on both sides, the mesh's pairwise isolation, and the real
// cross-process case over a forked producer/consumer pair.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "comm/wire.hpp"
#include "proc/shm_ring.hpp"

namespace gridpipe::proc {
namespace {

using comm::wire::Bytes;

Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(static_cast<std::uint8_t>(seed + i));
  }
  return out;
}

/// A ring over plain heap memory — the ring itself never cares whether
/// the pages are shared; only the mesh does.
struct LocalRing {
  explicit LocalRing(std::size_t capacity)
      : region(ShmRing::region_bytes(capacity)),
        ring(ShmRing::create(region.data(), capacity)) {}
  std::vector<std::byte> region;
  ShmRing ring;
};

TEST(ShmRing, InvalidRingIsInert) {
  ShmRing ring;
  EXPECT_FALSE(ring.valid());
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_FALSE(ring.push(pattern_bytes(1, 0)));
  std::byte out[8];
  EXPECT_EQ(ring.pop(out, sizeof(out)), 0u);
  EXPECT_EQ(ring.readable(), 0u);
  EXPECT_FALSE(ring.producer_closed());
  EXPECT_FALSE(ring.consumer_closed());
  ring.close_producer();  // no-ops, no crash
  ring.close_consumer();
}

TEST(ShmRing, CreateThenAttachSeesSameRing) {
  std::vector<std::byte> region(ShmRing::region_bytes(256));
  ShmRing producer = ShmRing::create(region.data(), 256);
  ASSERT_TRUE(producer.valid());
  EXPECT_EQ(producer.capacity(), 256u);
  ASSERT_TRUE(producer.push(pattern_bytes(10, 3)));

  ShmRing consumer = ShmRing::attach(region.data());
  ASSERT_TRUE(consumer.valid());
  EXPECT_EQ(consumer.readable(), 10u);
  std::byte out[32];
  EXPECT_EQ(consumer.pop(out, sizeof(out)), 10u);
  EXPECT_EQ(std::memcmp(out, pattern_bytes(10, 3).data(), 10), 0);
}

TEST(ShmRing, AttachRejectsUninitializedMemory) {
  std::vector<std::byte> region(ShmRing::region_bytes(64), std::byte{0});
  EXPECT_FALSE(ShmRing::attach(region.data()).valid());
}

TEST(ShmRing, EmptyPopReturnsZero) {
  LocalRing r(64);
  std::byte out[16];
  EXPECT_EQ(r.ring.pop(out, sizeof(out)), 0u);
  EXPECT_EQ(r.ring.readable(), 0u);
}

TEST(ShmRing, FullRejectsPushAllOrNothing) {
  LocalRing r(32);
  ASSERT_TRUE(r.ring.push(pattern_bytes(30, 1)));
  // 2 bytes free: a 3-byte push must refuse and write *nothing*.
  EXPECT_FALSE(r.ring.push(pattern_bytes(3, 9)));
  EXPECT_EQ(r.ring.readable(), 30u);
  // But 2 bytes still fit exactly.
  EXPECT_TRUE(r.ring.push(pattern_bytes(2, 5)));
  EXPECT_FALSE(r.ring.push(pattern_bytes(1, 7)));  // now truly full
  // Larger than capacity outright: always refused, even when empty.
  LocalRing small(8);
  EXPECT_FALSE(small.ring.push(pattern_bytes(9, 0)));
}

TEST(ShmRing, WraparoundPreservesByteStream) {
  // Capacity deliberately not a multiple of the chunk size, so pushes
  // land on every offset; drain in a lockstep that forces wraps.
  LocalRing r(37);
  Bytes expect;
  Bytes got;
  std::uint8_t seed = 0;
  for (int round = 0; round < 200; ++round) {
    const Bytes chunk = pattern_bytes(1 + (round * 7) % 23, seed++);
    if (r.ring.push(chunk)) {
      expect.insert(expect.end(), chunk.begin(), chunk.end());
    }
    std::byte out[16];
    const std::size_t n = r.ring.pop(out, sizeof(out));
    got.insert(got.end(), out, out + n);
  }
  for (;;) {
    std::byte out[16];
    const std::size_t n = r.ring.pop(out, sizeof(out));
    if (n == 0) break;
    got.insert(got.end(), out, out + n);
  }
  EXPECT_EQ(got, expect);
}

TEST(ShmRing, FramesReassembleAcrossTheWrap) {
  // Whole wire frames pushed through a ring small enough to wrap
  // mid-frame must come out intact via a FrameReader.
  LocalRing r(64);
  comm::wire::FrameReader reader;
  std::size_t delivered = 0;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const comm::wire::Frame frame{comm::wire::FrameKind::kTask, i,
                                  pattern_bytes(11 + i % 17, static_cast<std::uint8_t>(i))};
    const Bytes encoded = comm::wire::encode_frame(frame);
    while (!r.ring.push(encoded)) {
      std::byte chunk[24];
      const std::size_t n = r.ring.pop(chunk, sizeof(chunk));
      ASSERT_GT(n, 0u) << "ring wedged";
      reader.feed(chunk, n);
      while (auto got = reader.next()) {
        EXPECT_EQ(got->node, static_cast<std::uint32_t>(delivered));
        ++delivered;
      }
    }
  }
  for (;;) {
    std::byte chunk[24];
    const std::size_t n = r.ring.pop(chunk, sizeof(chunk));
    if (n == 0) break;
    reader.feed(chunk, n);
    while (auto got = reader.next()) {
      EXPECT_EQ(got->node, static_cast<std::uint32_t>(delivered));
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 50u);
}

TEST(ShmRing, CloseSemantics) {
  LocalRing r(64);
  ASSERT_TRUE(r.ring.push(pattern_bytes(5, 1)));
  r.ring.close_producer();
  EXPECT_TRUE(r.ring.producer_closed());
  // Pending bytes stay poppable after producer close (EOF, not abort).
  std::byte out[8];
  EXPECT_EQ(r.ring.pop(out, sizeof(out)), 5u);

  r.ring.close_consumer();
  EXPECT_TRUE(r.ring.consumer_closed());
  // A closed consumer fails every push fast — the producer's cue to
  // fall back to the socket path.
  EXPECT_FALSE(r.ring.push(pattern_bytes(1, 0)));
}

TEST(ShmRing, SpscThreadedStressKeepsStreamIntact) {
  // One producer thread, one consumer thread, tiny ring: exercises the
  // acquire/release pairing under real concurrency (the TSan stage of
  // scripts/check.sh runs this suite).
  LocalRing r(61);
  constexpr std::size_t kTotal = 20000;
  std::thread producer([&] {
    std::uint8_t seed = 0;
    std::size_t sent = 0;
    while (sent < kTotal) {
      const std::size_t n = std::min<std::size_t>(1 + sent % 13, kTotal - sent);
      const Bytes chunk = pattern_bytes(n, seed);
      if (r.ring.push(chunk)) {
        sent += n;
        seed = static_cast<std::uint8_t>(seed + n);
      } else {
        std::this_thread::yield();
      }
    }
  });
  Bytes got;
  got.reserve(kTotal);
  while (got.size() < kTotal) {
    std::byte chunk[32];
    const std::size_t n = r.ring.pop(chunk, sizeof(chunk));
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    got.insert(got.end(), chunk, chunk + n);
  }
  producer.join();
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(got[i], static_cast<std::byte>(static_cast<std::uint8_t>(i)))
        << "byte " << i;
  }
}

TEST(ShmRingMesh, PairsGetDistinctRingsIncludingDiagonal) {
  ShmRingMesh mesh(3, 128);
  ASSERT_TRUE(mesh.valid());
  EXPECT_EQ(mesh.nodes(), 3u);
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = 0; to < 3; ++to) {
      ShmRing ring = mesh.ring(from, to);
      ASSERT_TRUE(ring.valid()) << from << "->" << to;
      const auto tag =
          static_cast<std::uint8_t>(from * 3 + to);
      ASSERT_TRUE(ring.push(pattern_bytes(4, tag)));
    }
  }
  // Each ring holds exactly its own bytes — no slot overlap.
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = 0; to < 3; ++to) {
      ShmRing ring = mesh.ring(from, to);
      std::byte out[8];
      ASSERT_EQ(ring.pop(out, sizeof(out)), 4u);
      const auto tag = static_cast<std::uint8_t>(from * 3 + to);
      EXPECT_EQ(std::memcmp(out, pattern_bytes(4, tag).data(), 4), 0);
    }
  }
  EXPECT_FALSE(mesh.ring(3, 0).valid());
  EXPECT_FALSE(mesh.ring(0, 3).valid());
}

TEST(ShmRingMesh, MoveTransfersOwnership) {
  ShmRingMesh a(2, 64);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(a.ring(0, 1).push(pattern_bytes(3, 2)));
  ShmRingMesh b = std::move(a);
  EXPECT_FALSE(a.valid());
  ASSERT_TRUE(b.valid());
  std::byte out[8];
  EXPECT_EQ(b.ring(0, 1).pop(out, sizeof(out)), 3u);
  b = ShmRingMesh{};
  EXPECT_FALSE(b.valid());
}

TEST(ShmRingMesh, OverflowingCapacityIsRefusedLikeAnMmapFailure) {
  // Wrapped around, the slot or mesh size would map a few bytes behind a
  // ring claiming the whole capacity, and a large push would write past
  // the mapping. It must throw the same runtime_error an mmap failure
  // does, so the process runtime falls back to sockets.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(ShmRingMesh(2, kMax - 10), std::runtime_error);  // slot
  EXPECT_THROW(ShmRingMesh(2, kMax / 2), std::runtime_error);   // 4 slots
  // A sub-frame capacity stays legal: a valid mesh whose pushes fall back.
  ShmRingMesh tiny(2, 8);
  ASSERT_TRUE(tiny.valid());
  EXPECT_FALSE(tiny.ring(0, 1).push(pattern_bytes(16, 1)));
}

TEST(ShmRingMesh, CrossProcessPushPopThroughFork) {
  // The real deployment shape: map before fork, child produces, parent
  // consumes the exact byte stream. (The ASan stage of
  // scripts/check.sh runs this suite too.)
  ShmRingMesh mesh(2, 256);
  ASSERT_TRUE(mesh.valid());
  constexpr std::size_t kTotal = 5000;

  const int pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ShmRing to_parent = mesh.ring(1, 0);
    std::size_t sent = 0;
    while (sent < kTotal) {
      const std::size_t n = std::min<std::size_t>(1 + sent % 19, kTotal - sent);
      if (to_parent.push(pattern_bytes(n, static_cast<std::uint8_t>(sent)))) {
        sent += n;
      }
    }
    to_parent.close_producer();
    _exit(0);
  }

  ShmRing from_child = mesh.ring(1, 0);
  Bytes got;
  got.reserve(kTotal);
  while (got.size() < kTotal) {
    std::byte chunk[64];
    const std::size_t n = from_child.pop(chunk, sizeof(chunk));
    if (n == 0) continue;  // busy-wait is fine for a 5k-byte test
    got.insert(got.end(), chunk, chunk + n);
  }
  EXPECT_TRUE(from_child.producer_closed() || from_child.readable() == 0);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(got[i], static_cast<std::byte>(static_cast<std::uint8_t>(i)))
        << "byte " << i;
  }
}

TEST(ShmRingMesh, DeadConsumerFailsPushesAfterClose) {
  // Peer-death discipline: a consumer that exits cleanly closes its
  // side; the producer's next push fails fast (socket fallback cue).
  ShmRingMesh mesh(2, 64);
  ASSERT_TRUE(mesh.valid());

  const int pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    mesh.ring(0, 1).close_consumer();
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  ShmRing out = mesh.ring(0, 1);
  EXPECT_TRUE(out.consumer_closed());
  EXPECT_FALSE(out.push(pattern_bytes(1, 0)));
}

}  // namespace
}  // namespace gridpipe::proc
