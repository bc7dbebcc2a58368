// Tests for core::StreamCore, the stream state shared by the threads,
// dist and process executors: ordered output, the credit window,
// duplicate rejection, first-error capture, lifecycle errors, and a
// concurrent push/complete/pop run for TSan. Every case runs for both
// item types the executors use (std::any in-process, Bytes serialized).

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/codec.hpp"
#include "core/stream_core.hpp"

namespace gridpipe::core {
namespace {

template <class Item>
struct Items;

template <>
struct Items<std::any> {
  static std::any make(int v) { return v; }
  static int value(const std::any& item) { return std::any_cast<int>(item); }
};

template <>
struct Items<Bytes> {
  static Bytes make(int v) { return Codec<int>::encode(v); }
  static int value(const Bytes& item) { return Codec<int>::decode(item); }
};

template <class Item>
class StreamCoreTest : public ::testing::Test {
 protected:
  using Core = StreamCore<Item>;

  static std::unique_ptr<Core> make_core(std::size_t window) {
    return std::make_unique<Core>("TestCore", /*num_stages=*/3, window,
                                  /*time_scale=*/1e-3, obs::Sinks{},
                                  /*lanes=*/1, /*flight_events=*/64);
  }
  static Item make(int v) { return Items<Item>::make(v); }
  static int value(const Item& item) { return Items<Item>::value(item); }

  /// Unsigned value of a top-level key in a compact status dump.
  static std::uint64_t status_u64(const Core& core, const std::string& key) {
    const std::string text = core.status("test").dump();
    const std::string tag = "\"" + key + "\":";
    const auto at = text.find(tag);
    EXPECT_NE(at, std::string::npos) << key << ": " << text;
    return at == std::string::npos ? 0
                                   : std::stoull(text.substr(at + tag.size()));
  }
};

using ItemTypes = ::testing::Types<std::any, Bytes>;
TYPED_TEST_SUITE(StreamCoreTest, ItemTypes);

TYPED_TEST(StreamCoreTest, OutOfOrderCompletionsPopInSeqOrder) {
  auto core = this->make_core(8);
  core->begin("(1)");
  for (int i = 0; i < 5; ++i) core->push(this->make(10 * i));
  std::vector<typename TestFixture::Core::Admitted> admitted;
  while (auto a = core->admit_next()) admitted.push_back(std::move(*a));
  ASSERT_EQ(admitted.size(), 5u);
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    EXPECT_EQ(admitted[i].seq, i);
    EXPECT_EQ(this->value(admitted[i].item), static_cast<int>(10 * i));
  }

  const auto complete = [&](std::uint64_t seq) {
    EXPECT_TRUE(core->complete(seq, this->make(static_cast<int>(seq))));
  };
  complete(3);
  complete(1);
  EXPECT_FALSE(core->try_pop().has_value());  // seq 0 still missing
  complete(0);
  EXPECT_EQ(this->value(*core->try_pop()), 0);
  EXPECT_EQ(this->value(*core->try_pop()), 1);
  EXPECT_FALSE(core->try_pop().has_value());
  complete(4);
  EXPECT_FALSE(core->try_pop().has_value());
  complete(2);
  for (int seq = 2; seq < 5; ++seq) EXPECT_EQ(this->value(*core->try_pop()), seq);
  EXPECT_FALSE(core->try_pop().has_value());

  core->close();
  EXPECT_TRUE(core->done());
  const RunReport report = core->finish({});
  EXPECT_EQ(report.items, 5u);
  EXPECT_EQ(report.metrics.items_completed(), 5u);
  EXPECT_EQ(report.initial_mapping, "(1)");
}

TYPED_TEST(StreamCoreTest, CreditWindowNeverExceedsWindow) {
  constexpr std::size_t kWindow = 3;
  auto core = this->make_core(kWindow);
  EXPECT_EQ(this->status_u64(*core, "window"), kWindow);
  EXPECT_EQ(this->status_u64(*this->make_core(0), "window"),
            6u);  // auto: 2·Ns, min 4
  core->begin("(1)");
  for (int i = 0; i < 10; ++i) core->push(this->make(i));

  std::uint64_t next_complete = 0;
  std::uint64_t admitted = 0;
  while (next_complete < 10) {
    while (auto a = core->admit_next()) {
      ++admitted;
      EXPECT_LE(this->status_u64(*core, "in_flight"), kWindow);
    }
    EXPECT_FALSE(core->can_admit());
    EXPECT_EQ(this->status_u64(*core, "in_flight"),
              std::min<std::uint64_t>(kWindow, 10 - next_complete));
    EXPECT_EQ(this->status_u64(*core, "pending"), 10 - admitted);
    // One completion frees exactly one credit.
    EXPECT_TRUE(core->complete(next_complete, this->make(0)));
    ++next_complete;
  }
  EXPECT_EQ(admitted, 10u);
  EXPECT_EQ(this->status_u64(*core, "completed"), 10u);
  EXPECT_EQ(this->status_u64(*core, "in_flight"), 0u);
}

TYPED_TEST(StreamCoreTest, DuplicateCompletionIsRejected) {
  auto core = this->make_core(4);
  core->begin("(1)");
  core->push(this->make(7));
  core->push(this->make(8));
  while (core->admit_next()) {
  }
  EXPECT_TRUE(core->complete(0, this->make(7)));
  EXPECT_FALSE(core->complete(0, this->make(99)));  // still buffered
  EXPECT_EQ(this->value(*core->try_pop()), 7);
  EXPECT_FALSE(core->complete(0, this->make(99)));  // already delivered
  core->note_duplicate(1);  // dropped by the executor itself
  EXPECT_EQ(core->deduped(), 3u);
  EXPECT_EQ(this->status_u64(*core, "completed"), 1u);
  EXPECT_TRUE(core->complete(1, this->make(8)));
  EXPECT_EQ(this->value(*core->try_pop()), 8);
  EXPECT_FALSE(core->try_pop().has_value());

  core->close();
  const RunReport report = core->finish({});
  EXPECT_EQ(report.items, 2u);
  EXPECT_EQ(report.items_deduped, 3u);
}

TYPED_TEST(StreamCoreTest, FirstErrorWinsAndIsRethrownAtFinish) {
  auto core = this->make_core(4);
  core->begin("(1)");
  core->push(this->make(1));
  EXPECT_FALSE(core->done());
  core->fail(std::make_exception_ptr(std::runtime_error("first")));
  core->fail(std::make_exception_ptr(std::logic_error("second")));
  EXPECT_TRUE(core->done());  // an error ends the stream undrained
  core->wait_done();          // returns at once
  core->close();
  try {
    core->finish({});
    FAIL() << "finish() must rethrow the captured error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "first");
  }
  EXPECT_FALSE(core->active());
  // The next stream starts clean.
  core->begin("(1)");
  core->close();
  EXPECT_EQ(core->finish({}).items, 0u);
}

TYPED_TEST(StreamCoreTest, LifecycleMisuseThrows) {
  auto core = this->make_core(4);
  EXPECT_THROW(core->push(this->make(0)), std::logic_error);  // not begun
  EXPECT_THROW(core->check_finishable(), std::logic_error);
  core->begin("(1)");
  EXPECT_THROW(core->begin("(1)"), std::logic_error);
  EXPECT_THROW(core->check_finishable(), std::logic_error);  // not closed
  core->close();
  try {
    core->push(this->make(0));
    FAIL() << "push after close must throw";
  } catch (const std::logic_error& error) {
    EXPECT_STREQ(error.what(), "TestCore: push on a closed stream");
  }
  core->check_finishable();
  core->finish({});
  EXPECT_THROW(core->check_finishable(), std::logic_error);  // finished
  EXPECT_THROW(typename TestFixture::Core("TestCore", 3, 4, /*time_scale=*/0.0,
                                          obs::Sinks{}, 1, 64),
               std::invalid_argument);
}

TYPED_TEST(StreamCoreTest, ConcurrentPushCompleteAndPop) {
  // Pusher, workers, popper, controller and a status poller all race on
  // one core; TSan checks the locking, the assertions check that every
  // item comes out exactly once, in order, within the window.
  constexpr int kItems = 2000;
  constexpr std::size_t kWindow = 8;
  auto core = this->make_core(kWindow);
  core->begin("(1)");
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> max_in_flight{0};

  std::thread controller([&] { core->wait_done(); });
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&] {
      while (!stop.load()) {
        if (auto a = core->admit_next()) {
          core->complete(a->seq, std::move(a->item));
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::thread poller([&] {
    while (!stop.load()) {
      const std::uint64_t in_flight = this->status_u64(*core, "in_flight");
      if (in_flight > max_in_flight.load()) max_in_flight.store(in_flight);
      std::this_thread::yield();
    }
  });
  std::thread pusher([&] {
    for (int i = 0; i < kItems; ++i) core->push(this->make(i));
    core->close();
  });

  std::vector<int> popped;
  while (static_cast<int>(popped.size()) < kItems) {
    if (auto out = core->try_pop()) {
      popped.push_back(this->value(*out));
    } else {
      std::this_thread::yield();
    }
  }
  pusher.join();
  controller.join();  // done: closed and every push completed
  stop.store(true);
  for (auto& t : workers) t.join();
  poller.join();

  for (int i = 0; i < kItems; ++i) ASSERT_EQ(popped[i], i);
  EXPECT_FALSE(core->try_pop().has_value());
  EXPECT_LE(max_in_flight.load(), kWindow);
  const RunReport report = core->finish({});
  EXPECT_EQ(report.items, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(report.items_deduped, 0u);
}

}  // namespace
}  // namespace gridpipe::core
