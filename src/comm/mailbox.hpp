#pragma once
// One rank's inbox on the in-process message-passing substrate — the
// stand-in for the MPI grid messaging layer the paper's skeletons run
// over. Each rank owns one Mailbox; any thread posts into it, only the
// owner takes from it.
//
// Link latency is emulated without delivery threads: a message carries
// the steady-clock time it is deliverable at, and take() does not hand
// it out before then. Posting never blocks — the executors' credit
// window already bounds how much is in flight, and a second, fixed bound
// here could only deadlock against it.
//
// Ordering: messages from one sender are never reordered, whatever their
// individual delays. post() clamps each message's deliver_at to that of
// the sender's last message still waiting (the link serializes), so a
// sender's messages become deliverable in the order they were posted.
// Across senders, take() returns delivered messages in arrival order.
//
// wake() lets a thread that is not sending a message still end the
// owner's wait (the dist controller is woken this way when an item is
// pushed or the stream closes or fails): the owner's current take()
// returns, or its next one if none is blocked. Wakes are not counted —
// several before a take end that one take, and the flag is cleared by
// whichever take returns next.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "comm/wire.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::comm {

using Clock = std::chrono::steady_clock;

struct Message {
  int source = 0;
  wire::FrameKind kind = wire::FrameKind::kShutdown;
  wire::Bytes payload;
  Clock::time_point deliver_at{};  ///< emulated arrival time
};

class Mailbox {
 public:
  /// Enqueues `message` and wakes the owner. Never blocks.
  void post(Message message);

  /// Makes the owner's current or next take() return, possibly empty.
  /// Never blocks.
  void wake();

  /// Up to `max_n` delivered messages, in arrival order, taken under one
  /// lock acquisition. Waits until at least one is delivered, wake() is
  /// called, or `deadline` passes, whichever is first; empty means a
  /// wake or the deadline (`Clock::time_point::max()` waits
  /// indefinitely, `Clock::now()` does not wait at all).
  std::vector<Message> take(std::size_t max_n, Clock::time_point deadline);

  /// Drops every waiting message and a pending wake. For reusing the
  /// mailbox once its owner and every sender have stopped; a wake()
  /// racing it is harmless (the next take() may return empty).
  void clear();

 private:
  struct Stamped {
    Message msg;
    std::uint64_t seq = 0;  ///< arrival order across senders
  };
  /// One sender's waiting messages; deliver_at never decreases along it.
  using Lane = std::deque<Stamped>;

  util::Mutex mutex_;
  util::CondVar posted_;
  std::map<int, Lane> lanes_ GRIDPIPE_GUARDED_BY(mutex_);  ///< by source
  std::uint64_t next_seq_ GRIDPIPE_GUARDED_BY(mutex_) = 0;
  bool woken_ GRIDPIPE_GUARDED_BY(mutex_) = false;
};

}  // namespace gridpipe::comm
