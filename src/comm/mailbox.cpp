#include "comm/mailbox.hpp"

#include <algorithm>

namespace gridpipe::comm {

void Mailbox::post(Message message) {
  util::MutexLock lock(mutex_);
  Lane& lane = lanes_[message.source];
  // With the lane empty, every earlier message from this sender is
  // already taken, so there is nothing left to overtake.
  if (!lane.empty()) {
    message.deliver_at =
        std::max(message.deliver_at, lane.back().msg.deliver_at);
  }
  lane.push_back(Stamped{std::move(message), next_seq_++});
  posted_.notify_all();
}

void Mailbox::wake() {
  util::MutexLock lock(mutex_);
  woken_ = true;
  posted_.notify_all();
}

void Mailbox::clear() {
  util::MutexLock lock(mutex_);
  lanes_.clear();
  woken_ = false;
}

std::vector<Message> Mailbox::take(std::size_t max_n,
                                   Clock::time_point deadline) {
  std::vector<Message> out;
  util::MutexLock lock(mutex_);
  for (;;) {
    const auto now = Clock::now();
    // Each lane's delivered messages are a prefix of it, so the
    // lane heads are the only candidates: repeatedly take the delivered
    // head with the lowest arrival number. Senders are few (one per
    // rank), so a scan of the heads beats keeping a heap.
    auto wake = deadline;
    while (out.size() < max_n) {
      Lane* next = nullptr;
      for (auto& [source, lane] : lanes_) {
        if (lane.empty()) continue;
        const Stamped& head = lane.front();
        if (head.msg.deliver_at > now) {
          wake = std::min(wake, head.msg.deliver_at);
        } else if (!next || head.seq < next->front().seq) {
          next = &lane;
        }
      }
      if (!next) break;
      out.push_back(std::move(next->front().msg));
      next->pop_front();
    }
    if (!out.empty() || woken_ || max_n == 0 || now >= deadline) {
      woken_ = false;
      return out;
    }
    // Sleep until a post, a wake, the earliest pending delivery, or the
    // deadline.
    if (wake == Clock::time_point::max()) {
      posted_.wait(mutex_);
    } else {
      posted_.wait_until(mutex_, wake);
    }
  }
}

}  // namespace gridpipe::comm
