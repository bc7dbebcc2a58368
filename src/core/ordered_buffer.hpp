#pragma once
// core::BasicOrderedDedupBuffer — the reorder buffer every streaming
// session drains its outputs through, with seq-keyed duplicate rejection.
//
// Results arrive keyed by the item's admission sequence number, in
// whatever order the pipeline completes them, and leave in seq order
// through pop. Under fault-tolerant replay the same seq can legitimately
// complete twice (the replay raced the original past the crash);
// insert() rejects anything at a seq that was already delivered or is
// already buffered, so downstream consumers observe exactly-once,
// in-order delivery no matter how many times an item was executed.
//
// Generic over the buffered value (core::StreamCore stores std::any or
// Bytes outputs plus their completion time); OrderedDedupBuffer is the
// Bytes instance. Not internally synchronized — callers hold their
// stream mutex.

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace gridpipe::core {

template <class Item>
class BasicOrderedDedupBuffer {
 public:
  using Bytes = std::vector<std::byte>;

  /// Buffers `payload` for seq. Returns false (and drops the payload)
  /// when seq was already delivered or is already buffered — i.e. this
  /// delivery is a duplicate.
  bool insert(std::uint64_t seq, Item payload) {
    return seq >= next_ && buffered_.emplace(seq, std::move(payload)).second;
  }

  /// True when the next in-order item is ready to pop.
  bool ready() const {
    const auto it = buffered_.begin();
    return it != buffered_.end() && it->first == next_;
  }

  /// Pops the next in-order payload; call only when ready().
  Item pop() {
    auto it = buffered_.begin();
    Item out = std::move(it->second);
    buffered_.erase(it);
    ++next_;
    return out;
  }

  /// Seq the consumer will receive next (== items delivered so far).
  std::uint64_t next() const noexcept { return next_; }
  std::size_t buffered() const noexcept { return buffered_.size(); }
  bool empty() const noexcept { return buffered_.empty(); }

  void reset() {
    buffered_.clear();
    next_ = 0;
  }

 private:
  std::map<std::uint64_t, Item> buffered_;
  std::uint64_t next_ = 0;
};

using OrderedDedupBuffer = BasicOrderedDedupBuffer<std::vector<std::byte>>;

}  // namespace gridpipe::core
