#pragma once
// comm::wire — the one wire format shared by the message-passing
// runtimes. Two layers:
//
//  * Payload codecs: the task / mapping / scalar encodings that
//    DistributedExecutor historically carried privately. Both the
//    in-process DistributedExecutor and the process-per-node
//    proc::ProcessExecutor speak exactly these bytes, so a payload
//    captured from one substrate decodes on the other.
//  * Stream framing: a length-prefixed Frame envelope for byte-stream
//    transports (Unix-domain sockets, shared-memory rings). The
//    in-process mailboxes do not need it (they hold whole messages);
//    the byte-stream transports do.
//
// Hot-path composition: every payload codec has an `encode_*_into`
// variant that appends to a caller-supplied buffer, and begin_frame /
// end_frame bracket an in-place frame envelope, so one task hop writes
// [frame header][task header][stage payload] into a single buffer —
// typically one recycled through a BufferPool, making the steady state
// allocation-free. Decoders take std::span views into transport
// buffers, so reading a frame copies nothing until the payload actually
// has to outlive the buffer.
//
// All integers are fixed-width little-endian-as-memcpy'd (the runtimes
// never cross an endianness boundary: every peer is a fork of the same
// process or a thread in it). Every decoder bounds-checks and throws
// std::invalid_argument on truncated or malformed input — a byte stream
// from another process is untrusted enough to validate.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sched/mapping.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::comm::wire {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;

// -------------------------------------------------------- buffer pool

/// Thread-safe free-list of reusable byte buffers. acquire() hands out
/// an empty buffer whose capacity survives from its previous life, so a
/// steady-state encode loop stops allocating once buffers have grown to
/// the working payload size.
///
/// Lifetime rules: a buffer obtained from acquire() is owned by the
/// caller until release()d (or simply dropped — releasing is an
/// optimization, never a correctness requirement). Any Bytes vector may
/// be release()d into a pool, not only ones it handed out. Buffers whose
/// capacity exceeds `max_retained_bytes`, and buffers beyond
/// `max_buffers`, are freed instead of pooled so one giant payload
/// cannot pin memory forever.
class BufferPool {
 public:
  explicit BufferPool(std::size_t max_buffers = 64,
                      std::size_t max_retained_bytes = std::size_t{1} << 20)
      : max_buffers_(max_buffers), max_retained_(max_retained_bytes) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer (size 0), with whatever capacity its previous use
  /// left behind. Falls back to a fresh buffer when the pool is empty.
  Bytes acquire();

  /// Returns a buffer to the pool (cleared lazily on the next acquire).
  void release(Bytes&& buffer);

  /// Buffers currently pooled (for tests / introspection).
  std::size_t pooled() const;

 private:
  mutable util::Mutex mutex_;
  std::vector<Bytes> free_ GRIDPIPE_GUARDED_BY(mutex_);
  const std::size_t max_buffers_;
  const std::size_t max_retained_;
};

// ----------------------------------------------------------- payloads

/// Task payload header size: [u64 item][u32 stage].
inline constexpr std::size_t kTaskHeaderBytes = 12;

/// Task payload: [u64 item][u32 stage][stage payload...].
Bytes encode_task(std::uint64_t item, std::uint32_t stage,
                  const Bytes& payload);
/// In-place variants: append to `out` (typically a pooled buffer that
/// already holds a frame header). The header-only form lets a caller
/// write the stage payload directly after it.
void encode_task_into(Bytes& out, std::uint64_t item, std::uint32_t stage,
                      ByteSpan payload);
void encode_task_header_into(Bytes& out, std::uint64_t item,
                             std::uint32_t stage);

/// Zero-copy decoded task: `payload` views the input and is valid only
/// as long as the wire bytes it was decoded from.
struct TaskView {
  std::uint64_t item = 0;
  std::uint32_t stage = 0;
  ByteSpan payload;
};
/// Throws std::invalid_argument if shorter than the 12-byte header.
TaskView decode_task(ByteSpan wire);
/// Copying legacy form (kept for byte-compat tests and callers that
/// need an owning payload).
void decode_task(const Bytes& wire, std::uint64_t& item, std::uint32_t& stage,
                 Bytes& payload);

/// Routing table: [u32 num_stages]([u32 num_replicas][u32 node]*)*.
Bytes encode_mapping(const sched::Mapping& mapping);
void encode_mapping_into(Bytes& out, const sched::Mapping& mapping);
/// Throws std::invalid_argument on truncation or absurd counts.
sched::Mapping decode_mapping(ByteSpan wire);

/// One IEEE double (speed observations).
Bytes encode_f64(double value);
void encode_f64_into(Bytes& out, double value);
/// Throws std::invalid_argument unless exactly 8 bytes.
double decode_f64(ByteSpan wire);

// ------------------------------------------------------------ framing

/// Frame kinds are also the kinds of the DistributedExecutor's mailbox
/// messages, so the two substrates share one vocabulary.
enum class FrameKind : std::uint32_t {
  kTask = 1,       ///< task payload; `node` = destination worker on relays
  kResult = 2,     ///< finished item (task payload with stage = num_stages)
  kRemap = 3,      ///< mapping payload, broadcast controller → workers
  kShutdown = 4,   ///< empty payload
  kSpeedObs = 5,   ///< f64 payload; `node` = observing worker
  kTelemetry = 6,  ///< obs telemetry batch; `node` = reporting worker
  kHealth = 7,     ///< obs health record; `node` = reporting worker
};

const char* to_string(FrameKind kind);

/// Forward compatibility: kinds above kHealth up to this bound are
/// reserved for future protocol revisions. FrameReader silently skips
/// such frames (their length prefix still delimits them) instead of
/// failing, so an old reader survives a newer writer; anything above
/// the band is treated as stream corruption and throws.
inline constexpr std::uint32_t kMaxReservedKind = 15;

/// Refuse to allocate for garbage length prefixes: no legitimate frame
/// carries more than this much payload.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 26;  // 64 MB

/// Frame envelope header size: [u32 payload length][u32 kind][u32 node].
inline constexpr std::size_t kFrameHeaderBytes = 12;

struct Frame {
  FrameKind kind = FrameKind::kShutdown;
  /// Worker-node argument; meaning depends on kind (destination for
  /// relayed kTask, source for kSpeedObs, unused otherwise).
  std::uint32_t node = 0;
  Bytes payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Envelope: [u32 payload length][u32 kind][u32 node][payload...].
Bytes encode_frame(const Frame& frame);
/// Appends a whole frame to `out` (one composition, no temporary).
void encode_frame_into(Bytes& out, const Frame& frame);

/// In-place frame bracketing: begin_frame appends the header with a
/// placeholder length and returns its offset; the caller then appends
/// the payload bytes directly (encode_*_into and friends) and
/// end_frame patches the length prefix. end_frame throws
/// std::invalid_argument if the payload outgrew kMaxFramePayload.
std::size_t begin_frame(Bytes& out, FrameKind kind, std::uint32_t node);
void end_frame(Bytes& out, std::size_t frame_offset);

/// Zero-copy decoded frame: `payload` views the reader's buffer and is
/// valid only until the next feed() on that reader.
struct FrameView {
  FrameKind kind = FrameKind::kShutdown;
  std::uint32_t node = 0;
  ByteSpan payload;
};

/// Incremental decoder for a byte stream: feed() arbitrary chunks, then
/// pop complete frames with next() / next_view(). A frame split across
/// reads simply stays pending until the rest arrives; a malformed
/// header (oversized length, kind outside the reserved band) throws
/// std::invalid_argument; a complete frame with a reserved-but-unknown
/// kind is skipped and counted.
class FrameReader {
 public:
  void feed(const std::byte* data, std::size_t n);

  /// Next complete frame (payload copied out), or nullopt if more bytes
  /// are needed.
  std::optional<Frame> next();

  /// Zero-copy variant: the returned payload views this reader's buffer
  /// and is invalidated by the next feed() (which may compact). Views
  /// from consecutive next_view() calls remain valid together.
  std::optional<FrameView> next_view();

  /// Bytes buffered but not yet returned as frames.
  std::size_t buffered() const noexcept { return buffer_.size() - read_; }

  /// Complete frames dropped because their kind is reserved/unknown.
  std::uint64_t skipped_unknown() const noexcept { return skipped_; }

 private:
  Bytes buffer_;
  std::size_t read_ = 0;  ///< consumed prefix of buffer_
  std::uint64_t skipped_ = 0;
};

}  // namespace gridpipe::comm::wire
