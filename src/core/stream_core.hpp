#pragma once
// core::StreamCore — the caller-facing stream state of every live
// executor, kept once: the lifecycle (begin -> push -> close -> finish)
// and its start clock, credit-window admission, ordered exactly-once
// output, per-item latency bookkeeping, first-error capture, the common
// status fields and the run report. The threads, dist and process
// executors keep only their transport and worker loops and call these
// hooks. Item is std::any for the in-process runtime and Bytes for the
// serialized ones.
//
// Admission: push() assigns the next seq and queues the item;
// admit_next() hands out the oldest queued item once the credit window
// has room and records its admission. Who calls admit_next() is the
// executor's choice — the threads runtime admits on the pushing or
// completing thread, dist and process on their controller thread.
// Such a controller waits on its own event source (a mailbox, a poll
// set), so the core takes a wake hook at construction: push(), close()
// and fail() call it after releasing the core's mutex, and the
// controller learns of every state change it waits on from the event
// itself, never from a timer. The threads runtime passes none.
//
// Completion: complete() files an output under its seq and frees its
// credit; a seq that already completed is rejected as a duplicate, so
// delivery through try_pop() is exactly once and in input order on
// every substrate.
//
// Lane 0 of the flight recorder (the control lane) belongs to the core:
// every lane-0 record goes through flight(), which serializes writers
// from any thread. Lanes 1 + n are the executor's workers.
//
// Thread-safe: one internal mutex guards all of it. No hook calls back
// into the executor, so hooks may run under executor locks (lock order:
// executor locks first, then the core's).

#include <any>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/epoch_record.hpp"
#include "core/ordered_buffer.hpp"
#include "core/report.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "sim/metrics.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::core {

template <class Item>
class StreamCore {
 public:
  using Clock = std::chrono::steady_clock;

  struct Admitted {
    std::uint64_t seq = 0;
    Item item;
  };

  /// `who` prefixes every lifecycle error ("Executor: ..."). window 0 =
  /// auto (2·Ns, min 4). The flight recorder gets `lanes` lanes of
  /// `flight_events` each (0 = off; mmap failure also means off).
  /// `wake` (may be empty) runs after every push(), close() and fail(),
  /// outside the core's mutex; it must not block.
  /// Throws std::invalid_argument unless time_scale is finite and > 0.
  StreamCore(const char* who, std::size_t num_stages, std::size_t window,
             double time_scale, obs::Sinks obs, std::size_t lanes,
             std::size_t flight_events, std::function<void()> wake = {});

  // ---- lifecycle ----------------------------------------------------
  /// Resets every per-stream field and restarts the clock. Throws
  /// std::logic_error while a stream is active.
  void begin(std::string initial_mapping);
  /// Assigns the next seq and queues the item for admission. Throws
  /// std::logic_error when no stream is open or it was closed.
  void push(Item item);
  void close();
  bool active() const;
  /// Throws std::logic_error unless a stream is active and closed.
  void check_finishable() const;
  /// Ends the stream: rethrows the captured error, else builds the
  /// report. Call once the executor's threads are joined.
  RunReport finish(std::vector<control::EpochRecord> epochs);

  // ---- admission and completion ---------------------------------------
  /// True when an item is queued and the window has credit for it.
  bool can_admit() const;
  /// Pops the oldest queued item if the window has credit, recording its
  /// admission (kAdmit span and flight record, kCredit when the window
  /// fills).
  std::optional<Admitted> admit_next();
  /// Files `output` under seq and frees one credit. Returns false (and
  /// counts a duplicate) when seq already completed.
  bool complete(std::uint64_t seq, Item output);
  /// Counts a duplicate delivery the executor dropped itself.
  void note_duplicate(std::uint64_t seq);
  /// Duplicate deliveries dropped this stream.
  std::uint64_t deduped() const;
  /// Next output in input order, or nullopt if it has not completed yet.
  std::optional<Item> try_pop();

  // ---- errors and end of stream ----------------------------------------
  /// Captures the first error; it ends the stream and finish() rethrows.
  void fail(std::exception_ptr error);
  /// A failure was captured, or the stream is closed and fully drained.
  bool done() const;
  void wait_done();
  /// Waits for done() until `deadline`; returns done().
  bool wait_done_until(Clock::time_point deadline);

  // ---- metrics, control lane, status -------------------------------------
  void on_service(std::size_t stage, double duration);
  /// Records a live remap: metrics event, kRemap flight record, and the
  /// mapping that status() and the report show.
  void on_remap(double pause, std::string to);
  void flight(obs::FlightKind kind, double time, std::uint32_t arg = 0,
              std::uint64_t a = 0, std::uint64_t b = 0);
  /// The common status fields, read as one snapshot.
  util::Json status(const char* substrate) const;

  double virtual_now() const;
  Clock::time_point start() const noexcept { return start_; }
  const obs::StandardMetrics& obs_metrics() const noexcept {
    return obs_metrics_;
  }
  const obs::FlightRecorder& recorder() const noexcept { return recorder_; }

 private:
  struct Done {
    Item item;
    double at = 0.0;  ///< virtual completion time (feeds the kWait span)
  };

  bool done_locked() const GRIDPIPE_REQUIRES(mutex_) {
    return error_ != nullptr || (closed_ && completed_ == pushed_);
  }
  void note_duplicate_locked(std::uint64_t seq, double vnow)
      GRIDPIPE_REQUIRES(mutex_);

  const char* who_;
  std::function<void()> wake_;
  std::size_t window_;
  double time_scale_;
  obs::Sinks obs_;
  obs::StandardMetrics obs_metrics_;
  obs::FlightRecorder recorder_;
  /// Written by begin() before any executor thread starts.
  Clock::time_point start_;

  mutable util::Mutex mutex_;
  util::CondVar done_cv_;
  obs::FlightRing ctl_flight_ GRIDPIPE_GUARDED_BY(mutex_);
  bool active_ GRIDPIPE_GUARDED_BY(mutex_) = false;
  bool closed_ GRIDPIPE_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ GRIDPIPE_GUARDED_BY(mutex_);
  std::uint64_t pushed_ GRIDPIPE_GUARDED_BY(mutex_) = 0;
  std::uint64_t admitted_ GRIDPIPE_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ GRIDPIPE_GUARDED_BY(mutex_) = 0;
  std::uint64_t deduped_ GRIDPIPE_GUARDED_BY(mutex_) = 0;
  /// Pushed items waiting for credit, in input order.
  std::deque<std::pair<std::uint64_t, Item>> pending_
      GRIDPIPE_GUARDED_BY(mutex_);
  /// Virtual admission time per in-flight item (latency metrics).
  std::map<std::uint64_t, double> admit_time_ GRIDPIPE_GUARDED_BY(mutex_);
  BasicOrderedDedupBuffer<Done> out_ GRIDPIPE_GUARDED_BY(mutex_);
  sim::SimMetrics metrics_ GRIDPIPE_GUARDED_BY(mutex_);
  std::string initial_mapping_ GRIDPIPE_GUARDED_BY(mutex_);
  std::string mapping_ GRIDPIPE_GUARDED_BY(mutex_);
};

extern template class StreamCore<std::any>;
extern template class StreamCore<std::vector<std::byte>>;

}  // namespace gridpipe::core
