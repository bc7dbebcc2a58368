#include "core/stream_core.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace gridpipe::core {

template <class Item>
StreamCore<Item>::StreamCore(const char* who, std::size_t num_stages,
                             std::size_t window, double time_scale,
                             obs::Sinks obs, std::size_t lanes,
                             std::size_t flight_events,
                             std::function<void()> wake)
    : who_(who),
      wake_(std::move(wake)),
      window_(window != 0 ? window
                          : std::max<std::size_t>(4, 2 * num_stages)),
      time_scale_(time_scale),
      obs_(obs),
      start_(Clock::now()) {
  // NaN or inf would reach duration_cast in every emulated sleep.
  if (!std::isfinite(time_scale_) || time_scale_ <= 0.0) {
    throw std::invalid_argument(std::string(who_) +
                                ": time_scale must be finite and > 0");
  }
  obs_metrics_.bind(obs_.metrics);
  try {
    recorder_ = obs::FlightRecorder(lanes, flight_events);
  } catch (const std::runtime_error&) {
    // mmap failure: run without the forensic ring (every handle inert).
  }
  util::MutexLock lock(mutex_);
  ctl_flight_ = recorder_.ring(0);
}

template <class Item>
void StreamCore<Item>::begin(std::string initial_mapping) {
  util::MutexLock lock(mutex_);
  if (active_) {
    throw std::logic_error(std::string(who_) + ": a stream is already active");
  }
  active_ = true;
  closed_ = false;
  error_ = nullptr;
  pushed_ = admitted_ = completed_ = deduped_ = 0;
  pending_.clear();
  admit_time_.clear();
  out_.reset();
  // Metrics restart with the virtual clock (their time series require
  // monotonic timestamps).
  metrics_ = sim::SimMetrics{};
  mapping_ = initial_mapping;
  initial_mapping_ = std::move(initial_mapping);
  start_ = Clock::now();
}

template <class Item>
void StreamCore<Item>::push(Item item) {
  {
    util::MutexLock lock(mutex_);
    if (!active_ || closed_) {
      throw std::logic_error(std::string(who_) + ": push on a closed stream");
    }
    pending_.emplace_back(pushed_++, std::move(item));
    if (obs_metrics_.items_pushed) obs_metrics_.items_pushed->add(1);
  }
  if (wake_) wake_();
}

template <class Item>
void StreamCore<Item>::close() {
  {
    util::MutexLock lock(mutex_);
    if (!closed_) ctl_flight_.record(obs::FlightKind::kClose, virtual_now());
    closed_ = true;
  }
  done_cv_.notify_all();
  if (wake_) wake_();
}

template <class Item>
bool StreamCore<Item>::active() const {
  util::MutexLock lock(mutex_);
  return active_;
}

template <class Item>
void StreamCore<Item>::check_finishable() const {
  util::MutexLock lock(mutex_);
  if (!active_) {
    throw std::logic_error(std::string(who_) + ": no active stream to finish");
  }
  if (!closed_) {
    throw std::logic_error(std::string(who_) +
                           ": stream_close() before stream_finish()");
  }
}

template <class Item>
RunReport StreamCore<Item>::finish(std::vector<control::EpochRecord> epochs) {
  util::MutexLock lock(mutex_);
  active_ = false;
  if (error_) std::rethrow_exception(error_);
  const double wall =
      std::chrono::duration<double>(Clock::now() - start_).count();
  RunReport report;
  // Every executor thread is joined by now; move the O(items) series.
  // begin() resets the moved-from member.
  finalize_stream_report(report, completed_, wall, time_scale_,
                         std::move(metrics_), std::move(epochs),
                         std::move(initial_mapping_), mapping_);
  report.items_deduped = deduped_;
  return report;
}

template <class Item>
bool StreamCore<Item>::can_admit() const {
  util::MutexLock lock(mutex_);
  return !pending_.empty() && admitted_ - completed_ < window_;
}

template <class Item>
auto StreamCore<Item>::admit_next() -> std::optional<Admitted> {
  util::MutexLock lock(mutex_);
  if (pending_.empty() || admitted_ - completed_ >= window_) {
    return std::nullopt;
  }
  Admitted next{pending_.front().first, std::move(pending_.front().second)};
  pending_.pop_front();
  const double vnow = virtual_now();
  admit_time_[next.seq] = vnow;
  ++admitted_;
  ctl_flight_.record(obs::FlightKind::kAdmit, vnow, 0, next.seq);
  if (admitted_ - completed_ >= window_) {
    // The informative credit edge: the window just filled (back-pressure
    // starts here), not every in-flight delta.
    ctl_flight_.record(obs::FlightKind::kCredit, vnow, 0,
                       admitted_ - completed_, window_);
  }
  obs::record_span(obs_.tracer, obs::SpanKind::kAdmit, "admit", vnow, 0.0, 0,
                   next.seq);
  return next;
}

template <class Item>
bool StreamCore<Item>::complete(std::uint64_t seq, Item output) {
  {
    util::MutexLock lock(mutex_);
    const double vnow = virtual_now();
    if (!out_.insert(seq, Done{std::move(output), vnow})) {
      note_duplicate_locked(seq, vnow);
      return false;
    }
    double created_at = 0.0;
    if (auto it = admit_time_.find(seq); it != admit_time_.end()) {
      created_at = it->second;
      admit_time_.erase(it);
    }
    ++completed_;
    metrics_.on_item_completed(seq, vnow, created_at);
    ctl_flight_.record(obs::FlightKind::kComplete, vnow, 0, seq);
    obs::record_span(obs_.tracer, obs::SpanKind::kItem, "item", created_at,
                     vnow - created_at, 0, seq);
    if (obs_metrics_.items_completed) {
      obs_metrics_.items_completed->add(1);
      obs_metrics_.item_latency->record(vnow - created_at);
    }
  }
  // Wake a controller waiting for end-of-stream.
  done_cv_.notify_all();
  return true;
}

template <class Item>
void StreamCore<Item>::note_duplicate(std::uint64_t seq) {
  util::MutexLock lock(mutex_);
  note_duplicate_locked(seq, virtual_now());
}

template <class Item>
std::uint64_t StreamCore<Item>::deduped() const {
  util::MutexLock lock(mutex_);
  return deduped_;
}

template <class Item>
void StreamCore<Item>::note_duplicate_locked(std::uint64_t seq, double vnow) {
  ++deduped_;
  ctl_flight_.record(obs::FlightKind::kDedup, vnow, 0, seq);
  if (obs_metrics_.items_deduped) obs_metrics_.items_deduped->add(1);
}

template <class Item>
std::optional<Item> StreamCore<Item>::try_pop() {
  util::MutexLock lock(mutex_);
  if (!out_.ready()) return std::nullopt;
  const std::uint64_t seq = out_.next();
  Done done = out_.pop();
  if (obs_.tracer) {
    obs::record_span(obs_.tracer, obs::SpanKind::kWait, "wait", done.at,
                     virtual_now() - done.at, 0, seq);
  }
  return std::move(done.item);
}

template <class Item>
void StreamCore<Item>::fail(std::exception_ptr error) {
  {
    util::MutexLock lock(mutex_);
    if (!error_) error_ = std::move(error);
  }
  done_cv_.notify_all();
  if (wake_) wake_();
}

template <class Item>
bool StreamCore<Item>::done() const {
  util::MutexLock lock(mutex_);
  return done_locked();
}

template <class Item>
void StreamCore<Item>::wait_done() {
  util::MutexLock lock(mutex_);
  while (!done_locked()) done_cv_.wait(mutex_);
}

template <class Item>
bool StreamCore<Item>::wait_done_until(Clock::time_point deadline) {
  util::MutexLock lock(mutex_);
  while (!done_locked()) {
    if (done_cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
      return done_locked();
    }
  }
  return true;
}

template <class Item>
void StreamCore<Item>::on_service(std::size_t stage, double duration) {
  util::MutexLock lock(mutex_);
  metrics_.on_service(stage, duration);
}

template <class Item>
void StreamCore<Item>::on_remap(double pause, std::string to) {
  util::MutexLock lock(mutex_);
  const double vnow = virtual_now();
  ctl_flight_.record(obs::FlightKind::kRemap, vnow);
  metrics_.on_remap(vnow, pause, mapping_, to);
  mapping_ = std::move(to);
}

template <class Item>
void StreamCore<Item>::flight(obs::FlightKind kind, double time,
                              std::uint32_t arg, std::uint64_t a,
                              std::uint64_t b) {
  util::MutexLock lock(mutex_);
  ctl_flight_.record(kind, time, arg, a, b);
}

template <class Item>
util::Json StreamCore<Item>::status(const char* substrate) const {
  util::Json doc = util::Json::object();
  doc["substrate"] = substrate;
  doc["virtual_time"] = virtual_now();
  doc["window"] = static_cast<std::uint64_t>(window_);
  util::MutexLock lock(mutex_);
  doc["mapping"] = mapping_;
  doc["pushed"] = pushed_;
  doc["admitted"] = admitted_;
  doc["completed"] = completed_;
  // One lock, one snapshot: every completion was admitted first.
  doc["in_flight"] = admitted_ - completed_;
  doc["pending"] = static_cast<std::uint64_t>(pending_.size());
  doc["buffered_out"] = static_cast<std::uint64_t>(out_.buffered());
  doc["next_out"] = out_.next();
  doc["closed"] = closed_;
  return doc;
}

template <class Item>
double StreamCore<Item>::virtual_now() const {
  return std::chrono::duration<double>(Clock::now() - start_).count() /
         time_scale_;
}

template class StreamCore<std::any>;
template class StreamCore<std::vector<std::byte>>;

}  // namespace gridpipe::core
