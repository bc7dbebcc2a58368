// The single-threaded session driver: push, try_pop, close, report.
//
// Polling policy (fixed, because it changes the result): after a pass
// that neither pushed nor popped anything, the driver yields and polls
// again while the last progress is under kSpinSeconds old, and sleeps
// kNap between polls after that. Spinning alone keeps a core busy
// for the whole leg, which on a shared 4-CPU host takes CPU from the
// workers; sleeping alone adds a timer round to every item.

#include <sys/resource.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

/// A session that shows no progress for this long is declared failed.
constexpr double kStallSeconds = 20.0;
constexpr double kSpinSeconds = 50e-6;
constexpr auto kNap = std::chrono::microseconds(20);

double cpu_seconds() {
  auto seconds = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  };
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds(self) + seconds(children);
}

/// Open loop: the backlog grew if the last quarter of the schedule saw
/// more than twice the first half's mean backlog (plus a small slack for
/// substrates whose idle latency alone holds a few items).
bool backlog_held(const std::vector<double>& backlog) {
  const std::size_t n = backlog.size();
  if (n < 8) return true;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t i = 0; i < n / 2; ++i) early += backlog[i];
  for (std::size_t i = n - n / 4; i < n; ++i) late += backlog[i];
  early /= static_cast<double>(n / 2);
  late /= static_cast<double>(n / 4);
  return late <= 2.0 * early + 16.0;
}

class Driver {
 public:
  Driver(rt::Session& session, const Feed& feed, Leg& leg)
      : session_(session), feed_(feed), leg_(leg) {}

  void run() {
    const bool open_loop = !feed_.due.empty();
    const double t0 = now_s();
    leg_.first_push = t0;
    double last_progress = t0;
    std::vector<double> backlog_at_push;
    for (;;) {
      bool progress = false;
      if (!closed_) {
        if (open_loop) {
          while (pushed_ < feed_.due.size() &&
                 t0 + feed_.due[pushed_] <= now_s()) {
            backlog_at_push.push_back(static_cast<double>(pushed_ - popped_));
            push(t0 + feed_.due[pushed_]);
            progress = true;
          }
          if (pushed_ == feed_.due.size()) close();
        } else {
          while (!input_done(t0) &&
                 (feed_.max_outstanding == 0 ||
                  pushed_ - popped_ < feed_.max_outstanding)) {
            push(-1.0);
            progress = true;
          }
          if (input_done(t0)) close();
        }
      }
      while (pop()) progress = true;
      leg_.backlog_max = std::max(leg_.backlog_max, pushed_ - popped_);
      if (closed_ && popped_ >= pushed_) break;
      const double now = now_s();
      if (progress) {
        last_progress = now;
      } else {
        if (now - last_progress > kStallSeconds) {
          throw std::runtime_error("no output for " +
                                   std::to_string(kStallSeconds) + " s");
        }
        if (now - last_progress < kSpinSeconds) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(kNap);
        }
      }
    }
    if (open_loop) leg_.sustained = backlog_held(backlog_at_push);
    const double t_report = now_s();
    leg_.report = session_.report();
    span("report", t_report);
    leg_.drain_s = now_s() - close_at_;
    // Exactly once: nothing may come out after the last expected item.
    while (session_.try_pop()) ++leg_.mismatched;
  }

 private:
  bool input_done(double t0) const {
    return (feed_.max_items != 0 && pushed_ >= feed_.max_items) ||
           (feed_.budget_s > 0.0 && now_s() - t0 >= feed_.budget_s);
  }

  void span(const char* name, double start,
            std::uint64_t item = obs::kNoItem) {
    if (leg_.traced) leg_.spans.push_back({name, start, now_s(), item});
  }

  /// `due` < 0: closed loop, the item's clock starts at its push call.
  void push(double due) {
    const std::uint64_t i = pushed_;
    std::any item = feed_.make(i);
    const double a = now_s();
    session_.push(std::move(item));
    const double b = now_s();
    span("push", a, i);
    leg_.push_s.push_back(b - a);
    leg_.push_at.push_back(a);
    if (due >= 0.0) leg_.lag_s.push_back(a - due);
    origin_.push_back(due >= 0.0 ? due : a);
    ++pushed_;
    ++leg_.attempted;
  }

  bool pop() {
    const double a = now_s();
    std::optional<std::any> out = session_.try_pop();
    ++leg_.pop_calls;
    if (!out) return false;
    const double b = now_s();
    span("try_pop", a, popped_);
    ++leg_.pop_hits;
    if (popped_ < pushed_ && feed_.check(popped_, *out)) {
      ++leg_.delivered;
      leg_.latency_s.push_back(b - origin_[popped_]);
      leg_.last_pop = b;
    } else {
      ++leg_.mismatched;
    }
    ++popped_;
    return true;
  }

  void close() {
    const double a = now_s();
    session_.close();
    span("close", a);
    close_at_ = a;
    closed_ = true;
  }

  rt::Session& session_;
  const Feed& feed_;
  Leg& leg_;
  std::vector<double> origin_;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
  bool closed_ = false;
  double close_at_ = 0.0;
};

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Leg run_leg(rt::RuntimeKind kind, const grid::Grid& grid,
            const core::PipelineSpec& spec, rt::RuntimeOptions options,
            const Feed& feed, bool traced) {
  Leg leg;
  leg.substrate = rt::to_string(kind);
  leg.traced = traced;
  if (traced) options.obs = obs::Config::full();
  const double cpu0 = cpu_seconds();
  {
    std::unique_ptr<rt::Runtime> runtime;
    std::unique_ptr<rt::Session> session;
    try {
      const double t_make = now_s();
      runtime = rt::make_runtime(kind, grid, spec, options);
      if (traced) leg.spans.push_back({"make_runtime", t_make, now_s()});
      const double t_open = now_s();
      session = runtime->open();
      if (traced) leg.spans.push_back({"open", t_open, now_s()});
      leg.open_s = now_s() - t_make;
      Driver(*session, feed, leg).run();
    } catch (const std::exception& e) {
      leg.error = e.what();
    }
    // Destroying the session joins its threads and reaps its processes,
    // so their CPU time is in RUSAGE_CHILDREN below.
    session.reset();
    runtime.reset();
  }
  leg.cpu_s = cpu_seconds() - cpu0;
  if (traced) leg.events = options.obs.tracer->events();
  return leg;
}

double setup_cycle(rt::RuntimeKind kind, const grid::Grid& grid,
                   const core::PipelineSpec& spec,
                   const rt::RuntimeOptions& options, const Feed& feed,
                   std::uint64_t items) {
  const double t0 = now_s();
  auto runtime = rt::make_runtime(kind, grid, spec, options);
  auto session = runtime->open();
  const double seconds = now_s() - t0;
  for (std::uint64_t i = 0; i < items; ++i) session->push(feed.make(i));
  session->close();
  session->report();
  for (std::uint64_t i = 0; i < items; ++i) {
    auto out = session->try_pop();
    if (!out || !feed.check(i, *out)) {
      throw std::runtime_error(std::string("set-up cycle on ") +
                               rt::to_string(kind) + ": wrong output");
    }
  }
  return seconds;
}

}  // namespace perfbench
