#pragma once
// Shared types of the wall-clock benchmark: what one workload hands the
// session driver (a seeded feed of inputs plus the reference check of
// every output), and what one driven session ("leg") hands back.
//
// The driver is single-threaded and talks to gridpipe only through the
// public rt::make_runtime / rt::Session API: push, try_pop, close and
// report. All driver timestamps are seconds on one steady clock.

#include <any>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline_spec.hpp"
#include "grid/grid.hpp"
#include "obs/trace.hpp"
#include "rt/runtime.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using namespace gridpipe;

/// Seconds since the benchmark process started (one shared epoch, so
/// driver spans from every leg sit on one time base).
double now_s();

/// One benchmark-side span around a call into a layer.
struct DriverSpan {
  const char* name = "";  ///< make_runtime | open | push | try_pop | close | report
  double start = 0.0;     ///< now_s()
  double end = 0.0;
  std::uint64_t item = obs::kNoItem;
};

/// What a workload feeds one session.
struct Feed {
  /// Seeded input number i (the same seed and i give the same item).
  std::function<std::any(std::uint64_t)> make;
  /// True when `out` is exactly the reference transform of input i.
  std::function<bool(std::uint64_t, const std::any&)> check;
  /// Open loop: scheduled send offsets in seconds from the first push,
  /// ascending. Empty: closed loop with `max_outstanding` items pushed
  /// but not yet popped.
  std::vector<double> due;
  std::size_t max_outstanding = 0;
  /// Closed loop: push until this many items (0 = no cap) ...
  std::uint64_t max_items = 0;
  /// ... or until this many seconds after the first push (0 = no cap).
  double budget_s = 0.0;
};

/// Everything one driven session yields.
struct Leg {
  std::string substrate;
  bool traced = false;
  std::uint64_t attempted = 0;  ///< items pushed
  std::uint64_t delivered = 0;  ///< items popped equal to the reference
  std::uint64_t mismatched = 0; ///< items popped but wrong (or surplus)
  std::string error;            ///< what the session threw, if it did
  double open_s = 0.0;          ///< make_runtime entry -> open return
  double first_push = 0.0;
  double last_pop = 0.0;
  double drain_s = 0.0;         ///< close -> report return
  double cpu_s = 0.0;           ///< rusage self + reaped children
  std::uint64_t pop_calls = 0;
  std::uint64_t pop_hits = 0;
  std::vector<double> latency_s;  ///< per delivered item, from due/push
  std::vector<double> push_s;     ///< duration of every push call
  std::vector<double> push_at;    ///< push call start, per item
  std::vector<double> lag_s;      ///< open loop: actual - scheduled push
  std::uint64_t backlog_max = 0;  ///< max pushed-but-not-popped
  bool sustained = true;          ///< open loop: backlog did not grow
  core::RunReport report;
  std::vector<DriverSpan> spans;        ///< traced legs only
  std::vector<obs::TraceEvent> events;  ///< program spans, traced legs only

  std::uint64_t failed() const { return attempted - delivered; }
  double items_per_s() const {
    return last_pop > first_push ? delivered / (last_pop - first_push) : 0.0;
  }
};

/// Runs one session of `kind` through the whole feed. Never throws for a
/// failing session: the failure is recorded in the Leg.
Leg run_leg(rt::RuntimeKind kind, const grid::Grid& grid,
            const core::PipelineSpec& spec, rt::RuntimeOptions options,
            const Feed& feed, bool traced);

/// One set-up cycle: returns the seconds from make_runtime entry to
/// open return, then pushes `items` items and drains and checks them so
/// the session is real. Throws on a wrong output or a failing session.
double setup_cycle(rt::RuntimeKind kind, const grid::Grid& grid,
                   const core::PipelineSpec& spec,
                   const rt::RuntimeOptions& options, const Feed& feed,
                   std::uint64_t items);

/// Percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double pct(std::vector<double> v, double p);

/// A metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
