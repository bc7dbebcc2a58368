#pragma once
// The three workloads (paced, adapt, churn) and the metrics each
// run prints. See README.md in this directory for why each exists.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check mode: a few items per leg, same metric names.
  bool tiny = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double time_scale = 0.0;  ///< real seconds per virtual second
  Metrics metrics;
  std::vector<Leg> legs;  ///< traced runs keep theirs for the span file
  std::vector<std::string> notes;  ///< one line per failed leg
};

const std::vector<std::string>& workload_names();

/// Runs one workload end to end (trace = false) or traced (trace = true).
RunResult run_workload(const RunConfig& config);

// ---------------------------------------------------------- layer legs
// Timed calls into single public layer functions, on a workload's own
// items (layers.cpp).

/// ns per KiB of ItemCodec encode_into + decode over `items`.
double codec_ns_per_kib(const core::ItemCodec& codec,
                        const std::vector<std::any>& items);
/// ns per frame of comm::wire encode_task_into + decode_task.
double wire_ns_per_frame(const core::ItemCodec& codec,
                         const std::vector<std::any>& items);
/// ns per KiB of proc::ShmRing push + pop of the task frames.
double ring_ns_per_kib(const core::ItemCodec& codec,
                       const std::vector<std::any>& items,
                       std::size_t ring_bytes);
/// ms per control::choose_mapping call on `grid`'s t = 0 estimate.
double decide_ms(const grid::Grid& grid, const sched::PipelineProfile& profile,
                 const control::AdaptationConfig& adapt);

}  // namespace perfbench
