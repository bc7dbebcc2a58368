#pragma once
// The shared adaptation configuration: every runtime that runs the paper's
// monitor → forecast → map → gate → remap loop (the DES driver and the
// threads, dist and process executors) embeds one AdaptationConfig
// instead of carrying its own copy of the knobs.

#include <cstddef>

#include "monitor/registry.hpp"
#include "sched/adaptation_policy.hpp"
#include "sched/perf_model.hpp"

namespace gridpipe::control {

/// Which mapping-search algorithm the controller runs each decision.
enum class MapperKind { kAuto, kExhaustive, kDpContiguous, kGreedy, kLocalSearch };

/// When does the controller run a full mapping decision?
///  kEveryEpoch — at every epoch tick (the baseline pattern).
///  kOnChange   — only when the ResourceChangeGate reports a significant
///                move since the last decision, or max_staleness elapsed;
///                quiet epochs cost one estimate build and no search.
///  kNodeLoss / kNodeArrival — event triggers, never configured as the
///                periodic policy: a host feeds the controller a churn
///                event (worker death, node join) and the controller runs
///                a forced, ungated decision via run_churn_epoch. They
///                exist in this enum so EpochRecord timelines name the
///                trigger uniformly ("node-loss" epochs sit between
///                "periodic" ones).
enum class AdaptationTrigger { kEveryEpoch, kOnChange, kNodeLoss,
                               kNodeArrival };

const char* to_string(MapperKind kind);
const char* to_string(AdaptationTrigger trigger);

/// One set of knobs for the whole adaptation pattern. Embedded by
/// sim::DriverOptions and rt::RuntimeOptions (which every live executor
/// takes).
struct AdaptationConfig {
  MapperKind mapper = MapperKind::kAuto;
  /// Virtual seconds between adaptation decisions. The simulator driver
  /// keeps this default; rt::RuntimeOptions overrides it to 0 for the
  /// live runtimes (0 = adaptation off, their historical opt-in).
  double epoch = 10.0;
  sched::AdaptationOptions policy{};
  sched::PerfModelOptions model{};
  monitor::RegistryOptions registry{};
  /// Pin stage 0 to the profile's source node during mapping search.
  bool pin_first_stage = false;
  /// If > num_stages, the mapper may replicate stages up to this total
  /// replica budget (0 = replication disabled).
  std::size_t max_total_replicas = 0;

  AdaptationTrigger trigger = AdaptationTrigger::kEveryEpoch;
  /// kOnChange: relative resource move that counts as significant.
  double change_threshold = 0.25;
  /// kOnChange: force a full decision after this many seconds without one.
  double max_staleness = 120.0;
};

}  // namespace gridpipe::control
