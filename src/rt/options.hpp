#pragma once
// rt::RuntimeOptions — the one configuration every substrate takes. The
// rt factory hands it to the simulator session and, unchanged, to the
// live executors (core::Executor, core::DistributedExecutor,
// proc::ProcessExecutor), so each knob has a single default. Declared
// apart from rt/runtime.hpp so the executors can take it without
// depending on the runtime layer above them.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "control/adaptation_config.hpp"
#include "obs/config.hpp"
#include "recover/supervisor.hpp"
#include "sched/mapping.hpp"
#include "sim/drivers.hpp"

namespace gridpipe::rt {

struct RuntimeOptions {
  /// Real seconds per virtual second on the live runtimes (the simulator
  /// runs in pure virtual time and ignores it). Must be finite and > 0.
  double time_scale = 0.01;
  /// Max items in flight (0 = auto: 2·Ns, min 4).
  std::size_t window = 0;
  /// Shared control-loop knobs; adapt.epoch = 0 disables adaptation on
  /// every substrate.
  control::AdaptationConfig adapt{.epoch = 0.0};
  /// Stretch stage execution to the modeled duration (live runtimes).
  /// When false the user function's real cost is the service time
  /// (dedicated-cluster mode).
  bool emulate_compute = true;
  /// Probe-noise RNG seed on the threads runtime.
  std::uint64_t seed = 1;
  /// Process runtime: payload capacity, in bytes, of the shared-memory
  /// ring per ordered worker pair (mapped before fork) that carries
  /// worker→worker hops instead of the parent's socket relay. A frame
  /// falls back to the socket path whenever its ring is full, and every
  /// frame does when the mesh cannot be mapped (e.g. a capacity whose
  /// size overflows), so correctness never depends on the rings.
  std::size_t shm_ring_bytes = std::size_t{1} << 18;
  /// Deployment-time mapping override. Unset: the planner's t = 0 pick
  /// (control::choose_mapping with `adapt`'s mapper knobs). The sim
  /// runtime plans per its driver and ignores an override; executors
  /// constructed directly take their mapping as an argument instead.
  std::optional<sched::Mapping> initial_mapping{};
  /// Telemetry sinks (default: disabled, near-zero overhead). Set via
  /// obs::Config::full() to collect per-item spans and uniform metrics;
  /// the sinks are shared across every session this runtime opens, and
  /// Session::report() snapshots the registry into RunReport::obs_metrics.
  /// Dist and process workers ship their spans to the controller side,
  /// the only place the sinks are touched.
  obs::Config obs{};
  /// Process runtime: virtual seconds between child heartbeat records
  /// (<= 0 disables heartbeats).
  double health_interval = 5.0;
  /// Process runtime: a worker silent (or heartbeating without progress)
  /// for this much virtual time is flagged stalled (<= 0: off).
  double stall_after = 15.0;
  /// Process runtime: fault tolerance (replay journal, output dedup,
  /// crash-triggered remap, respawn supervision) plus the fault plan to
  /// inject into workers. Off by default: a worker death fails the run.
  recover::RecoveryOptions recovery{};

  // --- simulator-only knobs -------------------------------------------
  /// Which experiment driver the sim session replays the stream under.
  /// kAdaptive/kOracle fall back to kStaticOptimal when adapt.epoch = 0.
  sim::DriverKind sim_driver = sim::DriverKind::kAdaptive;
  /// Arrival process, probe schedule, service model, sim seed.
  /// num_items and window are overridden per session.
  sim::SimConfig sim_config{};
};

}  // namespace gridpipe::rt
