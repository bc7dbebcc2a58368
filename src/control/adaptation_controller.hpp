#pragma once
// AdaptationController — the one implementation of the paper's epoch loop.
//
// Each epoch the controller: asks the host for fresh probes, builds a
// ResourceEstimate from its MonitoringRegistry (or ground truth in oracle
// mode), gates the expensive mapping search behind the kOnChange trigger,
// runs choose_mapping, passes the candidate through the AdaptationPolicy
// (min-gain, cost–benefit, hysteresis), and tells the host to remap when
// the decision says so. Every epoch is recorded as an EpochRecord so all
// runtimes expose the same diagnostics timeline.
//
// The host — simulator driver, threaded Executor, DistributedExecutor or
// proc::ProcessExecutor — keeps what is genuinely substrate-specific: the
// notion of time, the deployed mapping, and the mechanics of a live
// remap. The controller owns everything else, including the registry the
// host feeds observations into (record_observation is thread-safe; the
// threaded runtime calls it from worker threads).

#include <vector>

#include "control/adaptation_config.hpp"
#include "control/epoch_record.hpp"
#include "grid/grid.hpp"
#include "obs/sinks.hpp"
#include "sched/exhaustive.hpp"  // sched::MapperResult
#include "sched/mapping.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::control {

/// The substrate interface the controller drives. Implementations must
/// tolerate apply_remap being called from the thread that calls
/// run_epoch (the controller holds no locks across host calls).
class AdaptationHost {
 public:
  virtual ~AdaptationHost() = default;

  /// Current virtual time in seconds.
  virtual double virtual_now() const = 0;
  /// The mapping currently executing.
  virtual sched::Mapping deployed_mapping() const = 0;
  /// Live remap to `to`, freezing the pipeline for `pause` virtual
  /// seconds of migration.
  virtual void apply_remap(const sched::Mapping& to, double pause) = 0;
  /// Push fresh NWS-style probe observations into the controller's
  /// registry (via record_observation). Called at the top of each epoch;
  /// hosts whose observations arrive passively may do nothing.
  virtual void record_probes(double virtual_now) = 0;
};

/// Single mapping decision with the configured mapper (kAuto picks
/// exhaustive for small spaces, then DP, then local search) and optional
/// replication improvement.
sched::MapperResult choose_mapping(const sched::PerfModel& model,
                                   const sched::PipelineProfile& profile,
                                   const sched::ResourceEstimate& est,
                                   MapperKind mapper, bool pin_first_stage,
                                   std::size_t max_total_replicas);

class AdaptationController {
 public:
  /// kPolicy: monitor-driven estimates gated through AdaptationPolicy.
  /// kOracle: ground-truth estimates every epoch, free instantaneous
  /// remaps on any modeled improvement (the upper-bound driver).
  enum class Mode { kPolicy, kOracle };

  /// `grid` doubles as the catalog for monitor-based estimates and the
  /// ground truth for oracle mode. All references must outlive the
  /// controller. `obs` sinks (both nullable) receive epoch/phase spans
  /// and the remap/epoch counters; phase wall timings additionally land
  /// in each EpochRecord whether or not sinks are attached.
  AdaptationController(const grid::Grid& grid,
                       const sched::PipelineProfile& profile,
                       const AdaptationConfig& config, AdaptationHost& host,
                       Mode mode = Mode::kPolicy, obs::Sinks obs = {});

  /// Runs one monitor → forecast → map → gate → remap epoch at the
  /// host's current virtual time and returns its record. Call from one
  /// controlling thread at a time.
  EpochRecord run_epoch();

  /// Runs a forced, ungated decision in response to a grid-churn event
  /// (`why` must be kNodeLoss or kNodeArrival; `event` is a short
  /// human-readable cause like "node 2 lost"). Bypasses both the change
  /// gate and the adaptation policy — a dead node makes the deployed
  /// mapping worthless no matter what hysteresis says — and remaps
  /// whenever the candidate differs from the deployed mapping. Call
  /// on_node_loss / on_node_arrival first so the estimate is masked.
  EpochRecord run_churn_epoch(AdaptationTrigger why, const std::string& event);

  /// Marks a grid node (un)available. Unavailable nodes get zero speed
  /// in every subsequent resource estimate, so all mapping searches —
  /// churn-forced and periodic alike — route around them. Call from the
  /// same thread that runs epochs.
  void on_node_loss(std::size_t node);
  void on_node_arrival(std::size_t node);
  bool node_available(std::size_t node) const noexcept;
  std::size_t nodes_available() const noexcept;

  /// Initial mapping for a deployment-time resource state.
  sched::MapperResult plan(const sched::ResourceEstimate& est) const;

  /// Thread-safe observation feed into the controller's registry. The
  /// timestamp is sampled from the host's clock while holding the
  /// registry lock, so concurrent recorders (worker threads vs the epoch
  /// loop's probes) can never insert out of order into a sensor window.
  void record_observation(monitor::SensorId id, double value);

  /// Unsynchronized registry access for single-threaded hosts (the DES
  /// wires PipelineSim's passive observations straight into it). Escapes
  /// the thread-safety analysis on purpose: handing out a reference to
  /// the guarded member is only sound because those hosts never run a
  /// second thread.
  monitor::MonitoringRegistry& registry() noexcept
      GRIDPIPE_NO_THREAD_SAFETY_ANALYSIS {
    return registry_;
  }

  /// Epoch timeline so far. Not synchronized against run_epoch — read it
  /// after the run (or from the controlling thread).
  const std::vector<EpochRecord>& epochs() const noexcept { return epochs_; }
  std::vector<EpochRecord> take_epochs() { return std::move(epochs_); }

  const sched::PerfModel& model() const noexcept { return model_; }
  const AdaptationConfig& config() const noexcept { return config_; }

 private:
  const grid::Grid& grid_;
  const sched::PipelineProfile& profile_;
  AdaptationConfig config_;
  AdaptationHost& host_;
  Mode mode_;
  obs::Sinks obs_;

  void apply_availability(sched::ResourceEstimate& est) const;

  sched::PerfModel model_;
  sched::AdaptationPolicy policy_;
  sched::ResourceChangeGate gate_;
  double last_decision_time_ = 0.0;
  std::vector<EpochRecord> epochs_;
  /// available_[n] == 0 → node n is masked out of estimates. Empty until
  /// the first churn event (the common case pays nothing).
  std::vector<char> available_;

  mutable util::Mutex registry_mutex_;
  monitor::MonitoringRegistry registry_ GRIDPIPE_GUARDED_BY(registry_mutex_);
};

}  // namespace gridpipe::control
