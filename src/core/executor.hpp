#pragma once
// The threaded runtime: executes a PipelineSpec on emulated grid nodes.
//
// Each grid node is a worker thread. Stage service is emulated by running
// the user function and then stretching the stage to its modeled duration
// (work / effective_speed, scaled by time_scale), so a laptop reproduces
// the timing behaviour of a heterogeneous, dynamically loaded grid — the
// manual heterogeneity emulation the reproduction bands call for.
// Transfers are emulated with delivery deadlines derived from the grid's
// link model. The adaptation epochs (run on a dedicated controller
// thread) delegate to the shared control::AdaptationController; the
// Executor implements its AdaptationHost interface (virtual_now /
// deployed_mapping / apply_remap / record_probes).
//
// The runtime is natively streaming: stream_begin() starts the workers
// and controller, stream_push() admits items under the credit window on
// the pushing thread (excess queues until a completing worker frees
// credit and admits it), stream_try_pop() hands outputs back in input
// order (Pipeline1for1 semantics), stream_close() marks end-of-stream
// and stream_finish() joins everything and returns the RunReport. The
// stream state itself lives in the shared core::StreamCore; this class
// keeps the worker queues, routing and the remap freeze. The batch run()
// entry point is a thin wrapper over one stream. One stream at a time;
// rt::make_runtime wraps all of this behind the uniform Session
// interface, and the executor takes the same rt::RuntimeOptions (seed
// drives its probe noise; the process and sim knobs are ignored).

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "control/adaptation_controller.hpp"
#include "core/pipeline_spec.hpp"
#include "core/report.hpp"
#include "core/stream_core.hpp"
#include "obs/flight.hpp"
#include "obs/sinks.hpp"
#include "rt/options.hpp"
#include "sched/replica_router.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::core {

class Executor : private control::AdaptationHost {
 public:
  /// Reads time_scale, window, adapt, emulate_compute, obs and seed from
  /// `options`. Throws std::invalid_argument on a mapping that does not
  /// fit the grid and spec, or a time_scale that is not finite and > 0.
  Executor(const grid::Grid& grid, PipelineSpec spec,
           sched::Mapping initial_mapping, const rt::RuntimeOptions& options);
  ~Executor() override;

  /// Blocking convenience wrapper over one stream: pushes every input,
  /// closes, and returns the ordered outputs plus runtime statistics.
  /// Not reentrant.
  RunReport run(std::vector<std::any> inputs);

  // Streaming session primitives (one stream at a time; rt::Session
  // wraps them). Lifecycle: begin -> push*/try_pop* -> close -> finish.
  void stream_begin();
  /// Throws std::logic_error after stream_close().
  void stream_push(std::any item);
  /// Next output in input order, or nullopt if it has not completed yet.
  /// Remains callable after stream_finish() to drain leftovers.
  std::optional<std::any> stream_try_pop();
  void stream_close();
  /// Blocks until every pushed item completed, joins the workers and
  /// controller, and returns the report (outputs stay poppable).
  RunReport stream_finish();

  /// Point-in-time introspection snapshot (queue/credit/mapping state);
  /// safe to call from any thread while a stream is live.
  util::Json status() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct RtTask {
    std::size_t stage = 0;
    std::uint64_t item = 0;
    std::any payload;
    Clock::time_point deliver_at{};
  };
  struct NodeWorker {
    util::Mutex mutex;
    util::CondVar cv;
    std::deque<RtTask> queue GRIDPIPE_GUARDED_BY(mutex);
  };

  // control::AdaptationHost (called from the controller epoch loop).
  double virtual_now() const override;
  sched::Mapping deployed_mapping() const override;
  void apply_remap(const sched::Mapping& to, double pause_virtual) override;
  void record_probes(double vnow) override;

  /// Builds the per-stream controller (fresh gate/policy/registry state;
  /// the virtual clock restarts with every stream).
  std::unique_ptr<control::AdaptationController> make_controller();

  void worker_loop(grid::NodeId node);
  /// Pops up to `max_n` deliverable tasks in FIFO order with a single
  /// lock acquisition, honoring delivery deadlines and the remap freeze;
  /// empty when the stream is over. `gen_out` receives the remap
  /// generation observed at extraction time (see worker_loop's mid-batch
  /// check).
  std::vector<RtTask> next_tasks(grid::NodeId node, std::size_t max_n,
                                 std::uint64_t& gen_out);
  /// Routes a reclaimed batch remainder through the *current* mapping.
  /// Serializes against apply_remap on routing_mutex_, so the tasks
  /// either land in queues before its drain (and get redistributed) or
  /// are routed per the new mapping.
  void requeue_per_mapping(std::vector<RtTask> tasks);
  void route_onward(grid::NodeId from, RtTask task);
  /// Admits every queued push the credit window has room for, on the
  /// calling (pushing or completing) thread, and routes it to stage 0.
  void admit_ready();
  void controller_loop();
  /// Body of worker_loop; a stage exception escaping it is captured into
  /// the stream core and ends the stream.
  void worker_loop_impl(grid::NodeId node);
  grid::NodeId pick_replica_locked(std::size_t stage)
      GRIDPIPE_REQUIRES(routing_mutex_);
  /// Stores done_ and wakes every worker out of its queue wait. The
  /// notify happens under each worker's mutex: done_ is the one wait
  /// predicate not written under the waiter's lock (it is a single flag
  /// shared by N per-worker mutexes), so a bare notify could land in a
  /// worker's window between its done_ check and its cv wait and be
  /// lost forever.
  void signal_done();

  const grid::Grid& grid_;
  PipelineSpec spec_;
  sched::PipelineProfile profile_;
  const rt::RuntimeOptions options_;
  /// options_.obs as the raw pointers the hot paths branch on.
  const obs::Sinks obs_;
  /// Stream lifecycle, admission, ordered output, errors, status. Its
  /// flight recorder's lane 1 + n is worker thread n.
  StreamCore<std::any> core_;

  // Routing state (mapping, round-robin) — one mutex.
  mutable util::Mutex routing_mutex_;
  sched::Mapping mapping_ GRIDPIPE_GUARDED_BY(routing_mutex_);
  sched::ReplicaRouter router_ GRIDPIPE_GUARDED_BY(routing_mutex_);

  std::vector<std::unique_ptr<NodeWorker>> workers_;
  std::vector<std::thread> threads_;
  std::thread controller_thread_;
  std::atomic<bool> done_{false};
  std::atomic<Clock::rep> freeze_until_{0};
  /// Bumped twice per apply_remap (seqlock-style: before the queue drain
  /// and after redistribution); lets a worker holding a drained batch
  /// detect any concurrent or completed remap even after the freeze
  /// window has already expired.
  std::atomic<std::uint64_t> remap_gen_{0};

  // Monitoring / adaptation: the shared controller owns the registry and
  // the decision loop; workers feed observations through it.
  std::unique_ptr<control::AdaptationController> controller_;
  util::Xoshiro256 rng_;
};

}  // namespace gridpipe::core
