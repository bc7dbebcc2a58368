#pragma once
// DistributedExecutor — the pipeline skeleton implemented purely over
// message passing, mirroring the eSkel-on-MPI architecture the paper's
// implementation layer assumes.
//
// Topology: rank n (0 ≤ n < num_nodes) is a worker pinned to grid node n;
// rank num_nodes is the controller, sitting on node 0. Every rank owns
// one comm::Mailbox, and all coordination is by message, named by
// comm::wire::FrameKind (the process runtime's frame vocabulary):
//
//   controller → worker   kTask      (item id, stage, payload bytes)
//   worker → worker       kTask      (next-stage hop, link-delayed)
//   worker → controller   kResult    (finished item + output)
//   worker → controller   kSpeedObs  (observed node speed sample)
//   worker → controller   kTelemetry (buffered spans, when obs is on)
//   controller → worker   kRemap     (serialized routing table)
//   controller → worker   kShutdown
//
// Each message is deliverable after the grid's modeled transfer time
// between the two ranks' nodes (scaled by time_scale), and one sender's
// messages to one rank are never reordered.
//
// Workers hold a local copy of the routing table; kRemap updates arrive
// asynchronously. Because every worker owns every stage function, a hop
// routed with a momentarily stale table still executes correctly — the
// item merely lands on a suboptimal node for that hop (eventual
// consistency, no barrier needed).
//
// The adaptation epochs run on the controller rank and delegate to the
// shared control::AdaptationController; this class implements its
// AdaptationHost interface, where apply_remap broadcasts kRemap.
//
// Items are byte vectors (a distributed skeleton must serialize), so the
// stage interface here is Bytes → Bytes; rt::make_runtime bridges typed
// items through the spec's per-stage Codec<T> wire codecs.
//
// The runtime is natively streaming: the controller rank runs on a
// dedicated thread, stream_push() enqueues items it admits under the
// credit window, stream_try_pop() returns outputs in input order, and
// run() is a batch wrapper over one stream. The stream state lives in
// the shared core::StreamCore; this class keeps the ranks and their
// message loops. It is configured by the shared rt::RuntimeOptions and
// ignores the threads-, process- and sim-only knobs.

#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "comm/mailbox.hpp"
#include "comm/wire.hpp"
#include "control/adaptation_controller.hpp"
#include "core/codec.hpp"
#include "core/report.hpp"
#include "core/stream_core.hpp"
#include "obs/flight.hpp"
#include "obs/sinks.hpp"
#include "rt/options.hpp"
#include "sched/replica_router.hpp"
#include "util/json.hpp"

namespace gridpipe::core {

/// The serialized stage contract: read the input payload from a view
/// into the transport buffer, append the output to `out` (a pooled
/// buffer that already holds the next hop's wire header). Appending —
/// rather than returning a fresh Bytes — is what keeps the steady-state
/// hop allocation-free.
using BytesStageFn = std::function<void(ByteSpan in, Bytes& out)>;

struct DistStage {
  std::string name;
  BytesStageFn fn;
  double work = 1.0;
  double out_bytes = 1024;
  double state_bytes = 0.0;
};

/// Scheduler profile derived from a Bytes → Bytes stage vector — the one
/// approximation (input bytes ≈ first stage's message size) every
/// substrate consuming DistStage must share, so their mapping decisions
/// stay comparable. Used by DistributedExecutor and proc::ProcessExecutor.
sched::PipelineProfile profile_from_stages(const std::vector<DistStage>& stages);

class DistributedExecutor : private control::AdaptationHost {
 public:
  /// Reads time_scale, window, adapt, emulate_compute and obs from
  /// `options`. Throws std::invalid_argument on an empty stage vector, a
  /// mapping that does not fit, or a time_scale that is not finite and
  /// > 0.
  DistributedExecutor(const grid::Grid& grid, std::vector<DistStage> stages,
                      sched::Mapping initial_mapping,
                      const rt::RuntimeOptions& options);
  ~DistributedExecutor() override;

  /// Blocking convenience wrapper over one stream: pushes every input,
  /// closes, returns ordered outputs. Not reentrant.
  RunReport run(std::vector<Bytes> inputs);

  // Streaming session primitives (one stream at a time; rt::Session
  // wraps them). Lifecycle: begin -> push*/try_pop* -> close -> finish.
  void stream_begin();
  void stream_push(Bytes item);
  std::optional<Bytes> stream_try_pop();
  void stream_close();
  RunReport stream_finish();

  /// Point-in-time introspection snapshot (queue/credit/mapping state);
  /// safe to call from any thread while a stream is live.
  util::Json status() const;

  sched::PipelineProfile profile() const;

 private:
  struct RoutingTable {
    // Guarded copy per worker; only the owning worker touches it outside
    // of construction.
    sched::Mapping mapping;
    sched::ReplicaRouter router;
    grid::NodeId pick(std::size_t stage) { return router.pick(mapping, stage); }
  };

  // control::AdaptationHost (called from the controller rank's epochs).
  double virtual_now() const override;
  sched::Mapping deployed_mapping() const override;
  void apply_remap(const sched::Mapping& to, double pause_virtual) override;
  void record_probes(double vnow) override;  // no-op: kSpeedObs feeds it

  /// Builds the per-stream controller (fresh gate/policy/registry state;
  /// the virtual clock restarts with every stream).
  std::unique_ptr<control::AdaptationController> make_controller();

  void worker_loop(int rank);
  /// Body of worker_loop; a stage exception escaping it is captured into
  /// the stream core and ends the stream.
  void worker_loop_impl(int rank);
  /// The controller rank's event loop: admits pushed items under the
  /// credit window, collects results into the output buffer, feeds speed
  /// observations, runs the adaptation epochs, and broadcasts kShutdown
  /// once the stream is closed and drained (or a worker failed).
  void controller_loop();

  int controller_rank() const noexcept {
    return static_cast<int>(grid_.num_nodes());
  }
  /// Posts `payload` from rank `from` to rank `to`, deliverable after the
  /// modeled link transfer time between their nodes.
  void send(int from, int to, comm::wire::FrameKind kind, Bytes payload);

  const grid::Grid& grid_;
  std::vector<DistStage> stages_;
  sched::Mapping initial_mapping_;
  const rt::RuntimeOptions options_;
  /// options_.obs as raw pointers. Workers ship their spans to the
  /// controller rank as kTelemetry messages; the sinks themselves are
  /// only ever touched from the controller side.
  const obs::Sinks obs_;
  /// Stream lifecycle, admission, ordered output, errors, status. Its
  /// flight recorder's lane 0 is the controller rank, lane 1 + n worker
  /// rank n.
  StreamCore<Bytes> core_;

  /// One inbox per rank, indexed by rank; the controller rank's is last.
  std::vector<comm::Mailbox> mailboxes_;
  /// Shared free-list for hop/obs/admission buffers: workers and the
  /// controller compose messages into pooled buffers and release
  /// consumed payloads back, so a steady-state hop allocates nothing.
  /// (Internally synchronized; no GUARDED_BY needed.)
  comm::wire::BufferPool pool_;

  // Controller-side state (touched only by the controller thread while a
  // stream is live).
  sched::PipelineProfile profile_;
  std::unique_ptr<control::AdaptationController> controller_;
  sched::Mapping controller_mapping_;
  sched::ReplicaRouter controller_router_;

  std::vector<std::thread> worker_threads_;
  std::thread controller_thread_;
};

}  // namespace gridpipe::core
