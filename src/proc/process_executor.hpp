#pragma once
// ProcessExecutor — the process-per-node runtime: the same pipeline
// skeleton as DistributedExecutor, but each grid node is a real forked
// OS process and all coordination crosses Unix-domain sockets. Where
// the other runtimes emulate separation inside one address space, this
// one buys it from the kernel: genuine per-process scheduling, real
// serialization cost on every hop, and node failure as an actual crash.
//
// Topology: star. The parent is the controller; each worker owns one
// socketpair to it. Workers still make the routing decisions — a worker
// finishing stage s picks the next hop from its local copy of the
// routing table (kRemap broadcasts keep copies eventually consistent,
// exactly the DistributedExecutor contract) and the parent relays the
// task frame to that worker's socket. Frames:
//
//   parent → worker   kTask      (admitted or relayed task)
//   worker → parent   kTask      (next-hop relay request, node = dst)
//   worker → parent   kResult    (finished item + output)
//   worker → parent   kSpeedObs  (observed node speed sample)
//   parent → worker   kRemap     (serialized routing table)
//   parent → worker   kShutdown
//
// The adaptation epochs run on the parent and delegate to the shared
// control::AdaptationController; this class implements AdaptationHost,
// where apply_remap broadcasts kRemap. Nothing in src/control/ knows
// this substrate exists.
//
// Lifecycle: stream_begin() forks the fleet, then multiplexes it with
// poll(2) on a dedicated controller thread; stream_push() enqueues items
// the poll loop admits under the credit window, stream_try_pop() returns
// outputs in input order (the stream state lives in the shared
// core::StreamCore). A push, close, failure or request_arrival() wakes
// the loop through an eventfd in its poll set, so poll() sleeps only
// until the earliest timer the loop owns (next epoch, respawn backoff,
// stall check) or without a timeout when it owns none. stream_finish()
// reaps every child with waitpid before returning — no SIGCHLD handler
// (a library must not own process-wide signal dispositions; synchronous
// reaping needs none). A worker that dies mid-stream surfaces as EOF on
// its socket; by default the parent reaps it for the exit status, kills
// the rest of the fleet and stream_finish() rethrows the failure. run()
// is a batch wrapper over one stream.
//
// Fault tolerance (options.recovery.enabled): a worker death no longer
// fails the run. Every admitted item is journaled (seq, payload) until
// its result reaches the ordered output buffer; on a death the parent
// detaches just the dead worker (reap, close, recycle its queued
// buffers), marks the node down, and asks the recover::Supervisor what
// to do — respawn (fork a replacement after backoff, same node, next
// incarnation) or degrade (run a node-loss churn epoch so the mapping
// shrinks onto the survivors). Either way every journaled item that was
// in flight when the node died is re-admitted from stage 0
// (at-least-once re-execution); the journal retire doubles as the dedup
// filter in front of the core's ordered buffer, so a replay racing its
// original past the crash still delivers exactly once and the ordered
// output matches a crash-free run byte for byte. request_arrival() is the inverse event: a degraded (or fresh)
// node rejoins, the supervisor forks a worker for it and a node-arrival
// churn epoch lets the mapping grow back — the elastic half of the
// paper's adaptive grid story.
//
// Configuration is the shared rt::RuntimeOptions; this substrate alone
// reads its shm_ring*, health_interval, stall_after and recovery knobs.
//
// fork() constraints: call stream_begin()/run() from a process where no
// other threads are live (fork only carries the calling thread; a lock
// held by another thread would stay locked forever in the child). The
// fleet is forked *before* the controller thread starts, so the runtime
// itself never forks with its own threads live.

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "control/adaptation_controller.hpp"
#include "core/dist_executor.hpp"  // core::DistStage, core::Bytes
#include "core/report.hpp"
#include "core/stream_core.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/sinks.hpp"
#include "proc/shm_ring.hpp"
#include "proc/transport.hpp"
#include "recover/journal.hpp"
#include "recover/supervisor.hpp"
#include "rt/options.hpp"
#include "sched/replica_router.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::proc {

using core::Bytes;

class ProcessExecutor : private control::AdaptationHost {
 public:
  /// Stage vector is the same Bytes → Bytes contract the
  /// DistributedExecutor takes, so one scenario drives both substrates.
  /// Reads time_scale, window, adapt, emulate_compute, obs, shm_ring,
  /// shm_ring_bytes, health_interval, stall_after and recovery from
  /// `options`. Throws std::invalid_argument on an empty stage vector, a
  /// mapping that does not fit, or a time_scale that is not finite and
  /// > 0 — all before anything forks.
  ProcessExecutor(const grid::Grid& grid, std::vector<core::DistStage> stages,
                  sched::Mapping initial_mapping,
                  const rt::RuntimeOptions& options);
  ~ProcessExecutor() override;

  /// Blocking convenience wrapper over one stream: forks one worker
  /// process per grid node, pushes every input through, reaps the fleet,
  /// returns ordered outputs. Not reentrant. Throws std::runtime_error
  /// if a worker crashes mid-run.
  core::RunReport run(std::vector<Bytes> inputs);

  // Streaming session primitives (one stream at a time; rt::Session
  // wraps them). Lifecycle: begin -> push*/try_pop* -> close -> finish.
  void stream_begin();
  void stream_push(Bytes item);
  std::optional<Bytes> stream_try_pop();
  void stream_close();
  /// Joins the controller thread, reaps the fleet, and returns the
  /// report; rethrows a worker-crash failure captured by the poll loop.
  core::RunReport stream_finish();

  sched::PipelineProfile profile() const;

  /// Live status snapshot (queue/credit state, mapping, per-worker
  /// health). Safe from any thread while a stream is active.
  util::Json status() const;

  /// PIDs of the current fleet, captured at spawn (tests kill one to
  /// exercise crash forensics). Empty before stream_begin.
  std::vector<int> worker_pids() const;

  /// Asks the controller thread to bring grid node `node` (back) into
  /// the fleet: fork a worker for it and run a node-arrival churn epoch
  /// so the mapping can grow onto it. No-op if the node is already up.
  /// Requires recovery to be enabled. Safe from any thread mid-stream.
  void request_arrival(std::size_t node);

  /// Decoded tail of one flight-recorder lane (0 = controller, 1 + n =
  /// worker n) — recovery tests assert on respawn/replay forensics.
  std::string flight_tail(std::size_t lane, std::size_t max_events) const;

 private:
  struct Worker {
    int pid = -1;
    FrameSocket sock;
  };

  // control::AdaptationHost (called from the parent's epoch loop).
  double virtual_now() const override;
  sched::Mapping deployed_mapping() const override;
  void apply_remap(const sched::Mapping& to, double pause_virtual) override;
  void record_probes(double vnow) override;  // no-op: kSpeedObs feeds it

  /// Builds the per-stream controller (fresh gate/policy/registry state;
  /// the virtual clock restarts with every stream).
  std::unique_ptr<control::AdaptationController> make_controller();

  void spawn_fleet();
  /// Forks one worker for `node` (initial fleet and respawns share this
  /// path; a respawn forks from the controller thread, which is safe:
  /// fork copies only the calling thread, and the child touches nothing
  /// another parent thread could hold locked — its own pool, its own
  /// socket, read-only config, and MAP_SHARED pages). Throws
  /// std::runtime_error if fork fails; the caller decides cleanup.
  void spawn_worker(std::size_t node, std::uint32_t incarnation);
  /// Controller-thread entry: event_loop + graceful shutdown, with any
  /// failure captured into the stream core.
  void controller_main();
  void event_loop();
  void handle_frame(std::size_t source, const comm::wire::FrameView& frame);
  /// A live stage-0 replica (each replica tried once in router order),
  /// or nullopt while every one is down.
  std::optional<grid::NodeId> pick_stage0();
  /// Queues a stage-0 task frame to `dst` and flushes; false when the
  /// write found `dst` dead (already handed to on_worker_lost).
  bool send_task(grid::NodeId dst, std::uint64_t seq, core::ByteSpan payload);
  /// Journals (recovery on) and sends one admitted item to `dst`.
  void admit(grid::NodeId dst, std::uint64_t index, Bytes payload);
  /// Graceful: broadcast kShutdown, drain to EOF, close, reap.
  void shutdown_fleet();
  /// Crash path and destructor safety net: SIGKILL + reap, noexcept.
  void kill_fleet() noexcept;
  /// Reaps worker `node` and throws with its wait status.
  [[noreturn]] void fail_run(std::size_t node);

  // ---- recovery machinery (controller thread only) ----
  bool recovery_on() const noexcept { return options_.recovery.enabled; }
  bool worker_up(std::size_t node) const noexcept {
    return node < workers_.size() && workers_[node].sock.valid();
  }
  /// A socket write to `node` just failed (or its socket hit EOF):
  /// either detach-and-recover (recovery on) or fail the run.
  void on_worker_lost(std::size_t node);
  /// Reaps and detaches one dead worker: close + recycle its queued
  /// buffers, mark the node down, open the recovery window, queue the
  /// node for a supervisor decision.
  void mark_worker_dead(std::size_t node);
  /// Drains the dead-node queue through the supervisor (respawn with
  /// backoff, degrade, or give up and fail the run).
  void process_dead_nodes();
  /// Forks replacements whose backoff deadline has passed.
  void process_respawns();
  /// Consumes request_arrival() requests: fork + node-arrival epoch.
  void process_arrivals();
  /// Forks incarnation+1 for `node` (after draining its incoming rings
  /// so the replacement's frame readers start frame-aligned).
  /// Returns false if the fork failed (node re-queued for the
  /// supervisor).
  bool respawn_worker(std::size_t node);
  /// Gives up on `node`: mask it out of the controller's availability
  /// set and run a node-loss churn epoch so the mapping shrinks onto
  /// the survivors. Throws if no nodes survive.
  void degrade_node(std::size_t node);
  /// Forced (gate-bypassing) replan for grid churn, plus a hard
  /// executor-side guard: if the chosen mapping still touches an
  /// unavailable node, fall back to a block mapping over survivors.
  void run_churn_remap(control::AdaptationTrigger why, std::string event);
  /// Re-admits from stage 0 every journaled item that was in flight
  /// when a death was detected and has not since been delivered.
  void replay_recovering_items();
  /// Delivery-side recovery bookkeeping: closes the recovery window
  /// once every item live at death detection has been delivered.
  void note_retired(std::uint64_t item, double vnow);
  /// Closes the parent's retained doorbell fds (recovery keeps them
  /// open across the stream so respawned children can inherit them).
  void close_parent_bells() noexcept;
  /// Ends the event loop's current or next poll() wait (any thread,
  /// never blocks) by bumping the wake eventfd's counter.
  void wake() noexcept;
  /// poll() timeout until the earliest timer the loop owns: the next
  /// epoch, a respawn's backoff deadline, the stall-check cadence; -1
  /// (no timeout) when it owns none, 0 when a death awaits the
  /// supervisor.
  int poll_timeout_ms(double next_epoch) const;
  [[noreturn]] void fail_lost(std::size_t node, const std::string& why);

  const grid::Grid& grid_;
  std::vector<core::DistStage> stages_;
  sched::Mapping initial_mapping_;
  const rt::RuntimeOptions options_;
  /// options_.obs as raw pointers. Workers buffer spans locally and ship
  /// them over the socket as kTelemetry frames; the sinks themselves are
  /// only ever touched in the parent.
  const obs::Sinks obs_;
  /// Stream lifecycle, admission, ordered output, errors, status. Its
  /// flight recorder (lane 0 = this controller, lane 1 + n = worker n)
  /// is mmap'd MAP_SHARED at construction, before any fork, so the
  /// parent can read a dead child's lane post-mortem.
  core::StreamCore<Bytes> core_;

  /// Parent-side free-list for admission/relay frame buffers.
  /// (Internally synchronized; no GUARDED_BY needed.)
  comm::wire::BufferPool pool_;
  /// Worker↔worker shared-memory rings, mapped before the fleet forks;
  /// invalid when the knob is off or setup failed (pure socket mode).
  ShmRingMesh rings_;
  sched::PipelineProfile profile_;
  std::unique_ptr<control::AdaptationController> controller_;
  sched::Mapping controller_mapping_;
  sched::ReplicaRouter controller_router_;
  std::vector<Worker> workers_;

  // Health / live-status state, shared between the controller thread
  // (writer) and status() callers (readers). Uncontended in steady
  // state: the controller takes the lock a few times per poll tick.
  mutable util::Mutex status_mutex_;
  obs::HealthTracker health_ GRIDPIPE_GUARDED_BY(status_mutex_);
  std::vector<int> worker_pids_ GRIDPIPE_GUARDED_BY(status_mutex_);
  /// Nodes request_arrival() asked the controller thread to bring up.
  std::vector<std::size_t> arrivals_ GRIDPIPE_GUARDED_BY(status_mutex_);

  // ---- recovery state (controller thread only; the atomics mirror the
  // counters for status()/stream_finish() readers) ----
  recover::ReplayJournal journal_;
  recover::Supervisor supervisor_;
  /// Deaths detected but not yet taken to the supervisor.
  std::deque<std::size_t> dead_nodes_;
  /// Respawn deadline per node (steady_clock; nullopt = none pending).
  std::vector<std::optional<std::chrono::steady_clock::time_point>>
      respawn_at_;
  std::vector<std::uint32_t> incarnation_;
  /// Nodes degraded out of the mapping (mirror of the controller's
  /// availability mask, consulted on the relay hot path).
  std::vector<char> node_degraded_;
  /// Items in flight when a death was detected; the recovery window
  /// closes (and its duration is recorded) when all are delivered.
  std::set<std::uint64_t> recovering_;
  double recovery_started_v_ = 0.0;
  std::vector<double> recovery_times_;
  /// Parent-retained doorbell pipes (recovery only): a respawned child
  /// must inherit its own read end and every sibling's write end, so
  /// the parent cannot close them after the initial fleet forks.
  std::vector<std::array<int, 2>> bells_;
  std::vector<int> bell_wr_;
  std::atomic<std::uint64_t> node_losses_{0};
  std::atomic<std::uint64_t> respawns_{0};
  std::atomic<std::uint64_t> replays_{0};
  std::atomic<std::uint64_t> journal_live_{0};

  /// Nonblocking eventfd in the event loop's poll set, created with the
  /// executor and closed by every forked child. wake() adds to its
  /// counter; one read drains any number of wakes.
  int wake_fd_ = -1;

  std::thread controller_thread_;
};

}  // namespace gridpipe::proc
