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
// fails the run. Each node has one WorkerSlot whose recover::WorkerState
// is the controller's only record of whether it is up. A lost worker is
// reaped and detached (kDead); the recover::Supervisor then either
// schedules a respawn (kRespawning: fork incarnation+1 after backoff,
// kUp again) or gives the node up (kDegraded: a node-loss churn epoch
// shrinks the mapping onto the survivors). request_arrival() brings a
// dead, respawning or degraded node back (kUp) and runs a node-arrival
// churn epoch, the elastic half of the paper's adaptive grid. Every
// admitted item is journaled until its result reaches the ordered
// output; whenever a lost node's fate is settled, every undelivered
// item (in flight at the death or admitted since) is re-admitted from
// stage 0 (at-least-once), and the journal retire drops the duplicates,
// so the output matches a crash-free run byte for byte.
//
// fork() constraints: call stream_begin()/run() from a process where no
// other threads are live (fork only carries the calling thread; a lock
// held by another thread would stay locked forever in the child). The
// fleet is forked *before* the controller thread starts, so the runtime
// itself never forks with its own threads live.

#include <array>
#include <atomic>
#include <chrono>
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
#include "recover/worker_state.hpp"
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
  /// Reads time_scale, window, adapt, emulate_compute, obs,
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
  /// One grid node's worker. `state` is the controller thread's only
  /// record of whether the node is up: pid and sock are live only in
  /// kUp, respawn_at is meaningful only in kRespawning.
  struct WorkerSlot {
    recover::WorkerState state = recover::WorkerState::kUp;
    int pid = -1;
    FrameSocket sock;
    std::uint32_t incarnation = 0;
    std::chrono::steady_clock::time_point respawn_at{};

    bool up() const noexcept { return state == recover::WorkerState::kUp; }
    /// Follows a legal edge; recover::transition throws on any other.
    void move_to(recover::WorkerState to) {
      state = recover::transition(state, to);
    }
    /// waitpid()s the worker; its wait status (0 when it has no pid).
    int reap() noexcept;
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
  /// Forks slot `node`'s incarnation into its pid and socket (initial
  /// fleet and respawns share this path; a respawn forks from the
  /// controller thread, which is safe: fork copies only the calling
  /// thread, and the child touches nothing another parent thread could
  /// hold locked — its own pool, its own socket, read-only config, and
  /// MAP_SHARED pages). Throws std::runtime_error if fork fails; the
  /// caller decides cleanup.
  void spawn_worker(std::size_t node);
  /// Controller-thread entry: event_loop + graceful shutdown, with any
  /// failure captured into the stream core.
  void controller_main();
  void event_loop();
  void handle_frame(std::size_t source, const comm::wire::FrameView& frame);
  /// A live replica of `stage` (each tried once in router order), or
  /// nullopt while every one is down.
  std::optional<grid::NodeId> pick_live(std::size_t stage);
  /// Queues a stage-0 task frame to `dst` and flushes; false when the
  /// write found `dst` dead (already handed to on_worker_lost).
  bool send_task(grid::NodeId dst, std::uint64_t seq, core::ByteSpan payload);
  /// Journals (recovery on) and sends one admitted item to `dst`.
  void admit(grid::NodeId dst, std::uint64_t index, Bytes payload);
  /// Graceful: broadcast kShutdown, drain to EOF, close, reap.
  void shutdown_fleet();
  /// Crash path and destructor safety net: SIGKILL + reap, noexcept.
  void kill_fleet() noexcept;
  /// Kills the fleet and throws "worker for node N <what>" with the
  /// node's flight tail attached.
  [[noreturn]] void fail_run(std::size_t node, const std::string& what);

  // ---- recovery machinery (controller thread only) ----
  bool recovery_on() const noexcept { return options_.recovery.enabled; }
  /// A socket write to `node` just failed (or its socket hit EOF).
  /// Recovery off: fail the run. On: up → dead — reap and detach the
  /// worker (close + recycle its queued buffers), mark the node down,
  /// open the recovery window. No-op for a slot that is not up.
  void on_worker_lost(std::size_t node);
  /// Steps the slots awaiting the controller: a kDead one goes to the
  /// supervisor (respawn with backoff, degrade, or fail the run), a
  /// kRespawning one whose backoff has passed is forked.
  void process_slots();
  /// Consumes request_arrival() requests: fork + node-arrival epoch.
  void process_arrivals();
  /// Forks incarnation+1 for `node` (after draining its incoming rings
  /// so the replacement's frame readers start frame-aligned). Returns
  /// false if the fork failed; the caller moves the slot either way.
  bool respawn_worker(std::size_t node);
  /// Gives up on a just-degraded `node`: mask it out of the controller's
  /// availability set and run a node-loss churn epoch so the mapping
  /// shrinks onto the survivors. Throws if no nodes survive.
  void degrade_node(std::size_t node);
  /// Forced (gate-bypassing) replan for grid churn, plus a hard
  /// executor-side guard: if the chosen mapping still touches an
  /// unavailable node, fall back to a block mapping over survivors.
  void run_churn_remap(control::AdaptationTrigger why, std::string event);
  /// Re-admits from stage 0 every journaled (undelivered) item; called
  /// once a lost node's fate is settled (respawned, arrived, degraded).
  void replay_in_flight();
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
  /// invalid when setup failed (pure socket mode).
  ShmRingMesh rings_;
  sched::PipelineProfile profile_;
  std::unique_ptr<control::AdaptationController> controller_;
  sched::Mapping controller_mapping_;
  sched::ReplicaRouter controller_router_;
  std::vector<WorkerSlot> slots_;  // one per grid node while a fleet lives

  // Health / live-status state, shared between the controller thread
  // (writer) and status() callers (readers). Uncontended in steady
  // state: the controller takes the lock a few times per poll tick.
  mutable util::Mutex status_mutex_;
  obs::HealthTracker health_ GRIDPIPE_GUARDED_BY(status_mutex_);
  /// Published copy of the slots' pids (-1 while down) for other threads.
  std::vector<int> worker_pids_ GRIDPIPE_GUARDED_BY(status_mutex_);
  /// Nodes request_arrival() asked the controller thread to bring up.
  std::vector<std::size_t> arrivals_ GRIDPIPE_GUARDED_BY(status_mutex_);

  // ---- recovery state (controller thread only; the atomics mirror the
  // counters for status()/stream_finish() readers) ----
  recover::ReplayJournal journal_;
  recover::Supervisor supervisor_;
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
