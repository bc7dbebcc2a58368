#include "proc/process_executor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "proc/child.hpp"
#include "util/logging.hpp"

namespace gridpipe::proc {

namespace {

using comm::wire::FrameKind;
using comm::wire::FrameView;

std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    std::string out = "signal " + std::to_string(sig);
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 32)
    // sigdescr_np is the thread-safe strsignal (no shared static buffer).
    if (const char* name = ::sigdescr_np(sig)) {
      out += std::string(" (") + name + ")";
    }
#endif
    return out;
  }
  return "status " + std::to_string(status);
}

using Clock = std::chrono::steady_clock;
using recover::WorkerState;

}  // namespace

int ProcessExecutor::WorkerSlot::reap() noexcept {
  int status = 0;
  if (pid > 0) ::waitpid(pid, &status, 0);
  pid = -1;
  return status;
}

ProcessExecutor::ProcessExecutor(const grid::Grid& grid,
                                 std::vector<core::DistStage> stages,
                                 sched::Mapping initial_mapping,
                                 const rt::RuntimeOptions& options)
    : grid_(grid),
      stages_(std::move(stages)),
      initial_mapping_(std::move(initial_mapping)),
      options_(options),
      obs_(options_.obs.sinks()),
      core_("ProcessExecutor", stages_.size(), options_.window,
            options_.time_scale, obs_, grid.num_nodes() + 1,
            obs::kDefaultFlightEvents, [this] { wake(); }) {
  if (stages_.empty()) {
    throw std::invalid_argument("ProcessExecutor: no stages");
  }
  initial_mapping_.validate(grid_.num_nodes());
  if (initial_mapping_.num_stages() != stages_.size()) {
    throw std::invalid_argument("ProcessExecutor: mapping mismatch");
  }
  profile_ = profile();
  controller_ = make_controller();
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "ProcessExecutor: eventfd");
  }
}

ProcessExecutor::~ProcessExecutor() {
  if (core_.active()) {
    try {
      stream_close();
      stream_finish();
    } catch (...) {
      // Destructor best-effort teardown; kill_fleet below reaps anything
      // the failed finish left behind.
    }
  }
  kill_fleet();
  ::close(wake_fd_);
}

std::unique_ptr<control::AdaptationController>
ProcessExecutor::make_controller() {
  return std::make_unique<control::AdaptationController>(
      grid_, profile_, options_.adapt,
      static_cast<control::AdaptationHost&>(*this),
      control::AdaptationController::Mode::kPolicy, obs_);
}

sched::PipelineProfile ProcessExecutor::profile() const {
  return core::profile_from_stages(stages_);
}

double ProcessExecutor::virtual_now() const { return core_.virtual_now(); }

sched::Mapping ProcessExecutor::deployed_mapping() const {
  return controller_mapping_;
}

void ProcessExecutor::record_probes(double) {
  // Observations arrive as kSpeedObs frames; nothing to probe here.
}

void ProcessExecutor::apply_remap(const sched::Mapping& to,
                                  double pause_virtual) {
  core_.on_remap(pause_virtual, to.to_string());
  controller_mapping_ = to;
  controller_router_.reset(stages_.size());
  const Bytes wire = comm::wire::encode_mapping(controller_mapping_);
  for (std::size_t node = 0; node < slots_.size(); ++node) {
    if (!slots_[node].up()) continue;  // a respawn boots with the new table
    slots_[node].sock.queue_frame(
        {FrameKind::kRemap, static_cast<std::uint32_t>(node), wire});
    if (!slots_[node].sock.flush_some()) on_worker_lost(node);
  }
}

void ProcessExecutor::spawn_worker(std::size_t node) {
  auto [parent_end, child_end] = FrameSocket::make_pair();
  const int pid = ::fork();
  if (pid < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "ProcessExecutor: fork");
  }
  if (pid == 0) {
    // Child: drop every parent-side fd inherited from the fork (earlier
    // spawns' sockets plus our own pair's parent end), then run the
    // worker loop. The stages and the grid are address-space copies —
    // free via fork, never serialized; the ring mesh is MAP_SHARED, so
    // it is the same physical memory in every process. (Closing a
    // sibling's parent-side socket recycles its queued buffers into the
    // child's *copy* of the pool — harmless, and the pool's mutex is
    // only ever taken by the forking thread, so it cannot be
    // mid-operation here.)
    for (WorkerSlot& slot : slots_) slot.sock.close();
    parent_end.close();
    ::close(wake_fd_);
    // Keep our own doorbell read end plus every write end; siblings'
    // read ends are theirs alone.
    for (std::size_t i = 0; i < bells_.size(); ++i) {
      if (i != node && bells_[i][0] >= 0) ::close(bells_[i][0]);
    }
    ChildContext ctx;
    ctx.node = node;
    ctx.grid = &grid_;
    ctx.stages = &stages_;
    // A respawned worker boots with the routing table as deployed *now*;
    // at initial spawn controller_mapping_ == initial_mapping_.
    ctx.initial_mapping = controller_mapping_;
    ctx.time_scale = options_.time_scale;
    ctx.emulate_compute = options_.emulate_compute;
    ctx.telemetry = obs_.any();
    ctx.start = core_.start();
    ctx.flight = core_.recorder().ring(1 + node);
    ctx.health_interval = options_.health_interval;
    if (options_.recovery.faults.any()) ctx.faults = &options_.recovery.faults;
    ctx.incarnation = slots_[node].incarnation;
    if (rings_.valid()) {
      ctx.rings = &rings_;
      ctx.doorbell_rd = bells_[node][0];
      ctx.doorbell_wr = &bell_wr_;
    }
    run_child_loop(std::move(child_end), ctx);  // never returns
  }
  child_end.close();
  parent_end.set_nonblocking(true);
  parent_end.set_pool(&pool_);
  slots_[node].pid = pid;
  slots_[node].sock = std::move(parent_end);
}

void ProcessExecutor::close_parent_bells() noexcept {
  for (auto& bell : bells_) {
    if (bell[0] >= 0) ::close(bell[0]);
    if (bell[1] >= 0) ::close(bell[1]);
  }
  bells_.clear();
  bell_wr_.clear();
}

void ProcessExecutor::wake() noexcept {
  const std::uint64_t one = 1;
  // Fails (EAGAIN) only with the counter near 2^64, i.e. readable anyway.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

int ProcessExecutor::poll_timeout_ms(double next_epoch) const {
  const auto real = [this](double virtual_s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(virtual_s * options_.time_scale));
  };
  std::optional<Clock::time_point> until;
  const auto earliest = [&until](Clock::time_point t) {
    if (!until || t < *until) until = t;
  };
  const auto now = Clock::now();
  for (const WorkerSlot& slot : slots_) {
    if (slot.state == WorkerState::kDead) return 0;  // awaits the supervisor
    if (slot.state == WorkerState::kRespawning) earliest(slot.respawn_at);
  }
  if (options_.adapt.epoch > 0.0) earliest(core_.start() + real(next_epoch));
  // Four checks per stall_after window: a silence is reported at most a
  // quarter of the threshold late even when no frame arrives.
  if (options_.stall_after > 0.0) {
    earliest(now + real(options_.stall_after / 4));
  }
  if (!until) return -1;
  if (*until <= now) return 0;
  // Round up: waking a little late is fine, spinning on 0 is not.
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(*until - now).count();
  return static_cast<int>(
      std::min<std::int64_t>(ms, std::numeric_limits<int>::max()));
}

void ProcessExecutor::spawn_fleet() {
  const std::size_t num_nodes = grid_.num_nodes();

  // Shared-memory fast path: map the ring mesh and create the doorbell
  // pipes *before* any fork, so every child inherits the same pages and
  // fds. Setup failure (mmap or pipe exhaustion) just disables the fast
  // path — the socket relay carries everything.
  try {
    rings_ = ShmRingMesh(num_nodes, options_.shm_ring_bytes);
  } catch (const std::runtime_error&) {
    rings_ = ShmRingMesh{};
  }
  if (rings_.valid()) {
    bells_.assign(num_nodes, {-1, -1});
    bool ok = true;
    for (std::size_t i = 0; i < num_nodes && ok; ++i) {
      ok = ::pipe2(bells_[i].data(), O_NONBLOCK) == 0;
    }
    if (ok) {
      bell_wr_.reserve(num_nodes);
      for (auto& bell : bells_) bell_wr_.push_back(bell[1]);
    } else {
      close_parent_bells();
      rings_ = ShmRingMesh{};
    }
  }

  slots_.clear();
  slots_.resize(num_nodes);  // kUp, incarnation 0
  for (grid::NodeId node = 0; node < num_nodes; ++node) {
    try {
      spawn_worker(node);
    } catch (...) {
      kill_fleet();
      throw;
    }
  }
  // Without recovery the doorbells belong entirely to the children now;
  // with it the parent keeps them so a respawned child can inherit its
  // read end and every sibling's write end (closed at stream teardown).
  if (!recovery_on()) close_parent_bells();

  {
    util::MutexLock lock(status_mutex_);
    worker_pids_.clear();
    for (const WorkerSlot& slot : slots_) worker_pids_.push_back(slot.pid);
    health_.reset(num_nodes, virtual_now());
  }
}

std::optional<grid::NodeId> ProcessExecutor::pick_live(std::size_t stage) {
  // Retry the pick once per replica so one down replica (respawn
  // pending) cannot stall a replicated stage.
  for (std::size_t i = 0; i < controller_mapping_.replica_count(stage); ++i) {
    const grid::NodeId dst =
        controller_router_.pick(controller_mapping_, stage);
    if (slots_[dst].up()) return dst;
  }
  return std::nullopt;
}

bool ProcessExecutor::send_task(grid::NodeId dst, std::uint64_t seq,
                                core::ByteSpan payload) {
  // Compose [frame header][task header][payload] into one pooled buffer.
  Bytes wire = pool_.acquire();
  const std::size_t off = comm::wire::begin_frame(
      wire, FrameKind::kTask, static_cast<std::uint32_t>(dst));
  comm::wire::encode_task_header_into(wire, seq, 0);
  wire.insert(wire.end(), payload.begin(), payload.end());
  comm::wire::end_frame(wire, off);
  slots_[dst].sock.queue_buffer(std::move(wire));
  if (slots_[dst].sock.flush_some()) return true;
  on_worker_lost(dst);
  return false;
}

void ProcessExecutor::admit(grid::NodeId dst, std::uint64_t index,
                            Bytes payload) {
  // Journal before the bytes can leave: if the first hop dies with the
  // frame queued, the entry is what brings the item back.
  if (recovery_on()) {
    journal_.admit(index, payload, virtual_now());
    journal_live_.store(journal_.live(), std::memory_order_relaxed);
  }
  send_task(dst, index, payload);
  pool_.release(std::move(payload));
}

void ProcessExecutor::handle_frame(std::size_t source,
                                   const FrameView& frame) {
  core_.flight(obs::FlightKind::kFrameRecv, virtual_now(),
               static_cast<std::uint32_t>(frame.kind), frame.payload.size());
  {
    util::MutexLock lock(status_mutex_);
    health_.on_frame(source, virtual_now());
  }
  switch (frame.kind) {
    case FrameKind::kTask: {
      // Next-hop relay: the worker picked the destination, the parent
      // only moves the bytes (re-framed into a pooled buffer; the view
      // dies with the next socket read).
      std::size_t dst = frame.node;
      if (dst >= slots_.size()) {
        kill_fleet();
        throw std::runtime_error(
            "ProcessExecutor: relay to nonexistent node " +
            std::to_string(dst));
      }
      if (!slots_[dst].up()) {
        // The sender routed through a stale table into a down node.
        // Re-route to a live replica of the task's stage under the
        // current mapping; when every replica is down (recovery still
        // pending) drop the frame — the journal replays the item once
        // the node's fate is settled, so nothing is lost, and without
        // the drop a dead hop would wedge the relay path.
        const comm::wire::TaskView task =
            comm::wire::decode_task(frame.payload);
        const std::optional<grid::NodeId> alt =
            task.stage < controller_mapping_.num_stages()
                ? pick_live(task.stage)
                : std::nullopt;
        if (!alt) break;
        dst = *alt;
      }
      Bytes relay = pool_.acquire();
      const std::size_t off = comm::wire::begin_frame(
          relay, frame.kind, static_cast<std::uint32_t>(dst));
      relay.insert(relay.end(), frame.payload.begin(), frame.payload.end());
      comm::wire::end_frame(relay, off);
      slots_[dst].sock.queue_buffer(std::move(relay));
      if (!slots_[dst].sock.flush_some()) on_worker_lost(dst);
      break;
    }
    case FrameKind::kResult: {
      const comm::wire::TaskView task = comm::wire::decode_task(frame.payload);
      const std::uint64_t item = task.item;
      if (recovery_on()) {
        if (!journal_.retire(item)) {
          // Already delivered once: a replay raced the original past the
          // crash. Exactly-once delivery = drop the duplicate here.
          core_.note_duplicate(item);
          break;
        }
        journal_live_.store(journal_.live(), std::memory_order_relaxed);
        note_retired(item, virtual_now());
      }
      // The output crosses the API boundary, so it owns its bytes.
      core_.complete(item, Bytes(task.payload.begin(), task.payload.end()));
      break;
    }
    case FrameKind::kSpeedObs:
      controller_->record_observation(
          {monitor::SensorKind::kNodeSpeed,
           static_cast<std::uint32_t>(source), 0},
          comm::wire::decode_f64(frame.payload));
      break;
    case FrameKind::kTelemetry:
      // Worker-batched spans land on the parent's sinks; the shared
      // steady_clock start means no time-base translation is needed.
      obs::apply_telemetry(obs::decode_telemetry(frame.payload), obs_);
      break;
    case FrameKind::kHealth: {
      const obs::HealthRecord record = obs::decode_health(frame.payload);
      if (core_.obs_metrics().heartbeats) {
        core_.obs_metrics().heartbeats->add(1);
      }
      util::MutexLock lock(status_mutex_);
      health_.on_health(record, virtual_now());
      break;
    }
    case FrameKind::kRemap:
    case FrameKind::kShutdown:
      break;  // worker-bound kinds; ignore if misdelivered
  }
}

void ProcessExecutor::event_loop() {
  const double epoch = options_.adapt.epoch;
  double next_epoch = epoch;

  // One slot per worker, then the wake eventfd.
  std::vector<pollfd> fds(slots_.size() + 1);
  for (;;) {
    // Recovery housekeeping first: supervisor decisions for fresh
    // deaths, respawns whose backoff expired, requested arrivals. Each
    // may replan the mapping and re-admit journaled items.
    if (recovery_on()) {
      process_slots();
      process_arrivals();
    }
    // Admit pushed items under the credit window, then check for the
    // end of the stream.
    while (core_.can_admit()) {
      // Pick the stage-0 destination before dequeueing: when recovery
      // has every replica down (respawn pending), leave the item queued
      // instead of sending bytes to a dead socket.
      const std::optional<grid::NodeId> dst = pick_live(0);
      if (!dst) break;
      // Only this thread admits or completes, so the credit checked
      // above is still there.
      auto admitted = core_.admit_next();
      admit(*dst, admitted->seq, std::move(admitted->item));
    }
    if (core_.done()) return;

    // Sleep until a frame, a writable socket, a wake (push, close,
    // failure or arrival) or the earliest timer the loop owns.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      fds[i].fd = slots_[i].sock.fd();  // -1 while down: poll skips it
      fds[i].events = POLLIN;
      if (slots_[i].sock.pending_out() > 0) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    fds.back() = {wake_fd_, POLLIN, 0};
    const int ready =
        ::poll(fds.data(), fds.size(), poll_timeout_ms(next_epoch));
    if (ready < 0 && errno != EINTR) {
      const int err = errno;  // before kill_fleet's waitpids overwrite it
      kill_fleet();
      throw std::system_error(err, std::generic_category(),
                              "ProcessExecutor: poll");
    }
    if (fds.back().revents & POLLIN) {
      // One read zeroes the counter. A wake it swallows made its state
      // change (push, close, failure, arrival) before writing, so the
      // next iteration's reads see it; a later wake leaves the counter
      // non-zero and ends the next poll().
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(wake_fd_, &count, sizeof(count));
    }

    for (std::size_t i = 0; i < slots_.size() && ready > 0; ++i) {
      if (!slots_[i].up()) continue;  // detached this tick
      if (fds[i].revents & POLLOUT) {
        if (!slots_[i].sock.flush_some()) {
          on_worker_lost(i);
          continue;
        }
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const bool alive = slots_[i].sock.pump_reads();
        // Drain complete frames first: the final bytes before an EOF may
        // still carry results.
        while (auto frame = slots_[i].sock.next_frame_view()) {
          handle_frame(i, *frame);
        }
        if (!alive && !core_.done()) on_worker_lost(i);
      }
    }

    // Stall detection: edge-triggered, so a wedged worker logs once when
    // it trips and once when it recovers, not every poll tick.
    if (options_.stall_after > 0.0) {
      const double vnow = virtual_now();
      std::vector<obs::HealthTracker::Transition> edges;
      {
        util::MutexLock lock(status_mutex_);
        edges = health_.check(vnow, options_.stall_after);
      }
      for (const auto& edge : edges) {
        if (edge.stalled) {
          core_.flight(obs::FlightKind::kStall, vnow, edge.node, 0,
                       std::bit_cast<std::uint64_t>(edge.silent_for));
          if (core_.obs_metrics().worker_stalls) {
            core_.obs_metrics().worker_stalls->add(1);
          }
          util::log_warn("gridpipe: worker ", edge.node,
                         edge.no_progress
                             ? " reports a backlog but no progress for "
                             : " silent for ",
                         edge.silent_for, " virtual s");
        } else {
          util::log_info("gridpipe: worker ", edge.node, " recovered");
        }
      }
    }

    if (epoch > 0.0 && virtual_now() >= next_epoch) {
      const control::EpochRecord record = controller_->run_epoch();
      std::uint32_t bits = 0;
      if (record.decided) bits |= 1u;
      if (record.remapped) bits |= 2u;
      core_.flight(obs::FlightKind::kEpoch, virtual_now(), bits);
      next_epoch += epoch;
    }
  }
}

void ProcessExecutor::controller_main() {
  try {
    event_loop();
    shutdown_fleet();
  } catch (...) {
    core_.fail(std::current_exception());
    kill_fleet();
  }
}

void ProcessExecutor::shutdown_fleet() {
  using namespace std::chrono;
  // A healthy worker exits promptly on kShutdown; the deadline only
  // guards against a wedged one (then: SIGKILL, still reaped).
  const auto deadline = steady_clock::now() + seconds(10);
  for (std::size_t node = 0; node < slots_.size(); ++node) {
    WorkerSlot& w = slots_[node];
    if (!w.up()) continue;  // detached under recovery: already reaped
    w.sock.queue_frame(
        {FrameKind::kShutdown, static_cast<std::uint32_t>(node), {}});
    // Flush the farewell, then drain to EOF so a worker mid-write can
    // finish and exit; everything stays nonblocking + poll'd.
    bool peer_up = true;
    while (peer_up && w.sock.pending_out() > 0) {
      const auto left =
          duration_cast<milliseconds>(deadline - steady_clock::now()).count();
      if (left <= 0) break;
      pollfd pfd{w.sock.fd(), POLLOUT, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
      peer_up = w.sock.flush_some();
    }
    while (peer_up) {
      const auto left =
          duration_cast<milliseconds>(deadline - steady_clock::now()).count();
      if (left <= 0) break;
      pollfd pfd{w.sock.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
      peer_up = w.sock.pump_reads();
      while (auto frame = w.sock.next_frame()) {
        // Workers flush their final telemetry batch on kShutdown, after
        // the event loop stopped handling frames — apply it here; other
        // stragglers (stray speed observations) are discarded.
        if (frame->kind == FrameKind::kTelemetry && obs_.any()) {
          obs::apply_telemetry(obs::decode_telemetry(frame->payload),
                               obs_);
        }
      }
    }
    if (peer_up) ::kill(w.pid, SIGKILL);  // deadline hit: wedge insurance
    w.sock.close();
    w.reap();
  }
  kill_fleet();  // all reaped: just drops the slots, bells and rings
}

void ProcessExecutor::kill_fleet() noexcept {
  for (WorkerSlot& slot : slots_) {
    slot.sock.close();
    if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
    slot.reap();
  }
  slots_.clear();
  close_parent_bells();
  rings_ = ShmRingMesh{};
}

void ProcessExecutor::fail_run(std::size_t node, const std::string& what) {
  kill_fleet();
  std::string message = "ProcessExecutor: worker for node " +
                        std::to_string(node) + " " + what;
  // The victim's flight-recorder lane lives in the parent's MAP_SHARED
  // mapping, so its last events survive the death: attach the decoded
  // tail so the failure explains what the worker was doing.
  const std::string tail = core_.recorder().format_tail(1 + node, 32);
  if (!tail.empty()) {
    message += "; last flight events:\n" + tail;
  }
  throw std::runtime_error(message);
}

// ------------------------------------------------------------- recovery

void ProcessExecutor::on_worker_lost(std::size_t node) {
  WorkerSlot& slot = slots_[node];
  if (!slot.up()) return;  // already detached
  // Reaped here, before fail_run's kill_fleet could reap it unseen.
  const std::string how =
      slot.pid > 0 ? describe_wait_status(slot.reap()) : "socket gone";
  if (!recovery_on()) fail_run(node, "exited mid-run (" + how + ")");
  const double vnow = virtual_now();
  // Scoped teardown: only this worker's resources. close() recycles its
  // queued outbound buffers into the pool; the fd drops out of the poll
  // set via fd() == -1. The rest of the fleet keeps streaming.
  slot.sock.close();
  slot.move_to(WorkerState::kDead);
  node_losses_.fetch_add(1, std::memory_order_relaxed);
  if (core_.obs_metrics().node_losses) core_.obs_metrics().node_losses->add(1);
  core_.flight(obs::FlightKind::kDeath, vnow, static_cast<std::uint32_t>(node));
  {
    util::MutexLock lock(status_mutex_);
    if (node < worker_pids_.size()) worker_pids_[node] = -1;
    health_.set_down(node, true);
  }
  const std::string tail = core_.recorder().format_tail(1 + node, 16);
  util::log_warn("gridpipe: worker ", node, " died mid-run (", how,
                 "); recovering",
                 tail.empty() ? "" : "; last flight events:\n" + tail);
  // Open (or extend) the recovery window: everything in flight right now
  // is suspect until delivered, and the clock runs until the last of
  // them lands.
  if (recovering_.empty() && !journal_.empty()) recovery_started_v_ = vnow;
  for (const std::uint64_t seq : journal_.live_seqs()) {
    recovering_.insert(seq);
  }
}

void ProcessExecutor::process_slots() {
  // A degrade, fork or replay below may lose a further worker; one this
  // pass already went by waits for the next (the poll timeout is zero).
  const auto now = Clock::now();
  for (std::size_t node = 0; node < slots_.size(); ++node) {
    WorkerSlot& slot = slots_[node];
    if (slot.state == WorkerState::kDead) {
      const recover::Supervisor::Action action = supervisor_.on_death(node);
      switch (action.kind) {
        case recover::Supervisor::ActionKind::kRespawn:
          slot.move_to(WorkerState::kRespawning);
          slot.respawn_at =
              now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            action.delay_ms));
          util::log_info("gridpipe: respawning worker ", node, " in ",
                         action.delay_ms, " ms (attempt ",
                         supervisor_.respawns(node), ")");
          break;
        case recover::Supervisor::ActionKind::kDegrade:
          util::log_warn("gridpipe: respawn budget for worker ", node,
                         " exhausted; degrading to the surviving grid");
          slot.move_to(WorkerState::kDegraded);
          degrade_node(node);
          break;
        case recover::Supervisor::ActionKind::kFail:
          fail_run(node, "lost and not recoverable (respawn budget "
                         "exhausted, degrade disabled)");
      }
    }
    if (slot.state != WorkerState::kRespawning || slot.respawn_at > now) {
      continue;
    }
    // A failed fork goes back to the supervisor (its budget ticks).
    const bool forked = respawn_worker(node);
    slot.move_to(forked ? WorkerState::kUp : WorkerState::kDead);
    if (forked) replay_in_flight();
  }
}

void ProcessExecutor::process_arrivals() {
  std::vector<std::size_t> requests;
  {
    util::MutexLock lock(status_mutex_);
    requests.swap(arrivals_);
  }
  for (const std::size_t node : requests) {
    if (node >= slots_.size() || slots_[node].up()) continue;
    // A failed fork leaves the slot as it was: a dead node still goes
    // to the supervisor, a respawning one keeps its deadline.
    const WorkerState from = slots_[node].state;
    if (!respawn_worker(node)) continue;
    slots_[node].move_to(WorkerState::kUp);
    supervisor_.on_arrival(node);
    controller_->on_node_arrival(node);
    run_churn_remap(control::AdaptationTrigger::kNodeArrival,
                    "node " + std::to_string(node) + " joined");
    if (recover::arrival_owes_replay(from)) replay_in_flight();
  }
}

bool ProcessExecutor::respawn_worker(std::size_t node) {
  // Drain residual bytes out of the dead consumer's incoming rings so
  // the replacement's frame readers start frame-aligned: pushes are
  // atomic whole frames, so an *empty* ring is a frame boundary, while
  // whatever the dead incarnation had half-consumed is not.
  if (rings_.valid()) {
    for (std::size_t src = 0; src < grid_.num_nodes(); ++src) {
      ShmRing ring = rings_.ring(src, node);
      if (!ring.valid()) continue;
      std::byte chunk[4096];
      while (ring.pop(chunk, sizeof(chunk)) > 0) {
      }
    }
  }
  const std::uint32_t incarnation = ++slots_[node].incarnation;
  const double vnow = virtual_now();
  // Single-writer handoff on the worker's own flight lane: the old
  // incarnation is dead, the new one not yet forked, so this instant the
  // parent may stamp the lane — the respawn marker then sits between the
  // two lives in the forensic record.
  core_.recorder().ring(1 + node).record(obs::FlightKind::kRespawn, vnow,
                                         static_cast<std::uint32_t>(node),
                                         incarnation);
  core_.flight(obs::FlightKind::kRespawn, vnow,
               static_cast<std::uint32_t>(node), incarnation);
  try {
    spawn_worker(node);
  } catch (const std::runtime_error& error) {
    util::log_warn("gridpipe: respawn of worker ", node,
                   " failed: ", error.what());
    return false;
  }
  respawns_.fetch_add(1, std::memory_order_relaxed);
  if (core_.obs_metrics().respawns) core_.obs_metrics().respawns->add(1);
  {
    util::MutexLock lock(status_mutex_);
    if (node < worker_pids_.size()) worker_pids_[node] = slots_[node].pid;
    health_.on_respawn(node, virtual_now());
  }
  util::log_info("gridpipe: worker ", node, " respawned (incarnation ",
                 incarnation, ", pid ", slots_[node].pid, ")");
  return true;
}

void ProcessExecutor::degrade_node(std::size_t node) {
  controller_->on_node_loss(node);
  if (controller_->nodes_available() == 0) {
    fail_run(node, "lost and not recoverable (no surviving nodes to "
                   "degrade onto)");
  }
  // Close the consumer side of every ring into the dead node so a
  // straggling producer fails fast to the socket path (where the parent
  // re-routes) instead of filling pages nobody will drain.
  if (rings_.valid()) {
    for (std::size_t src = 0; src < grid_.num_nodes(); ++src) {
      ShmRing ring = rings_.ring(src, node);
      if (ring.valid()) ring.close_consumer();
    }
  }
  run_churn_remap(control::AdaptationTrigger::kNodeLoss,
                  "node " + std::to_string(node) + " lost");
  replay_in_flight();
}

void ProcessExecutor::run_churn_remap(control::AdaptationTrigger why,
                                      std::string event) {
  const control::EpochRecord record =
      controller_->run_churn_epoch(why, std::move(event));
  std::uint32_t bits = 1u;  // churn epochs always decide
  if (record.remapped) bits |= 2u;
  core_.flight(obs::FlightKind::kEpoch, virtual_now(), bits);
  // Executor-side hard guard, independent of mapper behavior: if the
  // deployed mapping still touches a degraded node (a mapper is free to
  // ignore zeroed speeds), force a block layout over the survivors.
  bool touches_degraded = false;
  std::vector<grid::NodeId> survivors;
  for (grid::NodeId n = 0; n < slots_.size(); ++n) {
    if (slots_[n].state != WorkerState::kDegraded) {
      survivors.push_back(n);
    } else if (controller_mapping_.stages_on(n) > 0) {
      touches_degraded = true;
    }
  }
  if (!touches_degraded) return;
  std::vector<grid::NodeId> stage_to_node(stages_.size());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    stage_to_node[s] = survivors[s * survivors.size() / stages_.size()];
  }
  apply_remap(sched::Mapping(std::move(stage_to_node)), 0.0);
}

void ProcessExecutor::replay_in_flight() {
  // Re-admit, in seq order, every journaled item: those in flight at the
  // death, and those admitted while the node was down, which a stale
  // worker table or a ring into the dead consumer may have routed into
  // it. At-least-once: an item that actually survived on a live worker
  // will come back twice and the dedup retire drops the loser. Replays
  // bypass the credit window on purpose — these items hold credits.
  for (const std::uint64_t seq : journal_.live_seqs()) {
    const recover::ReplayJournal::Entry* entry = journal_.find(seq);
    const std::optional<grid::NodeId> dst = pick_live(0);
    // Another node is down with its own recovery pending; that recovery
    // ends in a replay too, so deferring is safe.
    if (!dst) return;
    journal_.note_replay(seq);
    replays_.fetch_add(1, std::memory_order_relaxed);
    if (core_.obs_metrics().items_replayed) {
      core_.obs_metrics().items_replayed->add(1);
    }
    core_.flight(obs::FlightKind::kReplay, virtual_now(), 0, seq);
    if (!send_task(*dst, seq, entry->payload)) {
      return;  // the new death's recovery will finish the replay
    }
  }
}

void ProcessExecutor::note_retired(std::uint64_t item, double vnow) {
  if (recovering_.empty()) return;
  recovering_.erase(item);
  if (!recovering_.empty()) return;
  const double took = vnow - recovery_started_v_;
  recovery_times_.push_back(took);
  if (core_.obs_metrics().recovery_time) {
    core_.obs_metrics().recovery_time->record(took);
  }
  util::log_info("gridpipe: recovery window closed after ", took,
                 " virtual s");
}

void ProcessExecutor::request_arrival(std::size_t node) {
  if (!recovery_on()) {
    throw std::logic_error(
        "ProcessExecutor: request_arrival needs recovery enabled");
  }
  if (node >= grid_.num_nodes()) {
    throw std::invalid_argument("ProcessExecutor: arrival for unknown node");
  }
  {
    util::MutexLock lock(status_mutex_);
    arrivals_.push_back(node);
  }
  wake();
}

std::string ProcessExecutor::flight_tail(std::size_t lane,
                                         std::size_t max_events) const {
  return core_.recorder().format_tail(lane, max_events);
}

void ProcessExecutor::stream_begin() {
  // Throws while a stream is active — the only time a fleet is live.
  core_.begin(initial_mapping_.to_string());

  // Fresh controller per stream: the virtual clock restarts at 0, so gate
  // snapshots, hysteresis streaks and registry timestamps from a
  // previous stream would all be stale.
  controller_ = make_controller();
  {
    util::MutexLock lock(status_mutex_);
    arrivals_.clear();
  }
  journal_.clear();
  supervisor_.reset(options_.recovery.respawn, grid_.num_nodes());
  recovering_.clear();
  recovery_started_v_ = 0.0;
  recovery_times_.clear();
  node_losses_ = 0;
  respawns_ = 0;
  replays_ = 0;
  journal_live_ = 0;
  controller_mapping_ = initial_mapping_;
  controller_router_.reset(stages_.size());

  // Fork the fleet first, start our own controller thread second: the
  // runtime never forks while one of its own threads is live.
  spawn_fleet();
  controller_thread_ = std::thread([this] { controller_main(); });
}

void ProcessExecutor::stream_push(Bytes item) { core_.push(std::move(item)); }

std::optional<Bytes> ProcessExecutor::stream_try_pop() {
  return core_.try_pop();
}

void ProcessExecutor::stream_close() { core_.close(); }

core::RunReport ProcessExecutor::stream_finish() {
  core_.check_finishable();
  controller_thread_.join();
  core::RunReport report = core_.finish(controller_->take_epochs());
  report.node_losses = node_losses_.load(std::memory_order_relaxed);
  report.respawns = respawns_.load(std::memory_order_relaxed);
  report.items_replayed = replays_.load(std::memory_order_relaxed);
  report.recovery_times = recovery_times_;
  return report;
}

core::RunReport ProcessExecutor::run(std::vector<Bytes> inputs) {
  return core::run_stream_batch(*this, std::move(inputs));
}

util::Json ProcessExecutor::status() const {
  util::Json doc = core_.status("process");
  if (recovery_on()) {
    util::Json recovery = util::Json::object();
    recovery["node_losses"] = node_losses_.load(std::memory_order_relaxed);
    recovery["respawns"] = respawns_.load(std::memory_order_relaxed);
    recovery["items_replayed"] = replays_.load(std::memory_order_relaxed);
    recovery["items_deduped"] = core_.deduped();
    recovery["journal_live"] = journal_live_.load(std::memory_order_relaxed);
    doc["recovery"] = std::move(recovery);
  }
  {
    util::MutexLock lock(status_mutex_);
    doc["workers"] = health_.to_json(core_.virtual_now());
    util::Json pids = util::Json::array();
    for (const int pid : worker_pids_) pids.push_back(pid);
    doc["worker_pids"] = std::move(pids);
  }
  return doc;
}

std::vector<int> ProcessExecutor::worker_pids() const {
  util::MutexLock lock(status_mutex_);
  return worker_pids_;
}

}  // namespace gridpipe::proc
