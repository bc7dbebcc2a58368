#include "proc/process_executor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
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

/// strerror without the shared-static-buffer thread hazard.
std::string describe_errno(int err) {
  return std::generic_category().message(err);
}

}  // namespace

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
    const int err = errno;
    throw std::runtime_error(std::string("ProcessExecutor: eventfd: ") +
                             describe_errno(err));
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
  for (std::size_t node = 0; node < workers_.size(); ++node) {
    if (!workers_[node].sock.valid()) continue;  // down; respawn re-syncs it
    workers_[node].sock.queue_frame(
        {FrameKind::kRemap, static_cast<std::uint32_t>(node), wire});
    if (!workers_[node].sock.flush_some()) on_worker_lost(node);
  }
}

void ProcessExecutor::spawn_worker(std::size_t node,
                                   std::uint32_t incarnation) {
  auto [parent_end, child_end] = FrameSocket::make_pair();
  const int pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    throw std::runtime_error(std::string("ProcessExecutor: fork: ") +
                             describe_errno(err));
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
    for (Worker& w : workers_) w.sock.close();
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
    ctx.incarnation = incarnation;
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
  if (node < workers_.size()) {
    workers_[node].pid = pid;
    workers_[node].sock = std::move(parent_end);
  } else {
    workers_.push_back({pid, std::move(parent_end)});
  }
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
  using Clock = std::chrono::steady_clock;
  if (!dead_nodes_.empty()) return 0;
  const auto real = [this](double virtual_s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(virtual_s * options_.time_scale));
  };
  std::optional<Clock::time_point> until;
  const auto earliest = [&until](Clock::time_point t) {
    if (!until || t < *until) until = t;
  };
  const auto now = Clock::now();
  if (options_.adapt.epoch > 0.0) earliest(core_.start() + real(next_epoch));
  for (const auto& at : respawn_at_) {
    if (at) earliest(*at);
  }
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
  if (options_.shm_ring) {
    try {
      rings_ = ShmRingMesh(num_nodes, options_.shm_ring_bytes);
    } catch (const std::runtime_error&) {
      rings_ = ShmRingMesh{};
    }
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

  workers_.reserve(num_nodes);
  for (grid::NodeId node = 0; node < num_nodes; ++node) {
    try {
      spawn_worker(node, 0);
    } catch (...) {
      close_parent_bells();
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
    for (const Worker& w : workers_) worker_pids_.push_back(w.pid);
    health_.reset(num_nodes, virtual_now());
  }
}

std::optional<grid::NodeId> ProcessExecutor::pick_stage0() {
  // Retry the pick once per replica so one down replica (respawn
  // pending) cannot stall a replicated stage 0.
  for (std::size_t i = 0; i < controller_mapping_.replica_count(0); ++i) {
    const grid::NodeId dst = controller_router_.pick(controller_mapping_, 0);
    if (worker_up(dst)) return dst;
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
  workers_[dst].sock.queue_buffer(std::move(wire));
  if (workers_[dst].sock.flush_some()) return true;
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
      if (dst >= workers_.size()) {
        kill_fleet();
        throw std::runtime_error(
            "ProcessExecutor: relay to nonexistent node " +
            std::to_string(dst));
      }
      if (!workers_[dst].sock.valid()) {
        // The sender routed through a stale table into a down node.
        // Re-route to a live replica of the task's stage under the
        // current mapping; when every replica is down (recovery still
        // pending) drop the frame — the journal replays the item once
        // the node's fate is settled, so nothing is lost, and without
        // the drop a dead hop would wedge the relay path.
        const comm::wire::TaskView task =
            comm::wire::decode_task(frame.payload);
        std::optional<std::size_t> alt;
        if (task.stage < controller_mapping_.num_stages()) {
          for (const grid::NodeId r :
               controller_mapping_.replicas(task.stage)) {
            if (worker_up(r)) {
              alt = r;
              break;
            }
          }
        }
        if (!alt) break;
        dst = *alt;
      }
      Bytes relay = pool_.acquire();
      const std::size_t off = comm::wire::begin_frame(
          relay, frame.kind, static_cast<std::uint32_t>(dst));
      const std::size_t at = relay.size();
      relay.resize(at + frame.payload.size());
      if (!frame.payload.empty()) {
        std::memcpy(relay.data() + at, frame.payload.data(),
                    frame.payload.size());
      }
      comm::wire::end_frame(relay, off);
      workers_[dst].sock.queue_buffer(std::move(relay));
      if (!workers_[dst].sock.flush_some()) on_worker_lost(dst);
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
  std::vector<pollfd> fds(workers_.size() + 1);
  for (;;) {
    // Recovery housekeeping first: supervisor decisions for fresh
    // deaths, respawns whose backoff expired, requested arrivals. All
    // three may replan the mapping and re-admit journaled items.
    if (recovery_on()) {
      process_dead_nodes();
      process_respawns();
      process_arrivals();
    }
    // Admit pushed items under the credit window, then check for the
    // end of the stream.
    while (core_.can_admit()) {
      // Pick the stage-0 destination before dequeueing: when recovery
      // has every replica down (respawn pending), leave the item queued
      // instead of sending bytes to a dead socket.
      const std::optional<grid::NodeId> dst = pick_stage0();
      if (!dst) break;
      // Only this thread admits or completes, so the credit checked
      // above is still there.
      auto admitted = core_.admit_next();
      admit(*dst, admitted->seq, std::move(admitted->item));
    }
    if (core_.done()) return;

    // Sleep until a frame, a writable socket, a wake (push, close,
    // failure or arrival) or the earliest timer the loop owns.
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      fds[i].fd = workers_[i].sock.fd();
      fds[i].events = POLLIN;
      if (workers_[i].sock.pending_out() > 0) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    fds.back() = {wake_fd_, POLLIN, 0};
    const int ready =
        ::poll(fds.data(), fds.size(), poll_timeout_ms(next_epoch));
    if (ready < 0 && errno != EINTR) {
      kill_fleet();
      throw std::runtime_error(std::string("ProcessExecutor: poll: ") +
                               describe_errno(errno));
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

    for (std::size_t i = 0; i < workers_.size() && ready > 0; ++i) {
      if (!workers_[i].sock.valid()) continue;  // detached this tick
      if (fds[i].revents & POLLOUT) {
        if (!workers_[i].sock.flush_some()) {
          on_worker_lost(i);
          continue;
        }
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const bool alive = workers_[i].sock.pump_reads();
        // Drain complete frames first: the final bytes before an EOF may
        // still carry results.
        while (auto frame = workers_[i].sock.next_frame_view()) {
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
  for (std::size_t node = 0; node < workers_.size(); ++node) {
    Worker& w = workers_[node];
    if (!w.sock.valid()) continue;  // detached (dead/degraded) under recovery
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
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
  }
  workers_.clear();
  close_parent_bells();
  rings_ = ShmRingMesh{};  // every child unmapped its own view on exit
}

void ProcessExecutor::kill_fleet() noexcept {
  for (Worker& w : workers_) {
    w.sock.close();
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
  }
  workers_.clear();
  close_parent_bells();
  rings_ = ShmRingMesh{};
}

void ProcessExecutor::fail_run(std::size_t node) {
  int status = 0;
  ::waitpid(workers_[node].pid, &status, 0);
  workers_[node].pid = -1;
  kill_fleet();
  std::string message = "ProcessExecutor: worker for node " +
                        std::to_string(node) + " exited mid-run (" +
                        describe_wait_status(status) + ")";
  // The victim's flight-recorder lane lives in the parent's MAP_SHARED
  // mapping, so its last events survive the death: attach the decoded
  // tail so the crash explains what the worker was doing.
  const std::string tail = core_.recorder().format_tail(1 + node, 32);
  if (!tail.empty()) {
    message += "; last flight events:\n" + tail;
  }
  throw std::runtime_error(message);
}

void ProcessExecutor::fail_lost(std::size_t node, const std::string& why) {
  kill_fleet();
  std::string message = "ProcessExecutor: worker for node " +
                        std::to_string(node) + " lost and not recoverable (" +
                        why + ")";
  const std::string tail = core_.recorder().format_tail(1 + node, 32);
  if (!tail.empty()) {
    message += "; last flight events:\n" + tail;
  }
  throw std::runtime_error(message);
}

// ------------------------------------------------------------- recovery

void ProcessExecutor::on_worker_lost(std::size_t node) {
  if (recovery_on()) {
    mark_worker_dead(node);
  } else {
    fail_run(node);
  }
}

void ProcessExecutor::mark_worker_dead(std::size_t node) {
  Worker& w = workers_[node];
  if (w.pid <= 0 && !w.sock.valid()) return;  // already detached
  const double vnow = virtual_now();
  std::string how = "socket gone";
  if (w.pid > 0) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    how = describe_wait_status(status);
    w.pid = -1;
  }
  // Scoped teardown: only this worker's resources. close() recycles its
  // queued outbound buffers into the pool; the fd drops out of the poll
  // set via fd() == -1. The rest of the fleet keeps streaming.
  w.sock.close();
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
  dead_nodes_.push_back(node);
}

void ProcessExecutor::process_dead_nodes() {
  while (!dead_nodes_.empty()) {
    const std::size_t node = dead_nodes_.front();
    dead_nodes_.pop_front();
    if (worker_up(node) || node_degraded_[node]) continue;  // stale entry
    const recover::Supervisor::Action action = supervisor_.on_death(node);
    switch (action.kind) {
      case recover::Supervisor::ActionKind::kRespawn: {
        const auto delay = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(action.delay_ms));
        respawn_at_[node] = std::chrono::steady_clock::now() + delay;
        util::log_info("gridpipe: respawning worker ", node, " in ",
                       action.delay_ms, " ms (attempt ",
                       supervisor_.respawns(node), ")");
        break;
      }
      case recover::Supervisor::ActionKind::kDegrade:
        util::log_warn("gridpipe: respawn budget for worker ", node,
                       " exhausted; degrading to the surviving grid");
        degrade_node(node);
        break;
      case recover::Supervisor::ActionKind::kFail:
        fail_lost(node, "respawn budget exhausted, degrade disabled");
    }
  }
}

void ProcessExecutor::process_respawns() {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t node = 0; node < respawn_at_.size(); ++node) {
    if (!respawn_at_[node] || *respawn_at_[node] > now) continue;
    respawn_at_[node].reset();
    if (respawn_worker(node) && !recovering_.empty()) {
      replay_recovering_items();
    }
  }
}

void ProcessExecutor::process_arrivals() {
  std::vector<std::size_t> requests;
  {
    util::MutexLock lock(status_mutex_);
    requests.swap(arrivals_);
  }
  for (const std::size_t node : requests) {
    if (node >= workers_.size() || worker_up(node)) continue;
    const bool was_recovering = respawn_at_[node].has_value();
    respawn_at_[node].reset();
    node_degraded_[node] = 0;
    supervisor_.on_arrival(node);
    controller_->on_node_arrival(node);
    if (!respawn_worker(node)) continue;
    run_churn_remap(control::AdaptationTrigger::kNodeArrival,
                    "node " + std::to_string(node) + " joined");
    // An arrival that doubled as the pending respawn still owes the
    // replay; a node growing back after a clean degrade does not (its
    // lost items were already replayed onto the survivors).
    if (was_recovering && !recovering_.empty()) replay_recovering_items();
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
  const std::uint32_t incarnation = ++incarnation_[node];
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
    spawn_worker(node, incarnation);
  } catch (const std::runtime_error& error) {
    util::log_warn("gridpipe: respawn of worker ", node,
                   " failed: ", error.what());
    dead_nodes_.push_back(node);  // back to the supervisor (budget ticks)
    return false;
  }
  respawns_.fetch_add(1, std::memory_order_relaxed);
  if (core_.obs_metrics().respawns) core_.obs_metrics().respawns->add(1);
  {
    util::MutexLock lock(status_mutex_);
    if (node < worker_pids_.size()) worker_pids_[node] = workers_[node].pid;
    health_.on_respawn(node, virtual_now());
  }
  util::log_info("gridpipe: worker ", node, " respawned (incarnation ",
                 incarnation, ", pid ", workers_[node].pid, ")");
  return true;
}

void ProcessExecutor::degrade_node(std::size_t node) {
  node_degraded_[node] = 1;
  respawn_at_[node].reset();
  controller_->on_node_loss(node);
  if (controller_->nodes_available() == 0) {
    fail_lost(node, "no surviving nodes to degrade onto");
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
  if (!recovering_.empty()) replay_recovering_items();
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
  for (std::size_t s = 0;
       s < controller_mapping_.num_stages() && !touches_degraded; ++s) {
    for (const grid::NodeId r : controller_mapping_.replicas(s)) {
      if (node_degraded_[r] != 0) {
        touches_degraded = true;
        break;
      }
    }
  }
  if (touches_degraded) {
    std::vector<grid::NodeId> survivors;
    for (grid::NodeId n = 0; n < grid_.num_nodes(); ++n) {
      if (node_degraded_[n] == 0) survivors.push_back(n);
    }
    std::vector<grid::NodeId> stage_to_node(stages_.size());
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      stage_to_node[s] =
          survivors[s * survivors.size() / stages_.size()];
    }
    apply_remap(sched::Mapping(std::move(stage_to_node)), 0.0);
  }
}

void ProcessExecutor::replay_recovering_items() {
  // Re-admit, in seq order, every item that was in flight at a death and
  // is still journaled. At-least-once: an item that actually survived on
  // a live worker will come back twice and the dedup retire drops the
  // loser. Replays bypass the credit window on purpose — these items
  // already held credits when they were lost.
  std::vector<std::uint64_t> seqs(recovering_.begin(), recovering_.end());
  for (const std::uint64_t seq : seqs) {
    const recover::ReplayJournal::Entry* entry = journal_.find(seq);
    if (entry == nullptr) continue;  // delivered while we were deciding
    const std::optional<grid::NodeId> dst = pick_stage0();
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
  dead_nodes_.clear();
  respawn_at_.assign(grid_.num_nodes(), std::nullopt);
  incarnation_.assign(grid_.num_nodes(), 0);
  node_degraded_.assign(grid_.num_nodes(), 0);
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
