#include "core/executor.hpp"

#include <algorithm>
#include <bit>

#include "obs/trace.hpp"

namespace gridpipe::core {

namespace {

/// Deliverable tasks a worker takes per queue-lock acquisition.
constexpr std::size_t kDrainBatch = 8;

std::chrono::steady_clock::duration to_real(double virtual_seconds,
                                            double time_scale) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(virtual_seconds * time_scale));
}
}  // namespace

Executor::Executor(const grid::Grid& grid, PipelineSpec spec,
                   sched::Mapping initial_mapping,
                   const rt::RuntimeOptions& options)
    : grid_(grid),
      spec_(std::move(spec)),
      profile_(spec_.to_profile()),
      options_(options),
      obs_(options_.obs.sinks()),
      core_("Executor", spec_.num_stages(), options_.window,
            options_.time_scale, obs_, grid.num_nodes() + 1,
            obs::kDefaultFlightEvents),
      mapping_(std::move(initial_mapping)),
      rng_(options_.seed) {
  mapping_.validate(grid_.num_nodes());
  if (mapping_.num_stages() != spec_.num_stages()) {
    throw std::invalid_argument("Executor: mapping/spec stage mismatch");
  }
  router_.reset(spec_.num_stages());
  for (std::size_t n = 0; n < grid_.num_nodes(); ++n) {
    workers_.push_back(std::make_unique<NodeWorker>());
  }
  controller_ = make_controller();
}

Executor::~Executor() {
  if (core_.active()) {
    try {
      stream_close();
      stream_finish();
    } catch (...) {
      // Destructor best-effort teardown; the stream's items had already
      // been accepted, so draining them is the only safe exit.
    }
  }
}

std::unique_ptr<control::AdaptationController> Executor::make_controller() {
  return std::make_unique<control::AdaptationController>(
      grid_, profile_, options_.adapt,
      static_cast<control::AdaptationHost&>(*this),
      control::AdaptationController::Mode::kPolicy, obs_);
}

double Executor::virtual_now() const { return core_.virtual_now(); }

sched::Mapping Executor::deployed_mapping() const {
  util::MutexLock lock(routing_mutex_);
  return mapping_;
}

grid::NodeId Executor::pick_replica_locked(std::size_t stage) {
  return router_.pick(mapping_, stage);
}

void Executor::admit_ready() {
  while (auto admitted = core_.admit_next()) {
    RtTask task;
    task.item = admitted->seq;
    task.payload = std::move(admitted->item);
    task.deliver_at = Clock::now();
    // Lock order: routing, then node — same nesting as apply_remap, so
    // the task lands before its drain or is routed per the new mapping.
    util::MutexLock routing_lock(routing_mutex_);
    NodeWorker& w = *workers_[pick_replica_locked(0)];
    {
      util::MutexLock node_lock(w.mutex);
      w.queue.push_back(std::move(task));
    }
    w.cv.notify_one();
  }
}

std::vector<Executor::RtTask> Executor::next_tasks(grid::NodeId node,
                                                   std::size_t max_n,
                                                   std::uint64_t& gen_out) {
  NodeWorker& w = *workers_[node];
  std::vector<RtTask> out;
  util::MutexLock lock(w.mutex);
  for (;;) {
    // Snapshot the remap generation at extraction time, under w.mutex:
    // a remap that fully completed while this worker was blocked has
    // already redistributed the queue, so the batch taken below reflects
    // it and must not trigger a spurious mid-batch requeue.
    gen_out = remap_gen_.load(std::memory_order_acquire);
    if (done_.load()) return out;
    const auto now = Clock::now();
    const auto freeze = Clock::time_point(
        Clock::duration(freeze_until_.load(std::memory_order_acquire)));
    if (now >= freeze) {
      // Take every deliverable task in FIFO order, up to max_n, with one
      // stable compaction pass over the queue.
      auto keep = w.queue.begin();
      for (auto it = w.queue.begin(); it != w.queue.end(); ++it) {
        if (out.size() < max_n && it->deliver_at <= now) {
          out.push_back(std::move(*it));
        } else {
          if (keep != it) *keep = std::move(*it);
          ++keep;
        }
      }
      w.queue.erase(keep, w.queue.end());
      if (!out.empty()) return out;
    }
    // Sleep until something could change: a wakeup, the freeze end, or
    // the earliest pending delivery.
    auto deadline = Clock::time_point::max();
    if (freeze > now) deadline = freeze;
    for (const RtTask& t : w.queue) {
      deadline = std::min(deadline, std::max(t.deliver_at, freeze));
    }
    if (deadline == Clock::time_point::max()) {
      w.cv.wait(w.mutex);
    } else {
      w.cv.wait_until(w.mutex, deadline);
    }
  }
}

void Executor::worker_loop(grid::NodeId node) {
  try {
    worker_loop_impl(node);
  } catch (...) {
    // A throwing stage function ends the stream: capture the first
    // error (Session::report rethrows it; fail() also wakes the
    // controller out of its completion wait) and stop every worker.
    core_.fail(std::current_exception());
    signal_done();
  }
}

void Executor::worker_loop_impl(grid::NodeId node) {
  // Single writer for this lane: this thread is the only one ever
  // executing tasks for `node` while the stream is live.
  obs::FlightRing flight = core_.recorder().ring(1 + node);
  for (;;) {
    std::uint64_t gen = 0;
    auto tasks = next_tasks(node, kDrainBatch, gen);
    if (tasks.empty()) return;

    for (std::size_t i = 0; i < tasks.size(); ++i) {
      // A remap that lands mid-batch reclaims the unprocessed remainder.
      // apply_remap cannot see tasks held in this local vector, so hand
      // them to requeue_per_mapping, which routes them under
      // routing_mutex_: either before apply_remap's drain (it
      // redistributes them) or after (they go straight to the new
      // mapping). The generation check catches remaps whose freeze
      // window already expired.
      if (i > 0) {
        const auto freeze = Clock::time_point(
            Clock::duration(freeze_until_.load(std::memory_order_acquire)));
        if (remap_gen_.load(std::memory_order_acquire) != gen ||
            Clock::now() < freeze) {
          std::vector<RtTask> rest;
          rest.reserve(tasks.size() - i);
          std::move(tasks.begin() + static_cast<std::ptrdiff_t>(i),
                    tasks.end(), std::back_inserter(rest));
          requeue_per_mapping(std::move(rest));
          break;
        }
      }
      RtTask& task = tasks[i];
      const auto t0 = Clock::now();
      const double v0 = virtual_now();
      flight.record(obs::FlightKind::kTaskStart, v0,
                    static_cast<std::uint32_t>(task.stage), task.item);
      std::any result = spec_.at(task.stage).fn(std::move(task.payload));

      if (options_.emulate_compute) {
        const double service_virtual =
            profile_.stage_work[task.stage] / grid_.effective_speed(node, v0);
        std::this_thread::sleep_until(
            t0 + to_real(service_virtual, options_.time_scale));
      }
      const double duration_virtual =
          std::chrono::duration<double>(Clock::now() - t0).count() /
          options_.time_scale;
      flight.record(obs::FlightKind::kTaskDone, v0 + duration_virtual,
                    static_cast<std::uint32_t>(task.stage), task.item,
                    std::bit_cast<std::uint64_t>(duration_virtual));

      core_.on_service(task.stage, duration_virtual);
      obs::record_span(obs_.tracer, obs::SpanKind::kStage,
                       spec_.at(task.stage).name.c_str(), v0, duration_virtual,
                       static_cast<std::uint32_t>(1 + node), task.item,
                       static_cast<std::uint32_t>(task.stage));
      if (core_.obs_metrics().stage_service) {
        core_.obs_metrics().stage_service->record(duration_virtual);
      }
      if (duration_virtual > 0.0) {
        controller_->record_observation(
            {monitor::SensorKind::kNodeSpeed, node, 0},
            profile_.stage_work[task.stage] / duration_virtual);
      }

      task.payload = std::move(result);
      route_onward(node, std::move(task));
    }
  }
}

void Executor::requeue_per_mapping(std::vector<RtTask> tasks) {
  // Lock order: routing, then node — same nesting as apply_remap.
  // Reverse iteration + push_front keeps the remainder's order and puts
  // it at queue fronts (the old handback's placement): these are the
  // oldest in-flight items, already delayed by the remap, and must not
  // queue behind admissions that arrived while they were held.
  util::MutexLock routing_lock(routing_mutex_);
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) {
    const grid::NodeId node = pick_replica_locked(it->stage);
    NodeWorker& w = *workers_[node];
    {
      util::MutexLock node_lock(w.mutex);
      w.queue.push_front(std::move(*it));
    }
    w.cv.notify_one();
  }
}

void Executor::route_onward(grid::NodeId from, RtTask task) {
  const std::size_t next_stage = task.stage + 1;
  if (next_stage == spec_.num_stages()) {
    // A completion frees one unit of in-flight credit: admit the oldest
    // pending push, if any, right here on the completing worker.
    core_.complete(task.item, std::move(task.payload));
    admit_ready();
    return;
  }
  grid::NodeId dst;
  {
    util::MutexLock lock(routing_mutex_);
    dst = pick_replica_locked(next_stage);
  }
  const double vnow = virtual_now();
  const double delay_virtual =
      grid_.transfer_time(from, dst, profile_.msg_bytes[next_stage], vnow);
  obs::record_span(obs_.tracer, obs::SpanKind::kWire, "hop", vnow,
                   delay_virtual, static_cast<std::uint32_t>(1 + dst),
                   task.item, static_cast<std::uint32_t>(next_stage));
  task.stage = next_stage;
  task.deliver_at = Clock::now() + to_real(delay_virtual, options_.time_scale);
  NodeWorker& w = *workers_[dst];
  {
    util::MutexLock node_lock(w.mutex);
    w.queue.push_back(std::move(task));
  }
  w.cv.notify_one();
}

void Executor::record_probes(double vnow) {
  for (grid::NodeId n = 0; n < grid_.num_nodes(); ++n) {
    const double noise = std::max(0.1, 1.0 + 0.02 * util::normal(rng_, 0, 1));
    controller_->record_observation(
        {monitor::SensorKind::kNodeSpeed, n, 0},
        std::max(1e-9, grid_.effective_speed(n, vnow) * noise));
  }
  for (grid::NodeId a = 0; a < grid_.num_nodes(); ++a) {
    for (grid::NodeId b = 0; b < grid_.num_nodes(); ++b) {
      if (a == b) continue;
      const double noise = std::max(0.1, 1.0 + 0.02 * util::normal(rng_, 0, 1));
      controller_->record_observation(
          {monitor::SensorKind::kLinkInflation, a, b},
          std::max(0.01,
                   (1.0 + grid_.link(a, b).congestion_at(vnow)) * noise));
    }
  }
}

void Executor::apply_remap(const sched::Mapping& to, double pause_virtual) {
  // Lock order: routing, then nodes in id order (route_onward uses the
  // same routing -> node order, never the reverse while holding a node).
  util::MutexLock routing_lock(routing_mutex_);
  const auto now = Clock::now();
  const auto freeze_end = now + to_real(pause_virtual, options_.time_scale);
  freeze_until_.store(freeze_end.time_since_epoch().count(),
                      std::memory_order_release);

  core_.on_remap(pause_virtual, to.to_string());

  // Seqlock-style generation: bump before draining and again after
  // redistributing. A worker batch extracted at any point that this
  // remap's drain could miss — before the first bump, or between the
  // bumps while its queue had not been drained yet — snapshots a
  // generation that differs from the final value, so its mid-batch check
  // reclaims the remainder. Only a batch extracted after the second bump
  // snapshots the final generation, and by then redistribution is done.
  remap_gen_.fetch_add(1, std::memory_order_release);

  // Drain all queues, switch the mapping, redistribute.
  std::vector<RtTask> pending;
  for (auto& worker : workers_) {
    util::MutexLock node_lock(worker->mutex);
    std::move(worker->queue.begin(), worker->queue.end(),
              std::back_inserter(pending));
    worker->queue.clear();
  }
  std::sort(pending.begin(), pending.end(),
            [](const RtTask& a, const RtTask& b) { return a.item < b.item; });
  mapping_ = to;
  router_.reset(spec_.num_stages());
  for (RtTask& task : pending) {
    const grid::NodeId node = pick_replica_locked(task.stage);
    NodeWorker& w = *workers_[node];
    util::MutexLock node_lock(w.mutex);
    w.queue.push_back(std::move(task));
  }
  remap_gen_.fetch_add(1, std::memory_order_release);  // second seqlock bump
  for (auto& worker : workers_) worker->cv.notify_all();
}

void Executor::signal_done() {
  done_.store(true);
  for (auto& worker : workers_) {
    util::MutexLock node_lock(worker->mutex);
    worker->cv.notify_all();
  }
}

void Executor::controller_loop() {
  if (options_.adapt.epoch <= 0.0) {
    // No adaptation: just wait for end-of-stream.
    core_.wait_done();
    return;
  }
  const auto epoch_real = to_real(options_.adapt.epoch, options_.time_scale);
  while (!core_.wait_done_until(Clock::now() + epoch_real)) {
    const control::EpochRecord record = controller_->run_epoch();
    core_.flight(obs::FlightKind::kEpoch, record.time,
                 (record.decided ? 1u : 0u) | (record.remapped ? 2u : 0u));
  }
}

void Executor::stream_begin() {
  {
    util::MutexLock lock(routing_mutex_);
    core_.begin(mapping_.to_string());
  }
  // Fresh controller per stream: the virtual clock restarts at 0, so gate
  // snapshots, hysteresis streaks and registry timestamps from a
  // previous stream would all be stale.
  controller_ = make_controller();
  done_.store(false);
  freeze_until_.store(0);

  threads_.reserve(workers_.size());
  for (grid::NodeId n = 0; n < workers_.size(); ++n) {
    threads_.emplace_back([this, n] { worker_loop(n); });
  }
  controller_thread_ = std::thread([this] { controller_loop(); });
}

void Executor::stream_push(std::any item) {
  core_.push(std::move(item));
  admit_ready();
}

std::optional<std::any> Executor::stream_try_pop() { return core_.try_pop(); }

void Executor::stream_close() { core_.close(); }

RunReport Executor::stream_finish() {
  core_.check_finishable();
  controller_thread_.join();
  signal_done();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  return core_.finish(controller_->take_epochs());
}

util::Json Executor::status() const {
  util::Json doc = core_.status("threads");
  util::Json workers = util::Json::array();
  for (std::size_t n = 0; n < workers_.size(); ++n) {
    util::Json w = util::Json::object();
    w["node"] = static_cast<std::uint64_t>(n);
    {
      util::MutexLock lock(workers_[n]->mutex);
      w["queue_depth"] =
          static_cast<std::uint64_t>(workers_[n]->queue.size());
    }
    workers.push_back(std::move(w));
  }
  doc["workers"] = std::move(workers);
  return doc;
}

RunReport Executor::run(std::vector<std::any> inputs) {
  return run_stream_batch(*this, std::move(inputs));
}

}  // namespace gridpipe::core
