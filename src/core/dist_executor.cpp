#include "core/dist_executor.hpp"

#include <bit>
#include <stdexcept>

#include "comm/wire.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace gridpipe::core {

namespace {

using comm::wire::FrameKind;

/// Messages a rank takes per mailbox-lock acquisition.
constexpr std::size_t kDrainBatch = 16;

}  // namespace

DistributedExecutor::DistributedExecutor(const grid::Grid& grid,
                                         std::vector<DistStage> stages,
                                         sched::Mapping initial_mapping,
                                         const rt::RuntimeOptions& options)
    : grid_(grid),
      stages_(std::move(stages)),
      initial_mapping_(std::move(initial_mapping)),
      options_(options),
      obs_(options_.obs.sinks()),
      core_("DistributedExecutor", stages_.size(), options_.window,
            options_.time_scale, obs_, grid.num_nodes() + 1,
            obs::kDefaultFlightEvents,
            // A push, close or failure wakes the controller rank.
            [this] { mailboxes_.back().wake(); }),
      mailboxes_(grid.num_nodes() + 1) {
  if (stages_.empty()) {
    throw std::invalid_argument("DistributedExecutor: no stages");
  }
  initial_mapping_.validate(grid_.num_nodes());
  if (initial_mapping_.num_stages() != stages_.size()) {
    throw std::invalid_argument("DistributedExecutor: mapping mismatch");
  }
  profile_ = profile();
  controller_ = make_controller();
}

DistributedExecutor::~DistributedExecutor() {
  if (core_.active()) {
    try {
      stream_close();
      stream_finish();
    } catch (...) {
      // Destructor best-effort teardown.
    }
  }
}

std::unique_ptr<control::AdaptationController>
DistributedExecutor::make_controller() {
  return std::make_unique<control::AdaptationController>(
      grid_, profile_, options_.adapt,
      static_cast<control::AdaptationHost&>(*this),
      control::AdaptationController::Mode::kPolicy, obs_);
}

sched::PipelineProfile profile_from_stages(
    const std::vector<DistStage>& stages) {
  sched::PipelineProfile p;
  p.msg_bytes.push_back(stages.front().out_bytes);  // input ≈ first msg
  for (const DistStage& s : stages) {
    p.stage_work.push_back(s.work);
    p.msg_bytes.push_back(s.out_bytes);
    p.state_bytes.push_back(s.state_bytes);
  }
  return p;
}

sched::PipelineProfile DistributedExecutor::profile() const {
  return profile_from_stages(stages_);
}

double DistributedExecutor::virtual_now() const {
  return core_.virtual_now();
}

void DistributedExecutor::send(int from, int to, FrameKind kind,
                               Bytes payload) {
  // Worker rank n lives on node n; the controller sits on node 0,
  // standing in for the submission host.
  const auto node_of = [this](int rank) {
    return rank == controller_rank() ? grid::NodeId{0}
                                     : static_cast<grid::NodeId>(rank);
  };
  const double delay =
      grid_.transfer_time(node_of(from), node_of(to),
                          static_cast<double>(payload.size()), virtual_now()) *
      options_.time_scale;
  mailboxes_[static_cast<std::size_t>(to)].post(
      {from, kind, std::move(payload),
       comm::Clock::now() + std::chrono::duration_cast<comm::Clock::duration>(
                                std::chrono::duration<double>(delay))});
}

void DistributedExecutor::worker_loop(int rank) {
  try {
    worker_loop_impl(rank);
  } catch (...) {
    // A throwing stage function (or a malformed payload) ends the
    // stream: capture the first error; fail() wakes the controller loop,
    // which shuts the fleet down, and stream_finish() rethrows it to the
    // caller.
    core_.fail(std::current_exception());
  }
}

void DistributedExecutor::worker_loop_impl(int rank) {
  RoutingTable routing{initial_mapping_,
                       sched::ReplicaRouter(stages_.size())};
  const auto node = static_cast<grid::NodeId>(rank);
  // Single writer for this lane: this thread is rank `rank`'s only one.
  obs::FlightRing flight =
      core_.recorder().ring(1 + static_cast<std::size_t>(rank));

  // Worker-side telemetry is buffered locally and shipped to the
  // controller rank as kTelemetry messages after each drained batch —
  // the sinks themselves live on the controller side, so one trace file
  // covers every rank on the shared virtual clock.
  const bool telemetry = obs_.any();
  obs::TelemetryBatch spans;
  std::uint64_t executed = 0;
  const auto flush_telemetry = [&] {
    if (!telemetry) return;
    if (executed) spans.counters.push_back({"stage_executions", executed});
    executed = 0;
    if (spans.empty()) return;
    send(rank, controller_rank(), FrameKind::kTelemetry,
         obs::encode_telemetry(spans));
    spans = obs::TelemetryBatch{};
  };

  comm::Mailbox& inbox = mailboxes_[static_cast<std::size_t>(rank)];
  for (;;) {
    // Drain the rank's mailbox in batches: one lock acquisition per train
    // of delivered messages instead of one per message. The loop ends on
    // kShutdown.
    auto batch = inbox.take(kDrainBatch, comm::Clock::time_point::max());

    // Control messages jump the task queue: apply the newest kRemap in
    // the batch before executing anything (routing is eventually
    // consistent, so applying it a few tasks early is strictly fresher),
    // and honor a kShutdown immediately — the controller only sends it
    // once every result is in, so no task in this batch still matters.
    const comm::Message* last_remap = nullptr;
    bool shutdown = false;
    for (const comm::Message& message : batch) {
      if (message.kind == FrameKind::kShutdown) shutdown = true;
      if (message.kind == FrameKind::kRemap) last_remap = &message;
    }
    if (shutdown) {
      flush_telemetry();
      return;
    }
    // Each remap fully overwrites the previous one, so only the newest in
    // the batch needs decoding.
    if (last_remap) {
      routing.mapping = comm::wire::decode_mapping(last_remap->payload);
      routing.router.reset(stages_.size());
    }

    for (comm::Message& message : batch) {
      if (message.kind != FrameKind::kTask) continue;  // handled above

      const comm::wire::TaskView task =
          comm::wire::decode_task(comm::wire::ByteSpan(message.payload));
      const std::uint64_t item = task.item;
      const std::uint32_t stage = task.stage;

      const auto t0 = std::chrono::steady_clock::now();
      const double v0 = virtual_now();
      flight.record(obs::FlightKind::kTaskStart, v0, stage, item);
      // Compose the next hop in one pooled buffer: the task header goes
      // first, then the stage function appends its output right after —
      // no fresh vector anywhere on the path.
      Bytes out = pool_.acquire();
      comm::wire::encode_task_header_into(out, item, stage + 1);
      stages_[stage].fn(task.payload, out);
      if (options_.emulate_compute) {
        const double service =
            stages_[stage].work / grid_.effective_speed(node, v0);
        std::this_thread::sleep_until(
            t0 +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(service * options_.time_scale)));
      }
      const double duration =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count() /
          options_.time_scale;
      flight.record(obs::FlightKind::kTaskDone, v0 + duration, stage, item,
                    std::bit_cast<std::uint64_t>(duration));

      // Report the observed speed to the controller's monitor.
      if (duration > 0.0) {
        Bytes obs = pool_.acquire();
        comm::wire::encode_f64_into(obs, stages_[stage].work / duration);
        send(rank, controller_rank(), FrameKind::kSpeedObs, std::move(obs));
      }

      if (telemetry) {
        ++executed;
        obs::TraceEvent span;
        span.name = stages_[stage].name;
        span.kind = obs::SpanKind::kStage;
        span.start = v0;
        span.duration = duration;
        span.tid = static_cast<std::uint32_t>(1 + node);
        span.item = item;
        span.stage = stage;
        spans.events.push_back(std::move(span));
      }

      if (stage + 1 == stages_.size()) {
        send(rank, controller_rank(), FrameKind::kResult, std::move(out));
      } else {
        const grid::NodeId dst = routing.pick(stage + 1);
        if (telemetry) {
          const double v_send = virtual_now();
          obs::TraceEvent hop;
          hop.name = "hop";
          hop.kind = obs::SpanKind::kWire;
          hop.start = v_send;
          hop.duration = grid_.transfer_time(node, dst,
                                             stages_[stage].out_bytes, v_send);
          hop.tid = static_cast<std::uint32_t>(1 + dst);
          hop.item = item;
          hop.stage = stage + 1;
          spans.events.push_back(std::move(hop));
        }
        send(rank, static_cast<int>(dst), FrameKind::kTask, std::move(out));
      }
      // The input payload is fully consumed (the view died with the fn
      // call); recycle its buffer.
      pool_.release(std::move(message.payload));
    }
    flush_telemetry();
  }
}

sched::Mapping DistributedExecutor::deployed_mapping() const {
  return controller_mapping_;
}

void DistributedExecutor::record_probes(double) {
  // Observations arrive as kSpeedObs messages; nothing to probe here.
}

void DistributedExecutor::apply_remap(const sched::Mapping& to,
                                      double pause_virtual) {
  core_.on_remap(pause_virtual, to.to_string());
  controller_mapping_ = to;
  controller_router_.reset(stages_.size());
  const Bytes wire = comm::wire::encode_mapping(controller_mapping_);
  for (int rank = 0; rank < controller_rank(); ++rank) {
    send(controller_rank(), rank, FrameKind::kRemap, wire);
  }
}

void DistributedExecutor::controller_loop() {
  const int me = controller_rank();
  comm::Mailbox& inbox = mailboxes_.back();
  const double epoch = options_.adapt.epoch;
  double next_epoch = epoch;

  auto handle = [&](comm::Message& message) {
    if (message.kind == FrameKind::kResult) {
      const comm::wire::TaskView task =
          comm::wire::decode_task(comm::wire::ByteSpan(message.payload));
      // The output crosses the API boundary, so it must own its bytes:
      // one copy out of the wire buffer, then the buffer recycles.
      core_.complete(task.item,
                     Bytes(task.payload.begin(), task.payload.end()));
      pool_.release(std::move(message.payload));
    } else if (message.kind == FrameKind::kSpeedObs) {
      controller_->record_observation(
          {monitor::SensorKind::kNodeSpeed,
           static_cast<std::uint32_t>(message.source), 0},
          comm::wire::decode_f64(comm::wire::ByteSpan(message.payload)));
      pool_.release(std::move(message.payload));
    } else if (message.kind == FrameKind::kTelemetry) {
      obs::apply_telemetry(obs::decode_telemetry(message.payload),
                           obs_);
      pool_.release(std::move(message.payload));
    }
  };

  for (;;) {
    // Admit pushed items under the credit window, then check for the
    // end of the stream (closed and drained, or a worker failed).
    while (auto admitted = core_.admit_next()) {
      const grid::NodeId dst = controller_router_.pick(controller_mapping_, 0);
      Bytes wire = pool_.acquire();
      comm::wire::encode_task_into(wire, admitted->seq, 0, admitted->item);
      send(me, static_cast<int>(dst), FrameKind::kTask, std::move(wire));
      pool_.release(std::move(admitted->item));
    }
    if (core_.done()) break;

    // Wait for a message, a wake (push, close or failure, through the
    // core's hook) or the next adaptation point; with epochs off, only
    // the first two. Results tend to arrive in bursts; one take drains a
    // whole train of them.
    auto deadline = comm::Clock::time_point::max();
    if (epoch > 0.0) {
      deadline = core_.start() +
                 std::chrono::duration_cast<comm::Clock::duration>(
                     std::chrono::duration<double>(next_epoch *
                                                   options_.time_scale));
    }
    for (comm::Message& m : inbox.take(kDrainBatch, deadline)) handle(m);
    if (epoch > 0.0 && virtual_now() >= next_epoch) {
      const control::EpochRecord record = controller_->run_epoch();
      core_.flight(obs::FlightKind::kEpoch, record.time,
                   (record.decided ? 1u : 0u) | (record.remapped ? 2u : 0u));
      next_epoch += epoch;
    }
  }

  for (int rank = 0; rank < me; ++rank) {
    send(me, rank, FrameKind::kShutdown, {});
  }
}

void DistributedExecutor::stream_begin() {
  core_.begin(initial_mapping_.to_string());
  // Fresh controller per stream: the virtual clock restarts at 0, so gate
  // snapshots, hysteresis streaks and registry timestamps from a
  // previous stream would all be stale.
  controller_ = make_controller();
  controller_mapping_ = initial_mapping_;
  controller_router_.reset(stages_.size());

  for (int rank = 0; rank < controller_rank(); ++rank) {
    worker_threads_.emplace_back([this, rank] { worker_loop(rank); });
  }
  controller_thread_ = std::thread([this] { controller_loop(); });
}

void DistributedExecutor::stream_push(Bytes item) {
  core_.push(std::move(item));
}

std::optional<Bytes> DistributedExecutor::stream_try_pop() {
  return core_.try_pop();
}

void DistributedExecutor::stream_close() { core_.close(); }

RunReport DistributedExecutor::stream_finish() {
  core_.check_finishable();
  controller_thread_.join();
  for (auto& t : worker_threads_) t.join();
  worker_threads_.clear();
  if (obs_.any()) {
    // Workers flush their final telemetry on kShutdown, after the
    // controller loop has stopped receiving; collect the stragglers now
    // that every rank is joined so the trace covers the whole stream.
    for (comm::Message& m :
         mailboxes_.back().take(std::size_t(-1), comm::Clock::now())) {
      if (m.kind == FrameKind::kTelemetry) {
        obs::apply_telemetry(obs::decode_telemetry(m.payload), obs_);
      }
    }
  }
  // Nothing may leak into the next stream: a rank that died on a stage
  // exception never took its kShutdown, and hops in flight at a failure
  // were never taken at all. Cleared in place, not replaced: the core's
  // wake hook may still be reaching the controller's mailbox from a
  // close() on another thread.
  for (comm::Mailbox& mailbox : mailboxes_) mailbox.clear();
  return core_.finish(controller_->take_epochs());
}

util::Json DistributedExecutor::status() const {
  return core_.status("dist");
}

RunReport DistributedExecutor::run(std::vector<Bytes> inputs) {
  return run_stream_batch(*this, std::move(inputs));
}

}  // namespace gridpipe::core
