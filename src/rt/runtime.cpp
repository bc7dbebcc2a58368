#include "rt/runtime.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/dist_executor.hpp"
#include "core/executor.hpp"
#include "obs/status.hpp"
#include "proc/process_executor.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace gridpipe::rt {

util::Json Session::status() const {
  // Substrates override this; the default keeps third-party Session
  // implementations source-compatible.
  util::Json doc = util::Json::object();
  doc["substrate"] = "unknown";
  return doc;
}

const char* to_string(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSim:     return "sim";
    case RuntimeKind::kThreads: return "threads";
    case RuntimeKind::kDist:    return "dist";
    case RuntimeKind::kProcess: return "process";
  }
  return "?";
}

std::optional<RuntimeKind> try_parse_runtime_kind(std::string_view name) {
  for (RuntimeKind kind : kAllRuntimeKinds) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

RuntimeKind parse_runtime_kind(std::string_view name) {
  if (auto kind = try_parse_runtime_kind(name)) return *kind;
  throw std::invalid_argument("unknown runtime '" + std::string(name) +
                              "'; valid: sim | threads | dist | process");
}

namespace {

/// The checks make_runtime promises up front: every substrate needs a
/// valid spec, the serialized ones also wire codecs on every stage.
core::PipelineSpec validated(RuntimeKind kind, core::PipelineSpec spec) {
  spec.validate();
  switch (kind) {
    case RuntimeKind::kSim:
    case RuntimeKind::kThreads:
      return spec;
    case RuntimeKind::kDist:
    case RuntimeKind::kProcess:
      spec.validate_for_wire(to_string(kind));
      return spec;
  }
  throw std::invalid_argument("make_runtime: unknown RuntimeKind");
}

sched::Mapping plan_initial(const grid::Grid& grid,
                            const sched::PipelineProfile& profile,
                            const control::AdaptationConfig& adapt) {
  const sched::PerfModel model(adapt.model);
  const auto est = sched::ResourceEstimate::from_grid(grid, 0.0);
  return control::choose_mapping(model, profile, est, adapt.mapper,
                                 adapt.pin_first_stage,
                                 adapt.max_total_replicas)
      .mapping;
}

/// Wraps every typed stage into the serialized substrates' append
/// contract: decode the input straight from the transport buffer view,
/// run the user function, encode the output in place after the wire
/// header already sitting in `outb`. The lambdas copy the stage's
/// function and codecs, so the resulting stage vector is independent of
/// the spec's lifetime.
std::vector<core::DistStage> wire_stages(const core::PipelineSpec& spec) {
  std::vector<core::DistStage> stages;
  stages.reserve(spec.num_stages());
  for (const core::StageSpec& s : spec.stages()) {
    stages.push_back(
        {s.name,
         [fn = s.fn, in = s.in_codec, out = s.out_codec](
             core::ByteSpan wire, core::Bytes& outb) {
           out.encode_into(fn(in.decode(wire)), outb);
         },
         s.work, s.out_bytes, s.state_bytes});
  }
  return stages;
}

// ---------------------------------------------------------------- sim

/// Virtual-time feeder: push() buffers items; close() replays the whole
/// stream through the DES for timing/adaptation and computes the output
/// values by reference execution; try_pop() drains after close().
class SimSession final : public Session {
 public:
  SimSession(const grid::Grid& grid, core::PipelineSpec spec,
             RuntimeOptions options)
      : grid_(grid), spec_(std::move(spec)), options_(std::move(options)) {
    status_reg_ = obs::StatusRegistration("sim", [this] { return status(); });
  }

  void push(std::any item) override {
    util::MutexLock lock(mutex_);
    if (closed_) throw std::logic_error("SimSession: push on a closed stream");
    items_.push_back(std::move(item));
  }

  std::optional<std::any> try_pop() override {
    util::MutexLock lock(mutex_);
    if (!closed_ || next_out_ >= outputs_.size()) return std::nullopt;
    return std::move(outputs_[next_out_++]);
  }

  util::Json status() const override {
    util::MutexLock lock(mutex_);
    util::Json doc = util::Json::object();
    doc["substrate"] = "sim";
    doc["closed"] = closed_;
    doc["buffered_in"] = static_cast<std::uint64_t>(items_.size());
    doc["outputs_ready"] =
        static_cast<std::uint64_t>(outputs_.size() - next_out_);
    doc["next_out"] = static_cast<std::uint64_t>(next_out_);
    return doc;
  }

  void close() override {
    util::MutexLock lock(mutex_);
    if (closed_) return;
    closed_ = true;
    if (items_.empty()) return;

    const auto t0 = std::chrono::steady_clock::now();
    sim::SimConfig config = options_.sim_config;
    config.num_items = items_.size();
    if (options_.window != 0) config.window = options_.window;

    config.obs = options_.obs.sinks();

    sim::DriverOptions driver;
    driver.driver = options_.sim_driver;
    driver.adapt = options_.adapt;
    driver.obs = options_.obs.sinks();
    // epoch = 0 means "adaptation off" on every substrate; an adaptive
    // sim driver with a zero epoch would spin the event queue forever.
    if (driver.adapt.epoch <= 0.0 &&
        (driver.driver == sim::DriverKind::kAdaptive ||
         driver.driver == sim::DriverKind::kOracle)) {
      driver.driver = sim::DriverKind::kStaticOptimal;
    }

    sim::RunResult result =
        sim::run_pipeline(grid_, spec_.to_profile(), config, driver);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // Output values come from reference execution — the DES models
    // timing, not payloads.
    outputs_.reserve(items_.size());
    for (std::any& item : items_) {
      outputs_.push_back(spec_.run_inline(std::move(item)));
    }
    items_.clear();

    const std::uint64_t items = result.metrics.items_completed();
    core::finalize_stream_report(
        report_, items, wall, /*time_scale=*/1.0, std::move(result.metrics),
        std::move(result.epochs), result.initial_mapping.to_string(),
        result.final_mapping.to_string());
    // Virtual time on the sim is the event clock, not wall / time_scale.
    report_.virtual_seconds = result.makespan;
    report_.throughput = result.mean_throughput;
    if (options_.obs.metrics) {
      report_.obs_metrics = options_.obs.metrics->snapshot();
    }
  }

  core::RunReport report() override {
    close();
    util::MutexLock lock(mutex_);
    return report_;
  }

 private:
  const grid::Grid& grid_;
  core::PipelineSpec spec_;
  RuntimeOptions options_;
  /// Guards the session state against concurrent status() snapshots
  /// (the CLI's watcher thread) — the caller itself is single-threaded.
  mutable util::Mutex mutex_;
  std::vector<std::any> items_ GRIDPIPE_GUARDED_BY(mutex_);
  std::vector<std::any> outputs_ GRIDPIPE_GUARDED_BY(mutex_);
  std::size_t next_out_ GRIDPIPE_GUARDED_BY(mutex_) = 0;
  bool closed_ GRIDPIPE_GUARDED_BY(mutex_) = false;
  core::RunReport report_ GRIDPIPE_GUARDED_BY(mutex_);
  /// Last member: unregisters (and drains in-flight snapshots) before
  /// any state the provider reads is destroyed.
  obs::StatusRegistration status_reg_;
};

// ------------------------------------------------------ live sessions

/// Best-effort guard for the process runtime's fork constraint: count of
/// live-runtime sessions whose internal threads may still be running.
/// Forking while any are live would copy a possibly-locked allocator or
/// mutex into the child, so Runtime::open refuses a process session.
std::atomic<int> g_live_session_count{0};

struct LiveSessionToken {
  LiveSessionToken() { g_live_session_count.fetch_add(1); }
  ~LiveSessionToken() { g_live_session_count.fetch_sub(1); }
  LiveSessionToken(const LiveSessionToken&) = delete;
  LiveSessionToken& operator=(const LiveSessionToken&) = delete;
};

/// Identity bridging for the in-process threads executor: items are
/// std::any end to end.
struct AnyBridge {
  std::any encode(std::any item) const { return item; }
  std::any decode(std::any item) const { return item; }
};

/// Codec bridging for the Bytes-stage substrates: encode typed items
/// with the first stage's input codec, decode results with the last
/// stage's output codec.
struct CodecBridge {
  explicit CodecBridge(const core::PipelineSpec& spec)
      : in(spec.stages().front().in_codec),
        out(spec.stages().back().out_codec) {}
  core::ItemCodec in;
  core::ItemCodec out;
  core::Bytes encode(const std::any& item) const { return in.encode(item); }
  std::any decode(core::Bytes wire) const { return out.decode(wire); }
};

/// One session lifecycle over any executor's shared stream_* primitives;
/// only the push/try_pop item bridging differs per substrate.
template <class Executor, class Bridge>
class ExecSession final : public Session {
 public:
  ExecSession(std::string name, std::unique_ptr<Executor> executor,
              Bridge bridge, obs::Config obs = {})
      : executor_(std::move(executor)),
        bridge_(std::move(bridge)),
        obs_(std::move(obs)) {
    executor_->stream_begin();
    // Registered only after stream_begin: the provider may fire from
    // another thread the moment it is visible, and the executor's status
    // must already describe a live stream (for the process runtime, the
    // fleet has already forked by now — no new threads existed before).
    status_reg_ = obs::StatusRegistration(
        std::move(name), [this] { return executor_->status(); });
  }

  void push(std::any item) override {
    executor_->stream_push(bridge_.encode(std::move(item)));
  }
  std::optional<std::any> try_pop() override {
    if (auto out = executor_->stream_try_pop()) {
      return bridge_.decode(std::move(*out));
    }
    return std::nullopt;
  }
  void close() override {
    if (!closed_) {
      closed_ = true;
      executor_->stream_close();
    }
  }
  core::RunReport report() override {
    close();
    if (!finished_) {
      finished_ = true;
      try {
        report_ = executor_->stream_finish();
        if (obs_.metrics) report_.obs_metrics = obs_.metrics->snapshot();
      } catch (...) {
        // Cache the failure so every report() call rethrows it, rather
        // than a misleading "no active stream" on the second call.
        error_ = std::current_exception();
      }
      token_.reset();  // threads joined either way; forking is safe again
    }
    if (error_) std::rethrow_exception(error_);
    return report_;
  }

  util::Json status() const override { return executor_->status(); }

 private:
  // Declared before executor_ so it releases only after the executor's
  // destructor joined any threads a never-finished stream left running.
  std::optional<LiveSessionToken> token_{std::in_place};
  std::unique_ptr<Executor> executor_;
  Bridge bridge_;
  obs::Config obs_;
  bool closed_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
  core::RunReport report_;
  /// Last member: unregisters (draining in-flight snapshots) before
  /// executor_ — whose status() the provider calls — is destroyed.
  obs::StatusRegistration status_reg_;
};

}  // namespace

// ------------------------------------------------------------- runtime

core::RunReport Runtime::run(std::vector<std::any> items) {
  auto session = open();
  for (std::any& item : items) session->push(std::move(item));
  core::RunReport report = session->report();
  report.outputs.reserve(report.items);
  while (auto out = session->try_pop()) {
    report.outputs.push_back(std::move(*out));
  }
  return report;
}

Runtime::Runtime(RuntimeKind kind, const grid::Grid& grid,
                 core::PipelineSpec spec, RuntimeOptions options)
    : kind_(kind),
      grid_(grid),
      spec_(validated(kind, std::move(spec))),
      profile_(spec_.to_profile()),
      options_(std::move(options)),
      mapping_(options_.initial_mapping
                   ? *options_.initial_mapping
                   : plan_initial(grid, profile_, options_.adapt)) {}

std::unique_ptr<Session> Runtime::open() {
  switch (kind_) {
    case RuntimeKind::kSim:
      return std::make_unique<SimSession>(grid_, spec_, options_);
    case RuntimeKind::kThreads:
      return std::make_unique<ExecSession<core::Executor, AnyBridge>>(
          "threads",
          std::make_unique<core::Executor>(grid_, spec_, mapping_, options_),
          AnyBridge{}, options_.obs);
    case RuntimeKind::kDist:
      return std::make_unique<
          ExecSession<core::DistributedExecutor, CodecBridge>>(
          "dist",
          std::make_unique<core::DistributedExecutor>(
              grid_, wire_stages(spec_), mapping_, options_),
          CodecBridge(spec_), options_.obs);
    case RuntimeKind::kProcess:
      if (g_live_session_count.load() > 0) {
        throw std::logic_error(
            "rt: refusing to open a process session while another live "
            "session's threads are running — fork would copy their locks "
            "into the child; report() or destroy the other session first");
      }
      return std::make_unique<ExecSession<proc::ProcessExecutor, CodecBridge>>(
          "process",
          std::make_unique<proc::ProcessExecutor>(grid_, wire_stages(spec_),
                                                  mapping_, options_),
          CodecBridge(spec_), options_.obs);
  }
  throw std::logic_error("rt: unknown RuntimeKind");
}

std::unique_ptr<Runtime> make_runtime(RuntimeKind kind,
                                      const grid::Grid& grid,
                                      core::PipelineSpec spec,
                                      RuntimeOptions options) {
  return std::make_unique<Runtime>(kind, grid, std::move(spec),
                                   std::move(options));
}

}  // namespace gridpipe::rt
