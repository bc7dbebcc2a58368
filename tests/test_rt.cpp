// Tests for the unified rt::Runtime API: codec round-trips, spec
// validation errors, RuntimeKind parsing, streaming session semantics,
// the cross-substrate golden parity suite — the same typed stream
// through all four runtimes via rt::make_runtime must produce identical
// ordered outputs and consistent epoch decisions — and the end-to-end
// observability contract (spans and metrics uniform across substrates,
// worker spans shipped over the wire on dist/process).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "grid/builders.hpp"
#include "json_checker.hpp"
#include "obs/status.hpp"
#include "rt/runtime.hpp"
#include "sim/drivers.hpp"

namespace gridpipe::rt {
namespace {

// A typed (non-Bytes) pipeline: int64 -> int64 -> double -> string.
core::PipelineSpec typed_spec() {
  core::PipelineSpec spec;
  spec.stage<std::int64_t, std::int64_t>(
          "add", [](std::int64_t v) { return v + 3; }, /*work=*/0.02,
          /*out_bytes=*/16)
      .stage<std::int64_t, double>(
          "scale", [](std::int64_t v) { return static_cast<double>(v) * 1.5; },
          /*work=*/0.05, /*out_bytes=*/16)
      .stage<double, std::string>(
          "fmt",
          [](double v) { return std::to_string(static_cast<long>(v * 10.0)); },
          /*work=*/0.02, /*out_bytes=*/24);
  return spec;
}

std::vector<std::any> int64_items(std::int64_t n) {
  std::vector<std::any> items;
  for (std::int64_t i = 0; i < n; ++i) items.emplace_back(i);
  return items;
}

// Unsigned value of a top-level key in a compact status dump (the repo
// emits JSON but has no parser; top-level counters are unique keys).
std::uint64_t status_u64(const std::string& compact, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const auto at = compact.find(tag);
  EXPECT_NE(at, std::string::npos) << key << " missing: " << compact;
  return at == std::string::npos ? 0
                                 : std::stoull(compact.substr(at + tag.size()));
}

std::vector<std::string> expected_outputs(std::int64_t n) {
  const core::PipelineSpec spec = typed_spec();
  std::vector<std::string> expected;
  for (std::int64_t i = 0; i < n; ++i) {
    expected.push_back(
        std::any_cast<std::string>(spec.run_inline(std::any(i))));
  }
  return expected;
}

// ------------------------------------------------------------- codecs

TEST(Codec, ArithmeticRoundTrip) {
  EXPECT_EQ(core::Codec<int>::decode(core::Codec<int>::encode(-42)), -42);
  EXPECT_EQ(core::Codec<std::uint64_t>::decode(
                core::Codec<std::uint64_t>::encode(1u << 30)),
            1u << 30);
  EXPECT_DOUBLE_EQ(core::Codec<double>::decode(core::Codec<double>::encode(
                       3.25)),
                   3.25);
}

TEST(Codec, StringAndBytesRoundTrip) {
  const std::string s = "hello grid";
  EXPECT_EQ(core::Codec<std::string>::decode(
                core::Codec<std::string>::encode(s)),
            s);
  const core::Bytes b{std::byte{1}, std::byte{2}, std::byte{255}};
  EXPECT_EQ(core::Codec<core::Bytes>::decode(core::Codec<core::Bytes>::encode(b)),
            b);
}

TEST(Codec, ArithmeticRejectsWrongSize) {
  EXPECT_THROW(core::Codec<std::uint32_t>::decode(core::Bytes(3)),
               std::invalid_argument);
}

TEST(Codec, ItemCodecBridgesAny) {
  const auto codec = core::ItemCodec::of<std::int64_t>();
  ASSERT_TRUE(static_cast<bool>(codec));
  const core::Bytes wire = codec.encode(std::any(std::int64_t{77}));
  EXPECT_EQ(std::any_cast<std::int64_t>(codec.decode(wire)), 77);
}

// --------------------------------------------------------- validation

TEST(Validation, EmptySpecRejectedAtFactory) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  EXPECT_THROW(make_runtime(RuntimeKind::kThreads, g, core::PipelineSpec{}),
               std::invalid_argument);
}

TEST(Validation, UntypedStageRejectedOnSerializedRuntimes) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  core::PipelineSpec spec;
  spec.stage("anon", [](std::any a) { return a; }, 0.1);
  // In-process runtimes accept std::any passthrough stages...
  EXPECT_NO_THROW(make_runtime(RuntimeKind::kThreads, g, spec));
  EXPECT_NO_THROW(make_runtime(RuntimeKind::kSim, g, spec));
  // ...the serialized ones need codecs, and say so actionably.
  for (RuntimeKind kind : {RuntimeKind::kDist, RuntimeKind::kProcess}) {
    try {
      make_runtime(kind, g, spec);
      FAIL() << "expected invalid_argument for " << to_string(kind);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("wire codec"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("anon"), std::string::npos);
    }
  }
}

TEST(Validation, TypedChainMismatchNamesBothStages) {
  core::PipelineSpec spec;
  spec.stage<std::int64_t, double>(
          "widen", [](std::int64_t v) { return static_cast<double>(v); }, 0.1)
      .stage<std::string, std::string>(
          "shout", [](std::string s) { return s; }, 0.1);
  try {
    spec.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("widen"), std::string::npos);
    EXPECT_NE(what.find("shout"), std::string::npos);
    EXPECT_NE(what.find("double"), std::string::npos);
    EXPECT_NE(what.find("std::string"), std::string::npos);
  }
}

TEST(Validation, StageBuilderRejectsBadWork) {
  core::PipelineSpec spec;
  EXPECT_THROW(spec.stage("zero", [](std::any a) { return a; }, 0.0),
               std::invalid_argument);
  EXPECT_THROW(spec.stage("negative", [](std::any a) { return a; }, -1.0),
               std::invalid_argument);
}

// ------------------------------------------------------- kind parsing

TEST(RuntimeKindNames, ParseRoundTripsAllKinds) {
  for (RuntimeKind kind : kAllRuntimeKinds) {
    EXPECT_EQ(parse_runtime_kind(to_string(kind)), kind);
  }
  EXPECT_FALSE(try_parse_runtime_kind("bogus").has_value());
  EXPECT_THROW(parse_runtime_kind("bogus"), std::invalid_argument);
}

// ----------------------------------------------------------- sessions

TEST(Session, ThreadsStreamsIncrementally) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  RuntimeOptions options;
  options.time_scale = 0.002;
  auto runtime = make_runtime(RuntimeKind::kThreads, g, typed_spec(), options);
  auto session = runtime->open();

  const auto expected = expected_outputs(12);
  std::vector<std::string> got;
  // Push the first half, wait for at least one output to surface while
  // the stream is still open, then push the rest.
  for (std::int64_t i = 0; i < 6; ++i) session->push(std::any(i));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.empty() && std::chrono::steady_clock::now() < deadline) {
    if (auto out = session->try_pop()) {
      got.push_back(std::any_cast<std::string>(std::move(*out)));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_FALSE(got.empty()) << "no output while the stream was open";
  for (std::int64_t i = 6; i < 12; ++i) session->push(std::any(i));
  session->close();
  const auto report = session->report();
  EXPECT_EQ(report.items, 12u);
  while (auto out = session->try_pop()) {
    got.push_back(std::any_cast<std::string>(std::move(*out)));
  }
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_EQ(got, expected);  // input order restored
}

TEST(Session, PushAfterCloseThrows) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  RuntimeOptions options;
  options.time_scale = 0.002;
  auto runtime = make_runtime(RuntimeKind::kThreads, g, typed_spec(), options);
  auto session = runtime->open();
  session->push(std::any(std::int64_t{1}));
  session->close();
  EXPECT_THROW(session->push(std::any(std::int64_t{2})), std::logic_error);
  session->report();
}

TEST(Session, SimFeedsOnClose) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  auto runtime = make_runtime(RuntimeKind::kSim, g, typed_spec(), {});
  auto session = runtime->open();
  for (std::int64_t i = 0; i < 8; ++i) session->push(std::any(i));
  // The virtual-time feeder defers everything to close().
  EXPECT_FALSE(session->try_pop().has_value());
  session->close();
  const auto expected = expected_outputs(8);
  std::vector<std::string> got;
  while (auto out = session->try_pop()) {
    got.push_back(std::any_cast<std::string>(std::move(*out)));
  }
  EXPECT_EQ(got, expected);
  const auto report = session->report();
  EXPECT_EQ(report.items, 8u);
  EXPECT_GT(report.virtual_seconds, 0.0);
}

TEST(Session, StageExceptionSurfacesAtReport) {
  // A wrong-typed item passes the in-process push (no codecs run), hits
  // the typed wrapper's std::invalid_argument inside a worker thread,
  // and the session must surface it from report() instead of
  // terminating the process.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  RuntimeOptions options;
  options.time_scale = 0.002;
  auto runtime = make_runtime(RuntimeKind::kThreads, g, typed_spec(), options);
  auto session = runtime->open();
  session->push(std::any(std::string("wrong type")));
  session->close();
  EXPECT_THROW(session->report(), std::invalid_argument);
}

TEST(Session, SerializedPushRejectsWrongType) {
  // On the serialized runtimes the input codec runs at push time, so a
  // wrong-typed item fails immediately on the caller's thread.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  RuntimeOptions options;
  options.time_scale = 0.002;
  auto runtime = make_runtime(RuntimeKind::kDist, g, typed_spec(), options);
  auto session = runtime->open();
  EXPECT_THROW(session->push(std::any(std::string("wrong type"))),
               std::bad_any_cast);
  session->close();
  EXPECT_EQ(session->report().items, 0u);
}

TEST(Session, ProcessOpenRefusedWhileAnotherSessionIsLive) {
  // Forking while another live session's threads run would copy their
  // locks into the child; the process runtime must refuse.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  RuntimeOptions options;
  options.time_scale = 0.002;
  auto threads_rt = make_runtime(RuntimeKind::kThreads, g, typed_spec(),
                                 options);
  auto proc_rt = make_runtime(RuntimeKind::kProcess, g, typed_spec(),
                              options);
  auto live = threads_rt->open();
  EXPECT_THROW(proc_rt->open(), std::logic_error);
  live->close();
  live->report();  // joins the threads session...
  live.reset();
  auto proc_session = proc_rt->open();  // ...after which forking is fine
  proc_session->close();
  EXPECT_EQ(proc_session->report().items, 0u);
}

TEST(Session, EmptyStreamReportsZeroItems) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  for (RuntimeKind kind : kAllRuntimeKinds) {
    RuntimeOptions options;
    options.time_scale = 0.002;
    auto runtime = make_runtime(kind, g, typed_spec(), options);
    auto session = runtime->open();
    session->close();
    EXPECT_EQ(session->report().items, 0u) << to_string(kind);
    EXPECT_FALSE(session->try_pop().has_value()) << to_string(kind);
  }
}

TEST(RtOptions, InvalidTimeScaleRejectedOnEveryLiveSubstrate) {
  // Every live executor scales emulated sleeps by time_scale; NaN or inf
  // would reach duration_cast. The executor constructor rejects it, so
  // open() throws before a session starts (and, on process, forks).
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  for (RuntimeKind kind :
       {RuntimeKind::kThreads, RuntimeKind::kDist, RuntimeKind::kProcess}) {
    for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      RuntimeOptions options;
      options.time_scale = bad;
      auto runtime = make_runtime(kind, g, typed_spec(), options);
      EXPECT_THROW(runtime->open(), std::invalid_argument)
          << to_string(kind) << " time_scale " << bad;
    }
  }
}

// ------------------------------------------------- cross-substrate parity

TEST(RtParity, GoldenOutputsIdenticalAcrossAllFourRuntimes) {
  const auto g = grid::heterogeneous_cluster({2.0, 1.0, 1.0}, 1e-3, 1e8);
  constexpr std::int64_t kItems = 24;
  const auto expected = expected_outputs(kItems);

  for (RuntimeKind kind : kAllRuntimeKinds) {
    RuntimeOptions options;
    options.time_scale = 0.002;
    auto runtime = make_runtime(kind, g, typed_spec(), options);
    const auto report = runtime->run(int64_items(kItems));
    ASSERT_EQ(report.items, static_cast<std::uint64_t>(kItems))
        << to_string(kind);
    ASSERT_EQ(report.outputs.size(), expected.size()) << to_string(kind);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::any_cast<const std::string&>(report.outputs[i]),
                expected[i])
          << to_string(kind) << " item " << i;
    }
  }
}

TEST(RtParity, EpochDecisionsConsistentOnStableGrid) {
  // On a uniform, unloaded grid with adaptation enabled, every substrate
  // should plan the same deployment mapping, run at least one epoch, and
  // decide against remapping in all of them. The generous gate margins
  // (change threshold, gain ratio, time scale) keep sleep-quantization
  // noise in the live runtimes' observed speeds from manufacturing a
  // phantom gain — the same jitter allowance the per-runtime quiet-epoch
  // tests use; a remap on a symmetric idle grid is still always wrong.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  constexpr std::int64_t kItems = 100;

  std::string planned;
  for (RuntimeKind kind : kAllRuntimeKinds) {
    RuntimeOptions options;
    options.time_scale = 0.01;
    options.adapt.epoch = 2.0;
    options.adapt.trigger = control::AdaptationTrigger::kOnChange;
    options.adapt.change_threshold = 0.75;
    options.adapt.max_staleness = 1e9;
    options.adapt.policy.min_gain_ratio = 0.60;
    options.sim_config.probe_interval = 1.0;
    auto runtime = make_runtime(kind, g, typed_spec(), options);
    const auto report = runtime->run(int64_items(kItems));

    EXPECT_EQ(report.items, static_cast<std::uint64_t>(kItems))
        << to_string(kind);
    EXPECT_FALSE(report.epochs.empty())
        << to_string(kind) << ": adaptation never ran an epoch";
    EXPECT_EQ(report.remap_count, 0u)
        << to_string(kind) << ": remapped on a stable grid";
    EXPECT_EQ(report.initial_mapping, report.final_mapping) << to_string(kind);
    if (planned.empty()) {
      planned = report.initial_mapping;
    } else {
      EXPECT_EQ(report.initial_mapping, planned)
          << to_string(kind) << ": substrates disagree on the t=0 plan";
    }
  }
}

// --------------------------------------------------------- observability

TEST(RtObservability, TraceAndMetricsCoverEverySubstrate) {
  // One instrumented run per substrate. The trace must tell the whole
  // story: every item's lifetime span, stage spans on worker lanes
  // (tid >= 1 — for dist and process these arrive over the wire as
  // telemetry batches), and the controller's epoch spans. The metrics
  // snapshot must carry the uniform names and agree with the report's
  // exact latency series within the histogram's bucket error.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  constexpr std::int64_t kItems = 60;

  for (RuntimeKind kind : kAllRuntimeKinds) {
    RuntimeOptions options;
    options.time_scale = 0.01;
    options.adapt.epoch = 2.0;
    options.sim_driver = sim::DriverKind::kAdaptive;
    options.sim_config.probe_interval = 1.0;
    options.obs = obs::Config::full();
    auto runtime = make_runtime(kind, g, typed_spec(), options);
    const auto report = runtime->run(int64_items(kItems));
    ASSERT_EQ(report.items, static_cast<std::uint64_t>(kItems))
        << to_string(kind);

    // Metrics snapshot rides inside the report under the uniform names.
    ASSERT_FALSE(report.obs_metrics.empty()) << to_string(kind);
    const auto* pushed =
        report.obs_metrics.find_counter(obs::names::kItemsPushed);
    const auto* completed =
        report.obs_metrics.find_counter(obs::names::kItemsCompleted);
    ASSERT_NE(pushed, nullptr) << to_string(kind);
    ASSERT_NE(completed, nullptr) << to_string(kind);
    EXPECT_EQ(pushed->value, static_cast<std::uint64_t>(kItems))
        << to_string(kind);
    EXPECT_EQ(completed->value, static_cast<std::uint64_t>(kItems))
        << to_string(kind);

    const auto* latency =
        report.obs_metrics.find_histogram(obs::names::kItemLatency);
    ASSERT_NE(latency, nullptr) << to_string(kind);
    EXPECT_EQ(latency->count, static_cast<std::uint64_t>(kItems))
        << to_string(kind);
    const double exact_p50 = report.metrics.latency_percentile(50.0);
    ASSERT_GT(exact_p50, 0.0) << to_string(kind);
    // Both series see the same completion values; the histogram may be
    // off by its ~3% bucket error.
    EXPECT_NEAR(latency->p50, exact_p50, exact_p50 * 0.10) << to_string(kind);
    const auto* service =
        report.obs_metrics.find_histogram(obs::names::kStageService);
    ASSERT_NE(service, nullptr) << to_string(kind);
    EXPECT_GE(service->count, static_cast<std::uint64_t>(kItems))
        << to_string(kind) << ": fewer stage executions than items";

    // Span census over the trace.
    std::size_t item_spans = 0;
    std::size_t worker_stage_spans = 0;
    std::size_t epoch_spans = 0;
    for (const obs::TraceEvent& e : options.obs.tracer->events()) {
      switch (e.kind) {
        case obs::SpanKind::kItem:
          ++item_spans;
          EXPECT_EQ(e.tid, 0u) << to_string(kind);
          break;
        case obs::SpanKind::kStage:
          if (e.tid >= 1) ++worker_stage_spans;
          break;
        case obs::SpanKind::kEpoch:
          ++epoch_spans;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(item_spans, static_cast<std::size_t>(kItems)) << to_string(kind);
    EXPECT_GE(worker_stage_spans, static_cast<std::size_t>(kItems))
        << to_string(kind) << ": worker-lane stage spans missing";
    ASSERT_FALSE(report.epochs.empty())
        << to_string(kind) << ": adaptation never ran an epoch";
    EXPECT_EQ(epoch_spans, report.epochs.size()) << to_string(kind);
  }
}

TEST(RtObservability, StatusSnapshotsMidStreamOnEverySubstrate) {
  // The live-introspection contract behind SIGUSR1 / --status-out: while
  // a session is open on any substrate, session->status() and the global
  // status hub both render well-formed JSON naming the substrate; once
  // the session dies its provider unregisters.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  for (RuntimeKind kind : kAllRuntimeKinds) {
    RuntimeOptions options;
    options.time_scale = 0.002;
    auto runtime = make_runtime(kind, g, typed_spec(), options);
    auto session = runtime->open();
    for (auto& item : int64_items(12)) session->push(std::move(item));

    const std::string text = session->status().dump(2);
    EXPECT_TRUE(test_support::JsonChecker(text).valid())
        << to_string(kind) << ": " << text;
    if (kind != RuntimeKind::kSim) {
      // The live substrates share one stream core, so they report the
      // same common keys, read as one consistent snapshot.
      const std::string compact = session->status().dump();
      for (const char* key :
           {"virtual_time", "window", "mapping", "pushed", "admitted",
            "completed", "in_flight", "pending", "buffered_out", "next_out",
            "closed"}) {
        EXPECT_NE(compact.find(std::string("\"") + key + "\":"),
                  std::string::npos)
            << to_string(kind) << " lacks " << key << ": " << compact;
      }
      EXPECT_EQ(status_u64(compact, "pushed"), 12u) << compact;
      EXPECT_LE(status_u64(compact, "in_flight"),
                status_u64(compact, "admitted"))
          << to_string(kind) << ": " << compact;
    }
    const std::string tag =
        std::string("\"substrate\": \"") + to_string(kind) + "\"";
    EXPECT_NE(text.find(tag), std::string::npos)
        << to_string(kind) << ": " << text;

    const std::string hub = obs::StatusHub::global().snapshot_json();
    EXPECT_TRUE(test_support::JsonChecker(hub).valid())
        << to_string(kind) << ": " << hub;
    EXPECT_NE(hub.find("\"sessions\""), std::string::npos) << hub;
    EXPECT_NE(hub.find(tag), std::string::npos)
        << to_string(kind) << ": " << hub;

    session->close();
    EXPECT_EQ(session->report().items, 12u) << to_string(kind);
    session.reset();
    EXPECT_EQ(obs::StatusHub::global().snapshot_json().find(tag),
              std::string::npos)
        << to_string(kind) << ": provider leaked past the session";
  }
  EXPECT_EQ(obs::StatusHub::global().size(), 0u);
}

TEST(RtPlan, PlannedMappingPicksFastNodeOnEverySubstrate) {
  // The deployment-time plan every session starts from: all three cheap
  // stages fit on the 8x node (mapping strings are 1-based).
  const auto g = grid::heterogeneous_cluster({1.0, 8.0, 1.0}, 1e-4, 1e9);
  for (RuntimeKind kind : kAllRuntimeKinds) {
    EXPECT_EQ(make_runtime(kind, g, typed_spec())->planned_mapping().to_string(),
              "(2,2,2)")
        << to_string(kind);
  }
  // An explicit override replaces the planner's pick.
  RuntimeOptions options;
  options.initial_mapping = sched::Mapping(std::vector<grid::NodeId>{0, 2, 0});
  EXPECT_EQ(make_runtime(RuntimeKind::kThreads, g, typed_spec(), options)
                ->planned_mapping()
                .to_string(),
            "(1,3,1)");
}

TEST(Session, DefaultStatusReportsUnknownSubstrate) {
  struct BareSession : Session {
    void push(std::any) override {}
    std::optional<std::any> try_pop() override { return std::nullopt; }
    void close() override {}
    core::RunReport report() override { return {}; }
  } session;
  const std::string text = session.status().dump(2);
  EXPECT_TRUE(test_support::JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"substrate\": \"unknown\""), std::string::npos)
      << text;
}

TEST(RtObservability, DisabledByDefaultLeavesReportSnapshotEmpty) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  RuntimeOptions options;
  options.time_scale = 0.002;
  EXPECT_FALSE(options.obs.enabled());
  auto runtime = make_runtime(RuntimeKind::kThreads, g, typed_spec(), options);
  const auto report = runtime->run(int64_items(8));
  EXPECT_EQ(report.items, 8u);
  EXPECT_TRUE(report.obs_metrics.empty());
}

// Regression: dist's per-rank queues once held at most 1,024 messages
// and blocked a sender when full. With a wider credit window and every
// stage on one node, the controller and that node's worker both blocked
// posting into the worker's full queue, and the stream hung forever.
// The stream runs on its own thread under a watchdog so a hang reports
// as a failure; a hung stream's thread is detached and its session
// leaked, along with the grid it reads, since it can never be joined.
// dist runs last: the process runtime refuses to open while another
// session is live.
TEST(RtWindow, WideWindowOnOneNodeFinishesOnEveryLiveSubstrate) {
  const auto g = std::make_shared<const grid::Grid>(
      grid::uniform_cluster(3, 1.0, 1e-3, 1e8));
  constexpr std::int64_t kItems = 5000;
  const auto expected = expected_outputs(kItems);
  for (RuntimeKind kind :
       {RuntimeKind::kThreads, RuntimeKind::kProcess, RuntimeKind::kDist}) {
    RuntimeOptions options;
    options.time_scale = 1e-6;
    options.window = 2048;
    options.emulate_compute = false;
    options.initial_mapping = sched::Mapping(std::vector<grid::NodeId>{0, 0, 0});
    std::shared_ptr<Runtime> runtime =
        make_runtime(kind, *g, typed_spec(), options);
    std::shared_ptr<Session> session = runtime->open();
    auto outputs = std::make_shared<std::promise<std::vector<std::string>>>();
    auto finished = outputs->get_future();
    std::thread stream([g, runtime, session, outputs] {
      try {
        std::vector<std::string> got;
        for (std::int64_t i = 0; i < kItems; ++i) session->push(std::any(i));
        session->close();
        session->report();
        while (auto out = session->try_pop()) {
          got.push_back(std::any_cast<std::string>(std::move(*out)));
        }
        outputs->set_value(std::move(got));
      } catch (...) {
        outputs->set_exception(std::current_exception());
      }
    });
    if (finished.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      stream.detach();
      ADD_FAILURE() << to_string(kind)
                    << ": 5,000 items with window 2048 on one node did not "
                       "finish within 60 s";
      continue;
    }
    stream.join();
    EXPECT_EQ(finished.get(), expected) << to_string(kind);
  }
}

// Regression guard for the idle-latency floor: with adaptation off and
// items trickling in one at a time, nothing but the push itself can
// wake a controller that admits items (dist, process); a controller
// that waits for a timer instead holds each item for most of the
// timer's period. The median keeps one scheduler hiccup on a busy host
// from failing the test.
TEST(RtLatency, TrickledItemsAreAdmittedWithoutWaitingOutATimer) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  constexpr std::int64_t kItems = 25;
  const auto expected = expected_outputs(kItems);
  for (RuntimeKind kind :
       {RuntimeKind::kThreads, RuntimeKind::kDist, RuntimeKind::kProcess}) {
    RuntimeOptions options;
    options.emulate_compute = false;
    options.adapt.epoch = 0.0;
    auto runtime = make_runtime(kind, g, typed_spec(), options);
    auto session = runtime->open();
    std::vector<double> latency_ms;
    for (std::int64_t i = 0; i < kItems; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      const auto pushed = std::chrono::steady_clock::now();
      session->push(std::any(i));
      std::optional<std::any> out;
      while (!(out = session->try_pop()) &&
             std::chrono::steady_clock::now() - pushed <
                 std::chrono::seconds(10)) {
        std::this_thread::yield();
      }
      ASSERT_TRUE(out.has_value()) << to_string(kind) << ": item " << i;
      latency_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - pushed)
                               .count());
      EXPECT_EQ(std::any_cast<std::string>(*out),
                expected[static_cast<std::size_t>(i)]);
    }
    session->close();
    EXPECT_EQ(session->report().items, static_cast<std::uint64_t>(kItems));
    std::nth_element(latency_ms.begin(),
                     latency_ms.begin() + kItems / 2, latency_ms.end());
    EXPECT_LT(latency_ms[kItems / 2], 10.0)
        << to_string(kind) << ": median push→pop latency in ms";
  }
}

}  // namespace
}  // namespace gridpipe::rt
