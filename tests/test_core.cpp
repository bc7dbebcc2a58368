// Tests for the public skeleton API (PipelineSpec) and the threaded
// Executor: output correctness and ordering, heterogeneity emulation,
// live adaptation on real threads.

#include <gtest/gtest.h>

#include <chrono>
#include <future>

#include "core/executor.hpp"
#include "grid/builders.hpp"

namespace gridpipe::core {
namespace {

using grid::NodeId;

PipelineSpec arithmetic_spec() {
  PipelineSpec spec;
  spec.stage(
          "double",
          [](std::any item) {
            return std::any(std::any_cast<int>(item) * 2);
          },
          /*work=*/0.02, /*out_bytes=*/16)
      .stage(
          "add_three",
          [](std::any item) {
            return std::any(std::any_cast<int>(item) + 3);
          },
          0.02, 16)
      .stage(
          "square",
          [](std::any item) {
            const int v = std::any_cast<int>(item);
            return std::any(v * v);
          },
          0.02, 16);
  return spec;
}

std::vector<std::any> int_items(int n) {
  std::vector<std::any> items;
  for (int i = 0; i < n; ++i) items.emplace_back(i);
  return items;
}

// --------------------------------------------------------------- spec

TEST(PipelineSpec, BuilderAndProfile) {
  const PipelineSpec spec = arithmetic_spec();
  EXPECT_EQ(spec.num_stages(), 3u);
  EXPECT_EQ(spec.at(1).name, "add_three");
  const auto profile = spec.to_profile();
  EXPECT_EQ(profile.num_stages(), 3u);
  EXPECT_DOUBLE_EQ(profile.stage_work[0], 0.02);
  EXPECT_DOUBLE_EQ(profile.msg_bytes[1], 16.0);
}

TEST(PipelineSpec, RunInlineComposesStages) {
  const PipelineSpec spec = arithmetic_spec();
  // (4*2+3)^2 = 121
  EXPECT_EQ(std::any_cast<int>(spec.run_inline(std::any(4))), 121);
}

TEST(PipelineSpec, RejectsBadStages) {
  PipelineSpec spec;
  EXPECT_THROW(spec.stage("null", nullptr), std::invalid_argument);
  EXPECT_THROW(spec.stage("neg", [](std::any a) { return a; }, -1.0),
               std::invalid_argument);
  EXPECT_THROW(spec.to_profile(), std::invalid_argument);  // empty
}

// ------------------------------------------------------------ executor

rt::RuntimeOptions fast_config() {
  rt::RuntimeOptions config;
  config.time_scale = 0.002;  // 500x faster than modeled time
  return config;
}

TEST(Executor, ComputesCorrectOrderedOutputs) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  Executor executor(g, arithmetic_spec(),
                    sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                    fast_config());
  const auto report = executor.run(int_items(40));
  ASSERT_EQ(report.outputs.size(), 40u);
  const PipelineSpec reference = arithmetic_spec();
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(std::any_cast<int>(report.outputs[static_cast<std::size_t>(i)]),
              std::any_cast<int>(reference.run_inline(std::any(i))))
        << "item " << i;
  }
  EXPECT_EQ(report.items, 40u);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_EQ(report.remap_count, 0u);
}

TEST(Executor, EmptyInputReturnsEmptyReport) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  Executor executor(g, arithmetic_spec(),
                    sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                    fast_config());
  const auto report = executor.run({});
  EXPECT_EQ(report.items, 0u);
  EXPECT_TRUE(report.outputs.empty());
}

TEST(Executor, HeterogeneityEmulationSlowsThroughput) {
  // Same pipeline on a fast vs slow node: emulated service stretches.
  const auto run_with_speed = [&](double speed) {
    const auto g = grid::uniform_cluster(1, speed, 1e-3, 1e8);
    rt::RuntimeOptions config;
    config.time_scale = 0.01;
    Executor executor(g, arithmetic_spec(),
                      sched::Mapping::all_on(3, 0), config);
    return executor.run(int_items(20)).throughput;
  };
  const double fast = run_with_speed(4.0);
  const double slow = run_with_speed(1.0);
  // Ideal ratio is 4x; fixed per-item overheads (thread wakeups,
  // sleep_until granularity) compress the fast run under machine load,
  // so assert a loose band — broken emulation would give ~1x.
  EXPECT_GT(fast, 1.5 * slow);
}

TEST(Executor, ThroughputTracksModelPrediction) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  const PipelineSpec spec = arithmetic_spec();
  const sched::Mapping m(std::vector<NodeId>{0, 1, 2});
  rt::RuntimeOptions config;
  config.time_scale = 0.01;
  Executor executor(g, spec, m, config);
  const auto report = executor.run(int_items(60));

  const sched::PerfModel model;
  const double predicted = model.throughput(
      spec.to_profile(), sched::ResourceEstimate::from_grid(g, 0.0), m);
  // Thread scheduling noise on one core: accept a wide band.
  EXPECT_GT(report.throughput, 0.4 * predicted);
  EXPECT_LT(report.throughput, 1.5 * predicted);
}

TEST(Executor, AdaptsAwayFromLoadedNode) {
  // Node 1 is heavily loaded from the start but the initial mapping uses
  // it; with adaptation on, the executor must move off it.
  auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::ConstantLoad>(9.0));

  rt::RuntimeOptions config;
  config.time_scale = 0.002;
  config.adapt.epoch = 4.0;  // virtual seconds
  config.adapt.policy.hysteresis_epochs = 1;
  config.adapt.policy.min_gain_ratio = 0.2;
  config.adapt.policy.restart_latency = 0.1;

  PipelineSpec spec = arithmetic_spec();
  Executor executor(g, spec, sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                    config);
  const auto report = executor.run(int_items(400));

  EXPECT_EQ(report.items, 400u);
  EXPECT_GE(report.remap_count, 1u);
  EXPECT_EQ(report.final_mapping.find('2'), std::string::npos)
      << "final mapping still uses loaded node: " << report.final_mapping;
  // Outputs still correct after live remaps.
  const PipelineSpec reference = arithmetic_spec();
  for (int i : {0, 57, 399}) {
    EXPECT_EQ(std::any_cast<int>(report.outputs[static_cast<std::size_t>(i)]),
              std::any_cast<int>(reference.run_inline(std::any(i))));
  }
}

TEST(Executor, OnChangeTriggerSkipsQuietEpochs) {
  // Stable uniform grid: after the first decision takes its snapshot, the
  // change gate must swallow the mapping search on quiet epochs. The
  // generous threshold keeps sleep-quantization noise in the observed
  // speeds from tripping the gate.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config;
  config.time_scale = 0.01;
  config.adapt.epoch = 2.0;  // virtual seconds
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.change_threshold = 0.75;
  config.adapt.max_staleness = 1e9;  // isolate the gate's effect
  Executor executor(g, arithmetic_spec(),
                    sched::Mapping(std::vector<NodeId>{0, 1, 2}), config);
  const auto report = executor.run(int_items(400));

  EXPECT_EQ(report.items, 400u);
  ASSERT_GE(report.epochs.size(), 2u);
  EXPECT_TRUE(report.epochs.front().decided);  // no snapshot yet
  std::size_t decisions = 0;
  for (const auto& e : report.epochs) decisions += e.decided;
  EXPECT_LT(decisions, report.epochs.size());  // some epoch was quiet
  EXPECT_LE(2 * decisions, report.epochs.size() + 2);
  EXPECT_EQ(report.remap_count, 0u);  // nothing moved, nothing to gain
}

TEST(Executor, OnChangeTriggerReactsToLoadStep) {
  // Node 1 gains 9x load at t = 4 virtual s: the resource move must fire
  // the gate, force a full decision, and migrate off the loaded node.
  auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::StepLoad>(
                                std::vector<grid::StepLoad::Step>{
                                    {4.0, 9.0}}));

  rt::RuntimeOptions config;
  config.time_scale = 0.01;
  config.adapt.epoch = 2.0;
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.change_threshold = 0.4;
  config.adapt.max_staleness = 1e9;
  config.adapt.policy.hysteresis_epochs = 1;
  config.adapt.policy.min_gain_ratio = 0.2;
  config.adapt.policy.restart_latency = 0.1;
  Executor executor(g, arithmetic_spec(),
                    sched::Mapping(std::vector<NodeId>{0, 1, 2}), config);
  const auto report = executor.run(int_items(400));

  EXPECT_EQ(report.items, 400u);
  EXPECT_GE(report.remap_count, 1u);
  EXPECT_EQ(report.final_mapping.find('2'), std::string::npos)
      << "final mapping still uses loaded node: " << report.final_mapping;
  // The remap shows up in the shared epoch timeline too.
  std::size_t remapped_epochs = 0;
  for (const auto& e : report.epochs) remapped_epochs += e.remapped;
  EXPECT_EQ(remapped_epochs, report.remap_count);
}

TEST(Executor, FreshAdaptationStateOnEachRun) {
  // run() restarts the virtual clock at 0, so the second run must not
  // inherit the first run's gate snapshot / staleness clock (which would
  // silently disable kOnChange adaptation for the whole second run).
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config;
  config.time_scale = 0.005;
  config.adapt.epoch = 2.0;
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.max_staleness = 1e9;
  Executor executor(g, arithmetic_spec(),
                    sched::Mapping(std::vector<NodeId>{0, 1, 0}), config);
  const auto first = executor.run(int_items(150));
  const auto second = executor.run(int_items(150));
  EXPECT_EQ(second.items, 150u);
  ASSERT_FALSE(first.epochs.empty());
  ASSERT_FALSE(second.epochs.empty());
  EXPECT_TRUE(second.epochs.front().decided);
  EXPECT_EQ(std::any_cast<int>(second.outputs[3]),
            std::any_cast<int>(first.outputs[3]));
}

TEST(Executor, RejectsBadConfig) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config;
  config.time_scale = 0.0;
  EXPECT_THROW(Executor(g, arithmetic_spec(),
                        sched::Mapping(std::vector<NodeId>{0, 1, 0}), config),
               std::invalid_argument);
  EXPECT_THROW(Executor(g, arithmetic_spec(),
                        sched::Mapping(std::vector<NodeId>{0, 1}),
                        fast_config()),
               std::invalid_argument);
}

// Regression: stream_finish used to store done_ and notify each worker's
// condition variable WITHOUT holding that worker's mutex. A worker
// between its done_ check (under its own mutex) and its cv wait then
// lost the notify forever and stream_finish hung in join. The fix
// (Executor::signal_done) notifies under each worker's mutex; this test
// hammers the begin/close/finish edge where workers are going idle
// exactly as the stream ends, with a watchdog so the old bug reports as
// a failure instead of a ctest timeout. Found by the thread-safety
// annotation sweep; TSan doesn't flag lost wakeups, only the hang does.
TEST(Executor, StreamFinishNeverLosesShutdownWakeup) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  auto run_cycles = std::async(std::launch::async, [&g] {
    for (int cycle = 0; cycle < 300; ++cycle) {
      Executor executor(g, arithmetic_spec(),
                        sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                        fast_config());
      executor.stream_begin();
      // One item keeps a worker active right up to the shutdown edge;
      // the empty-stream cycles exercise workers that never woke at all.
      if (cycle % 2 == 0) executor.stream_push(std::any(cycle));
      executor.stream_close();
      const auto report = executor.stream_finish();
      if (cycle % 2 == 0 && report.items != 1u) return false;
    }
    return true;
  });
  ASSERT_EQ(run_cycles.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "stream_finish hung: a worker lost the done_ wakeup";
  EXPECT_TRUE(run_cycles.get());
}

TEST(RunReport, SummaryMentionsKeyNumbers) {
  RunReport report;
  report.items = 12;
  report.virtual_seconds = 3.0;
  report.wall_seconds = 0.3;
  report.throughput = 4.0;
  report.initial_mapping = "(1,2)";
  report.final_mapping = "(2,2)";
  report.remap_count = 1;
  const std::string s = report.summary();
  EXPECT_NE(s.find("12 items"), std::string::npos);
  EXPECT_NE(s.find("(1,2) -> (2,2)"), std::string::npos);
}

}  // namespace
}  // namespace gridpipe::core
