// Tests for the message-passing DistributedExecutor: wire formats,
// end-to-end correctness over per-rank mailboxes, heterogeneity emulation,
// controller-driven adaptation, and event-driven controller wakeups.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dist_executor.hpp"
#include "grid/builders.hpp"

namespace gridpipe::core {
namespace {

using grid::NodeId;

Bytes bytes_of_int(int v) {
  Bytes out(sizeof(int));
  std::memcpy(out.data(), &v, sizeof(int));
  return out;
}
int int_of_bytes(ByteSpan b) {
  int v = 0;
  std::memcpy(&v, b.data(), sizeof(int));
  return v;
}
void append_int(Bytes& out, int v) {
  const std::size_t off = out.size();
  out.resize(off + sizeof(int));
  std::memcpy(out.data() + off, &v, sizeof(int));
}

std::vector<DistStage> arithmetic_stages() {
  std::vector<DistStage> stages;
  stages.push_back({"inc",
                    [](ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) + 1);
                    },
                    0.02, 16});
  stages.push_back({"triple",
                    [](ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) * 3);
                    },
                    0.02, 16});
  stages.push_back({"dec",
                    [](ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) - 1);
                    },
                    0.02, 16});
  return stages;
}

// ---------------------------------------------------------- end to end

rt::RuntimeOptions fast_dist_config() {
  rt::RuntimeOptions config;
  config.time_scale = 0.002;
  return config;
}

TEST(DistributedExecutor, OrderedCorrectOutputs) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                               fast_dist_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 60; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  ASSERT_EQ(report.items, 60u);
  for (int i = 0; i < 60; ++i) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1) << "item " << i;
  }
  EXPECT_EQ(report.remap_count, 0u);
  EXPECT_GT(report.throughput, 0.0);
}

TEST(DistributedExecutor, EmptyInput) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                               fast_dist_config());
  EXPECT_EQ(executor.run({}).items, 0u);
}

TEST(DistributedExecutor, ColocatedMappingWorks) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping::all_on(3, 1),
                               fast_dist_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 20; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  EXPECT_EQ(report.items, 20u);
  EXPECT_EQ(report.final_mapping, "(2,2,2)");
}

// Each message is held back by the grid's modeled transfer time between
// the two ranks' nodes (the controller sits on node 0): a stage hop
// across the slow link and the result's trip back to the controller each
// pay its 1 virtual s latency, while loopback hops cost almost nothing.
TEST(DistributedExecutor, CrossNodeHopsPayTheLinkLatency) {
  const auto g = grid::uniform_cluster(2, 1.0, /*latency=*/1.0, 1e9);
  rt::RuntimeOptions config;
  config.time_scale = 0.05;
  config.emulate_compute = false;
  const auto latency_of = [&](std::vector<NodeId> nodes) {
    DistributedExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::move(nodes)), config);
    std::vector<Bytes> inputs;
    inputs.push_back(bytes_of_int(1));
    const auto report = executor.run(std::move(inputs));
    EXPECT_EQ(report.items, 1u);
    return report.metrics.latency().max();
  };
  EXPECT_GE(latency_of({0, 1, 1}), 1.99);  // node 0 -> 1 -> controller
  EXPECT_LT(latency_of({0, 0, 0}), 1.0);   // loopback only
}

TEST(DistributedExecutor, HeterogeneityChangesThroughput) {
  auto run_with = [&](double speed) {
    const auto g = grid::uniform_cluster(2, speed, 1e-3, 1e8);
    rt::RuntimeOptions config;
    config.time_scale = 0.01;
    DistributedExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                                 config);
    std::vector<Bytes> inputs;
    for (int i = 0; i < 30; ++i) inputs.push_back(bytes_of_int(i));
    return executor.run(std::move(inputs)).throughput;
  };
  // Ideal ratio is 4x; loose band tolerates fixed per-item overheads
  // compressing the fast run on loaded machines (~1x means broken).
  EXPECT_GT(run_with(4.0), 1.5 * run_with(1.0));
}

TEST(DistributedExecutor, AdaptsAwayFromLoadedNode) {
  auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::ConstantLoad>(9.0));

  rt::RuntimeOptions config;
  config.time_scale = 0.002;
  config.adapt.epoch = 4.0;
  config.adapt.policy.hysteresis_epochs = 1;
  config.adapt.policy.min_gain_ratio = 0.2;
  config.adapt.policy.restart_latency = 0.1;

  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                               config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  EXPECT_GE(report.remap_count, 1u);
  EXPECT_EQ(report.final_mapping.find('2'), std::string::npos)
      << "still on loaded node: " << report.final_mapping;
  // Spot-check results survived the live remap.
  for (int i : {0, 123, 399}) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1);
  }
}

TEST(DistributedExecutor, OnChangeTriggerSkipsQuietEpochs) {
  // Same contract as the threaded runtime: on a stable grid the change
  // gate swallows the mapping search after the first decision.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config;
  config.time_scale = 0.01;
  config.adapt.epoch = 2.0;
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.change_threshold = 0.75;
  config.adapt.max_staleness = 1e9;
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                               config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  ASSERT_GE(report.epochs.size(), 2u);
  EXPECT_TRUE(report.epochs.front().decided);
  std::size_t decisions = 0;
  for (const auto& e : report.epochs) decisions += e.decided;
  EXPECT_LT(decisions, report.epochs.size());
  EXPECT_EQ(report.remap_count, 0u);
}

TEST(DistributedExecutor, OnChangeTriggerReactsToLoadStep) {
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
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                               config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  EXPECT_GE(report.remap_count, 1u);
  EXPECT_EQ(report.final_mapping.find('2'), std::string::npos)
      << "still on loaded node: " << report.final_mapping;
  std::size_t remapped_epochs = 0;
  for (const auto& e : report.epochs) remapped_epochs += e.remapped;
  EXPECT_EQ(remapped_epochs, report.remap_count);
  // Results survived the mid-stream remap.
  for (int i : {0, 123, 399}) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1);
  }
}

// ---------------------------------------------------------- wakeups

// How long stream_finish() takes once `end` has ended an idle stream:
// the median over five streams, in ms. Each stream first delivers one
// item and lets the trailing speed samples settle, so the controller
// sits in its wait when `end` runs; with epochs off only the event
// itself can wake it. finish must throw iff `fails`.
template <class End>
double median_finish_ms(DistributedExecutor& executor, End end, bool fails) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> ms;
  for (int run = 0; run < 5; ++run) {
    executor.stream_begin();
    executor.stream_push(bytes_of_int(1));
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (!executor.stream_try_pop() && Clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto start = Clock::now();
    end();
    if (fails) {
      EXPECT_THROW(executor.stream_finish(), std::runtime_error);
    } else {
      EXPECT_EQ(executor.stream_finish().items, 1u);
    }
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 2, ms.end());
  return ms[2];
}

rt::RuntimeOptions idle_dist_config() {
  rt::RuntimeOptions config;
  config.emulate_compute = false;
  config.adapt.epoch = 0.0;
  return config;
}

TEST(DistributedExecutor, CloseEndsIdleStreamWithoutATick) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                               idle_dist_config());
  const double ms = median_finish_ms(
      executor, [&] { executor.stream_close(); }, /*fails=*/false);
  EXPECT_LT(ms, 25.0) << "close->finish waited for a timer";
}

TEST(DistributedExecutor, ThrowingStageEndsStreamPromptlyWithEpochsOff) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  auto stages = arithmetic_stages();
  stages[1].fn = [](ByteSpan in, Bytes& out) {
    if (int_of_bytes(in) == 0) throw std::runtime_error("stage 1 rejects 0");
    append_int(out, int_of_bytes(in) * 3);
  };
  DistributedExecutor executor(g, std::move(stages),
                               sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                               idle_dist_config());
  // Item -1 reaches stage 1 as 0. Pushed onto an idle stream and closed
  // at once: admission and the failure each need the controller awake.
  const double ms = median_finish_ms(
      executor,
      [&] {
        executor.stream_push(bytes_of_int(-1));
        executor.stream_close();
      },
      /*fails=*/true);
  EXPECT_LT(ms, 25.0) << "push->failure->finish waited for a timer";
}

TEST(DistributedExecutor, CloseOnAnotherThreadRacingFinishIsSafe) {
  // close() calls the core's wake hook after releasing the core, so a
  // finish() on another thread can already be tearing the stream down
  // while the hook reaches the controller's mailbox. Under TSan/ASan a
  // teardown that frees or replaces the mailboxes shows up here.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                               idle_dist_config());
  for (int cycle = 0; cycle < 50; ++cycle) {
    executor.stream_begin();
    executor.stream_push(bytes_of_int(cycle));
    std::thread closer([&executor] { executor.stream_close(); });
    RunReport report;
    for (;;) {
      try {
        report = executor.stream_finish();
        break;
      } catch (const std::logic_error&) {
        std::this_thread::yield();  // not closed yet
      }
    }
    closer.join();
    ASSERT_EQ(report.items, 1u) << "cycle " << cycle;
    const auto out = executor.stream_try_pop();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(int_of_bytes(*out), (cycle + 1) * 3 - 1);
  }
}

TEST(DistributedExecutor, RejectsBadConstruction) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  EXPECT_THROW(DistributedExecutor(g, {}, sched::Mapping{}, {}),
               std::invalid_argument);
  EXPECT_THROW(DistributedExecutor(
                   g, arithmetic_stages(),
                   sched::Mapping(std::vector<NodeId>{0, 1}),  // 2 != 3
                   fast_dist_config()),
               std::invalid_argument);
  rt::RuntimeOptions bad;
  bad.time_scale = 0.0;
  EXPECT_THROW(DistributedExecutor(g, arithmetic_stages(),
                                   sched::Mapping::all_on(3, 0), bad),
               std::invalid_argument);
}

TEST(DistributedExecutor, ProfileMatchesStages) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  DistributedExecutor executor(g, arithmetic_stages(),
                               sched::Mapping::all_on(3, 0),
                               fast_dist_config());
  const auto p = executor.profile();
  EXPECT_EQ(p.num_stages(), 3u);
  EXPECT_DOUBLE_EQ(p.stage_work[1], 0.02);
  EXPECT_NO_THROW(p.validate());
}

}  // namespace
}  // namespace gridpipe::core
