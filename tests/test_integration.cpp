// Cross-module integration and property tests:
//  * analytic model vs DES agreement on random static grids,
//  * failure injection (node dies, link rots) with adaptive recovery,
//  * DES vs threaded-runtime agreement on the same configuration,
//  * conservation and baseline-ordering properties on random dynamic
//    scenarios.

#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "grid/builders.hpp"
#include "sched/local_search.hpp"
#include "sim/drivers.hpp"
#include "workload/scenarios.hpp"

namespace gridpipe {
namespace {

using grid::Grid;
using grid::NodeId;
using sched::Mapping;
using sched::PipelineProfile;

// ----------------------------------------------- model vs DES property

class ModelVsSim : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelVsSim, StaticGridSimMatchesAnalyticThroughput) {
  grid::RandomGridParams params;
  params.nodes = 4;
  // Keep latencies modest so the credit window is not the binding
  // constraint (the analytic model has no window term).
  params.lat_lo = 1e-4;
  params.lat_hi = 5e-3;
  const Grid g = grid::random_grid(GetParam(), params);

  util::Xoshiro256 rng(GetParam() ^ 0x5EED);
  PipelineProfile p;
  const std::size_t ns = 3 + GetParam() % 3;
  for (std::size_t i = 0; i < ns; ++i) {
    p.stage_work.push_back(util::uniform(rng, 0.2, 2.0));
  }
  p.msg_bytes.assign(ns + 1, util::uniform(rng, 1e3, 1e5));
  p.state_bytes.assign(ns, 0.0);

  const auto est = sched::ResourceEstimate::from_grid(g, 0.0);
  const sched::PerfModel model;
  const auto mapping =
      sched::LocalSearchMapper(model).best(p, est).mapping;

  sim::SimConfig config;
  config.num_items = 1500;
  config.probe_interval = 0.0;
  config.window = 4 * ns;
  sim::PipelineSim pipeline_sim(g, p, mapping, config);
  pipeline_sim.start();
  pipeline_sim.simulator().run();

  const double predicted = model.throughput(p, est, mapping);
  const double observed = pipeline_sim.metrics().mean_throughput();
  EXPECT_NEAR(observed, predicted, 0.10 * predicted)
      << "mapping " << mapping.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelVsSim,
                         ::testing::Range<std::uint64_t>(1, 11));

// --------------------------------------------------- failure injection

TEST(FailureInjection, AdaptiveEvacuatesDyingNode) {
  // Node 1 effectively dies at t = 60 (load 1e4 → speed ~1e-4).
  Grid g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::StepLoad>(
                                std::vector<grid::StepLoad::Step>{
                                    {60.0, 1e4}}));
  PipelineProfile p = PipelineProfile::uniform(3, 0.5, 1e4, 1e5);

  sim::SimConfig config;
  config.num_items = 1200;
  config.seed = 3;
  sim::DriverOptions options;
  options.driver = sim::DriverKind::kAdaptive;
  options.adapt.epoch = 10.0;
  const auto result = sim::run_pipeline(g, p, config, options);

  EXPECT_EQ(result.metrics.items_completed(), 1200u);
  EXPECT_GE(result.remap_count, 1u);
  EXPECT_EQ(result.final_mapping.stages_on(1), 0u);
  // Rough sanity: post-failure capacity on 2 healthy nodes is ~1.33/s
  // (best split of 1.5 work over 2 unit nodes); the whole run must
  // average above half of that despite the pre-remap stall.
  EXPECT_GT(result.mean_throughput, 0.6);
}

TEST(FailureInjection, StaticStrandedOnDeadNode) {
  Grid g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::StepLoad>(
                                std::vector<grid::StepLoad::Step>{
                                    {60.0, 1e4}}));
  PipelineProfile p = PipelineProfile::uniform(3, 0.5, 1e4, 1e5);

  sim::SimConfig config;
  config.num_items = 1200;
  sim::DriverOptions options;
  options.driver = sim::DriverKind::kStaticOptimal;
  options.horizon = 2000.0;  // do not wait for the crippled run to finish
  const auto result = sim::run_pipeline(g, p, config, options);
  // The static mapping keeps a stage on the dead node: it cannot finish
  // within a horizon that is generous for the adaptive run.
  EXPECT_LT(result.metrics.items_completed(), 1200u);
}

TEST(FailureInjection, LinkRotHandledByRemap) {
  // The 0->1 link becomes ~50x slower at t = 50; messages are large
  // enough that the edge dominates.
  Grid g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  const auto rot = std::make_shared<grid::StepLoad>(
      std::vector<grid::StepLoad::Step>{{50.0, 49.0}});
  grid::Link bad(1e-3, 1e8, rot);
  g.set_link(0, 1, std::move(bad));
  PipelineProfile p = PipelineProfile::uniform(2, 0.2, 5e6, 1e5);

  sim::SimConfig config;
  config.num_items = 800;
  sim::DriverOptions adaptive;
  adaptive.driver = sim::DriverKind::kAdaptive;
  adaptive.adapt.epoch = 10.0;
  const auto a = sim::run_pipeline(g, p, config, adaptive);

  sim::DriverOptions fixed;
  fixed.driver = sim::DriverKind::kStaticOptimal;
  const auto s = sim::run_pipeline(g, p, config, fixed);

  EXPECT_EQ(a.metrics.items_completed(), 800u);
  // Adaptive folds both stages onto one node (or otherwise avoids the
  // rotten edge) and must finish meaningfully faster.
  EXPECT_LT(a.makespan, 0.8 * s.makespan);
}

// ------------------------------------------------ DES vs threaded (V1)

TEST(DesVsThreads, ThroughputAgreesWithinBand) {
  const Grid g = grid::heterogeneous_cluster({2.0, 1.0}, 1e-3, 1e8);
  core::PipelineSpec spec;
  for (const char* name : {"s0", "s1", "s2"}) {
    spec.stage(
        name, [](std::any a) { return a; }, /*work=*/0.05,
        /*out_bytes=*/1e3);
  }
  const auto profile = spec.to_profile();
  const sched::PerfModel model;
  const auto mapping =
      sched::ExhaustiveMapper(model)
          .best(profile, sched::ResourceEstimate::from_grid(g, 0.0))
          ->mapping;

  // DES run.
  sim::SimConfig sim_config;
  sim_config.num_items = 200;
  sim_config.probe_interval = 0.0;
  sim::PipelineSim des(g, profile, mapping, sim_config);
  des.start();
  des.simulator().run();
  const double des_throughput = des.metrics().mean_throughput();

  // Threaded run of the same configuration.
  rt::RuntimeOptions exec_config;
  exec_config.time_scale = 0.005;
  core::Executor executor(g, std::move(spec), mapping, exec_config);
  std::vector<std::any> inputs;
  for (int i = 0; i < 200; ++i) inputs.emplace_back(i);
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 200u);
  // One shared core and sleep quantization: generous band (runs
  // RUN_SERIAL, but CI runners may have only 2 cores).
  EXPECT_GT(report.throughput, 0.4 * des_throughput);
  EXPECT_LT(report.throughput, 1.6 * des_throughput);
}

// ------------------------------------- conservation on random dynamics

class RandomDynamics : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDynamics, NoDriverEverLosesItems) {
  const std::uint64_t seed = GetParam();
  grid::RandomGridParams params;
  params.nodes = 3 + seed % 3;
  Grid g = grid::random_grid(seed, params);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    grid::set_node_load(g, n,
                        std::make_shared<grid::RandomWalkLoad>(
                            seed * 31 + n, 0.5, 0.3, 15.0, 3000.0, 0.0, 4.0));
  }
  util::Xoshiro256 rng(seed ^ 0xFACE);
  PipelineProfile p;
  const std::size_t ns = 3 + seed % 4;
  for (std::size_t i = 0; i < ns; ++i) {
    p.stage_work.push_back(util::uniform(rng, 0.2, 3.0));
  }
  p.msg_bytes.assign(ns + 1, util::uniform(rng, 1e3, 1e6));
  p.state_bytes.assign(ns, util::uniform(rng, 1e4, 1e7));

  sim::SimConfig config;
  config.num_items = 600;
  config.seed = seed;
  for (const auto kind :
       {sim::DriverKind::kStaticNaive, sim::DriverKind::kStaticOptimal,
        sim::DriverKind::kAdaptive, sim::DriverKind::kOracle}) {
    sim::DriverOptions options;
    options.driver = kind;
    options.adapt.epoch = 20.0;
    const auto result = sim::run_pipeline(g, p, config, options);
    EXPECT_EQ(result.metrics.items_completed(), 600u)
        << to_string(kind) << " seed " << seed;
    EXPECT_EQ(result.metrics.items_created(), 600u)
        << to_string(kind) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDynamics,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace gridpipe
