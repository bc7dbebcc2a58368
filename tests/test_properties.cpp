// Cross-cutting randomized property tests: invariances and monotonicity
// laws the model, mappers and simulator must obey on arbitrary inputs.

#include <gtest/gtest.h>

#include <algorithm>

#include "comm/wire.hpp"
#include "grid/builders.hpp"
#include "sched/latency_mapper.hpp"
#include "sim/pipeline_sim.hpp"
#include "workload/scenarios.hpp"

namespace gridpipe {
namespace {

using grid::Grid;
using grid::NodeId;
using sched::Mapping;
using sched::PipelineProfile;

PipelineProfile random_profile(util::Xoshiro256& rng, std::size_t ns) {
  PipelineProfile p;
  for (std::size_t i = 0; i < ns; ++i) {
    p.stage_work.push_back(util::uniform(rng, 0.2, 3.0));
  }
  p.msg_bytes.assign(ns + 1, util::uniform(rng, 1e3, 1e6));
  p.state_bytes.assign(ns, util::uniform(rng, 0.0, 1e6));
  return p;
}

class PropertySeed : public ::testing::TestWithParam<std::uint64_t> {};

// --- Invariance: renumbering the nodes (and the mapping with them) must
// not change the modeled throughput.
TEST_P(PropertySeed, ThroughputInvariantUnderNodePermutation) {
  util::Xoshiro256 rng(GetParam());
  grid::RandomGridParams params;
  params.nodes = 4;
  const Grid g = grid::random_grid(GetParam(), params);
  const auto p = random_profile(rng, 4);
  const auto est = sched::ResourceEstimate::from_grid(g, 0.0);
  const sched::PerfModel model;

  std::vector<NodeId> perm{0, 1, 2, 3};
  util::shuffle(rng, perm);

  // Build the permuted estimate: node perm[n] gets node n's properties.
  sched::ResourceEstimate permuted = est;
  for (NodeId n = 0; n < 4; ++n) {
    permuted.node_speed[perm[n]] = est.node_speed[n];
  }
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      permuted.link_latency[perm[a] * 4 + perm[b]] =
          est.link_latency[a * 4 + b];
      permuted.link_bandwidth[perm[a] * 4 + perm[b]] =
          est.link_bandwidth[a * 4 + b];
    }
  }
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<NodeId> assign(4);
    for (auto& n : assign) {
      n = static_cast<NodeId>(util::uniform_int(rng, 0, 3));
    }
    std::vector<NodeId> permuted_assign(4);
    for (std::size_t i = 0; i < 4; ++i) permuted_assign[i] = perm[assign[i]];
    EXPECT_NEAR(model.throughput(p, est, Mapping(assign)),
                model.throughput(p, permuted, Mapping(permuted_assign)),
                1e-9);
  }
}

// --- Monotonicity: speeding up a node never lowers the exhaustive
// optimum.
TEST_P(PropertySeed, OptimumMonotoneInNodeSpeed) {
  util::Xoshiro256 rng(GetParam() ^ 0xBEEF);
  grid::RandomGridParams params;
  params.nodes = 3;
  const Grid g = grid::random_grid(GetParam(), params);
  const auto p = random_profile(rng, 4);
  auto est = sched::ResourceEstimate::from_grid(g, 0.0);
  const sched::PerfModel model;
  const sched::ExhaustiveMapper mapper(model);

  const double before = mapper.best(p, est)->breakdown.throughput;
  const auto victim =
      static_cast<std::size_t>(util::uniform_int(rng, 0, 2));
  est.node_speed[victim] *= 2.0;
  const double after = mapper.best(p, est)->breakdown.throughput;
  EXPECT_GE(after, before - 1e-9);
}

// --- Monotonicity: adding a node never lowers the exhaustive optimum.
TEST_P(PropertySeed, OptimumMonotoneInNodeCount) {
  util::Xoshiro256 rng(GetParam() ^ 0xCAFE);
  const auto speeds3 = std::vector<double>{
      util::uniform(rng, 0.5, 3.0), util::uniform(rng, 0.5, 3.0),
      util::uniform(rng, 0.5, 3.0)};
  auto speeds4 = speeds3;
  speeds4.push_back(util::uniform(rng, 0.5, 3.0));
  const auto p = random_profile(rng, 4);
  const sched::PerfModel model;
  const sched::ExhaustiveMapper mapper(model);

  const Grid g3 = grid::heterogeneous_cluster(speeds3, 1e-3, 1e8);
  const Grid g4 = grid::heterogeneous_cluster(speeds4, 1e-3, 1e8);
  const double small = mapper.best(p, sched::ResourceEstimate::from_grid(g3, 0))
                           ->breakdown.throughput;
  const double large = mapper.best(p, sched::ResourceEstimate::from_grid(g4, 0))
                           ->breakdown.throughput;
  EXPECT_GE(large, small - 1e-9);
}

// --- Scale law: doubling every node speed doubles the simulated
// throughput of a fixed mapping (compute-bound profile).
TEST_P(PropertySeed, SimThroughputScalesWithSpeed) {
  util::Xoshiro256 rng(GetParam() ^ 0xD00D);
  const double base = util::uniform(rng, 0.5, 2.0);
  auto run_at = [&](double scale) {
    const Grid g = grid::heterogeneous_cluster(
        {base * scale, 2.0 * base * scale}, 1e-4, 1e10);
    const auto p = PipelineProfile::uniform(2, 0.5, 1e3);
    sim::SimConfig config;
    config.num_items = 400;
    config.probe_interval = 0.0;
    sim::PipelineSim s(g, p, Mapping(std::vector<NodeId>{0, 1}), config);
    s.start();
    s.simulator().run();
    return s.metrics().mean_throughput();
  };
  EXPECT_NEAR(run_at(2.0), 2.0 * run_at(1.0), 0.05 * run_at(2.0));
}

// --- Wire-format round trip on random mappings (shared comm::wire codec).
TEST_P(PropertySeed, MappingWireRoundTrip) {
  util::Xoshiro256 rng(GetParam() ^ 0xABBA);
  const std::size_t ns = 1 + GetParam() % 6;
  std::vector<std::vector<NodeId>> assignment(ns);
  for (auto& reps : assignment) {
    const std::size_t count = 1 + util::uniform_int(rng, 0, 2);
    for (std::size_t r = 0; r < count; ++r) {
      const auto node = static_cast<NodeId>(util::uniform_int(rng, 0, 7));
      if (std::find(reps.begin(), reps.end(), node) == reps.end()) {
        reps.push_back(node);
      }
    }
  }
  const Mapping mapping(assignment);
  EXPECT_EQ(comm::wire::decode_mapping(comm::wire::encode_mapping(mapping)),
            mapping);
}

// --- Latency mapper: its choice is never worse (in modeled latency) than
// the throughput mapper's choice, and always feasible.
TEST_P(PropertySeed, LatencyMapperDominatesThroughputMapperOnLatency) {
  util::Xoshiro256 rng(GetParam() ^ 0xFEED);
  grid::RandomGridParams params;
  params.nodes = 3;
  params.lat_lo = 1e-3;
  params.lat_hi = 5e-2;
  const Grid g = grid::random_grid(GetParam(), params);
  const auto p = random_profile(rng, 3);
  const auto est = sched::ResourceEstimate::from_grid(g, 0.0);
  const sched::PerfModel model;

  const auto thr_best = sched::ExhaustiveMapper(model).best(p, est);
  ASSERT_TRUE(thr_best);
  const double rate = 0.3 * thr_best->breakdown.throughput;
  const auto lat_best = sched::LatencyMapper(model).best(p, est, rate);
  ASSERT_TRUE(lat_best);

  EXPECT_LE(lat_best->latency,
            model.latency_estimate(p, est, thr_best->mapping, rate) + 1e-9);
  EXPECT_GE(lat_best->throughput, rate);
}

// --- Conservation under randomized remap storms: spray arbitrary valid
// mappings at a running simulation; every item still arrives exactly
// once. (Completion *order* is not preserved across remaps — an item in
// transit to an old replica can be overtaken by a redirected successor;
// the runtimes restore stream order with their resequencer.)
TEST_P(PropertySeed, RemapStormNeverLosesItems) {
  util::Xoshiro256 rng(GetParam() ^ 0x5707);
  const Grid g = grid::uniform_cluster(4, 1.0, 1e-3, 1e8);
  const auto p = PipelineProfile::uniform(3, 0.1, 1e4);
  sim::SimConfig config;
  config.num_items = 300;
  config.probe_interval = 0.0;
  sim::PipelineSim s(g, p, Mapping(std::vector<NodeId>{0, 1, 2}), config);
  s.start();
  for (double t = 1.0; t < 30.0; t += 1.0) {
    s.simulator().run_until(t);
    if (s.finished()) break;
    std::vector<NodeId> assign(3);
    for (auto& n : assign) {
      n = static_cast<NodeId>(util::uniform_int(rng, 0, 3));
    }
    s.apply_mapping(Mapping(assign), util::uniform(rng, 0.0, 0.3));
  }
  s.simulator().run();
  EXPECT_EQ(s.metrics().items_completed(), 300u);
  // Exactly-once: all 300 distinct ids present.
  std::vector<double> ids = s.metrics().completions().values();
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(ids[i], static_cast<double>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeed,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace gridpipe
