// EXP-V1 — threaded-runtime validation against the simulator.
//
// The same pipeline, grid, and mapping run (a) in the discrete-event
// simulator and (b) on the threaded runtime with emulated heterogeneity.
// Expected shape: the throughput ratio rt/sim stays within ~±25 % for
// every mapping (wider on a loaded 1-core CI box); errors do not grow
// with co-location.

#include <any>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "grid/builders.hpp"
#include "sim/pipeline_sim.hpp"

int main() {
  using namespace gridpipe;
  bench::print_header("EXP-V1", "threaded runtime vs simulator");

  const auto g = grid::heterogeneous_cluster({2.0, 1.0, 1.0}, 1e-3, 1e8);

  auto make_spec = [] {
    core::PipelineSpec spec;
    spec.stage("s0", [](std::any a) { return a; }, 0.08, 1e3)
        .stage("s1", [](std::any a) { return a; }, 0.16, 1e3)
        .stage("s2", [](std::any a) { return a; }, 0.08, 1e3);
    return spec;
  };
  const auto profile = make_spec().to_profile();

  util::Table table({"mapping", "sim thr", "rt thr", "rt/sim"});
  const std::vector<std::vector<grid::NodeId>> mappings = {
      {0, 1, 2}, {0, 0, 1}, {0, 0, 0}, {1, 0, 2}};

  for (const auto& assignment : mappings) {
    const sched::Mapping mapping{assignment};

    sim::SimConfig sim_config;
    sim_config.num_items = 300;
    sim_config.probe_interval = 0.0;
    sim::PipelineSim des(g, profile, mapping, sim_config);
    des.start();
    des.simulator().run();
    const double sim_thr = des.metrics().mean_throughput();

    rt::RuntimeOptions exec_config;
    exec_config.time_scale = 0.004;
    core::Executor executor(g, make_spec(), mapping, exec_config);
    std::vector<std::any> inputs;
    for (int i = 0; i < 300; ++i) inputs.emplace_back(i);
    const auto report = executor.run(std::move(inputs));

    table.row()
        .add(mapping.to_string())
        .add(sim_thr, 3)
        .add(report.throughput, 3)
        .add(report.throughput / sim_thr, 3);
  }
  bench::print_table(table);
  return 0;
}
