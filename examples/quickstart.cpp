// Quickstart: the smallest complete gridpipe program.
//
// Builds a three-node heterogeneous "grid", describes a three-stage
// pipeline with cost annotations, lets the scheduler plan a mapping, and
// runs a stream of integers through the threaded runtime.
//
//   ./examples/quickstart

#include <any>
#include <iostream>

#include "grid/builders.hpp"
#include "rt/runtime.hpp"
#include "sched/perf_model.hpp"
#include "util/table.hpp"

int main() {
  using namespace gridpipe;

  // 1. The resources: one fast machine and two standard ones, on a LAN.
  const grid::Grid grid =
      grid::heterogeneous_cluster({2.0, 1.0, 1.0}, /*latency=*/1e-3,
                                  /*bandwidth=*/1e8);

  // 2. The application: parse -> transform -> render, one output per
  //    input. `work` is in the same units as node speeds above.
  core::PipelineSpec spec;
  spec.stage(
          "parse",
          [](std::any item) { return std::any(std::any_cast<int>(item) + 1); },
          /*work=*/0.05)
      .stage(
          "transform",
          [](std::any item) { return std::any(std::any_cast<int>(item) * 3); },
          /*work=*/0.20)
      .stage(
          "render",
          [](std::any item) { return std::any(std::any_cast<int>(item) - 2); },
          /*work=*/0.05);

  // 3. Plan: where should the stages run right now? The runtime picks
  //    the deployment-time mapping when it is made.
  rt::RuntimeOptions options;
  options.time_scale = 0.01;  // run 100x faster than modeled time
  auto runtime = rt::make_runtime(rt::RuntimeKind::kThreads, grid,
                                  std::move(spec), options);
  const sched::Mapping& plan = runtime->planned_mapping();
  std::cout << "planned mapping " << plan.to_string()
            << " with modeled throughput "
            << util::format_double(
                   sched::PerfModel().throughput(
                       runtime->profile(),
                       sched::ResourceEstimate::from_grid(grid, 0.0), plan),
                   2)
            << " items/s\n";

  // 4. Run a stream.
  std::vector<std::any> inputs;
  for (int i = 0; i < 50; ++i) inputs.emplace_back(i);
  const auto report = runtime->run(std::move(inputs));

  std::cout << report.summary() << "\n";
  std::cout << "f(7) = " << std::any_cast<int>(report.outputs[7])
            << " (expected " << ((7 + 1) * 3 - 2) << ")\n";
  return 0;
}
