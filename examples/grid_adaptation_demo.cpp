// Example: virtual-time what-if analysis with the simulator API.
//
// Before deploying on a real grid, rehearse the pipeline against the
// scenario catalogue and compare schedulers: how much does adaptation buy
// under each kind of resource dynamics, and how close does it get to the
// perfect-knowledge oracle? This is the planning workflow that
// sim::run_pipeline serves directly (rt::make_runtime(kSim, ...) covers
// the single-run case).
//
//   ./examples/grid_adaptation_demo

#include <iostream>

#include "sim/drivers.hpp"
#include "util/table.hpp"
#include "workload/scenarios.hpp"

int main() {
  using namespace gridpipe;

  constexpr std::uint64_t kItems = 3000;
  std::cout << "rehearsing " << kItems
            << "-item streams over the scenario catalogue...\n";

  util::Table table({"scenario", "static thr", "adaptive thr", "oracle thr",
                     "adaptive gain", "of oracle gain"});
  for (const workload::Scenario& s : workload::scenario_catalog(11)) {
    sim::SimConfig config;
    config.num_items = kItems;
    config.probe_interval = 5.0;

    auto run = [&](sim::DriverKind kind) {
      sim::DriverOptions options;
      options.driver = kind;
      options.adapt.epoch = 10.0;
      return sim::run_pipeline(s.grid, s.profile, config, options);
    };
    const auto st = run(sim::DriverKind::kStaticOptimal);
    const auto ad = run(sim::DriverKind::kAdaptive);
    const auto or_ = run(sim::DriverKind::kOracle);

    const double adaptive_gain = ad.mean_throughput / st.mean_throughput;
    const double oracle_gain = or_.mean_throughput / st.mean_throughput;
    table.row()
        .add(s.name)
        .add(st.mean_throughput, 3)
        .add(ad.mean_throughput, 3)
        .add(or_.mean_throughput, 3)
        .add(adaptive_gain, 2)
        .add(oracle_gain > 1.0
                 ? util::format_double(
                       (adaptive_gain - 1.0) / (oracle_gain - 1.0), 2)
                 : std::string("-"));
  }
  std::cout << table.to_string();
  std::cout << "\n'of oracle gain' = share of the perfect-knowledge "
               "improvement the monitor-driven pattern captures.\n";
  return 0;
}
