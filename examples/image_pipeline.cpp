// Example: frame-processing pipeline (blur -> sobel -> threshold) on an
// emulated heterogeneous grid whose fastest node becomes busy mid-run.
//
// Demonstrates:
//  * a realistic per-frame workload built from the imaging substrate,
//  * heterogeneity + dynamic load emulation on the threaded runtime,
//  * live adaptation: watch the mapping move when the load hits.
//
//   ./examples/image_pipeline

#include <iostream>

#include "grid/builders.hpp"
#include "rt/runtime.hpp"
#include "util/table.hpp"
#include "util/logging.hpp"
#include "workload/imaging.hpp"

int main() {
  using namespace gridpipe;
  // Narrate remaps by default; GRIDPIPE_LOG still overrides.
  util::set_default_log_level(util::LogLevel::kInfo);

  // A fast node that will get busy at t = 5 virtual seconds, plus two
  // steady workers.
  grid::Grid g = grid::heterogeneous_cluster({4.0, 1.5, 1.5}, 1e-3, 1e8);
  grid::set_node_load(g, 0, std::make_shared<grid::StepLoad>(
                                std::vector<grid::StepLoad::Step>{
                                    {5.0, 12.0}}));

  constexpr std::size_t kWidth = 96, kHeight = 96;
  rt::RuntimeOptions options;
  options.time_scale = 0.05;
  options.adapt.epoch = 3.0;  // adaptation check every 3 virtual s
  options.adapt.policy.restart_latency = 0.2;

  auto runtime = rt::make_runtime(rt::RuntimeKind::kThreads, g,
                                  workload::image_pipeline(kWidth, kHeight),
                                  options);
  std::cout << "initial plan: " << runtime->planned_mapping().to_string()
            << "\n";

  // 2000 synthetic frames (~20+ virtual seconds of stream).
  std::vector<std::any> frames;
  for (std::uint64_t f = 0; f < 2000; ++f) {
    frames.emplace_back(workload::make_test_image(kWidth, kHeight, f));
  }
  const auto report = runtime->run(std::move(frames));

  std::cout << report.summary() << "\n";
  for (const auto& remap : report.remaps) {
    std::cout << "  remap at t=" << util::format_double(remap.time, 1)
              << "s: " << remap.from << " -> " << remap.to << " (pause "
              << util::format_double(remap.pause, 2) << "s)\n";
  }

  // Verify one frame against the inline reference.
  const auto& out = std::any_cast<const workload::Image&>(report.outputs[17]);
  const workload::Image expected = workload::threshold(
      workload::sobel(workload::box_blur(
          workload::make_test_image(kWidth, kHeight, 17))),
      0.5F);
  std::cout << "frame 17 checksum "
            << util::format_double(workload::mean_pixel(out), 6)
            << (out.pixels == expected.pixels ? " (verified)"
                                              : " (MISMATCH!)")
            << "\n";
  return 0;
}
