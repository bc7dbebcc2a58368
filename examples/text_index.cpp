// Example: streaming text analytics (tokenize -> bigram count -> top-k)
// across a two-site grid — a local LAN pair plus a remote fast machine
// behind a WAN link. The scheduler must weigh the remote node's speed
// against the WAN transfer cost, the same trade-off as the calibration
// table's last row.
//
//   ./examples/text_index

#include <iostream>
#include <map>

#include "grid/builders.hpp"
#include "rt/runtime.hpp"
#include "sched/perf_model.hpp"
#include "util/table.hpp"
#include "workload/streams.hpp"
#include "workload/textproc.hpp"

int main() {
  using namespace gridpipe;

  // Site 0: two 1.0-speed machines on a fast LAN. Site 1: one 6x machine
  // across a 30 ms / 10 MB/s WAN.
  const grid::Grid g = grid::multi_site_grid(
      {{2, 1.0, 1e-4, 1e9}, {1, 6.0, 1e-4, 1e9}},
      /*wan_latency=*/0.03, /*wan_bandwidth=*/1e7);

  rt::RuntimeOptions options;
  options.time_scale = 0.01;
  auto runtime = rt::make_runtime(
      rt::RuntimeKind::kThreads, g,
      workload::text_pipeline(/*k=*/5, /*avg_bytes=*/4096.0), options);

  const sched::Mapping& plan = runtime->planned_mapping();
  std::cout << "chosen mapping " << plan.to_string()
            << " (nodes 1-2 = local site, node 3 = remote 6x machine)\n"
            << "modeled throughput "
            << util::format_double(
                   sched::PerfModel().throughput(
                       runtime->profile(),
                       sched::ResourceEstimate::from_grid(g, 0.0), plan),
                   2)
            << " docs/s\n";

  // 200 synthetic documents of ~60 words.
  const auto report = runtime->run(workload::text_items(200, 60, 7));
  std::cout << report.summary() << "\n";

  // Merge the per-document top-k lists into a corpus-level ranking.
  std::map<std::string, std::uint64_t> corpus;
  for (const auto& out : report.outputs) {
    const auto& top = std::any_cast<
        const std::vector<std::pair<std::string, std::uint32_t>>&>(out);
    for (const auto& [ngram, count] : top) corpus[ngram] += count;
  }
  std::vector<std::pair<std::string, std::uint64_t>> ranked(corpus.begin(),
                                                            corpus.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::cout << "top corpus bigrams:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
    std::cout << "  " << ranked[i].first << "  x" << ranked[i].second << "\n";
  }
  return 0;
}
