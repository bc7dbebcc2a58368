// proc_pipeline — the process-per-node runtime in one small program.
//
// Forks one real worker process per grid node (look for them in `ps`
// while it runs), streams items through a three-stage pipeline over
// Unix-domain sockets, then lets the controller remap the pipeline away
// from a node that picks up competing load mid-run. Every stage appends
// the pid of the process that executed it, so the output stream is a
// visible record of which OS process ran what — and of the migration.

#include <cstring>
#include <iostream>
#include <set>

#include <unistd.h>

#include "grid/builders.hpp"
#include "proc/process_executor.hpp"
#include "util/table.hpp"

using namespace gridpipe;
using core::Bytes;

namespace {

void append_pid(core::ByteSpan in, Bytes& out) {
  const std::int32_t pid = static_cast<std::int32_t>(getpid());
  const std::size_t off = out.size();
  out.resize(off + in.size() + sizeof(pid));
  if (!in.empty()) std::memcpy(out.data() + off, in.data(), in.size());
  std::memcpy(out.data() + off + in.size(), &pid, sizeof(pid));
}

}  // namespace

int main() {
  // Three equal nodes; node 1 picks up 8x competing load at t = 4 s.
  auto grid = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(
      grid, 1,
      std::make_shared<grid::StepLoad>(
          std::vector<grid::StepLoad::Step>{{4.0, 8.0}}));

  std::vector<core::DistStage> stages;
  for (const char* name : {"ingest", "transform", "publish"}) {
    stages.push_back({name, append_pid, 0.03, 64});
  }

  rt::RuntimeOptions config;
  config.time_scale = 0.005;
  config.adapt.epoch = 2.0;
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.change_threshold = 0.4;
  config.adapt.policy.hysteresis_epochs = 1;
  config.adapt.policy.min_gain_ratio = 0.2;
  config.adapt.policy.restart_latency = 0.1;

  proc::ProcessExecutor executor(
      grid, stages, sched::Mapping(std::vector<grid::NodeId>{0, 1, 2}),
      config);

  std::vector<Bytes> inputs(200);
  const auto report = executor.run(std::move(inputs));

  std::set<std::int32_t> pids;
  for (const auto& any_out : report.outputs) {
    const auto& out = std::any_cast<const Bytes&>(any_out);
    for (std::size_t off = 0; off + 4 <= out.size(); off += 4) {
      std::int32_t pid;
      std::memcpy(&pid, out.data() + off, sizeof(pid));
      pids.insert(pid);
    }
  }

  std::cout << "parent pid " << getpid() << ", stages executed by "
            << pids.size() << " distinct worker processes:";
  for (const std::int32_t pid : pids) std::cout << " " << pid;
  std::cout << "\n" << report.summary() << "\n";
  for (const auto& remap : report.remaps) {
    std::cout << "  t=" << util::format_double(remap.time, 1) << "s  remap "
              << remap.from << " -> " << remap.to << "\n";
  }

  // Exit non-zero if the run was degenerate, so a CTest smoke run of
  // this example means something: all items, real separate processes,
  // and the remap the StepLoad scenario is engineered to force.
  const bool ok =
      report.items == 200 && pids.size() >= 3 && !report.remaps.empty();
  if (!ok) std::cerr << "unexpected: missing items, processes, or remap\n";
  return ok ? 0 : 1;
}
