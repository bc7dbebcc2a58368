// EXP-R1 — fault-tolerance cost on the process substrate.
//
// Three questions, one table:
//  * what does the replay journal cost when nothing fails?
//    (recovery on vs off, fault-free: same stream, makespan delta)
//  * how long is the recovery window after a SIGKILL mid-stream?
//    (death detected -> every in-flight item re-delivered, virtual s)
//  * what does a loss cost end to end? (makespan vs the fault-free run,
//    for both the respawn and the degrade policy)
//
// Faults come from recover::FaultPlan kill points, so every run loses
// the same worker at the same item and the numbers are comparable
// across commits. scripts/record_bench.sh captures the JSON into
// bench_results/BENCH_R1.json and scripts/perf_smoke.py gates the
// recovery window and journal overhead against that baseline.

#include <cstring>

#include "bench_common.hpp"
#include "core/dist_executor.hpp"
#include "grid/builders.hpp"
#include "proc/process_executor.hpp"
#include "recover/fault.hpp"

namespace {

using namespace gridpipe;

constexpr std::uint64_t kItems = 200;
constexpr double kTimeScale = 0.002;

void append_int(core::Bytes& out, int v) {
  const std::size_t off = out.size();
  out.resize(off + sizeof(int));
  std::memcpy(out.data() + off, &v, sizeof(int));
}
int int_of_bytes(core::ByteSpan b) {
  int v = 0;
  std::memcpy(&v, b.data(), sizeof(int));
  return v;
}

std::vector<core::DistStage> stages() {
  std::vector<core::DistStage> out;
  out.push_back({"inc",
                 [](core::ByteSpan in, core::Bytes& o) {
                   append_int(o, int_of_bytes(in) + 1);
                 },
                 0.02, 16});
  out.push_back({"triple",
                 [](core::ByteSpan in, core::Bytes& o) {
                   append_int(o, int_of_bytes(in) * 3);
                 },
                 0.02, 16});
  out.push_back({"dec",
                 [](core::ByteSpan in, core::Bytes& o) {
                   append_int(o, int_of_bytes(in) - 1);
                 },
                 0.02, 16});
  return out;
}

struct Row {
  std::string scenario;
  core::RunReport report;
};

core::RunReport run_one(const grid::Grid& g, recover::RecoveryOptions recovery) {
  rt::RuntimeOptions config;
  config.time_scale = kTimeScale;
  config.recovery = std::move(recovery);
  proc::ProcessExecutor executor(g, stages(),
                                 sched::Mapping(std::vector<grid::NodeId>{0, 1, 2}),
                                 config);
  std::vector<core::Bytes> inputs;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    core::Bytes b;
    append_int(b, static_cast<int>(i));
    inputs.push_back(std::move(b));
  }
  return executor.run(std::move(inputs));
}

// The makespans are wall-clock-derived, so scheduler noise moves them
// by ~±1 virtual s per run; best-of-N is the usual noise-resistant
// estimator and keeps the committed baseline diffable.
core::RunReport run_once(const grid::Grid& g,
                         const recover::RecoveryOptions& recovery,
                         int reps = 3) {
  core::RunReport best = run_one(g, recovery);
  for (int i = 1; i < reps; ++i) {
    core::RunReport next = run_one(g, recovery);
    if (next.virtual_seconds < best.virtual_seconds) best = std::move(next);
  }
  return best;
}

double worst_window(const core::RunReport& report) {
  double worst = 0.0;
  for (const double t : report.recovery_times) {
    if (t > worst) worst = t;
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_out_path(argc, argv);
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);

  bench::print_header("EXP-R1", "fault-tolerance cost (process substrate)");

  std::vector<Row> rows;
  {
    recover::RecoveryOptions off;  // historical contract: no journal at all
    rows.push_back({"recovery-off", run_once(g, off)});
  }
  {
    recover::RecoveryOptions on;
    on.enabled = true;  // journal + dedup armed, nothing fails
    rows.push_back({"fault-free", run_once(g, on)});
  }
  {
    recover::RecoveryOptions respawn;
    respawn.enabled = true;
    respawn.faults.kills = {{/*node=*/1, /*item=*/kItems / 4}};
    rows.push_back({"respawn", run_once(g, respawn)});
  }
  {
    recover::RecoveryOptions degrade;
    degrade.enabled = true;
    degrade.respawn.max_respawns = 0;
    degrade.faults.kills = {{/*node=*/1, /*item=*/kItems / 4}};
    rows.push_back({"degrade", run_once(g, degrade)});
  }

  const double fault_free_makespan = rows[1].report.virtual_seconds;

  util::Table table({"scenario", "makespan(vs)", "recovery window(vs)",
                     "losses", "respawns", "replayed", "deduped",
                     "loss cost %"});
  util::Json doc = util::Json::object();
  doc["bench"] = "EXP-R1";
  doc["items"] = kItems;
  util::Json& out_rows = doc["recovery"];
  out_rows = util::Json::array();

  for (const Row& row : rows) {
    const core::RunReport& r = row.report;
    const double window = worst_window(r);
    const double loss_cost =
        fault_free_makespan > 0.0 && r.node_losses > 0
            ? 100.0 * (r.virtual_seconds - fault_free_makespan) /
                  fault_free_makespan
            : 0.0;
    table.row()
        .add(row.scenario)
        .add(r.virtual_seconds, 3)
        .add(window, 3)
        .add(r.node_losses)
        .add(r.respawns)
        .add(r.items_replayed)
        .add(r.items_deduped)
        .add(loss_cost, 1);

    util::Json j = util::Json::object();
    j["scenario"] = row.scenario;
    j["makespan_vs"] = r.virtual_seconds;
    j["recovery_window_vs"] = window;
    j["node_losses"] = r.node_losses;
    j["respawns"] = r.respawns;
    j["items_replayed"] = r.items_replayed;
    j["items_deduped"] = r.items_deduped;
    out_rows.push_back(std::move(j));
  }
  bench::print_table(table);

  const double journal_overhead =
      fault_free_makespan - rows[0].report.virtual_seconds;
  doc["journal_overhead_vs"] = journal_overhead;
  std::cout << "journal overhead (recovery on vs off, fault-free): "
            << util::format_double(journal_overhead, 3) << " virtual s over "
            << kItems << " items\n";

  bench::print_note(
      "the respawn window should cover roughly one in-flight window of "
      "replays; degrade trades the window for a permanently smaller grid");

  if (!json_path.empty() && !bench::write_json(json_path, doc)) return 1;
  return 0;
}
