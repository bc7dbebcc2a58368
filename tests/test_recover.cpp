// Tests for src/recover/ — the fault-tolerance subsystem. The unit half
// pins the pure pieces without a single fork (FaultPlan grammar and
// determinism, ReplayJournal at-least-once bookkeeping, Supervisor
// decision table, the WorkerState transition table, OrderedDedupBuffer
// exactly-once reordering, and the HealthTracker respawn re-arm). The
// integration half forks real worker fleets through the ProcessExecutor
// with recovery enabled and asserts the headline property end to end: a
// SIGKILLed worker mid-stream — whether respawned or degraded around —
// still yields output byte-identical to the crash-free run, exactly
// once, in order.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "core/dist_executor.hpp"
#include "core/ordered_buffer.hpp"
#include "grid/builders.hpp"
#include "obs/health.hpp"
#include "proc/process_executor.hpp"
#include "recover/fault.hpp"
#include "recover/journal.hpp"
#include "recover/supervisor.hpp"
#include "recover/worker_state.hpp"
#include "rt/runtime.hpp"

namespace gridpipe::recover {
namespace {

using grid::NodeId;

// ----------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParsesKillPointsRateAndSeed) {
  const FaultPlan plan = FaultPlan::parse("kill=1@25;kill=0@3;rate=0.25;seed=9");
  ASSERT_EQ(plan.kills.size(), 2u);
  EXPECT_EQ(plan.kills[0].node, 1u);
  EXPECT_EQ(plan.kills[0].item, 25u);
  EXPECT_EQ(plan.kills[1].node, 0u);
  EXPECT_EQ(plan.kills[1].item, 3u);
  EXPECT_DOUBLE_EQ(plan.kill_rate, 0.25);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_TRUE(plan.any());

  // to_string round-trips through parse.
  EXPECT_EQ(FaultPlan::parse(plan.to_string()), plan);

  // Comma separators work too; an empty plan is inert.
  EXPECT_EQ(FaultPlan::parse("kill=2@7,seed=3").kills.size(), 1u);
  EXPECT_FALSE(FaultPlan{}.any());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("kill=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill=x@2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("rate=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("rate=nope"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("frob=1"), std::invalid_argument);
}

TEST(FaultPlan, KillPointsFireOnceAtIncarnationZero) {
  const FaultPlan plan = FaultPlan::parse("kill=1@20");
  // Fires on the named (node, item) at any stage, first incarnation only.
  EXPECT_TRUE(plan.should_die(1, 20, 0, 0));
  EXPECT_TRUE(plan.should_die(1, 20, 2, 0));
  EXPECT_FALSE(plan.should_die(1, 20, 0, 1));  // respawn survives the replay
  EXPECT_FALSE(plan.should_die(0, 20, 0, 0));  // other node
  EXPECT_FALSE(plan.should_die(1, 19, 0, 0));  // other item
}

TEST(FaultPlan, RateDrawsAreDeterministicAndIncarnationSalted) {
  FaultPlan plan;
  plan.kill_rate = 0.5;
  plan.seed = 42;
  // Pure function of its arguments: two evaluations agree, and a plan
  // with the same parameters built elsewhere (the forked child's copy)
  // agrees with the parent's.
  FaultPlan copy = plan;
  bool any_death = false;
  bool incarnation_changes_a_draw = false;
  for (std::uint64_t item = 0; item < 64; ++item) {
    const bool die = plan.should_die(0, item, 1, 0);
    EXPECT_EQ(die, copy.should_die(0, item, 1, 0)) << "item " << item;
    any_death = any_death || die;
    if (die != plan.should_die(0, item, 1, 1)) {
      incarnation_changes_a_draw = true;
    }
  }
  EXPECT_TRUE(any_death) << "rate=0.5 over 64 draws produced no death";
  EXPECT_TRUE(incarnation_changes_a_draw)
      << "incarnation does not salt the hash: a respawn would re-die "
         "deterministically";
}

// ------------------------------------------------------- ReplayJournal

TEST(ReplayJournal, AdmitRetireAndDuplicateDetection) {
  ReplayJournal journal;
  const Bytes p0{std::byte{10}};
  const Bytes p1{std::byte{11}};
  journal.admit(0, p0, 1.0);
  journal.admit(1, p1, 2.0);
  EXPECT_EQ(journal.live(), 2u);
  EXPECT_TRUE(journal.contains(0));

  const ReplayJournal::Entry* entry = journal.find(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->payload, p1);
  EXPECT_DOUBLE_EQ(entry->admitted_at, 2.0);

  EXPECT_TRUE(journal.retire(0));    // first delivery
  EXPECT_FALSE(journal.retire(0));   // duplicate delivery
  EXPECT_EQ(journal.find(0), nullptr);
  EXPECT_EQ(journal.live(), 1u);
  EXPECT_FALSE(journal.empty());
  EXPECT_TRUE(journal.retire(1));
  EXPECT_TRUE(journal.empty());
}

TEST(ReplayJournal, LiveSeqsAscendAndReplaysAreCounted) {
  ReplayJournal journal;
  for (const std::uint64_t seq : {7u, 2u, 5u}) {
    journal.admit(seq, Bytes{std::byte{1}}, 0.0);
  }
  EXPECT_EQ(journal.live_seqs(), (std::vector<std::uint64_t>{2, 5, 7}));
  journal.note_replay(5);
  journal.note_replay(5);
  EXPECT_EQ(journal.find(5)->replays, 2u);
  EXPECT_EQ(journal.total_replays(), 2u);
}

// ---------------------------------------------------------- Supervisor

TEST(Supervisor, RespawnBudgetBacksOffThenDegrades) {
  RespawnPolicy policy;
  policy.max_respawns = 2;
  policy.backoff_ms = 10.0;
  policy.backoff_multiplier = 2.0;
  Supervisor supervisor(policy, 3);

  Supervisor::Action a = supervisor.on_death(1);
  EXPECT_EQ(a.kind, Supervisor::ActionKind::kRespawn);
  EXPECT_DOUBLE_EQ(a.delay_ms, 10.0);
  a = supervisor.on_death(1);
  EXPECT_EQ(a.kind, Supervisor::ActionKind::kRespawn);
  EXPECT_DOUBLE_EQ(a.delay_ms, 20.0);  // doubles per respawn of this node
  EXPECT_EQ(supervisor.respawns(1), 2u);

  // Budget spent: third death degrades. Other nodes keep a full budget.
  EXPECT_EQ(supervisor.on_death(1).kind, Supervisor::ActionKind::kDegrade);
  a = supervisor.on_death(0);
  EXPECT_EQ(a.kind, Supervisor::ActionKind::kRespawn);
  EXPECT_DOUBLE_EQ(a.delay_ms, 10.0);
  EXPECT_EQ(supervisor.total_respawns(), 3u);
}

TEST(Supervisor, ExhaustWithoutDegradeFailsAndArrivalResets) {
  RespawnPolicy policy;
  policy.max_respawns = 0;
  policy.degrade_on_exhaust = false;
  Supervisor supervisor(policy, 2);
  EXPECT_EQ(supervisor.on_death(0).kind, Supervisor::ActionKind::kFail);

  policy.max_respawns = 1;
  policy.degrade_on_exhaust = true;
  supervisor.reset(policy, 2);
  EXPECT_EQ(supervisor.on_death(0).kind, Supervisor::ActionKind::kRespawn);
  EXPECT_EQ(supervisor.on_death(0).kind, Supervisor::ActionKind::kDegrade);
  // A later arrival (node rejoined the grid) restores the budget.
  supervisor.on_arrival(0);
  EXPECT_EQ(supervisor.respawns(0), 0u);
  EXPECT_EQ(supervisor.on_death(0).kind, Supervisor::ActionKind::kRespawn);
}

// --------------------------------------------------------- WorkerState

TEST(WorkerState, EveryLegalEdgeIsAcceptedAndEveryOtherThrows) {
  // Two cases a forking test only hits by timing accident: a kill during
  // a respawn makes the fork fail (respawning → dead, legal: back to the
  // supervisor), and a kill during a degrade finds no worker left to
  // lose (degraded → dead, illegal: only up slots are lost). No
  // self-loop is an edge.
  using S = WorkerState;
  constexpr S kAll[] = {S::kUp, S::kDead, S::kRespawning, S::kDegraded};
  const std::vector<std::pair<S, S>> legal = {
      {S::kUp, S::kDead},            // worker lost
      {S::kDead, S::kRespawning},    // supervisor: respawn
      {S::kDead, S::kDegraded},      // supervisor: degrade
      {S::kRespawning, S::kUp},      // replacement forked
      {S::kRespawning, S::kDead},    // kill during respawn: fork failed
      {S::kDead, S::kUp},            // arrival before the supervisor ran
      {S::kDegraded, S::kUp},        // arrival after a degrade
  };
  std::size_t accepted = 0;
  for (const S from : kAll) {
    for (const S to : kAll) {
      const bool is_legal =
          std::find(legal.begin(), legal.end(), std::make_pair(from, to)) !=
          legal.end();
      if (is_legal) {
        EXPECT_EQ(transition(from, to), to)
            << to_string(from) << " -> " << to_string(to);
        ++accepted;
      } else {
        EXPECT_THROW(transition(from, to), std::logic_error)
            << to_string(from) << " -> " << to_string(to);
      }
    }
  }
  EXPECT_EQ(accepted, legal.size());
  try {
    transition(S::kDegraded, S::kDead);
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("degraded -> dead"),
              std::string::npos)
        << error.what();
  }
}

TEST(WorkerState, ArrivalOwesAReplayOnlyFromDeadOrRespawning) {
  // A dead node's items were never replayed (the supervisor has not run),
  // a respawning node's replay was due at the fork the arrival replaces;
  // a degraded node's items were replayed onto the survivors already.
  EXPECT_TRUE(arrival_owes_replay(WorkerState::kDead));
  EXPECT_TRUE(arrival_owes_replay(WorkerState::kRespawning));
  EXPECT_FALSE(arrival_owes_replay(WorkerState::kDegraded));
  EXPECT_FALSE(arrival_owes_replay(WorkerState::kUp));  // no arrival at all
}

// ------------------------------------------------- OrderedDedupBuffer

TEST(OrderedDedupBuffer, ReordersAndRejectsDuplicates) {
  core::OrderedDedupBuffer out;
  const auto payload = [](int v) { return core::OrderedDedupBuffer::Bytes{std::byte(v)}; };

  EXPECT_TRUE(out.insert(1, payload(1)));
  EXPECT_FALSE(out.ready());  // seq 0 missing
  EXPECT_TRUE(out.insert(0, payload(0)));
  EXPECT_FALSE(out.insert(1, payload(99)));  // already buffered
  ASSERT_TRUE(out.ready());
  EXPECT_EQ(out.pop(), payload(0));
  EXPECT_EQ(out.pop(), payload(1));
  EXPECT_EQ(out.next(), 2u);

  EXPECT_FALSE(out.insert(0, payload(0)));  // already delivered
  EXPECT_FALSE(out.insert(1, payload(1)));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(out.insert(2, payload(2)));
  EXPECT_EQ(out.buffered(), 1u);
  out.reset();
  EXPECT_EQ(out.next(), 0u);
  EXPECT_TRUE(out.insert(0, payload(0)));
}

// ----------------------------------------------- HealthTracker re-arm

TEST(HealthTrackerRecovery, DownNodeSkipsStallCheckAndRespawnRearms) {
  obs::HealthTracker tracker;
  tracker.reset(2, /*now=*/0.0);

  // Node 1 goes silent long enough to stall once.
  tracker.on_frame(0, 19.0);
  auto edges = tracker.check(/*now=*/20.0, /*stall_after=*/15.0);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].node, 1u);
  EXPECT_TRUE(edges[0].stalled);
  EXPECT_EQ(tracker.nodes()[1].stall_count, 1u);

  // Marked down (supervisor reaped it): no further edges while dead.
  // (Node 0 keeps heartbeating so it contributes no edges of its own.)
  tracker.set_down(1, true);
  tracker.on_frame(0, 59.0);
  EXPECT_TRUE(tracker.check(60.0, 15.0).empty());

  // The respawn clears the latch and the stale record but keeps the
  // count, so a *new* stall of the replacement re-fires the edge.
  tracker.on_respawn(1, 61.0);
  EXPECT_FALSE(tracker.nodes()[1].down);
  EXPECT_FALSE(tracker.nodes()[1].stalled);
  EXPECT_TRUE(tracker.check(62.0, 15.0).empty());  // fresh, not stalled
  tracker.on_frame(0, 99.0);
  edges = tracker.check(100.0, 15.0);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].stalled);
  EXPECT_EQ(tracker.nodes()[1].stall_count, 2u);
}

// ------------------------------------------------- integration helpers

Bytes bytes_of_int(int v) {
  Bytes out(sizeof(int));
  std::memcpy(out.data(), &v, sizeof(int));
  return out;
}
int int_of_bytes(core::ByteSpan b) {
  int v = 0;
  std::memcpy(&v, b.data(), sizeof(int));
  return v;
}
void append_int(Bytes& out, int v) {
  const std::size_t off = out.size();
  out.resize(off + sizeof(int));
  std::memcpy(out.data() + off, &v, sizeof(int));
}

// Same 3-stage arithmetic pipeline the proc_executor suite uses:
// out(i) = (i + 1) * 3 - 1, so golden parity is checkable in closed form.
std::vector<core::DistStage> arithmetic_stages(double last_stage_work = 0.02) {
  std::vector<core::DistStage> stages;
  stages.push_back({"inc",
                    [](core::ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) + 1);
                    },
                    0.02, 16});
  stages.push_back({"triple",
                    [](core::ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) * 3);
                    },
                    0.02, 16});
  stages.push_back({"dec",
                    [](core::ByteSpan in, Bytes& out) {
                      append_int(out, int_of_bytes(in) - 1);
                    },
                    last_stage_work, 16});
  return stages;
}

rt::RuntimeOptions recovering_config() {
  rt::RuntimeOptions config;
  config.time_scale = 0.002;
  config.recovery.enabled = true;
  return config;
}

void expect_golden(const core::RunReport& report, int n) {
  ASSERT_EQ(report.outputs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& bytes =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(bytes), (i + 1) * 3 - 1) << "item " << i;
  }
}

// ------------------------------------------------ integration: respawn

TEST(RecoverIntegration, RespawnRecoversSigkilledWorker) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = recovering_config();
  config.recovery.faults.kills = {{/*node=*/1, /*item=*/7}};
  proc::ProcessExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                                 config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 60; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  expect_golden(report, 60);
  EXPECT_EQ(report.node_losses, 1u);
  EXPECT_EQ(report.respawns, 1u);
  EXPECT_GE(report.items_replayed, 1u);
  ASSERT_EQ(report.recovery_times.size(), 1u);
  EXPECT_GT(report.recovery_times[0], 0.0);
  // The summary narrates the recovery so operators see it in CLI output.
  EXPECT_NE(report.summary().find("recovered from 1 worker loss"),
            std::string::npos);
}

TEST(RecoverIntegration, SigkillMidStreamMatchesGoldenOutput) {
  // The acceptance property: a worker SIGKILLed mid-stream (here by an
  // injected fault at several different points, including the stage-0
  // node holding admission state and the last-stage node holding
  // nearly-done results) completes with output identical to the
  // crash-free run.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  const FaultPlan::KillPoint points[] = {{0, 12}, {1, 7}, {2, 20}};
  for (const auto& point : points) {
    SCOPED_TRACE("kill node " + std::to_string(point.node) + " at item " +
                 std::to_string(point.item));
    rt::RuntimeOptions config = recovering_config();
    config.recovery.faults.kills = {point};
    proc::ProcessExecutor executor(g, arithmetic_stages(),
                                   sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                                   config);
    std::vector<Bytes> inputs;
    for (int i = 0; i < 48; ++i) inputs.push_back(bytes_of_int(i));
    const auto report = executor.run(std::move(inputs));
    expect_golden(report, 48);
    EXPECT_EQ(report.node_losses, 1u);
  }
}

TEST(RecoverIntegration, ExternalSigkillIsRecoveredToo) {
  // Not an injected fault: a real SIGKILL from outside, mid-stream, at
  // an arbitrary moment. Exercises the same EOF-driven detection path
  // the crash-forensics tests pin, but with recovery turned on.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  proc::ProcessExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                                 recovering_config());
  executor.stream_begin();
  const std::vector<int> pids = executor.worker_pids();
  ASSERT_EQ(pids.size(), 3u);
  for (int i = 0; i < 60; ++i) executor.stream_push(bytes_of_int(i));

  // Let some outputs drain so the kill lands mid-pipeline, then murder
  // the middle-stage worker.
  std::vector<Bytes> outputs;
  while (outputs.size() < 6) {
    if (auto out = executor.stream_try_pop()) {
      outputs.push_back(std::move(*out));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(::kill(pids[1], SIGKILL), 0);

  executor.stream_close();
  core::RunReport report = executor.stream_finish();
  while (auto out = executor.stream_try_pop()) outputs.push_back(std::move(*out));
  ASSERT_EQ(outputs.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(int_of_bytes(outputs[i]), (i + 1) * 3 - 1) << "item " << i;
  }
  EXPECT_EQ(report.node_losses, 1u);
  EXPECT_EQ(report.respawns, 1u);
}

TEST(RecoverIntegration, RespawnedWorkerReusesFlightLane) {
  // The replacement inherits the dead worker's flight-recorder lane:
  // after the run the lane shows the respawn stamp followed by task
  // events from the new incarnation — one forensic timeline per node,
  // not per pid.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = recovering_config();
  config.recovery.faults.kills = {{/*node=*/1, /*item=*/7}};
  proc::ProcessExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                                 config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 60; ++i) inputs.push_back(bytes_of_int(i));
  expect_golden(executor.run(std::move(inputs)), 60);

  // Lane 0 is the controller; worker lanes are 1 + node.
  const std::string tail = executor.flight_tail(/*lane=*/1 + 1, /*max=*/256);
  const std::size_t respawn_at = tail.find("respawn");
  ASSERT_NE(respawn_at, std::string::npos) << tail;
  EXPECT_NE(tail.find("task-done", respawn_at), std::string::npos)
      << "no post-respawn task events in the reused lane:\n"
      << tail;
}

// ------------------------------------- integration: dedup under replay

TEST(RecoverIntegration, DuplicateDeliveriesAreDeduped) {
  // Make the last stage slow so a backlog of mid-pipeline items is
  // guaranteed in flight when the middle node dies: those items finish
  // through the survivors *and* get replayed from stage 0, so the
  // replay's delivery is a forced duplicate the output buffer must drop.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = recovering_config();
  config.time_scale = 0.01;
  config.recovery.faults.kills = {{/*node=*/1, /*item=*/10}};
  proc::ProcessExecutor executor(g, arithmetic_stages(/*last_stage_work=*/0.3),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                                 config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 24; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  expect_golden(report, 24);
  EXPECT_GE(report.items_replayed, 1u);
  EXPECT_GE(report.items_deduped, 1u)
      << "no duplicate was dropped; replay raced nothing";
}

// ------------------------------------ integration: degrade and arrival

TEST(RecoverIntegration, DegradeRemapsAroundDeadNode) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = recovering_config();
  config.recovery.respawn.max_respawns = 0;  // degrade on first death
  config.recovery.faults.kills = {{/*node=*/2, /*item=*/5}};
  proc::ProcessExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                                 config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 40; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  expect_golden(report, 40);
  EXPECT_EQ(report.node_losses, 1u);
  EXPECT_EQ(report.respawns, 0u);
  // The final mapping routes around the dead node (1-based "3" in the
  // mapping tuple).
  EXPECT_EQ(report.final_mapping.find("3"), std::string::npos)
      << report.final_mapping;
}

TEST(RecoverIntegration, NodeArrivalRejoinsDegradedNode) {
  // Degrade node 1 away, then announce its return mid-stream: the
  // supervisor forks a fresh worker, the controller runs a node-arrival
  // churn epoch, and the stream finishes with golden output.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = recovering_config();
  config.recovery.respawn.max_respawns = 0;
  config.recovery.faults.kills = {{/*node=*/1, /*item=*/5}};
  proc::ProcessExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                                 config);
  executor.stream_begin();
  for (int i = 0; i < 30; ++i) executor.stream_push(bytes_of_int(i));

  // Wait for the degrade (the dead worker's pid slot flips to -1).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (executor.worker_pids().at(1) != -1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no degrade seen";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  executor.request_arrival(1);
  while (executor.worker_pids().at(1) <= 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no arrival fork";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (int i = 30; i < 60; ++i) executor.stream_push(bytes_of_int(i));
  executor.stream_close();
  core::RunReport report = executor.stream_finish();

  std::vector<Bytes> outputs;
  while (auto out = executor.stream_try_pop()) outputs.push_back(std::move(*out));
  ASSERT_EQ(outputs.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(int_of_bytes(outputs[i]), (i + 1) * 3 - 1) << "item " << i;
  }
  EXPECT_EQ(report.node_losses, 1u);
  EXPECT_EQ(report.respawns, 1u);  // the arrival fork counts as a respawn
}

// Node 1 dies at item 5 while its respawn backs off, so the slot sits in
// kRespawning. Meanwhile node 2 (the slow last stage) finishes the items
// queued past node 1, which frees credits, and the items admitted with
// them are routed into the dead node. Whatever brings node 1 back owes
// the replay of every item lost on the way: those in flight at the death
// and those admitted since. `after_death` runs once the death is seen;
// the outputs that come back within 20 s are returned. A stalled
// executor is leaked: its finish would never return.
std::vector<Bytes> stream_across_backoff(
    double backoff_ms,
    const std::function<void(proc::ProcessExecutor&)>& after_death,
    core::RunReport& report) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = recovering_config();
  config.recovery.respawn.backoff_ms = backoff_ms;
  config.recovery.faults.kills = {{/*node=*/1, /*item=*/5}};
  auto executor = std::make_unique<proc::ProcessExecutor>(
      g, arithmetic_stages(/*last_stage_work=*/0.2),
      sched::Mapping(std::vector<NodeId>{0, 1, 2}), config);
  executor->stream_begin();
  for (int i = 0; i < 30; ++i) executor->stream_push(bytes_of_int(i));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (executor->worker_pids().at(1) != -1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  after_death(*executor);
  std::vector<Bytes> outputs;
  while (outputs.size() < 30 && std::chrono::steady_clock::now() < deadline) {
    if (auto out = executor->stream_try_pop()) {
      outputs.push_back(std::move(*out));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (outputs.size() != 30u) {
    executor.release();
    return outputs;
  }
  executor->stream_close();
  report = executor->stream_finish();
  return outputs;
}

TEST(RecoverIntegration, ArrivalDuringRespawnBackoffReplaysLostItems) {
  // A ten-minute backoff: the arrival replaces the pending respawn.
  core::RunReport report;
  const std::vector<Bytes> outputs = stream_across_backoff(
      600'000.0,
      [](proc::ProcessExecutor& executor) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        executor.request_arrival(1);
      },
      report);
  ASSERT_EQ(outputs.size(), 30u) << "the arrival skipped the replay it owed";
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(int_of_bytes(outputs[static_cast<std::size_t>(i)]),
              (i + 1) * 3 - 1)
        << "item " << i;
  }
  EXPECT_EQ(report.node_losses, 1u);
  EXPECT_EQ(report.respawns, 1u);  // the arrival's fork, not the backoff's
}

TEST(RecoverIntegration, RespawnAfterBackoffReplaysItemsAdmittedMeanwhile) {
  core::RunReport report;
  const std::vector<Bytes> outputs = stream_across_backoff(
      50.0, [](proc::ProcessExecutor&) {}, report);
  ASSERT_EQ(outputs.size(), 30u) << "the respawn skipped the replay it owed";
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(int_of_bytes(outputs[static_cast<std::size_t>(i)]),
              (i + 1) * 3 - 1)
        << "item " << i;
  }
  EXPECT_EQ(report.node_losses, 1u);
  EXPECT_EQ(report.respawns, 1u);
}

TEST(RecoverIntegration, ArrivalRequestsAreValidated) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  proc::ProcessExecutor off(g, arithmetic_stages(),
                            sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                            rt::RuntimeOptions{.time_scale = 0.002});
  EXPECT_THROW(off.request_arrival(0), std::logic_error);

  proc::ProcessExecutor on(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                           recovering_config());
  EXPECT_THROW(on.request_arrival(7), std::invalid_argument);
}

// --------------------------------------------- integration: rt plumbing

TEST(RecoverIntegration, RuntimeOptionsCarryRecoveryThroughSessions) {
  // The same fault-injected recovery, driven through the public
  // rt::make_runtime surface instead of the executor directly.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  core::PipelineSpec spec;
  spec.stage<std::int64_t, std::int64_t>(
          "inc", [](std::int64_t v) { return v + 1; }, 0.02, 16)
      .stage<std::int64_t, std::int64_t>(
          "triple", [](std::int64_t v) { return v * 3; }, 0.02, 16)
      .stage<std::int64_t, std::int64_t>(
          "dec", [](std::int64_t v) { return v - 1; }, 0.02, 16);

  rt::RuntimeOptions options;
  options.time_scale = 0.002;
  options.recovery.enabled = true;
  options.recovery.faults.kills = {{/*node=*/1, /*item=*/6}};
  auto runtime = rt::make_runtime(rt::RuntimeKind::kProcess, g,
                                  std::move(spec), options);
  std::vector<std::any> items;
  for (std::int64_t i = 0; i < 40; ++i) items.emplace_back(i);
  const core::RunReport report = runtime->run(std::move(items));

  ASSERT_EQ(report.outputs.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(std::any_cast<std::int64_t>(report.outputs[i]),
              static_cast<std::int64_t>(i + 1) * 3 - 1);
  }
  EXPECT_EQ(report.node_losses, 1u);
  EXPECT_EQ(report.respawns, 1u);
}

// The historical contract survives: with recovery off (the default), a
// worker death still fails the run with the crash-forensics error.
TEST(RecoverIntegration, RecoveryOffStillFailsOnCrash) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config;
  config.time_scale = 0.002;
  config.recovery.enabled = false;
  config.recovery.faults.kills = {{/*node=*/1, /*item=*/7}};
  proc::ProcessExecutor executor(g, arithmetic_stages(),
                                 sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                                 config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 40; ++i) inputs.push_back(bytes_of_int(i));
  try {
    executor.run(std::move(inputs));
    FAIL() << "crash with recovery off must fail the run";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("exited mid-run"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace gridpipe::recover
