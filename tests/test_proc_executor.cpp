// Tests for the process-per-node runtime: the shared comm::wire frame
// format (round-trips for every kind, malformed/truncated rejection),
// end-to-end correctness over real forked processes and Unix sockets,
// crash detection, controller-driven adaptation (the same kOnChange
// quiet-epoch/load-step scenarios the other runtimes pass), decision
// parity with the DistributedExecutor, and event-driven wakeups of the
// parent's poll loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "comm/wire.hpp"
#include "core/dist_executor.hpp"
#include "grid/builders.hpp"
#include "json_checker.hpp"
#include "obs/metrics.hpp"
#include "proc/process_executor.hpp"

namespace gridpipe::proc {
namespace {

using grid::NodeId;
namespace wire = comm::wire;

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

std::vector<core::DistStage> arithmetic_stages() {
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
                    0.02, 16});
  return stages;
}

// --------------------------------------------------------- wire frames

wire::Frame roundtrip_one(const wire::Frame& frame) {
  const Bytes encoded = wire::encode_frame(frame);
  wire::FrameReader reader;
  reader.feed(encoded.data(), encoded.size());
  auto decoded = reader.next();
  EXPECT_TRUE(decoded.has_value());
  EXPECT_FALSE(reader.next().has_value()) << "trailing frame";
  return *decoded;
}

TEST(ProcWire, EveryFrameKindRoundTrips) {
  const Bytes task = wire::encode_task(42, 1, bytes_of_int(7));
  const wire::Frame frames[] = {
      {wire::FrameKind::kTask, 2, task},
      {wire::FrameKind::kResult, 0, task},
      {wire::FrameKind::kRemap, 1,
       wire::encode_mapping(sched::Mapping(std::vector<NodeId>{1, 0, 2}))},
      {wire::FrameKind::kShutdown, 0, {}},
      {wire::FrameKind::kSpeedObs, 3, wire::encode_f64(1.75)},
      {wire::FrameKind::kTelemetry, 1, task},  // payload opaque to framing
      {wire::FrameKind::kHealth, 2, task},     // payload opaque to framing
  };
  for (const wire::Frame& frame : frames) {
    EXPECT_EQ(roundtrip_one(frame), frame) << wire::to_string(frame.kind);
  }
}

TEST(ProcWire, ReaderReassemblesSplitFrames) {
  // A frame arriving one byte at a time must stay pending until whole;
  // two frames in one feed must both pop.
  const wire::Frame a{wire::FrameKind::kTask, 1,
                      wire::encode_task(9, 0, bytes_of_int(5))};
  const wire::Frame b{wire::FrameKind::kSpeedObs, 2, wire::encode_f64(0.5)};
  Bytes stream = wire::encode_frame(a);
  const Bytes bb = wire::encode_frame(b);
  stream.insert(stream.end(), bb.begin(), bb.end());

  wire::FrameReader reader;
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    reader.feed(&stream[i], 1);
    if (i + 1 < wire::encode_frame(a).size()) {
      EXPECT_FALSE(reader.next().has_value()) << "byte " << i;
    }
  }
  reader.feed(&stream[stream.size() - 1], 1);
  EXPECT_EQ(reader.next(), a);
  EXPECT_EQ(reader.next(), b);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ProcWire, ReaderRejectsOversizedLength) {
  Bytes header(12);
  const std::uint32_t huge = wire::kMaxFramePayload + 1;
  const std::uint32_t kind = 1;
  std::memcpy(header.data(), &huge, 4);
  std::memcpy(header.data() + 4, &kind, 4);
  wire::FrameReader reader;
  reader.feed(header.data(), header.size());
  EXPECT_THROW(reader.next(), std::invalid_argument);
}

TEST(ProcWire, ReaderRejectsUnknownKind) {
  Bytes header(12);
  const std::uint32_t len = 0;
  const std::uint32_t kind = 99;
  std::memcpy(header.data(), &len, 4);
  std::memcpy(header.data() + 4, &kind, 4);
  wire::FrameReader reader;
  reader.feed(header.data(), header.size());
  EXPECT_THROW(reader.next(), std::invalid_argument);
}

TEST(ProcWire, TruncatedPayloadsThrow) {
  std::uint64_t item;
  std::uint32_t stage;
  Bytes payload;
  EXPECT_THROW(wire::decode_task(Bytes(4), item, stage, payload),
               std::invalid_argument);
  EXPECT_THROW(wire::decode_f64(Bytes(4)), std::invalid_argument);

  sched::Mapping mapping(std::vector<NodeId>{2, 0, 1});
  mapping.add_replica(1, 2);
  const Bytes good = wire::encode_mapping(mapping);
  EXPECT_EQ(wire::decode_mapping(good), mapping);
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_THROW(wire::decode_mapping(Bytes(good.begin(),
                                            good.begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    cut))),
                 std::invalid_argument)
        << "cut at " << cut;
  }
}

TEST(ProcWire, MappingWithAbsurdCountsRejected) {
  // Claims 2^31 stages in 8 bytes: must throw, not allocate.
  Bytes lie(8);
  const std::uint32_t stages = 0x80000000u;
  std::memcpy(lie.data(), &stages, 4);
  EXPECT_THROW(wire::decode_mapping(lie), std::invalid_argument);
}

// ---------------------------------------------------------- end to end

rt::RuntimeOptions fast_proc_config() {
  rt::RuntimeOptions config;
  config.time_scale = 0.002;
  return config;
}

TEST(ProcessExecutor, OrderedCorrectOutputs) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                           fast_proc_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 60; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  ASSERT_EQ(report.items, 60u);
  for (int i = 0; i < 60; ++i) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1) << "item " << i;
  }
  EXPECT_EQ(report.remap_count, 0u);
  EXPECT_GT(report.throughput, 0.0);
}

TEST(ProcessExecutor, EmptyInput) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                           fast_proc_config());
  EXPECT_EQ(executor.run({}).items, 0u);
}

TEST(ProcessExecutor, ColocatedMappingWorks) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping::all_on(3, 1),
                           fast_proc_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 20; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  EXPECT_EQ(report.items, 20u);
  EXPECT_EQ(report.final_mapping, "(2,2,2)");
}

TEST(ProcessExecutor, ReplicatedStageFarmsAcrossProcesses) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  sched::Mapping mapping(std::vector<NodeId>{0, 1, 0});
  mapping.add_replica(1, 2);  // middle stage farmed over two processes
  ProcessExecutor executor(g, arithmetic_stages(), mapping,
                           fast_proc_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 40; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  ASSERT_EQ(report.items, 40u);
  for (int i = 0; i < 40; ++i) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1) << "item " << i;
  }
}

TEST(ProcessExecutor, WorkerCrashSurfacesAsError) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  auto stages = arithmetic_stages();
  // Stage functions only ever run inside forked workers, so this kills
  // one real OS process mid-stream — the failure mode the in-process
  // runtimes cannot even express.
  stages[1].fn = [](core::ByteSpan in, Bytes& out) {
    if (int_of_bytes(in) == 14) _exit(7);  // item 13 after the +1 stage
    append_int(out, int_of_bytes(in) * 3);
  };
  ProcessExecutor executor(g, std::move(stages),
                           sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                           fast_proc_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 30; ++i) inputs.push_back(bytes_of_int(i));
  try {
    executor.run(std::move(inputs));
    FAIL() << "expected a crash report";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exited mid-run"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("exit code 7"), std::string::npos)
        << e.what();
  }
}

TEST(ProcessExecutor, SigkilledWorkerErrorCarriesItsFlightTail) {
  // The tentpole forensic promise end to end: a worker killed by SIGKILL
  // gets no chance to flush or report anything, yet the crash error must
  // explain what it was doing — the parent reads the victim's flight
  // lane out of the pre-fork MAP_SHARED mapping.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  auto stages = arithmetic_stages();
  // Wedge stage 1 on item 6 so its worker can never drain the stream:
  // items 0-5 complete (the lane has a story to tell), items 6+ stay
  // in flight, and the SIGKILL is guaranteed to land mid-run rather
  // than racing a clean finish.
  stages[1].fn = [](core::ByteSpan in, Bytes& out) {
    if (int_of_bytes(in) == 7) {  // item 6 after the +1 stage
      std::this_thread::sleep_for(std::chrono::seconds(60));
    }
    append_int(out, int_of_bytes(in) * 3);
  };
  ProcessExecutor executor(g, std::move(stages),
                           sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                           fast_proc_config());
  executor.stream_begin();
  const std::vector<int> pids = executor.worker_pids();
  ASSERT_EQ(pids.size(), 2u);

  // Let real work flow first so the victim's lane has a story to tell.
  for (int i = 0; i < 12; ++i) executor.stream_push(bytes_of_int(i));
  std::size_t popped = 0;
  while (popped < 6) {
    if (executor.stream_try_pop()) {
      ++popped;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
  executor.stream_close();
  try {
    executor.stream_finish();
    FAIL() << "expected a crash report";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker for node 1 exited mid-run"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("signal 9"), std::string::npos) << what;
    EXPECT_NE(what.find("last flight events:"), std::string::npos) << what;
    // The decoded tail holds the worker's own task events, recorded by
    // the dead process into shared memory.
    EXPECT_NE(what.find("task-done stage=1"), std::string::npos) << what;
  }
}

TEST(ProcessExecutor, WedgedWorkerTripsStallDetection) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  auto stages = arithmetic_stages();
  // Stage 1 wedges on one item: its worker goes silent mid-task (no
  // frames, no heartbeats) while the parent keeps polling — the silence
  // stall shape. At time_scale 0.002 the 200ms sleep is ~100 virtual
  // seconds of silence against a 10-second threshold.
  stages[1].fn = [](core::ByteSpan in, Bytes& out) {
    if (int_of_bytes(in) == 11) {  // item 10 after the +1 stage
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    append_int(out, int_of_bytes(in) * 3);
  };
  rt::RuntimeOptions config;
  config.time_scale = 0.002;
  config.health_interval = 1.0;
  config.stall_after = 10.0;
  config.obs.metrics = std::make_shared<obs::MetricsRegistry>();
  obs::MetricsRegistry& metrics = *config.obs.metrics;
  ProcessExecutor executor(g, std::move(stages),
                           sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                           config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 30; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 30u) << "a stall is a warning, not a failure";
  EXPECT_GE(metrics.counter(obs::names::kWorkerStalls).value(), 1u);
}

TEST(ProcessExecutor, StatusSnapshotIsWellFormedMidStream) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = fast_proc_config();
  config.health_interval = 0.5;
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                           config);
  executor.stream_begin();
  for (int i = 0; i < 20; ++i) executor.stream_push(bytes_of_int(i));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const std::string text = executor.status().dump(2);
  EXPECT_TRUE(test_support::JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"substrate\": \"process\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"mapping\": \"(1,2,1)\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"workers\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"worker_pids\""), std::string::npos) << text;

  executor.stream_close();
  const auto report = executor.stream_finish();
  EXPECT_EQ(report.items, 20u);
}

// ---------------------------------------------------------- wakeups

// Options under which nothing but the event itself wakes an idle poll
// loop: no epochs, no stall checks, heartbeats far apart.
rt::RuntimeOptions idle_proc_config() {
  rt::RuntimeOptions config;
  config.emulate_compute = false;
  config.adapt.epoch = 0.0;
  config.stall_after = 0.0;
  config.health_interval = 1e4;
  return config;
}

// Pops until `n` outputs have arrived (or 10 s pass); returns them.
std::vector<Bytes> pop_n(ProcessExecutor& executor, std::size_t n) {
  std::vector<Bytes> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.size() < n && std::chrono::steady_clock::now() < deadline) {
    if (auto out = executor.stream_try_pop()) {
      got.push_back(std::move(*out));
    } else {
      std::this_thread::yield();
    }
  }
  return got;
}

TEST(ProcessExecutor, CloseEndsIdleStreamWithoutATick) {
  // close -> finish on an idle stream, median of five. Each stream
  // delivers one item first and lets the workers' trailing frames
  // settle, so the loop sits in poll() at the close; finish still
  // flushes kShutdown and reaps the fleet, which is quick.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 0}),
                           idle_proc_config());
  std::vector<double> ms;
  for (int run = 0; run < 5; ++run) {
    executor.stream_begin();
    executor.stream_push(bytes_of_int(1));
    ASSERT_EQ(pop_n(executor, 1).size(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto start = std::chrono::steady_clock::now();
    executor.stream_close();
    EXPECT_EQ(executor.stream_finish().items, 1u);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 2, ms.end());
  EXPECT_LT(ms[2], 25.0) << "close->finish waited for a timer";
}

TEST(ProcessExecutor, ArrivalRequestOnIdleStreamForksWithoutATick) {
  // Degrade node 1 (killed at item 5, no respawn budget), drain the
  // stream so the loop goes idle, then ask for the node back: the fork
  // must follow the request, not the next timer.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = idle_proc_config();
  config.recovery.enabled = true;
  config.recovery.respawn.max_respawns = 0;
  config.recovery.faults.kills = {{/*node=*/1, /*item=*/5}};
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                           config);
  executor.stream_begin();
  for (int i = 0; i < 10; ++i) executor.stream_push(bytes_of_int(i));
  std::vector<Bytes> outputs = pop_n(executor, 10);
  ASSERT_EQ(outputs.size(), 10u);
  ASSERT_EQ(executor.worker_pids().at(1), -1) << "node 1 was not degraded";

  const auto start = std::chrono::steady_clock::now();
  executor.request_arrival(1);
  while (executor.worker_pids().at(1) <= 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::yield();
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_GT(executor.worker_pids().at(1), 0) << "no arrival fork";
  EXPECT_LT(ms, 25.0) << "the arrival waited for a timer";

  for (int i = 10; i < 20; ++i) executor.stream_push(bytes_of_int(i));
  executor.stream_close();
  const core::RunReport report = executor.stream_finish();
  EXPECT_EQ(report.node_losses, 1u);
  while (auto out = executor.stream_try_pop()) outputs.push_back(std::move(*out));
  ASSERT_EQ(outputs.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(int_of_bytes(outputs[static_cast<std::size_t>(i)]),
              (i + 1) * 3 - 1)
        << "item " << i;
  }
}

TEST(ProcessExecutor, BurstsOfPushesNeverLeaveTheLoopDeaf) {
  // With epochs and stall checks off, poll() has no timeout, so only a
  // wake can start an idle stream again. Each cycle pushes a burst with
  // sub-microsecond to ~2 us gaps, which keeps wakes landing while the
  // loop is handling the previous one, then pops it all so the loop
  // goes idle before the next burst. A wake primitive that can end up
  // set with nothing left to read (a lost wake that never clears)
  // stalls the first push of some later burst for good; a coalescing
  // flag cleared before the drain did so within a few cycles. The
  // executor lives on the heap so that a stalled one can be abandoned:
  // its close() would never be noticed.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  auto executor = std::make_unique<ProcessExecutor>(
      g, arithmetic_stages(), sched::Mapping(std::vector<NodeId>{0, 1, 0}),
      idle_proc_config());
  executor->stream_begin();
  constexpr int kBurst = 32;
  for (int cycle = 0; cycle < 200; ++cycle) {
    const auto gap = std::chrono::nanoseconds(250 * (cycle % 8));
    for (int i = 0; i < kBurst; ++i) {
      executor->stream_push(bytes_of_int(cycle * kBurst + i));
      const auto until = std::chrono::steady_clock::now() + gap;
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    const std::vector<Bytes> got = pop_n(*executor, kBurst);
    if (got.size() != static_cast<std::size_t>(kBurst)) {
      executor.release();  // deliberately leaked: teardown would hang
      FAIL() << "cycle " << cycle << ": " << got.size() << " of " << kBurst
             << " items came back; the loop stopped hearing wakes";
    }
    EXPECT_EQ(int_of_bytes(got.back()), ((cycle + 1) * kBurst) * 3 - 1);
  }
  executor->stream_close();
  EXPECT_EQ(executor->stream_finish().items, 200u * kBurst);
}

TEST(ProcessExecutor, RejectsBadConstruction) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  EXPECT_THROW(ProcessExecutor(g, {}, sched::Mapping{}, {}),
               std::invalid_argument);
  EXPECT_THROW(ProcessExecutor(
                   g, arithmetic_stages(),
                   sched::Mapping(std::vector<NodeId>{0, 1}),  // 2 != 3
                   fast_proc_config()),
               std::invalid_argument);
  rt::RuntimeOptions bad;
  bad.time_scale = 0.0;
  EXPECT_THROW(ProcessExecutor(g, arithmetic_stages(),
                               sched::Mapping::all_on(3, 0), bad),
               std::invalid_argument);
}

TEST(ProcessExecutor, ProfileMatchesStages) {
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping::all_on(3, 0), fast_proc_config());
  const auto p = executor.profile();
  EXPECT_EQ(p.num_stages(), 3u);
  EXPECT_DOUBLE_EQ(p.stage_work[1], 0.02);
  EXPECT_NO_THROW(p.validate());
}

// ---------------------------------------------------------- adaptation

TEST(ProcessExecutor, AdaptsAwayFromLoadedNode) {
  auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::ConstantLoad>(9.0));

  rt::RuntimeOptions config;
  config.time_scale = 0.002;
  config.adapt.epoch = 4.0;
  config.adapt.policy.hysteresis_epochs = 1;
  config.adapt.policy.min_gain_ratio = 0.2;
  config.adapt.policy.restart_latency = 0.1;

  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                           config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  EXPECT_GE(report.remap_count, 1u);
  EXPECT_EQ(report.final_mapping.find('2'), std::string::npos)
      << "still on loaded node: " << report.final_mapping;
  // Spot-check results survived the live remap.
  for (int i : {0, 123, 399}) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1);
  }
}

TEST(ProcessExecutor, OnChangeTriggerSkipsQuietEpochs) {
  // Same contract as the threaded and message-passing runtimes: on a
  // stable grid the change gate swallows the mapping search after the
  // first decision.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config;
  config.time_scale = 0.01;
  config.adapt.epoch = 2.0;
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.change_threshold = 0.75;
  config.adapt.max_staleness = 1e9;
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                           config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  ASSERT_GE(report.epochs.size(), 2u);
  EXPECT_TRUE(report.epochs.front().decided);
  std::size_t decisions = 0;
  for (const auto& e : report.epochs) decisions += e.decided;
  EXPECT_LT(decisions, report.epochs.size());
  EXPECT_EQ(report.remap_count, 0u);
}

TEST(ProcessExecutor, OnChangeTriggerReactsToLoadStep) {
  auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  grid::set_node_load(g, 1, std::make_shared<grid::StepLoad>(
                                std::vector<grid::StepLoad::Step>{
                                    {4.0, 9.0}}));

  rt::RuntimeOptions config;
  config.time_scale = 0.01;
  config.adapt.epoch = 2.0;
  config.adapt.trigger = control::AdaptationTrigger::kOnChange;
  config.adapt.change_threshold = 0.4;
  config.adapt.max_staleness = 1e9;
  config.adapt.policy.hysteresis_epochs = 1;
  config.adapt.policy.min_gain_ratio = 0.2;
  config.adapt.policy.restart_latency = 0.1;
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                           config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 400; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));

  EXPECT_EQ(report.items, 400u);
  EXPECT_GE(report.remap_count, 1u);
  EXPECT_EQ(report.final_mapping.find('2'), std::string::npos)
      << "still on loaded node: " << report.final_mapping;
  std::size_t remapped_epochs = 0;
  for (const auto& e : report.epochs) remapped_epochs += e.remapped;
  EXPECT_EQ(remapped_epochs, report.remap_count);
  // Results survived the mid-stream remap.
  for (int i : {0, 123, 399}) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1);
  }
}

// ------------------------------------------------------ shm ring modes

TEST(ProcessExecutor, RingDisabledStillCorrect) {
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = fast_proc_config();
  // Unmappable ring size: the mesh is refused like an mmap failure, so
  // the run falls back to pure socket-relay mode.
  config.shm_ring_bytes = std::numeric_limits<std::size_t>::max() - 10;
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                           config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 40; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  ASSERT_EQ(report.items, 40u);
  for (int i = 0; i < 40; ++i) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1) << "item " << i;
  }
}

TEST(ProcessExecutor, TinyRingFallsBackToSocketPerFrame) {
  // A ring too small for even one frame forces the fallback branch on
  // every single hop — the stream must still be complete and ordered.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  rt::RuntimeOptions config = fast_proc_config();
  config.shm_ring_bytes = 8;  // < one frame: every push fails
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping(std::vector<NodeId>{0, 1, 2}),
                           config);
  std::vector<Bytes> inputs;
  for (int i = 0; i < 40; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  ASSERT_EQ(report.items, 40u);
  for (int i = 0; i < 40; ++i) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1) << "item " << i;
  }
}

TEST(ProcessExecutor, RingCarriesSelfHopsOnColocatedMapping) {
  // all_on: every hop is a self-hop through the diagonal ring.
  const auto g = grid::uniform_cluster(2, 1.0, 1e-3, 1e8);
  ProcessExecutor executor(g, arithmetic_stages(),
                           sched::Mapping::all_on(3, 1),
                           fast_proc_config());
  std::vector<Bytes> inputs;
  for (int i = 0; i < 30; ++i) inputs.push_back(bytes_of_int(i));
  const auto report = executor.run(std::move(inputs));
  ASSERT_EQ(report.items, 30u);
  for (int i = 0; i < 30; ++i) {
    const auto& out =
        std::any_cast<const Bytes&>(report.outputs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(int_of_bytes(out), (i + 1) * 3 - 1) << "item " << i;
  }
}

TEST(ProcessExecutor, RingEnabledOutputsMatchDistGolden) {
  // Golden parity: byte-identical ordered outputs from the dist runtime
  // and the proc runtime with rings engaged, same scenario.
  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  const sched::Mapping mapping(std::vector<NodeId>{0, 1, 2});
  std::vector<Bytes> inputs;
  for (int i = 0; i < 50; ++i) inputs.push_back(bytes_of_int(i));

  rt::RuntimeOptions dist_config;
  dist_config.time_scale = 0.002;
  core::DistributedExecutor dist(g, arithmetic_stages(), mapping,
                                 dist_config);
  const auto dist_report = dist.run(inputs);

  ProcessExecutor proc(g, arithmetic_stages(), mapping, fast_proc_config());
  const auto proc_report = proc.run(inputs);

  ASSERT_EQ(proc_report.items, dist_report.items);
  ASSERT_EQ(proc_report.outputs.size(), dist_report.outputs.size());
  for (std::size_t i = 0; i < proc_report.outputs.size(); ++i) {
    EXPECT_EQ(std::any_cast<const Bytes&>(proc_report.outputs[i]),
              std::any_cast<const Bytes&>(dist_report.outputs[i]))
        << "item " << i;
  }
}

// -------------------------------------------------------------- parity

// The acceptance bar for "fourth runtime behind the same control layer":
// on the same deterministic scenario with the same AdaptationConfig, the
// process runtime's epoch timeline must make the same decisions the
// DistributedExecutor makes — substrate changed, control behavior did
// not.
TEST(ProcessExecutor, QuietScenarioDecisionParityWithDist) {
  control::AdaptationConfig adapt;
  adapt.epoch = 2.0;
  adapt.trigger = control::AdaptationTrigger::kOnChange;
  adapt.change_threshold = 0.75;
  adapt.max_staleness = 1e9;

  const auto g = grid::uniform_cluster(3, 1.0, 1e-3, 1e8);
  const sched::Mapping mapping(std::vector<NodeId>{0, 1, 2});
  std::vector<Bytes> inputs;
  for (int i = 0; i < 300; ++i) inputs.push_back(bytes_of_int(i));

  rt::RuntimeOptions dist_config;
  dist_config.time_scale = 0.01;
  dist_config.adapt = adapt;
  core::DistributedExecutor dist(g, arithmetic_stages(), mapping,
                                 dist_config);
  const auto dist_report = dist.run(inputs);

  rt::RuntimeOptions proc_config;
  proc_config.time_scale = 0.01;
  proc_config.adapt = adapt;
  ProcessExecutor proc(g, arithmetic_stages(), mapping, proc_config);
  const auto proc_report = proc.run(inputs);

  ASSERT_EQ(proc_report.items, dist_report.items);
  EXPECT_EQ(proc_report.final_mapping, dist_report.final_mapping);
  EXPECT_EQ(proc_report.remap_count, dist_report.remap_count);

  // Same decision sequence epoch by epoch. Wall-clock jitter can give
  // one run a trailing epoch more than the other; the overlap must
  // agree exactly and both timelines must be non-trivial.
  const auto common =
      std::min(proc_report.epochs.size(), dist_report.epochs.size());
  ASSERT_GE(common, 2u);
  for (std::size_t i = 0; i < common; ++i) {
    EXPECT_EQ(proc_report.epochs[i].decided, dist_report.epochs[i].decided)
        << "epoch " << i;
    EXPECT_EQ(proc_report.epochs[i].remapped, dist_report.epochs[i].remapped)
        << "epoch " << i;
  }
}

}  // namespace
}  // namespace gridpipe::proc
