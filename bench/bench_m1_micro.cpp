// EXP-M1 — substrate microbenchmarks (google-benchmark).
//
// Costs of the primitives the adaptation loop leans on: event-queue ops,
// analytic model evaluation, the mapping searches, ensemble updates, and
// mailbox post/take trains. These bound how fast an epoch can run —
// the "must decide faster than it saves" constraint.

#include <benchmark/benchmark.h>

#include <cstring>
#include <thread>

#include <unistd.h>

#include "comm/mailbox.hpp"
#include "grid/builders.hpp"
#include "monitor/ensemble.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/dp_contiguous.hpp"
#include "sched/exhaustive.hpp"
#include "sched/local_search.hpp"
#include "sim/event_queue.hpp"
#include "comm/wire.hpp"
#include "proc/shm_ring.hpp"
#include "proc/transport.hpp"

namespace {

using namespace gridpipe;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.push(util::uniform01(rng), [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_PerfModelBreakdown(benchmark::State& state) {
  const auto ns = static_cast<std::size_t>(state.range(0));
  const auto g = grid::uniform_cluster(4, 1.0, 1e-3, 1e8);
  const auto p = sched::PipelineProfile::uniform(ns, 1.0, 1e4);
  const auto est = sched::ResourceEstimate::from_grid(g, 0.0);
  const auto m = sched::Mapping::round_robin(ns, 4);
  const sched::PerfModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.breakdown(p, est, m).throughput);
  }
}
BENCHMARK(BM_PerfModelBreakdown)->Arg(4)->Arg(16)->Arg(64);

void BM_ExhaustiveMapper3x3(benchmark::State& state) {
  const auto g = grid::heterogeneous_cluster({1.0, 2.0, 0.5}, 1e-3, 1e8);
  const auto p = sched::PipelineProfile::uniform(3, 1.0, 1e4);
  const auto est = sched::ResourceEstimate::from_grid(g, 0.0);
  const sched::PerfModel model;
  const sched::ExhaustiveMapper mapper(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.best(p, est)->breakdown.throughput);
  }
}
BENCHMARK(BM_ExhaustiveMapper3x3);

void BM_DpMapper(benchmark::State& state) {
  const auto np = static_cast<std::size_t>(state.range(0));
  const auto g = grid::uniform_cluster(np, 1.0, 1e-3, 1e8);
  const auto p = sched::PipelineProfile::uniform(12, 1.0, 1e4);
  const auto est = sched::ResourceEstimate::from_grid(g, 0.0);
  const sched::PerfModel model;
  const sched::DpContiguousMapper mapper(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.best(p, est)->breakdown.throughput);
  }
}
BENCHMARK(BM_DpMapper)->Arg(4)->Arg(8)->Arg(12);

void BM_LocalSearchMapper(benchmark::State& state) {
  const auto g = grid::uniform_cluster(16, 1.0, 1e-3, 1e8);
  const auto p = sched::PipelineProfile::uniform(20, 1.0, 1e4);
  const auto est = sched::ResourceEstimate::from_grid(g, 0.0);
  const sched::PerfModel model;
  sched::LocalSearchOptions options;
  options.restarts = 1;
  const sched::LocalSearchMapper mapper(model, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.best(p, est).breakdown.throughput);
  }
}
BENCHMARK(BM_LocalSearchMapper);

void BM_EnsembleObserve(benchmark::State& state) {
  monitor::EnsembleForecaster ensemble =
      monitor::EnsembleForecaster::with_defaults();
  util::Xoshiro256 rng(3);
  for (auto _ : state) {
    ensemble.observe(util::uniform01(rng));
    benchmark::DoNotOptimize(ensemble.forecast());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnsembleObserve);

// One dist rank's mailbox: post a 32-message train, then take it back
// in one lock acquisition — the pattern the ranks use to drain their
// inbox.
void BM_MailboxTake(benchmark::State& state) {
  constexpr std::size_t kTrain = 32;
  comm::Mailbox inbox;
  for (auto _ : state) {
    const auto now = comm::Clock::now();
    for (std::size_t i = 0; i < kTrain; ++i) {
      inbox.post({0, comm::wire::FrameKind::kTask, {}, now});
    }
    benchmark::DoNotOptimize(inbox.take(kTrain, now));
  }
  state.SetItemsProcessed(state.iterations() * kTrain);
}
BENCHMARK(BM_MailboxTake);

// ------------------------------------------------ observability hot path
// The obs layer rides inside every per-item code path, so its disabled
// cost must be a predictable branch and its enabled cost a few relaxed
// atomics — these cases guard both sides of that bargain.

// Disabled tracer: one null check, no allocation, no lock.
void BM_ObsRecordSpanDisabled(benchmark::State& state) {
  obs::Tracer* tracer = nullptr;
  double t = 0.0;
  for (auto _ : state) {
    obs::record_span(tracer, obs::SpanKind::kStage, "stage", t, 1e-3, 1);
    benchmark::DoNotOptimize(t += 1e-3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRecordSpanDisabled);

// Enabled tracer: string copy + mutex + vector push per span.
void BM_ObsRecordSpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  double t = 0.0;
  for (auto _ : state) {
    obs::record_span(&tracer, obs::SpanKind::kStage, "stage", t, 1e-3, 1);
    benchmark::DoNotOptimize(t += 1e-3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRecordSpanEnabled);

// Disabled metrics: the executors' per-item pattern is a null handle
// check on a pre-resolved StandardMetrics slot.
void BM_ObsCounterDisabled(benchmark::State& state) {
  obs::StandardMetrics metrics;  // all handles null
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    if (metrics.items_completed) metrics.items_completed->add(1);
    benchmark::DoNotOptimize(++ticks);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterDisabled);

void BM_ObsCounterEnabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::StandardMetrics metrics;
  metrics.bind(&registry);
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    if (metrics.items_completed) metrics.items_completed->add(1);
    benchmark::DoNotOptimize(++ticks);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterEnabled);

// Histogram record: frexp bucketing + three relaxed atomics + two CAS
// loops (min/max) per sample.
void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram(obs::names::kItemLatency);
  util::Xoshiro256 rng(7);
  for (auto _ : state) {
    h.record(1e-4 + util::uniform01(rng));
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

// Flight-recorder record: the always-on forensic write — four relaxed
// stores + one release store into a preallocated MAP_SHARED ring. This
// sits in every task/frame/credit path unconditionally, so the budget is
// tight: ~10 ns, and anything near 50 ns/event is a regression
// (perf_smoke.py gates the derived per-item overhead).
void BM_FlightRecord(benchmark::State& state) {
  obs::FlightRecorder recorder(1, obs::kDefaultFlightEvents);
  obs::FlightRing ring = recorder.ring(0);
  double t = 0.0;
  std::uint64_t item = 0;
  for (auto _ : state) {
    ring.record(obs::FlightKind::kTaskStart, t, 1, item++);
    benchmark::DoNotOptimize(t += 1e-3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecord);

// Inert handle (recorder disabled): must degrade to one null check.
void BM_FlightRecordDisabled(benchmark::State& state) {
  obs::FlightRing ring;  // default-constructed: inert
  double t = 0.0;
  std::uint64_t item = 0;
  for (auto _ : state) {
    ring.record(obs::FlightKind::kTaskStart, t, 1, item++);
    benchmark::DoNotOptimize(t += 1e-3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecordDisabled);

// ------------------------------------------------------ wire hot path
// The zero-copy transport work lives or dies on three numbers: what a
// task encode costs with and without the pool, what a frame send costs
// per-frame versus coalesced into one writev train, and what a shm-ring
// hop costs versus any of the socket paths.

// Fresh-allocation encode: one heap vector per frame, the pre-pool shape.
void BM_WireEncodeTaskFresh(benchmark::State& state) {
  const comm::wire::Bytes payload(static_cast<std::size_t>(state.range(0)),
                            std::byte{0x5A});
  for (auto _ : state) {
    comm::wire::Bytes wire;
    const std::size_t off =
        comm::wire::begin_frame(wire, comm::wire::FrameKind::kTask, 1);
    comm::wire::encode_task_header_into(wire, 42, 3);
    wire.insert(wire.end(), payload.begin(), payload.end());
    comm::wire::end_frame(wire, off);
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_WireEncodeTaskFresh)->Arg(64)->Arg(4096);

// Pooled encode: same frame, buffer recycled through a BufferPool — the
// steady state is memcpy into retained capacity, zero allocations.
void BM_WireEncodeTaskPooled(benchmark::State& state) {
  const comm::wire::Bytes payload(static_cast<std::size_t>(state.range(0)),
                            std::byte{0x5A});
  comm::wire::BufferPool pool;
  for (auto _ : state) {
    comm::wire::Bytes wire = pool.acquire();
    const std::size_t off =
        comm::wire::begin_frame(wire, comm::wire::FrameKind::kTask, 1);
    comm::wire::encode_task_header_into(wire, 42, 3);
    wire.insert(wire.end(), payload.begin(), payload.end());
    comm::wire::end_frame(wire, off);
    benchmark::DoNotOptimize(wire.data());
    pool.release(std::move(wire));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_WireEncodeTaskPooled)->Arg(64)->Arg(4096);

// Socketpair with a drainer thread that discards everything the bench
// side writes, so the sender measures syscall cost, not a full buffer.
struct DrainedSocket {
  DrainedSocket() {
    auto [a, b] = proc::FrameSocket::make_pair();
    sender = std::move(a);
    drainer = std::thread([sock = std::move(b)]() mutable {
      char sink[1 << 16];
      for (;;) {
        const ssize_t n = ::read(sock.fd(), sink, sizeof(sink));
        if (n <= 0) break;
      }
    });
  }
  ~DrainedSocket() {
    sender.close();  // EOF stops the drainer
    drainer.join();
  }
  proc::FrameSocket sender;
  std::thread drainer;
};

// One blocking send_frame per frame: a write(2) each.
void BM_FrameSocketSendPerFrame(benchmark::State& state) {
  DrainedSocket ds;
  comm::wire::Frame frame;
  frame.kind = comm::wire::FrameKind::kTask;
  frame.node = 1;
  frame.payload = comm::wire::Bytes(256, std::byte{0x42});
  constexpr int kTrain = 16;
  for (auto _ : state) {
    for (int i = 0; i < kTrain; ++i) {
      if (!ds.sender.send_frame(frame)) state.SkipWithError("peer gone");
    }
  }
  state.SetItemsProcessed(state.iterations() * kTrain);
}
BENCHMARK(BM_FrameSocketSendPerFrame);

// The coalesced path: 16 frames staged with queue_buffer, one writev
// train flushes them all.
void BM_FrameSocketWritevTrain(benchmark::State& state) {
  DrainedSocket ds;
  comm::wire::BufferPool pool;
  ds.sender.set_pool(&pool);
  constexpr int kTrain = 16;
  for (auto _ : state) {
    for (int i = 0; i < kTrain; ++i) {
      comm::wire::Bytes buf = pool.acquire();
      const std::size_t off =
          comm::wire::begin_frame(buf, comm::wire::FrameKind::kTask, 1);
      comm::wire::encode_task_header_into(buf, 7, 0);
      buf.resize(buf.size() + 256 - comm::wire::kTaskHeaderBytes,
                 std::byte{0x42});
      comm::wire::end_frame(buf, off);
      ds.sender.queue_buffer(std::move(buf));
    }
    while (ds.sender.pending_out() > 0) {
      if (!ds.sender.flush_some()) state.SkipWithError("peer gone");
    }
  }
  state.SetItemsProcessed(state.iterations() * kTrain);
}
BENCHMARK(BM_FrameSocketWritevTrain);

// Shared-memory ring hop: push a frame-sized blob, pop it back. No
// syscalls at all — two memcpys and a few atomics per round trip.
void BM_ShmRingPushPop(benchmark::State& state) {
  proc::ShmRingMesh mesh(1, std::size_t{1} << 16);
  proc::ShmRing ring = mesh.ring(0, 0);
  const comm::wire::Bytes blob(static_cast<std::size_t>(state.range(0)),
                         std::byte{0x7E});
  std::byte sink[1 << 13];
  for (auto _ : state) {
    if (!ring.push(blob)) state.SkipWithError("ring full");
    std::size_t got = 0;
    while (got < blob.size()) {
      got += ring.pop(sink, sizeof(sink));
    }
    benchmark::DoNotOptimize(sink[0]);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_ShmRingPushPop)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
