// Workload definitions and metric derivation.
//
// Every run drives the live substrates threads, dist and process in
// turn, one session at a time, plus a sim (DES) leg. An untraced run
// prints the end-to-end metrics; a traced run drives every live leg
// twice, untraced then with obs::Config::full() and driver spans, and
// prints the per-layer metrics plus the difference between the two.

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.hpp"
#include "workload/scenarios.hpp"
#include "workload/substrate.hpp"

namespace perfbench {

namespace {

constexpr std::array<rt::RuntimeKind, 3> kLive{
    rt::RuntimeKind::kThreads, rt::RuntimeKind::kDist,
    rt::RuntimeKind::kProcess};

/// Real seconds per virtual second with compute emulation off: tiny, so
/// modeled link delays vanish and only the runtime's own costs remain.
constexpr double kRawTimeScale = 1e-6;
/// With emulation on. adapt runs fast enough for a leg to see many
/// on/off cycles of its load script; churn, whose grid has no dynamics,
/// runs at twice the wall time per stage so the host's wakeup delays
/// weigh less against the emulated service.
constexpr double kAdaptTimeScale = 0.001;
constexpr double kChurnTimeScale = 0.002;
/// paced: mean offered rate, items per second.
constexpr double kPacedRate = 1000.0;
/// Share of a run's seconds each live substrate's legs get; the rest is
/// set-up and the DES legs.
constexpr double kLegShare = 0.28;
/// Rounds of an untraced run, and set-up cycles per substrate in it.
constexpr int kRounds = 5;
constexpr int kSetupCycles = 20;

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL ^ (i + 0x632BE59BD9B4E019ULL);
  util::splitmix64(state);
  return util::splitmix64(state);
}

double unit_interval(std::uint64_t seed, std::uint64_t i) {
  return static_cast<double>(mix(seed, i) >> 11) * 0x1.0p-53;
}

/// Stage k of the byte pipelines: an invertible map on each 8-byte word
/// that also depends on the word's position, so a reordered or truncated
/// payload cannot pass the check. The tail bytes are only xor-ed.
void transform(core::Bytes& b, unsigned k) {
  const std::uint64_t key = 0x9E3779B97F4A7C15ULL * (k + 1);
  const std::size_t words = b.size() / 8;
  for (std::size_t q = 0; q < words; ++q) {
    std::uint64_t w;
    std::memcpy(&w, b.data() + 8 * q, 8);
    w = ((w ^ key) << 7 | (w ^ key) >> 57) + q;
    std::memcpy(b.data() + 8 * q, &w, 8);
  }
  for (std::size_t j = 8 * words; j < b.size(); ++j) {
    b[j] ^= static_cast<std::byte>(key >> (8 * (j % 8)));
  }
}

core::Bytes random_bytes(std::uint64_t seed, std::uint64_t i,
                         std::size_t size) {
  core::Bytes b(size);
  std::uint64_t state = mix(seed, i);
  for (std::size_t j = 0; j < size; j += 8) {
    const std::uint64_t r = util::splitmix64(state);
    std::memcpy(b.data() + j, &r, std::min<std::size_t>(8, size - j));
  }
  return b;
}

/// paced: 16 to 64 B.
std::size_t paced_size(std::uint64_t seed, std::uint64_t i) {
  return 16 + static_cast<std::size_t>(mix(seed ^ 0x9ACEDULL, i) % 49);
}

bool same_bytes(const std::any& out, const core::Bytes& expect) {
  const auto* got = std::any_cast<core::Bytes>(&out);
  return got && *got == expect;
}

/// Everything that defines one workload.
struct Plan {
  grid::Grid grid;
  core::PipelineSpec spec;
  rt::RuntimeOptions options;
  /// Recovery and faults for the process legs (churn only).
  rt::RuntimeOptions process_options;
  std::function<std::any(std::uint64_t)> make;
  std::function<bool(std::uint64_t, const std::any&)> check;
  /// Live leg of `seconds`: closed loop, or an open-loop schedule.
  std::function<Feed(const Plan&, double seconds)> live_feed;
  std::uint64_t sim_items = 0;
  /// obs overhead is read on p50 latency (paced) or items/s (others).
  bool overhead_on_latency = false;
  /// churn: every process leg kills each in-use worker once.
  bool kill_workers = false;
};

Feed closed_feed(const Plan& plan, std::size_t outstanding, double seconds,
                 std::uint64_t max_items) {
  Feed f;
  f.make = plan.make;
  f.check = plan.check;
  f.max_outstanding = outstanding;
  f.budget_s = seconds;
  f.max_items = max_items;
  return f;
}

Plan paced_plan(std::uint64_t seed, bool tiny) {
  Plan p;
  p.grid = grid::uniform_cluster(3, 1.0, 1e-6, 1e9);
  for (unsigned k = 0; k < 3; ++k) {
    p.spec.stage<core::Bytes, core::Bytes>(
        "paced" + std::to_string(k),
        [k](core::Bytes b) {
          transform(b, k);
          return b;
        },
        1.0, 40.0, 0.0);
  }
  p.spec.input_bytes(40.0);
  p.options.time_scale = kRawTimeScale;
  p.options.emulate_compute = false;
  p.options.seed = seed;
  p.options.sim_config.arrivals = sim::SimConfig::Arrivals::kPoisson;
  p.options.sim_config.arrival_rate = kPacedRate * kRawTimeScale;
  p.options.sim_config.service_model = sim::SimConfig::ServiceModel::kExponential;
  p.options.sim_config.seed = seed;
  p.process_options = p.options;
  p.make = [seed](std::uint64_t i) {
    return std::any(random_bytes(seed, i, paced_size(seed, i)));
  };
  p.check = [seed](std::uint64_t i, const std::any& out) {
    core::Bytes expect = random_bytes(seed, i, paced_size(seed, i));
    for (unsigned k = 0; k < 3; ++k) transform(expect, k);
    return same_bytes(out, expect);
  };
  p.live_feed = [seed, tiny](const Plan& plan, double seconds) {
    Feed f = closed_feed(plan, 0, 0.0, 0);
    // Seeded Poisson arrivals conditioned on exactly rate x seconds of
    // them in the leg: n + 1 exponential gaps rescaled to span it, so
    // the offered rate is the same for every seed.
    const std::uint64_t n =
        tiny ? 40 : static_cast<std::uint64_t>(kPacedRate * seconds);
    const double span = static_cast<double>(n) / kPacedRate;
    double t = 0.0;
    for (std::uint64_t i = 0; i <= n; ++i) {
      t += -std::log1p(-unit_interval(seed ^ 0xA11ULL, i));
      f.due.push_back(t);
    }
    for (double& due : f.due) due *= span / t;
    f.due.pop_back();
    return f;
  };
  p.sim_items = tiny ? 40 : 4000;
  p.overhead_on_latency = true;
  return p;
}

/// adapt and churn: a catalogue scenario's reference profile through the
/// typed passthrough pipeline, compute emulated, adaptation epochs on.
Plan scenario_plan(const std::string& scenario, double time_scale,
                   std::uint64_t seed, bool tiny) {
  workload::Scenario s = workload::find_scenario(scenario, seed);
  Plan p;
  p.grid = s.grid;
  p.spec = workload::passthrough_pipeline(s.profile);
  p.options.time_scale = time_scale;
  p.options.emulate_compute = true;
  p.options.adapt.epoch = 10.0;
  p.options.seed = seed;
  p.options.sim_config.seed = seed;
  p.options.sim_config.probe_interval = 5.0;
  p.process_options = p.options;
  p.make = [seed](std::uint64_t i) { return std::any(mix(seed, i)); };
  p.check = [seed](std::uint64_t i, const std::any& out) {
    const auto* got = std::any_cast<std::uint64_t>(&out);
    return got && *got == mix(seed, i);
  };
  p.sim_items = tiny ? 20 : 2000;
  return p;
}

Plan adapt_plan(std::uint64_t seed, bool tiny) {
  Plan p = scenario_plan("bursty", kAdaptTimeScale, seed, tiny);
  p.live_feed = [tiny](const Plan& plan, double seconds) {
    return closed_feed(plan, 24, seconds, tiny ? 20 : 0);
  };
  return p;
}

/// Items per churn leg: fixed, so the kill points land on known items.
std::uint64_t churn_items(const Plan& p, double seconds, bool tiny) {
  if (tiny) return 30;
  // The stable scenario delivers about 0.27 items per virtual second.
  return static_cast<std::uint64_t>(seconds * 0.27 / p.options.time_scale);
}

Plan churn_plan(std::uint64_t seed, bool tiny) {
  Plan p = scenario_plan("stable", kChurnTimeScale, seed, tiny);
  // The stable grid has no dynamics, so a deterministic DES leg would
  // read the same for every seed; sample exponential service instead.
  p.options.sim_config.service_model =
      sim::SimConfig::ServiceModel::kExponential;
  p.process_options = p.options;
  p.process_options.recovery.enabled = true;
  p.kill_workers = true;
  p.live_feed = [tiny](const Plan& plan, double seconds) {
    // Safety cap well past the expected duration.
    return closed_feed(plan, 24, 3.0 * seconds, churn_items(plan, seconds, tiny));
  };
  return p;
}

/// Each worker node the deployment-time mapping uses dies once, at an
/// evenly spaced item of the leg.
recover::FaultPlan churn_faults(const Plan& p, std::uint64_t items) {
  const sched::Mapping mapping = workload::planned_mapping(
      p.grid, p.spec.to_profile(), p.options.adapt);
  std::set<grid::NodeId> used;
  for (std::size_t s = 0; s < mapping.num_stages(); ++s) {
    for (grid::NodeId n : mapping.replicas(s)) used.insert(n);
  }
  recover::FaultPlan plan;
  std::uint64_t k = 1;
  for (grid::NodeId n : used) {
    plan.kills.push_back({static_cast<std::uint32_t>(n),
                          k++ * items / (used.size() + 1)});
  }
  return plan;
}

Plan make_plan(const std::string& name, std::uint64_t seed, bool tiny) {
  if (name == "paced") return paced_plan(seed, tiny);
  if (name == "adapt") return adapt_plan(seed, tiny);
  if (name == "churn") return churn_plan(seed, tiny);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ------------------------------------------------------------- metrics

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  m[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
}

void account(RunResult& r, const Leg& leg) {
  r.attempted += leg.attempted;
  r.failed += leg.sustained ? leg.failed() : leg.attempted;
  if (leg.mismatched != 0) r.correct = false;
  if (!leg.error.empty()) {
    r.notes.push_back(leg.substrate + ": " + leg.error);
  } else if (leg.mismatched != 0) {
    r.notes.push_back(leg.substrate + ": " + std::to_string(leg.mismatched) +
                      " wrong outputs");
  } else if (!leg.sustained) {
    r.notes.push_back(leg.substrate + ": backlog grew (rate not sustained)");
  }
}

double ms(double seconds) { return seconds * 1e3; }

std::vector<double> scaled(const std::vector<obs::TraceEvent>& events,
                           obs::SpanKind kind, double factor) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.kind == kind) out.push_back(e.duration * factor);
  }
  return out;
}

/// Driver push -> admission (the kItem span's start). The session clock
/// starts inside open(); it is aligned to the driver clock causally: no
/// item can be admitted before its push call began, and the tightest
/// such alignment is used.
std::vector<double> admit_waits(const Leg& leg, double ts) {
  std::unordered_map<std::uint64_t, double> admitted;
  for (const auto& e : leg.events) {
    if (e.kind == obs::SpanKind::kItem && e.item < leg.push_at.size()) {
      admitted.try_emplace(e.item, e.start * ts);
    }
  }
  double offset = -std::numeric_limits<double>::infinity();
  for (const auto& [item, a] : admitted) {
    offset = std::max(offset, leg.push_at[item] - a);
  }
  std::vector<double> out;
  for (const auto& [item, a] : admitted) {
    out.push_back(a + offset - leg.push_at[item]);
  }
  return out;
}

/// Measured hop: end of an item's stage k to the start of its stage
/// k + 1 (serialize, wire or ring, and the next worker's queue).
std::vector<double> hop_gaps(const std::vector<obs::TraceEvent>& events,
                             double ts) {
  std::unordered_map<std::uint64_t, std::map<std::uint32_t, const obs::TraceEvent*>>
      stages;
  for (const auto& e : events) {
    if (e.kind == obs::SpanKind::kStage && e.item != obs::kNoItem) {
      stages[e.item].try_emplace(e.stage, &e);
    }
  }
  std::vector<double> out;
  for (const auto& [item, by_stage] : stages) {
    const obs::TraceEvent* prev = nullptr;
    for (const auto& [stage, e] : by_stage) {
      if (prev && stage == prev->stage + 1) {
        out.push_back((e->start - prev->start - prev->duration) * ts);
      }
      prev = e;
    }
  }
  return out;
}

std::vector<std::any> sample_items(const Plan& p, std::uint64_t n) {
  std::vector<std::any> items;
  for (std::uint64_t i = 0; i < n; ++i) items.push_back(p.make(i));
  return items;
}

Feed sim_feed(const Plan& p, std::uint64_t items) {
  return closed_feed(p, 0, 0.0, items);
}

const rt::RuntimeOptions& options_for(const Plan& p, rt::RuntimeKind kind) {
  return kind == rt::RuntimeKind::kProcess ? p.process_options : p.options;
}

/// One live leg; churn's process legs get their kill points here.
Leg live_leg(const Plan& p, rt::RuntimeKind kind, double seconds, bool traced,
             bool tiny) {
  rt::RuntimeOptions options = options_for(p, kind);
  if (p.kill_workers && kind == rt::RuntimeKind::kProcess) {
    options.recovery.faults = churn_faults(p, churn_items(p, seconds, tiny));
  }
  return run_leg(kind, p.grid, p.spec, options, p.live_feed(p, seconds), traced);
}

/// An untraced run: kRounds rounds, each an independent draw of the
/// workload (its own derived seed, so on adapt its own load script). In
/// each round every substrate does its share of set-up cycles and one
/// leg, in rotating order, so a spell of host contention hits all of
/// them alike. Rates, latencies and the DES throughput are pooled over
/// the rounds.
void end_to_end(const RunConfig& c, RunResult& r) {
  std::map<std::string, std::vector<double>> setups;
  std::map<std::string, double> delivered;
  std::map<std::string, double> busy_s;
  std::map<std::string, std::vector<double>> latencies;
  double sim_items = 0.0;
  double sim_vs = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const Plan p = make_plan(c.workload, mix(c.seed, round), c.tiny);
    r.time_scale = p.options.time_scale;
    for (rt::RuntimeKind kind : rt::kAllRuntimeKinds) {
      for (int cycle = 0; cycle < kSetupCycles / kRounds; ++cycle) {
        try {
          setups[rt::to_string(kind)].push_back(setup_cycle(
              kind, p.grid, p.spec, options_for(p, kind), sim_feed(p, 2), 2));
        } catch (const std::exception& e) {
          r.correct = false;
          r.notes.push_back(std::string("set-up: ") + e.what());
        }
      }
    }
    for (std::size_t j = 0; j < kLive.size(); ++j) {
      const rt::RuntimeKind kind = kLive[(j + round) % kLive.size()];
      const Leg leg =
          live_leg(p, kind, c.seconds * kLegShare / kRounds, false, c.tiny);
      account(r, leg);
      delivered[leg.substrate] += static_cast<double>(leg.delivered);
      busy_s[leg.substrate] += leg.last_pop - leg.first_push;
      auto& pooled = latencies[leg.substrate];
      pooled.insert(pooled.end(), leg.latency_s.begin(), leg.latency_s.end());
    }
    const Leg sim = run_leg(rt::RuntimeKind::kSim, p.grid, p.spec, p.options,
                            sim_feed(p, p.sim_items), false);
    account(r, sim);
    // Pooled as total items over total virtual time at each round's
    // reported throughput.
    if (sim.report.throughput > 0.0) {
      sim_items += static_cast<double>(sim.report.items);
      sim_vs += static_cast<double>(sim.report.items) / sim.report.throughput;
    }
  }
  double setup = 0.0;
  for (const auto& [s, samples] : setups) setup += pct(samples, 50);
  put(r.metrics, "setup_s", setup, "s");
  for (const auto& [s, items] : delivered) {
    put(r.metrics, "items_per_s." + s, items / busy_s[s], "1/s");
  }
  // dist's p50 is set by its controller's 50 ms poll cap and holds still;
  // the threads and process p50 follow the host's wakeup latency and are
  // reported per layer.
  put(r.metrics, "latency_p50_ms.dist", ms(pct(latencies["dist"], 50)), "ms");
  put(r.metrics, "vitems_per_s.sim", sim_items / sim_vs, "1/s");
}

void per_layer(const RunConfig& c, const Plan& p, RunResult& r) {
  const double ts = p.options.time_scale;
  double lag_p99 = 0.0;
  std::uint64_t backlog_max = 0;
  core::RunReport recovered;
  for (rt::RuntimeKind kind : kLive) {
    // Half the leg untraced, half traced: their difference is the cost
    // of tracing.
    const double seconds = c.seconds * kLegShare / 2.0;
    const Leg base = live_leg(p, kind, seconds, false, c.tiny);
    Leg leg = live_leg(p, kind, seconds, true, c.tiny);
    account(r, base);
    account(r, leg);
    const std::string s = leg.substrate;
    // Latencies too unsteady on a shared host to gate on are reported
    // here, from the untraced half.
    if (kind != rt::RuntimeKind::kDist) {
      put(r.metrics, "latency_p50_ms." + s, ms(pct(base.latency_s, 50)), "ms");
    }
    put(r.metrics, "latency_p99_ms." + s, ms(pct(base.latency_s, 99)), "ms");
    const double factor_ms = ts * 1e3;
    const double factor_us = ts * 1e6;
    put(r.metrics, "rt.open_ms." + s, ms(leg.open_s), "ms");
    put(r.metrics, "rt.push_us.p99." + s, pct(leg.push_s, 99) * 1e6, "us");
    put(r.metrics, "rt.pop_hit_ratio." + s,
        leg.pop_calls ? static_cast<double>(leg.pop_hits) / leg.pop_calls : 0.0,
        "ratio");
    put(r.metrics, "rt.drain_ms." + s, ms(leg.drain_s), "ms");
    put(r.metrics, "rt.cpu_us_per_item." + s,
        leg.delivered ? leg.cpu_s * 1e6 / leg.delivered : 0.0, "us");
    const std::vector<double> waits = admit_waits(leg, ts);
    put(r.metrics, "core.admit_wait_ms.p50." + s, ms(pct(waits, 50)), "ms");
    put(r.metrics, "core.admit_wait_ms.p99." + s, ms(pct(waits, 99)), "ms");
    // A kStage span is a leaf (nothing nests inside it on its lane), so
    // its duration is its self time.
    put(r.metrics, "core.stage_us.p50." + s,
        pct(scaled(leg.events, obs::SpanKind::kStage, factor_us), 50), "us");
    put(r.metrics, "core.reorder_wait_ms.p99." + s,
        pct(scaled(leg.events, obs::SpanKind::kWait, factor_ms), 99), "ms");
    const std::vector<double> hops = hop_gaps(leg.events, ts);
    if (kind == rt::RuntimeKind::kDist) {
      put(r.metrics, "comm.hop_us.p50.dist", pct(hops, 50) * 1e6, "us");
    } else if (kind == rt::RuntimeKind::kProcess) {
      put(r.metrics, "proc.hop_us.p50.process", pct(hops, 50) * 1e6, "us");
    }
    const core::RunReport& rep = leg.report;
    put(r.metrics, "control.epochs." + s, static_cast<double>(rep.epochs.size()),
        "count");
    put(r.metrics, "control.remaps." + s, static_cast<double>(rep.remap_count),
        "count");
    double pause = 0.0;
    for (const auto& remap : rep.remaps) pause += remap.pause;
    put(r.metrics, "control.remap_pause_ms." + s, pause * factor_ms, "ms");
    double epoch_p99 = 0.0;
    if (const auto* h = rep.obs_metrics.find_histogram(obs::names::kEpochWall)) {
      epoch_p99 = h->p99;
    }
    put(r.metrics, "control.epoch_wall_ms.p99." + s, ms(epoch_p99), "ms");
    const double overhead =
        p.overhead_on_latency
            ? 100.0 * (pct(leg.latency_s, 50) - pct(base.latency_s, 50)) /
                  pct(base.latency_s, 50)
            : 100.0 * (base.items_per_s() - leg.items_per_s()) /
                  base.items_per_s();
    put(r.metrics, "obs.overhead_pct." + s, overhead, "%");
    if (kind == rt::RuntimeKind::kProcess) recovered = rep;
    lag_p99 = std::max(lag_p99, pct(leg.lag_s, 99));
    backlog_max = std::max(backlog_max, leg.backlog_max);
    r.legs.push_back(std::move(leg));
  }
  put(r.metrics, "recover.node_losses", recovered.node_losses, "count");
  put(r.metrics, "recover.respawns", recovered.respawns, "count");
  put(r.metrics, "recover.items_replayed", recovered.items_replayed, "count");
  put(r.metrics, "recover.items_deduped", recovered.items_deduped, "count");
  double window_max = 0.0;
  for (double t : recovered.recovery_times) window_max = std::max(window_max, t);
  put(r.metrics, "recover.window_ms.max", window_max * ts * 1e3, "ms");
  put(r.metrics, "gen.lag_ms.p99", ms(lag_p99), "ms");
  put(r.metrics, "gen.backlog_max", static_cast<double>(backlog_max), "count");

  // Layer legs on this workload's own items and profile.
  const std::vector<std::any> items = sample_items(p, c.tiny ? 16 : 512);
  const core::ItemCodec& codec = p.spec.at(0).in_codec;
  put(r.metrics, "core.codec_ns_per_kib", codec_ns_per_kib(codec, items),
      "ns/KiB");
  put(r.metrics, "comm.wire_ns_per_frame", wire_ns_per_frame(codec, items),
      "ns");
  put(r.metrics, "proc.ring_ns_per_kib",
      ring_ns_per_kib(codec, items, p.options.shm_ring_bytes), "ns/KiB");
  put(r.metrics, "sched.decide_ms",
      decide_ms(p.grid, p.spec.to_profile(), p.options.adapt), "ms");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paced", "adapt", "churn"};
  return names;
}

RunResult run_workload(const RunConfig& config) {
  RunResult result;
  if (config.trace) {
    const Plan plan = make_plan(config.workload, config.seed, config.tiny);
    result.time_scale = plan.options.time_scale;
    per_layer(config, plan, result);
  } else {
    end_to_end(config, result);
  }
  return result;
}

}  // namespace perfbench
