#pragma once
// rt::Runtime — the one user-facing API over all four execution
// substrates. The paper's contribution is a *single* skeleton call whose
// adaptation is transparent to the caller; this layer is that call:
//
//   auto runtime = rt::make_runtime(rt::RuntimeKind::kThreads, grid, spec);
//   auto report  = runtime->run(items);              // batch convenience
//
//   auto session = runtime->open();                  // streaming
//   session->push(item);                             // any time
//   while (auto out = session->try_pop()) consume(*out);
//   session->close();
//   auto report = session->report();                 // blocks till drained
//
// One core::PipelineSpec runs unmodified on every substrate. The
// in-process runtimes (sim, threads) move std::any items directly; the
// serialized runtimes (dist, process) bridge through the spec's
// per-stage Codec<T> wire codecs, so they require typed stages
// (stage<In, Out>(...)) and reject untyped ones with an actionable
// error at make_runtime time.
//
// Sessions are self-contained: they own their executor and may outlive
// the Runtime that opened them. The grid must outlive both. The process
// runtime forks at open(); obey its "no other live threads" constraint
// (see proc/process_executor.hpp) — in particular, do not open a
// process session while any other live-runtime session is still
// streaming (its worker/controller threads could hold locks that fork
// copies into the child). open() on the process runtime detects that
// case best-effort and throws; report() or destroy other sessions
// first. Sequential sessions, one at a time, are always safe.
//
// The simulator runtime cannot interleave virtual time with real-time
// pushes, so its session is a virtual-time feeder: push() buffers,
// close() replays the whole stream through the DES (timing, adaptation
// epochs, remaps) and computes outputs by reference execution
// (PipelineSpec::run_inline); try_pop() yields everything after close().

#include <any>
#include <array>
#include <memory>
#include <optional>
#include <string_view>

#include "core/pipeline_spec.hpp"
#include "core/report.hpp"
#include "grid/grid.hpp"
#include "rt/options.hpp"
#include "util/json.hpp"

namespace gridpipe::rt {

enum class RuntimeKind {
  kSim,      ///< discrete-event simulator (virtual time, reference exec)
  kThreads,  ///< one worker thread per grid node, emulated heterogeneity
  kDist,     ///< message-passing ranks over in-process mailboxes
  kProcess,  ///< one forked OS process per grid node over Unix sockets
};

/// All four, in the canonical display order.
inline constexpr std::array<RuntimeKind, 4> kAllRuntimeKinds{
    RuntimeKind::kSim, RuntimeKind::kThreads, RuntimeKind::kDist,
    RuntimeKind::kProcess};

/// "sim" | "threads" | "dist" | "process".
const char* to_string(RuntimeKind kind);

/// Inverse of to_string; nullopt on unknown names.
std::optional<RuntimeKind> try_parse_runtime_kind(std::string_view name);

/// Inverse of to_string; throws std::invalid_argument listing the valid
/// names on unknown input.
RuntimeKind parse_runtime_kind(std::string_view name);

/// A live stream through one substrate. push() accepts items any time
/// before close(); try_pop() hands outputs back in input order
/// (Pipeline1for1 semantics) as they complete; report() closes if
/// needed, blocks until every pushed item drained, and rethrows any
/// worker failure. Outputs not yet popped stay poppable after report().
class Session {
 public:
  virtual ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  virtual void push(std::any item) = 0;
  virtual std::optional<std::any> try_pop() = 0;
  virtual void close() = 0;
  virtual core::RunReport report() = 0;

  /// Point-in-time introspection snapshot (queue/credit/mapping state;
  /// substrate-dependent fields). Safe to call from any thread while the
  /// session is live. Every session also registers itself with
  /// obs::StatusHub::global(), which is what gridpipe_cli's SIGUSR1 /
  /// --status-out path snapshots.
  virtual util::Json status() const;

 protected:
  Session() = default;
};

/// One substrate, configured for one (grid, spec, options) triple.
/// open() starts an independent streaming session; run() is the batch
/// convenience wrapper over a single session.
class Runtime {
 public:
  /// Validates the spec (and its wire codecs for the serialized
  /// runtimes) and plans the t = 0 mapping; make_runtime wraps this.
  Runtime(RuntimeKind kind, const grid::Grid& grid, core::PipelineSpec spec,
          RuntimeOptions options);

  RuntimeKind kind() const noexcept { return kind_; }
  const sched::PipelineProfile& profile() const noexcept { return profile_; }
  /// The deployment-time (t = 0) mapping sessions start from.
  const sched::Mapping& planned_mapping() const noexcept { return mapping_; }
  std::unique_ptr<Session> open();

  /// Pushes every item through one session and returns the report with
  /// ordered outputs filled in. Blocking.
  core::RunReport run(std::vector<std::any> items);

 private:
  RuntimeKind kind_;
  const grid::Grid& grid_;
  core::PipelineSpec spec_;
  sched::PipelineProfile profile_;
  RuntimeOptions options_;
  sched::Mapping mapping_;
};

/// The factory: one spec, any substrate. Validates the spec up front
/// (and its wire codecs for the serialized runtimes) so misuse fails
/// here with an actionable message instead of deep inside a run.
std::unique_ptr<Runtime> make_runtime(RuntimeKind kind,
                                      const grid::Grid& grid,
                                      core::PipelineSpec spec,
                                      RuntimeOptions options = {});

}  // namespace gridpipe::rt
