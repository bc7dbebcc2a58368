#pragma once
// Telemetry batch codec — how dist workers and process-runtime children
// ship their spans and counter deltas to the controlling process, so
// one trace file covers parent + workers on one time base.
//
// The payload rides inside the existing transport envelopes (a
// comm::wire Frame of kind kTelemetry on sockets, a kTelemetry message
// in a dist rank's mailbox) and follows the same rules as the other
// five payload kinds: fixed-width little-endian fields, and a decoder
// that bounds-checks every length against the remaining input and
// throws std::invalid_argument on malformed bytes.
//
// Layout:
//   [u32 n_events]
//     n_events × [u8 kind][u32 tid][u32 stage][u64 item]
//                [f64 start][f64 duration][u32 name_len][name…]
//   [u32 n_counters]
//     n_counters × [u32 name_len][name…][u64 delta]
//   optional epochs section (absent on older writers = empty):
//   [u32 n_epochs]
//     n_epochs × [f64 time][f64 deployed][f64 candidate]
//                [u8 decided][u8 remapped][u8 gate_changed][u8 searched]
//                [f64 gain_ratio][name trigger][name mapper][name verdict]

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "control/epoch_record.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"

namespace gridpipe::obs {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;

struct CounterDelta {
  std::string name;
  std::uint64_t delta = 0;
  friend bool operator==(const CounterDelta&, const CounterDelta&) = default;
};

struct TelemetryBatch {
  std::vector<TraceEvent> events;
  std::vector<CounterDelta> counters;
  /// Epoch decisions with their structured reasons. The section is
  /// written only when non-empty, so batches without epochs (every
  /// per-task worker flush) encode byte-identically to older writers.
  /// Note EpochRecord equality covers decision fields only, so the
  /// batch's operator== inherits that contract.
  std::vector<control::EpochRecord> epochs;

  bool empty() const noexcept {
    return events.empty() && counters.empty() && epochs.empty();
  }
  friend bool operator==(const TelemetryBatch&,
                         const TelemetryBatch&) = default;
};

/// No span or counter name may exceed this on the wire; a decoded
/// length above it is treated as garbage.
inline constexpr std::size_t kMaxTelemetryName = 4096;

Bytes encode_telemetry(const TelemetryBatch& batch);
/// Appends the encoding to `out` (typically a pooled buffer already
/// holding a frame header), avoiding a temporary per flush.
void encode_telemetry_into(Bytes& out, const TelemetryBatch& batch);
/// Throws std::invalid_argument on truncation, oversized names, bad
/// span kinds, or trailing bytes. Takes a view, so a frame payload can
/// be decoded in place.
TelemetryBatch decode_telemetry(ByteSpan wire);

/// Merge a decoded batch into local sinks: events append to the tracer,
/// stage-span durations additionally feed the stage-service histogram
/// (workers cannot ship a histogram, so the parent rebuilds it from
/// spans), counter deltas add into the registry.
void apply_telemetry(const TelemetryBatch& batch, const Sinks& sinks);

}  // namespace gridpipe::obs
