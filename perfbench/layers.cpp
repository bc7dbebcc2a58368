// Layer legs: each times one public layer function on the workload's own
// items, as the median of several passes over them.

#include <cstdlib>
#include <cstring>
#include <memory>

#include "comm/wire.hpp"
#include "control/adaptation_controller.hpp"
#include "proc/shm_ring.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kPasses = 7;

/// Median seconds of one call to `pass` over kPasses calls.
template <class Pass>
double median_pass_s(Pass&& pass) {
  std::vector<double> samples;
  for (int p = 0; p < kPasses; ++p) {
    const double t0 = now_s();
    pass();
    samples.push_back(now_s() - t0);
  }
  return pct(samples, 50.0);
}

std::vector<core::Bytes> encoded(const core::ItemCodec& codec,
                                 const std::vector<std::any>& items) {
  std::vector<core::Bytes> out;
  out.reserve(items.size());
  for (const std::any& item : items) out.push_back(codec.encode(item));
  return out;
}

double total_kib(const std::vector<core::Bytes>& payloads) {
  double bytes = 0.0;
  for (const core::Bytes& p : payloads) bytes += static_cast<double>(p.size());
  return bytes / 1024.0;
}

// Keeps decoded results observable so no pass can be optimized away.
volatile std::size_t g_sink = 0;

}  // namespace

double codec_ns_per_kib(const core::ItemCodec& codec,
                        const std::vector<std::any>& items) {
  const double kib = total_kib(encoded(codec, items));
  core::Bytes buffer;
  const double s = median_pass_s([&] {
    std::size_t seen = 0;
    for (const std::any& item : items) {
      buffer.clear();
      codec.encode_into(item, buffer);
      const std::any back = codec.decode(buffer);
      seen += back.has_value() ? buffer.size() : 0;
    }
    g_sink = g_sink + seen;
  });
  return s * 1e9 / kib;
}

double wire_ns_per_frame(const core::ItemCodec& codec,
                         const std::vector<std::any>& items) {
  const std::vector<core::Bytes> payloads = encoded(codec, items);
  core::Bytes frame;
  const double s = median_pass_s([&] {
    std::size_t seen = 0;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      frame.clear();
      comm::wire::encode_task_into(frame, i, 1, payloads[i]);
      const comm::wire::TaskView view = comm::wire::decode_task(frame);
      seen += view.payload.size() + view.stage;
    }
    g_sink = g_sink + seen;
  });
  return s * 1e9 / static_cast<double>(payloads.size());
}

double ring_ns_per_kib(const core::ItemCodec& codec,
                       const std::vector<std::any>& items,
                       std::size_t ring_bytes) {
  std::vector<core::Bytes> frames;
  for (std::size_t i = 0; i < items.size(); ++i) {
    core::Bytes frame;
    comm::wire::encode_task_into(frame, i, 1, codec.encode(items[i]));
    frames.push_back(std::move(frame));
  }
  const std::size_t region_size = proc::ShmRing::region_bytes(ring_bytes);
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  const std::size_t aligned = (region_size + 63) / 64 * 64;
  std::unique_ptr<void, FreeDeleter> region(std::aligned_alloc(64, aligned));
  std::memset(region.get(), 0, aligned);
  proc::ShmRing ring = proc::ShmRing::create(region.get(), ring_bytes);
  std::vector<std::byte> sink(ring_bytes);
  const double s = median_pass_s([&] {
    std::size_t seen = 0;
    for (const core::Bytes& frame : frames) {
      if (!ring.push(frame)) continue;  // larger than the ring: skipped
      seen += ring.pop(sink.data(), sink.size());
    }
    g_sink = g_sink + seen;
  });
  return s * 1e9 / total_kib(frames);
}

double decide_ms(const grid::Grid& grid, const sched::PipelineProfile& profile,
                 const control::AdaptationConfig& adapt) {
  const sched::PerfModel model(adapt.model);
  const auto est = sched::ResourceEstimate::from_grid(grid, 0.0);
  const double s = median_pass_s([&] {
    const auto result =
        control::choose_mapping(model, profile, est, adapt.mapper,
                                adapt.pin_first_stage, adapt.max_total_replicas);
    g_sink = g_sink + result.mapping.num_stages();
  });
  return s * 1e3;
}

}  // namespace perfbench
