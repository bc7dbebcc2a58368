#include "proc/shm_ring.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>

#include <sys/mman.h>

namespace gridpipe::proc {

namespace {

constexpr std::size_t kAlign = 64;

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

}  // namespace

std::size_t ShmRing::region_bytes(std::size_t capacity) {
  return round_up(sizeof(Header), kAlign) + capacity;
}

ShmRing ShmRing::create(void* region, std::size_t capacity) {
  // Placement-new the header so the atomics start life properly
  // constructed (the mapping arrives zeroed, but formally constructing
  // them is what makes the later loads defined behavior).
  auto* header = ::new (region) Header;
  header->capacity = capacity;
  header->head.store(0, std::memory_order_relaxed);
  header->tail.store(0, std::memory_order_relaxed);
  header->closed.store(0, std::memory_order_relaxed);
  header->magic = kMagic;
  ShmRing ring;
  ring.header_ = header;
  ring.data_ = static_cast<std::byte*>(region) + round_up(sizeof(Header), kAlign);
  return ring;
}

ShmRing ShmRing::attach(void* region) {
  auto* header = static_cast<Header*>(region);
  if (header->magic != kMagic) return ShmRing{};
  ShmRing ring;
  ring.header_ = header;
  ring.data_ = static_cast<std::byte*>(region) + round_up(sizeof(Header), kAlign);
  return ring;
}

std::size_t ShmRing::capacity() const noexcept {
  return header_ ? static_cast<std::size_t>(header_->capacity) : 0;
}

bool ShmRing::push(std::span<const std::byte> bytes) noexcept {
  if (!header_) return false;
  const auto cap = static_cast<std::size_t>(header_->capacity);
  if (bytes.size() > cap) return false;
  if (header_->closed.load(std::memory_order_acquire) & kConsumerClosed) {
    return false;
  }
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = header_->head.load(std::memory_order_acquire);
  if (cap - static_cast<std::size_t>(tail - head) < bytes.size()) {
    return false;  // would overflow: all-or-nothing, caller falls back
  }
  if (!bytes.empty()) {
    const std::size_t pos = static_cast<std::size_t>(tail % cap);
    const std::size_t first = std::min(bytes.size(), cap - pos);
    std::memcpy(data_ + pos, bytes.data(), first);
    if (first < bytes.size()) {
      std::memcpy(data_, bytes.data() + first, bytes.size() - first);
    }
  }
  header_->tail.store(tail + bytes.size(), std::memory_order_release);
  return true;
}

std::size_t ShmRing::pop(std::byte* out, std::size_t max) noexcept {
  if (!header_ || max == 0) return 0;
  const auto cap = static_cast<std::size_t>(header_->capacity);
  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  const std::size_t n =
      std::min(max, static_cast<std::size_t>(tail - head));
  if (n == 0) return 0;
  const std::size_t pos = static_cast<std::size_t>(head % cap);
  const std::size_t first = std::min(n, cap - pos);
  std::memcpy(out, data_ + pos, first);
  if (first < n) std::memcpy(out + first, data_, n - first);
  header_->head.store(head + n, std::memory_order_release);
  return n;
}

std::size_t ShmRing::readable() const noexcept {
  if (!header_) return 0;
  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  return static_cast<std::size_t>(tail - head);
}

void ShmRing::close_producer() noexcept {
  if (header_) {
    header_->closed.fetch_or(kProducerClosed, std::memory_order_release);
  }
}

void ShmRing::close_consumer() noexcept {
  if (header_) {
    header_->closed.fetch_or(kConsumerClosed, std::memory_order_release);
  }
}

bool ShmRing::producer_closed() const noexcept {
  return header_ && (header_->closed.load(std::memory_order_acquire) &
                     kProducerClosed) != 0;
}

bool ShmRing::consumer_closed() const noexcept {
  return header_ && (header_->closed.load(std::memory_order_acquire) &
                     kConsumerClosed) != 0;
}

ShmRingMesh::ShmRingMesh(std::size_t nodes, std::size_t ring_capacity) {
  if (nodes == 0) return;
  // The capacity is taken as given: one smaller than a frame is legal
  // and makes every push fall back to the socket relay (tests use tiny
  // capacities to force that path). One whose mapping size overflows
  // size_t is refused like an mmap failure; wrapped around, it would map
  // a few bytes behind a ring claiming the full capacity.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::size_t slot =
      ring_capacity <= kMax - ShmRing::region_bytes(kAlign)
          ? round_up(ShmRing::region_bytes(ring_capacity), kAlign)
          : 0;
  std::size_t mapped = 0;
  if (slot == 0 || __builtin_mul_overflow(nodes, nodes, &mapped) ||
      __builtin_mul_overflow(slot, mapped, &mapped)) {
    throw std::runtime_error("ShmRingMesh: ring capacity " +
                             std::to_string(ring_capacity) +
                             " overflows the mapping size");
  }
  slot_bytes_ = slot;
  nodes_ = nodes;
  mapped_bytes_ = mapped;
  void* base = ::mmap(nullptr, mapped_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    nodes_ = 0;
    slot_bytes_ = 0;
    mapped_bytes_ = 0;
    throw std::runtime_error("ShmRingMesh: mmap: " +
                             std::generic_category().message(err));
  }
  base_ = base;
  for (std::size_t from = 0; from < nodes; ++from) {
    for (std::size_t to = 0; to < nodes; ++to) {
      ShmRing::create(static_cast<std::byte*>(base_) +
                          (from * nodes + to) * slot_bytes_,
                      ring_capacity);
    }
  }
}

ShmRingMesh::~ShmRingMesh() {
  if (base_) ::munmap(base_, mapped_bytes_);
}

ShmRingMesh& ShmRingMesh::operator=(ShmRingMesh&& other) noexcept {
  if (this != &other) {
    if (base_) ::munmap(base_, mapped_bytes_);
    base_ = other.base_;
    mapped_bytes_ = other.mapped_bytes_;
    nodes_ = other.nodes_;
    slot_bytes_ = other.slot_bytes_;
    other.base_ = nullptr;
    other.mapped_bytes_ = 0;
    other.nodes_ = 0;
    other.slot_bytes_ = 0;
  }
  return *this;
}

ShmRing ShmRingMesh::ring(std::size_t from, std::size_t to) const {
  if (!base_ || from >= nodes_ || to >= nodes_) return ShmRing{};
  return ShmRing::attach(static_cast<std::byte*>(base_) +
                         (from * nodes_ + to) * slot_bytes_);
}

}  // namespace gridpipe::proc
