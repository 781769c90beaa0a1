// PacketBatch: the burst-processing unit of the data path.
//
// Real runtime-programmable data planes are burst-oriented (DPDK-style
// rte_mbuf vectors): the NIC hands the pipeline 32-64 packets at a time
// and every per-burst cost — event dispatch, cache probes, executor
// setup — is paid once instead of per packet.  FlexNet models that with
// PacketBatch, a contiguous, move-only packet container with a fixed
// burst cap, and BatchArena, a storage recycler that keeps the hot path
// free of per-burst buffer allocations: a batch released back to the
// arena donates its (already grown) buffer to the next Acquire().
//
// Batches are split as they move through the network — members that
// diverge (different next hop, different modeled latency) peel off into
// sibling batches — so capacity is a cap, not a promise: a batch holds
// [0, capacity] packets and never reallocates while at or under the cap.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "packet/packet.h"

namespace flexnet::packet {

class PacketBatch {
 public:
  // Default burst cap, same order as DPDK's canonical rx burst of 32-64.
  static constexpr std::size_t kDefaultBurstCap = 64;

  PacketBatch() { packets_.reserve(kDefaultBurstCap); }
  explicit PacketBatch(std::size_t burst_cap) { packets_.reserve(burst_cap); }

  PacketBatch(PacketBatch&&) noexcept = default;
  PacketBatch& operator=(PacketBatch&&) noexcept = default;
  PacketBatch(const PacketBatch&) = delete;
  PacketBatch& operator=(const PacketBatch&) = delete;

  std::size_t size() const noexcept { return packets_.size(); }
  bool empty() const noexcept { return packets_.empty(); }
  std::size_t capacity() const noexcept { return packets_.capacity(); }
  bool full() const noexcept { return packets_.size() >= packets_.capacity(); }

  // Appends a packet (moves it in) and returns a reference to it.
  Packet& Push(Packet&& p) {
    packets_.push_back(std::move(p));
    return packets_.back();
  }

  Packet& operator[](std::size_t i) noexcept { return packets_[i]; }
  const Packet& operator[](std::size_t i) const noexcept {
    return packets_[i];
  }

  auto begin() noexcept { return packets_.begin(); }
  auto end() noexcept { return packets_.end(); }
  auto begin() const noexcept { return packets_.begin(); }
  auto end() const noexcept { return packets_.end(); }

  std::span<Packet> span() noexcept { return {packets_.data(), size()}; }
  std::span<const Packet> span() const noexcept {
    return {packets_.data(), size()};
  }

  // Moves member `i` out; the slot stays behind as a moved-from husk until
  // Clear().  Used when a batch is partitioned into per-next-hop siblings.
  Packet Take(std::size_t i) noexcept { return std::move(packets_[i]); }

  void Clear() noexcept { packets_.clear(); }

 private:
  friend class BatchArena;
  std::vector<Packet> packets_;
};

// Recycles batch storage so steady-state burst processing performs no
// per-burst buffer allocation: Acquire() reuses the buffer of a previously
// recycled batch (capacity and all), falling back to a fresh reservation
// only while the pool warms up.  Not thread-safe — one arena per owner
// (the simulator is single-threaded).
class BatchArena {
 public:
  explicit BatchArena(std::size_t burst_cap = PacketBatch::kDefaultBurstCap)
      : burst_cap_(burst_cap) {}

  BatchArena(const BatchArena&) = delete;
  BatchArena& operator=(const BatchArena&) = delete;

  std::size_t burst_cap() const noexcept { return burst_cap_; }
  std::size_t pooled() const noexcept { return free_.size(); }
  std::uint64_t reuses() const noexcept { return reuses_; }

  PacketBatch Acquire() {
    if (free_.empty()) return PacketBatch(burst_cap_);
    // No reservation: the pooled buffer replaces the batch's storage.
    PacketBatch batch(/*burst_cap=*/0);
    batch.packets_ = std::move(free_.back());
    free_.pop_back();
    batch.packets_.clear();
    ++reuses_;
    return batch;
  }

  void Recycle(PacketBatch&& batch) {
    batch.packets_.clear();
    if (free_.size() < kMaxPooled) {
      free_.push_back(std::move(batch.packets_));
    }
  }

 private:
  // Bound on retained buffers; beyond this, Recycle() lets storage die
  // (a burst storm should not pin its high-water memory forever).
  static constexpr std::size_t kMaxPooled = 256;

  std::size_t burst_cap_;
  std::vector<std::vector<Packet>> free_;
  std::uint64_t reuses_ = 0;
};

}  // namespace flexnet::packet
