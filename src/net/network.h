// Network: topology of managed devices, links, routing, and packet
// transport over the discrete-event simulator.
//
// Devices are ManagedDevices (arch device + hosted FlexNet program).
// Links are full-duplex with fixed propagation latency.  Routing is
// destination-IP based: the network computes shortest paths (BFS over the
// device graph) from every device to every device that has an attached
// endpoint address, and moves packets hop by hop, charging per-device
// processing latency (from the arch model) plus link latency.  A device
// action that *drops* wins over routing; ECMP splits ties by flow hash.
//
// Inside the network a device is its position in devices() (its dense
// index); DeviceId is resolved only at the public entry points.  Routes
// live in one flat table: per destination device, per device, a span of
// ECMP candidates, each naming a link of a CSR snapshot of the adjacency
// taken by RebuildRoutes() (so one entry gives the next hop and the link
// latency).  A hop costs one hash lookup, for the packet's address.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "packet/batch.h"
#include "packet/flow.h"
#include "runtime/managed_device.h"
#include "sim/simulator.h"

namespace flexnet::telemetry {
class PostcardRecorder;
}  // namespace flexnet::telemetry

namespace flexnet::net {

struct DeliveryRecord {
  packet::Packet packet;
  SimDuration latency = 0;
};

// Aggregated transport statistics, also queryable per time window.
struct NetworkStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::unordered_map<std::string, std::uint64_t> drops_by_reason;
  RunningStats latency_ns;
  // Delivery-latency reservoir: RunningStats only exposes moments, but
  // tail latency is the number the paper's hitless claim hinges on —
  // PublishMetrics exports p50/p99/p999 from here.
  PercentileTracker latency_percentiles;
  double total_energy_nj = 0.0;
  // Burst transport accounting: batches entering the network, hop/delivery
  // events actually scheduled for batch groups, and how many per-packet
  // events batching avoided (a group of k members is 1 event, not k).
  std::uint64_t batches_injected = 0;
  std::uint64_t batch_events = 0;
  std::uint64_t events_saved = 0;
};

class Network {
 public:
  explicit Network(sim::Simulator* sim) : sim_(sim) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- Topology construction ---
  runtime::ManagedDevice* AddDevice(std::unique_ptr<arch::Device> device);
  runtime::ManagedDevice* Find(DeviceId id) noexcept;
  runtime::ManagedDevice* FindByName(const std::string& name) noexcept;
  const std::vector<std::unique_ptr<runtime::ManagedDevice>>& devices()
      const noexcept {
    return devices_;
  }

  // Bidirectional link with symmetric latency.
  Status AddLink(DeviceId a, DeviceId b, SimDuration latency = 1 * kMicrosecond);
  // Removes a link (both directions); kNotFound if absent.
  Status RemoveLink(DeviceId a, DeviceId b);
  struct Link {
    DeviceId peer;
    SimDuration latency;
  };
  // Links of `device` in the order they were added (empty if unknown).
  std::vector<Link> LinksOf(DeviceId device) const;
  // Declare that `address` (an IPv4-like id) terminates at `device`.  An
  // address attached after the last RebuildRoutes() is delivered at its
  // device but unroutable elsewhere until the next rebuild.
  Status AttachAddress(DeviceId device, std::uint64_t address);
  // Recomputes the whole route table: one BFS per destination device (a
  // device with at least one attached address), parents at equal depth
  // kept as ECMP candidates in BFS visiting order.  Offline devices are
  // routed around (this is how a drain avoids blackholing when the
  // topology has path diversity); they stay reachable as destinations.
  // Hop link latencies are snapshotted here too, so call it after
  // AddLink, RemoveLink or a device going on- or offline; until then
  // packets follow the previous table.  On the 1,088-device fleet
  // leaf-spine (480 destinations) a rebuild takes ~10 ms and the table
  // ~6.5 MB of heap on a shared 4-vCPU x86 host.
  void RebuildRoutes();

  // --- Transport ---
  // Injects at `from` at sim->now(); the packet is processed by every
  // device on the path to its ipv4.dst address.  Delivery/drop lands in
  // stats and the optional sink.  This per-packet path (one simulator
  // event per packet per hop) is the oracle the batch path is checked
  // against.
  void InjectPacket(DeviceId from, packet::Packet packet);

  // Burst transport: the whole batch rides one simulator event per hop,
  // splitting only where members diverge (different next hop or modeled
  // latency).  Per-packet outcomes, delivery records, and the delivery
  // sink stream are identical to injecting each member with InjectPacket
  // at the same instant; only event/allocation mechanics differ.  With
  // batching disabled the members are unbundled onto the scalar path —
  // same traffic shape, per-packet transport (the differential oracle).
  void InjectBatch(DeviceId from, packet::PacketBatch batch);

  // Batched transport is the default; the scalar fallback exists for
  // differential tests and the bench baseline.
  void set_batching_enabled(bool enabled) noexcept {
    batching_enabled_ = enabled;
  }
  bool batching_enabled() const noexcept { return batching_enabled_; }

  // Borrow/return burst storage from the network's arena so callers that
  // build batches in a loop (traffic generators, benches) reuse buffers.
  packet::PacketBatch AcquireBatch() { return arena_.Acquire(); }

  using DeliverFn = std::function<void(const DeliveryRecord&)>;
  void SetDeliverySink(DeliverFn sink) { sink_ = std::move(sink); }

  const NetworkStats& stats() const noexcept { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  // Attaches a postcard recorder (nullptr detaches).  When attached with
  // sampling enabled, injection opens a card for 1-in-N flows and every
  // hop/fate below appends to it; detached or sampling-off costs one
  // branch per packet per hop.
  void set_postcard_recorder(telemetry::PostcardRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  telemetry::PostcardRecorder* postcard_recorder() const noexcept {
    return recorder_;
  }

  // Snapshot transport counters (net_injected/delivered/dropped,
  // net_batches_injected, net_batch_events, net_events_saved, energy,
  // net_latency_{mean,p50,p99,p999}_ns gauges, and one
  // net_drop_reason_<reason> counter per observed reason) — the single
  // publication site for both transport paths.
  void PublishMetrics(telemetry::MetricsRegistry& registry) const;

  // Next hop device for (at, dst_addr); invalid id if unroutable.  ECMP
  // ties are broken by flow_hash.
  DeviceId NextHop(DeviceId at, std::uint64_t dst_addr,
                   std::uint64_t flow_hash) const;
  // Devices on the unique shortest path (first-ECMP choice) from->dst.
  std::vector<DeviceId> PathTo(DeviceId from, std::uint64_t dst_addr) const;

  // Total link latency along the shortest device-to-device path (BFS by
  // hop count over the live links, offline devices included).  Error if
  // disconnected.  Used by dRPC to model in-band service invocation cost.
  Result<SimDuration> EstimatePathLatency(DeviceId from, DeviceId to) const;

  sim::Simulator* simulator() noexcept { return sim_; }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  struct LinkEnd {
    std::uint32_t peer;  // dense index
    SimDuration latency;
  };
  // An address's home device and route slot (the home's row of the route
  // table; kNone until the next RebuildRoutes()).
  struct AddressHome {
    std::uint32_t home;
    std::uint32_t slot = kNone;
  };
  // What one device visit decided for one packet.  SettleHop() is the
  // single per-packet accounting + classification site shared by the
  // scalar and batch paths (outcome energy, drop marking, routing).
  struct HopDecision {
    enum Kind : std::uint8_t { kDrop, kDeliver, kForward };
    Kind kind = kDrop;
    std::uint32_t next = 0;  // dense index, kForward only
    SimDuration delay = 0;   // processing (+ link) latency to charge
  };
  std::uint32_t IndexOf(DeviceId id) const noexcept;
  // ECMP candidates at device `at` toward route slot `slot`: positions in
  // csr_, in BFS visiting order; empty when unroutable.
  std::span<const std::uint32_t> Candidates(std::uint32_t slot,
                                            std::uint32_t at) const noexcept;
  HopDecision SettleHop(std::uint32_t at, packet::Packet& packet,
                        const arch::ProcessOutcome& outcome);
  // Postcard plumbing: flow-sampled card open at injection, one hop append
  // per device visit (shared by the scalar and batch paths — batch_size is
  // the only field that differs), fate seal at drop/delivery.
  void MaybeOpenPostcard(packet::Packet& packet);
  void RecordPostcardHop(packet::Packet& packet,
                         runtime::ManagedDevice& device,
                         arch::ProcessOutcome& outcome,
                         std::uint32_t batch_size);
  void HopProcess(std::uint32_t at, packet::Packet packet);
  void HopProcessBatch(std::uint32_t at, packet::PacketBatch batch);
  // Schedules one group (batch members sharing a decision) as one event.
  void ScheduleGroup(const HopDecision& decision, packet::PacketBatch members);
  void FinishDrop(packet::Packet&& packet);
  void FinishDeliver(packet::Packet&& packet);

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<runtime::ManagedDevice>> devices_;
  // DeviceId -> dense index, for the public entry points only.
  std::unordered_map<DeviceId, std::uint32_t> index_;
  std::vector<std::vector<LinkEnd>> links_;  // by dense index
  std::unordered_map<std::uint64_t, AddressHome> address_home_;
  // Route table, rebuilt whole by RebuildRoutes() over route_devices_
  // devices.  csr_[csr_begin_[i] .. csr_begin_[i + 1]) snapshots links_[i].
  // The candidates of device `at` toward slot `s` are route_hops_[
  // route_begin_[s * route_devices_ + at] .. route_begin_[... + 1]).
  std::size_t route_devices_ = 0;
  std::vector<std::uint32_t> csr_begin_;
  std::vector<LinkEnd> csr_;
  std::vector<std::uint32_t> route_begin_;
  std::vector<std::uint32_t> route_hops_;
  IdAllocator<DeviceId> ids_;
  NetworkStats stats_;
  DeliverFn sink_;
  telemetry::PostcardRecorder* recorder_ = nullptr;  // not owned
  bool batching_enabled_ = true;
  packet::BatchArena arena_;
  std::vector<arch::ProcessOutcome> outcome_scratch_;
  std::vector<HopDecision> decision_scratch_;
};

}  // namespace flexnet::net
