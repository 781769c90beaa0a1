#include "net/network.h"

#include <deque>
#include <utility>

#include "telemetry/postcard.h"
#include "telemetry/telemetry.h"

namespace flexnet::net {

namespace {

// Interned once: hop classification reads the destination through the
// symbol fast path instead of splitting "ipv4.dst" per packet per hop.
const packet::FieldRef& DstFieldRef() {
  static const packet::FieldRef ref = packet::InternFieldPath("ipv4.dst");
  return ref;
}

}  // namespace

runtime::ManagedDevice* Network::AddDevice(
    std::unique_ptr<arch::Device> device) {
  auto managed = std::make_unique<runtime::ManagedDevice>(std::move(device));
  runtime::ManagedDevice* raw = managed.get();
  index_[raw->id()] = devices_.size();
  devices_.push_back(std::move(managed));
  links_[raw->id()];  // ensure adjacency entry exists
  return raw;
}

runtime::ManagedDevice* Network::Find(DeviceId id) noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : devices_[it->second].get();
}

runtime::ManagedDevice* Network::FindByName(const std::string& name) noexcept {
  for (auto& d : devices_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

Status Network::AddLink(DeviceId a, DeviceId b, SimDuration latency) {
  if (!index_.contains(a) || !index_.contains(b)) {
    return NotFound("link endpoint not in network");
  }
  for (const LinkEnd& end : links_[a]) {
    if (end.peer == b) return AlreadyExists("link already present");
  }
  links_[a].push_back(LinkEnd{b, latency});
  links_[b].push_back(LinkEnd{a, latency});
  return OkStatus();
}

Status Network::RemoveLink(DeviceId a, DeviceId b) {
  bool removed = false;
  const auto drop = [&](DeviceId from, DeviceId to) {
    auto& ends = links_[from];
    for (auto it = ends.begin(); it != ends.end(); ++it) {
      if (it->peer == to) {
        ends.erase(it);
        removed = true;
        return;
      }
    }
  };
  drop(a, b);
  drop(b, a);
  if (!removed) return NotFound("no such link");
  return OkStatus();
}

Status Network::AttachAddress(DeviceId device, std::uint64_t address) {
  if (!index_.contains(device)) return NotFound("device not in network");
  if (address_home_.contains(address)) {
    return AlreadyExists("address " + std::to_string(address) +
                         " already attached");
  }
  address_home_[address] = device;
  return OkStatus();
}

void Network::RebuildRoutes() {
  routes_.clear();
  // One BFS per destination device; all attached addresses of that device
  // share the result.  Parents at equal depth are all recorded => ECMP.
  // Offline devices do not relay: they are excluded from interior hops
  // (but may still be BFS roots — a drained destination simply drops).
  const auto relays = [this](DeviceId id) {
    runtime::ManagedDevice* device = Find(id);
    return device != nullptr && device->device().online();
  };
  for (const auto& [address, home] : address_home_) {
    std::unordered_map<DeviceId, int> depth;
    std::unordered_map<DeviceId, std::vector<DeviceId>> next_toward;
    std::deque<DeviceId> queue;
    depth[home] = 0;
    queue.push_back(home);
    while (!queue.empty()) {
      const DeviceId current = queue.front();
      queue.pop_front();
      if (current != home && !relays(current)) continue;  // drained hop
      for (const LinkEnd& end : links_[current]) {
        const auto it = depth.find(end.peer);
        if (it == depth.end()) {
          depth[end.peer] = depth[current] + 1;
          next_toward[end.peer].push_back(current);
          queue.push_back(end.peer);
        } else if (it->second == depth[current] + 1) {
          next_toward[end.peer].push_back(current);  // equal-cost sibling
        }
      }
    }
    for (const auto& [device, hops] : next_toward) {
      routes_[device][address] = hops;
    }
    routes_[home][address] = {};  // local delivery
  }
}

DeviceId Network::NextHop(DeviceId at, std::uint64_t dst_addr,
                          std::uint64_t flow_hash) const {
  const auto dit = routes_.find(at);
  if (dit == routes_.end()) return DeviceId();
  const auto ait = dit->second.find(dst_addr);
  if (ait == dit->second.end() || ait->second.empty()) return DeviceId();
  return ait->second[flow_hash % ait->second.size()];
}

std::vector<DeviceId> Network::PathTo(DeviceId from,
                                      std::uint64_t dst_addr) const {
  std::vector<DeviceId> path;
  DeviceId current = from;
  const DeviceId home = [&] {
    const auto it = address_home_.find(dst_addr);
    return it == address_home_.end() ? DeviceId() : it->second;
  }();
  if (!home.valid()) return path;
  path.push_back(current);
  while (current != home) {
    const DeviceId next = NextHop(current, dst_addr, 0);
    if (!next.valid()) return {};
    path.push_back(next);
    current = next;
  }
  return path;
}

Result<SimDuration> Network::EstimatePathLatency(DeviceId from,
                                                 DeviceId to) const {
  if (from == to) return SimDuration{0};
  std::unordered_map<DeviceId, SimDuration> cost;
  std::deque<DeviceId> queue;
  cost[from] = 0;
  queue.push_back(from);
  while (!queue.empty()) {
    const DeviceId current = queue.front();
    queue.pop_front();
    const auto lit = links_.find(current);
    if (lit == links_.end()) continue;
    for (const LinkEnd& end : lit->second) {
      if (!cost.contains(end.peer)) {
        cost[end.peer] = cost[current] + end.latency;
        if (end.peer == to) return cost[end.peer];
        queue.push_back(end.peer);
      }
    }
  }
  return Unavailable("no path between devices");
}

void Network::MaybeOpenPostcard(packet::Packet& packet) {
  if (recorder_ == nullptr || !recorder_->sampling_enabled()) return;
  // Sampling is keyed on the flow, not the packet: every packet of a
  // sampled flow carries a card, so parity tests can compare complete
  // per-flow journeys and the sampled set is stable across runs/bursts.
  // Traffic without an IPv4 header has no flow identity to sample by and
  // is never sampled.
  const auto key = packet::ExtractFlowKey(packet);
  if (!key.has_value()) return;
  const std::uint64_t flow_hash = key->Hash();
  if (!recorder_->ShouldSample(flow_hash)) return;
  packet.postcard_id = recorder_->Open(packet.id(), flow_hash, sim_->now());
}

void Network::RecordPostcardHop(packet::Packet& packet,
                                runtime::ManagedDevice& device,
                                arch::ProcessOutcome& outcome,
                                std::uint32_t batch_size) {
  if (recorder_ == nullptr || packet.postcard_id == 0) return;
  telemetry::PostcardHop hop;
  hop.device = device.id().value();
  hop.program_version = device.program_version();
  hop.at = sim_->now();
  hop.latency_ns = outcome.latency;
  hop.tier = outcome.pipeline.megaflow_hit ? telemetry::CacheTier::kMega
                                           : telemetry::CacheTier::kSlowPath;
  hop.tables_consulted =
      static_cast<std::uint32_t>(outcome.pipeline.tables_traversed);
  hop.batch_size = batch_size;
  hop.dropped = outcome.pipeline.dropped || packet.dropped();
  hop.tables = std::move(outcome.pipeline.consulted_tables);
  recorder_->RecordHop(packet.postcard_id, std::move(hop));
}

void Network::InjectPacket(DeviceId from, packet::Packet packet) {
  ++stats_.injected;
  packet.created_at = sim_->now();
  MaybeOpenPostcard(packet);
  HopProcess(from, std::move(packet));
}

void Network::InjectBatch(DeviceId from, packet::PacketBatch batch) {
  stats_.injected += batch.size();
  ++stats_.batches_injected;
  const SimTime now = sim_->now();
  for (packet::Packet& p : batch) {
    p.created_at = now;
    MaybeOpenPostcard(p);
  }
  if (!batching_enabled_) {
    // Scalar-transport oracle: unbundle onto the per-packet path at the
    // same instant, preserving member order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      HopProcess(from, batch.Take(i));
    }
    arena_.Recycle(std::move(batch));
    return;
  }
  HopProcessBatch(from, std::move(batch));
}

void Network::FinishDrop(packet::Packet&& packet) {
  ++stats_.dropped;
  const std::string reason =
      packet.drop_reason().empty() ? "unknown" : packet.drop_reason();
  ++stats_.drops_by_reason[reason];
  if (recorder_ != nullptr && packet.postcard_id != 0) {
    recorder_->Finish(packet.postcard_id, telemetry::Postcard::Fate::kDropped,
                      reason, sim_->now());
  }
}

void Network::FinishDeliver(packet::Packet&& packet) {
  ++stats_.delivered;
  packet.delivered_at = sim_->now();
  const auto latency = packet.delivered_at - packet.created_at;
  stats_.latency_ns.Add(static_cast<double>(latency));
  stats_.latency_percentiles.Add(static_cast<double>(latency));
  if (recorder_ != nullptr && packet.postcard_id != 0) {
    recorder_->Finish(packet.postcard_id,
                      telemetry::Postcard::Fate::kDelivered, "", sim_->now());
  }
  if (sink_) {
    sink_(DeliveryRecord{std::move(packet), latency});
  }
}

Network::HopDecision Network::SettleHop(DeviceId at, packet::Packet& packet,
                                        const arch::ProcessOutcome& outcome) {
  stats_.total_energy_nj += outcome.energy_nj;
  HopDecision decision;
  if (outcome.pipeline.dropped || packet.dropped()) {
    decision.kind = HopDecision::kDrop;
    return decision;
  }
  const auto dst = packet.GetField(DstFieldRef());
  if (!dst.has_value()) {
    packet.MarkDropped("no_destination");
    decision.kind = HopDecision::kDrop;
    return decision;
  }
  const auto home_it = address_home_.find(*dst);
  if (home_it != address_home_.end() && home_it->second == at) {
    // Arrived: charge processing latency, then deliver.
    decision.kind = HopDecision::kDeliver;
    decision.delay = outcome.latency;
    return decision;
  }
  const std::vector<DeviceId>* candidates = nullptr;
  const auto rit = routes_.find(at);
  if (rit != routes_.end()) {
    const auto ait = rit->second.find(*dst);
    if (ait != rit->second.end() && !ait->second.empty()) {
      candidates = &ait->second;
    }
  }
  if (candidates == nullptr) {
    packet.MarkDropped("unroutable");
    decision.kind = HopDecision::kDrop;
    return decision;
  }
  DeviceId next;
  if (candidates->size() == 1) {
    // No ECMP choice to make: skip the flow-key extraction + hash.
    next = candidates->front();
  } else {
    const auto key = packet::ExtractFlowKey(packet);
    next = (*candidates)[(key.has_value() ? key->Hash() : packet.id()) %
                         candidates->size()];
  }
  SimDuration link_latency = 1 * kMicrosecond;
  for (const LinkEnd& end : links_[at]) {
    if (end.peer == next) {
      link_latency = end.latency;
      break;
    }
  }
  decision.kind = HopDecision::kForward;
  decision.next = next;
  decision.delay = outcome.latency + link_latency;
  return decision;
}

void Network::HopProcess(DeviceId at, packet::Packet packet) {
  runtime::ManagedDevice* device = Find(at);
  if (device == nullptr) {
    packet.MarkDropped("no_such_device");
    FinishDrop(std::move(packet));
    return;
  }
  arch::ProcessOutcome outcome = device->Process(packet, sim_->now());
  RecordPostcardHop(packet, *device, outcome, 1);
  const HopDecision decision = SettleHop(at, packet, outcome);
  switch (decision.kind) {
    case HopDecision::kDrop:
      FinishDrop(std::move(packet));
      return;
    case HopDecision::kDeliver:
      // The packet is moved through the event — no shared_ptr control
      // block, no copy of the header stack on the terminal hop.
      sim_->Schedule(decision.delay, [this, p = std::move(packet)]() mutable {
        FinishDeliver(std::move(p));
      });
      return;
    case HopDecision::kForward:
      sim_->Schedule(decision.delay, [this, next = decision.next,
                                      p = std::move(packet)]() mutable {
        HopProcess(next, std::move(p));
      });
      return;
  }
}

void Network::HopProcessBatch(DeviceId at, packet::PacketBatch batch) {
  runtime::ManagedDevice* device = Find(at);
  if (device == nullptr) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      packet::Packet p = batch.Take(i);
      p.MarkDropped("no_such_device");
      FinishDrop(std::move(p));
    }
    arena_.Recycle(std::move(batch));
    return;
  }
  outcome_scratch_.assign(batch.size(), arch::ProcessOutcome{});
  device->ProcessBatch(batch.span(), sim_->now(), outcome_scratch_);
  if (recorder_ != nullptr) {
    // Sampled members append their hop in member order — the same order
    // the scalar oracle would visit them.
    const auto batch_size = static_cast<std::uint32_t>(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      RecordPostcardHop(batch[i], *device, outcome_scratch_[i], batch_size);
    }
  }

  // Settle every member, checking whether the whole batch agrees on one
  // non-drop decision (the common case on any non-branching stretch of
  // the path): if so the batch is rescheduled whole — no per-member
  // moves, no arena churn.
  decision_scratch_.resize(batch.size());
  bool uniform = true;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const HopDecision decision = SettleHop(at, batch[i], outcome_scratch_[i]);
    decision_scratch_[i] = decision;
    if (decision.kind == HopDecision::kDrop ||
        decision.kind != decision_scratch_[0].kind ||
        decision.next != decision_scratch_[0].next ||
        decision.delay != decision_scratch_[0].delay) {
      uniform = false;
    }
  }
  if (uniform && !batch.empty()) {
    ScheduleGroup(decision_scratch_[0], std::move(batch));
    return;
  }

  // Mixed fates: partition members into per-(kind, next, delay) groups in
  // first-occurrence order — the batch splits only where the path or the
  // modeled latency actually diverges, and each group still rides ONE
  // simulator event where the scalar path would schedule one per member.
  struct Group {
    HopDecision decision;
    packet::PacketBatch members;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    packet::Packet p = batch.Take(i);
    const HopDecision& decision = decision_scratch_[i];
    if (decision.kind == HopDecision::kDrop) {
      FinishDrop(std::move(p));
      continue;
    }
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.decision.kind == decision.kind &&
          g.decision.next == decision.next &&
          g.decision.delay == decision.delay) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{decision, arena_.Acquire()});
      group = &groups.back();
    }
    group->members.Push(std::move(p));
  }
  arena_.Recycle(std::move(batch));
  for (Group& g : groups) {
    ScheduleGroup(g.decision, std::move(g.members));
  }
}

void Network::ScheduleGroup(const HopDecision& decision,
                            packet::PacketBatch members) {
  ++stats_.batch_events;
  stats_.events_saved += members.size() - 1;
  // EventFn is copyable (std::function), so the move-only batch rides
  // behind one shared_ptr — one allocation per *group*, not per packet.
  auto shared = std::make_shared<packet::PacketBatch>(std::move(members));
  if (decision.kind == HopDecision::kDeliver) {
    sim_->Schedule(decision.delay, [this, shared]() {
      for (std::size_t i = 0; i < shared->size(); ++i) {
        FinishDeliver(shared->Take(i));
      }
      arena_.Recycle(std::move(*shared));
    });
  } else {
    sim_->Schedule(decision.delay,
                   [this, next = decision.next, shared]() {
      HopProcessBatch(next, std::move(*shared));
    });
  }
}

void Network::PublishMetrics(telemetry::MetricsRegistry& registry) const {
  registry.Count("net_injected", stats_.injected);
  registry.Count("net_delivered", stats_.delivered);
  registry.Count("net_dropped", stats_.dropped);
  registry.Count("net_batches_injected", stats_.batches_injected);
  registry.Count("net_batch_events", stats_.batch_events);
  registry.Count("net_events_saved", stats_.events_saved);
  registry.Set("net_energy_nj", stats_.total_energy_nj);
  registry.Set("net_latency_mean_ns", stats_.latency_ns.mean());
  registry.Set("net_latency_p50_ns", stats_.latency_percentiles.Percentile(50.0));
  registry.Set("net_latency_p99_ns", stats_.latency_percentiles.Percentile(99.0));
  registry.Set("net_latency_p999_ns",
               stats_.latency_percentiles.Percentile(99.9));
  for (const auto& [reason, count] : stats_.drops_by_reason) {
    registry.Count("net_drop_reason_" + reason, count);
  }
  if (recorder_ != nullptr) {
    recorder_->PublishMetrics(registry);
  }
}

}  // namespace flexnet::net
