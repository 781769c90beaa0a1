#include "net/network.h"

#include <algorithm>
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
  index_[raw->id()] = static_cast<std::uint32_t>(devices_.size());
  devices_.push_back(std::move(managed));
  links_.emplace_back();
  return raw;
}

std::uint32_t Network::IndexOf(DeviceId id) const noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? kNone : it->second;
}

runtime::ManagedDevice* Network::Find(DeviceId id) noexcept {
  const std::uint32_t at = IndexOf(id);
  return at == kNone ? nullptr : devices_[at].get();
}

runtime::ManagedDevice* Network::FindByName(const std::string& name) noexcept {
  for (auto& d : devices_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

Status Network::AddLink(DeviceId a, DeviceId b, SimDuration latency) {
  const std::uint32_t ia = IndexOf(a);
  const std::uint32_t ib = IndexOf(b);
  if (ia == kNone || ib == kNone) {
    return NotFound("link endpoint not in network");
  }
  for (const LinkEnd& end : links_[ia]) {
    if (end.peer == ib) return AlreadyExists("link already present");
  }
  links_[ia].push_back(LinkEnd{ib, latency});
  links_[ib].push_back(LinkEnd{ia, latency});
  return OkStatus();
}

Status Network::RemoveLink(DeviceId a, DeviceId b) {
  const std::uint32_t ia = IndexOf(a);
  const std::uint32_t ib = IndexOf(b);
  if (ia == kNone || ib == kNone) return NotFound("no such link");
  bool removed = false;
  const auto drop = [&](std::uint32_t from, std::uint32_t to) {
    auto& ends = links_[from];
    for (auto it = ends.begin(); it != ends.end(); ++it) {
      if (it->peer == to) {
        ends.erase(it);
        removed = true;
        return;
      }
    }
  };
  drop(ia, ib);
  drop(ib, ia);
  if (!removed) return NotFound("no such link");
  return OkStatus();
}

std::vector<Network::Link> Network::LinksOf(DeviceId device) const {
  std::vector<Link> out;
  const std::uint32_t at = IndexOf(device);
  if (at == kNone) return out;
  for (const LinkEnd& end : links_[at]) {
    out.push_back(Link{devices_[end.peer]->id(), end.latency});
  }
  return out;
}

Status Network::AttachAddress(DeviceId device, std::uint64_t address) {
  const std::uint32_t at = IndexOf(device);
  if (at == kNone) return NotFound("device not in network");
  if (address_home_.contains(address)) {
    return AlreadyExists("address " + std::to_string(address) +
                         " already attached");
  }
  address_home_[address] = AddressHome{at};
  return OkStatus();
}

void Network::RebuildRoutes() {
  const std::size_t n = devices_.size();
  route_devices_ = n;
  csr_begin_.assign(n + 1, 0);
  csr_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    csr_begin_[i] = static_cast<std::uint32_t>(csr_.size());
    csr_.insert(csr_.end(), links_[i].begin(), links_[i].end());
  }
  csr_begin_[n] = static_cast<std::uint32_t>(csr_.size());

  // One route slot per destination device, numbered in index order.
  std::vector<std::uint32_t> slot_of(n, kNone);
  for (const auto& [address, entry] : address_home_) slot_of[entry.home] = 0;
  std::vector<std::uint32_t> homes;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (slot_of[i] == kNone) continue;
    slot_of[i] = static_cast<std::uint32_t>(homes.size());
    homes.push_back(i);
  }
  for (auto& [address, entry] : address_home_) entry.slot = slot_of[entry.home];

  // Offline devices do not relay: they are excluded from interior hops
  // (but may still be BFS roots — a drained destination simply drops).
  std::vector<char> relays(n);
  for (std::size_t i = 0; i < n; ++i) relays[i] = devices_[i]->device().online();

  constexpr std::uint32_t kUnreached = kNone;
  std::vector<std::uint32_t> depth(n);
  std::vector<std::uint32_t> rank(n);   // position in BFS visiting order
  std::vector<std::uint32_t> order;     // the BFS queue, never popped
  order.reserve(n);
  route_begin_.assign(homes.size() * n + 1, 0);
  route_hops_.clear();
  for (std::size_t slot = 0; slot < homes.size(); ++slot) {
    const std::uint32_t home = homes[slot];
    std::fill(depth.begin(), depth.end(), kUnreached);
    order.clear();
    depth[home] = 0;
    order.push_back(home);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const std::uint32_t current = order[head];
      rank[current] = static_cast<std::uint32_t>(head);
      if (current != home && !relays[current]) continue;  // drained hop
      for (std::uint32_t p = csr_begin_[current]; p < csr_begin_[current + 1];
           ++p) {
        const std::uint32_t peer = csr_[p].peer;
        if (depth[peer] == kUnreached) {
          depth[peer] = depth[current] + 1;
          order.push_back(peer);
        }
      }
    }
    // A device's candidates are its links to relaying neighbours one hop
    // closer to home, ordered by when the BFS visited those neighbours;
    // that order decides which next hop candidates[flow_hash % count]
    // picks (tests/routing_oracle_test.cc pins it).
    const std::size_t row = slot * n;
    for (std::uint32_t at = 0; at < n; ++at) {
      route_begin_[row + at] = static_cast<std::uint32_t>(route_hops_.size());
      if (depth[at] == kUnreached || at == home) continue;
      const auto first = route_hops_.size();
      for (std::uint32_t p = csr_begin_[at]; p < csr_begin_[at + 1]; ++p) {
        const std::uint32_t peer = csr_[p].peer;
        if (depth[peer] != kUnreached && depth[peer] + 1 == depth[at] &&
            (peer == home || relays[peer])) {
          route_hops_.push_back(p);
        }
      }
      std::sort(route_hops_.begin() + first, route_hops_.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return rank[csr_[a].peer] < rank[csr_[b].peer];
                });
    }
  }
  route_begin_.back() = static_cast<std::uint32_t>(route_hops_.size());
}

std::span<const std::uint32_t> Network::Candidates(
    std::uint32_t slot, std::uint32_t at) const noexcept {
  if (slot == kNone || at >= route_devices_) return {};
  const std::size_t row = slot * route_devices_ + at;
  return {route_hops_.data() + route_begin_[row],
          route_hops_.data() + route_begin_[row + 1]};
}

DeviceId Network::NextHop(DeviceId at, std::uint64_t dst_addr,
                          std::uint64_t flow_hash) const {
  const auto it = address_home_.find(dst_addr);
  if (it == address_home_.end()) return DeviceId();
  const auto candidates = Candidates(it->second.slot, IndexOf(at));
  if (candidates.empty()) return DeviceId();
  return devices_[csr_[candidates[flow_hash % candidates.size()]].peer]->id();
}

std::vector<DeviceId> Network::PathTo(DeviceId from,
                                      std::uint64_t dst_addr) const {
  std::vector<DeviceId> path;
  DeviceId current = from;
  const auto it = address_home_.find(dst_addr);
  if (it == address_home_.end()) return path;
  const DeviceId home = devices_[it->second.home]->id();
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
  const std::uint32_t source = IndexOf(from);
  const std::uint32_t target = IndexOf(to);
  if (source != kNone && target != kNone) {
    std::vector<SimDuration> cost(devices_.size());
    std::vector<char> seen(devices_.size());
    std::vector<std::uint32_t> queue{source};
    seen[source] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t current = queue[head];
      for (const LinkEnd& end : links_[current]) {
        if (seen[end.peer]) continue;
        seen[end.peer] = 1;
        cost[end.peer] = cost[current] + end.latency;
        if (end.peer == target) return cost[end.peer];
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
  const std::uint32_t at = IndexOf(from);
  if (at == kNone) {
    packet.MarkDropped("no_such_device");
    FinishDrop(std::move(packet));
    return;
  }
  HopProcess(at, std::move(packet));
}

void Network::InjectBatch(DeviceId from, packet::PacketBatch batch) {
  stats_.injected += batch.size();
  ++stats_.batches_injected;
  const SimTime now = sim_->now();
  for (packet::Packet& p : batch) {
    p.created_at = now;
    MaybeOpenPostcard(p);
  }
  const std::uint32_t at = IndexOf(from);
  if (at == kNone) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      packet::Packet p = batch.Take(i);
      p.MarkDropped("no_such_device");
      FinishDrop(std::move(p));
    }
    arena_.Recycle(std::move(batch));
    return;
  }
  if (!batching_enabled_) {
    // Scalar-transport oracle: unbundle onto the per-packet path at the
    // same instant, preserving member order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      HopProcess(at, batch.Take(i));
    }
    arena_.Recycle(std::move(batch));
    return;
  }
  HopProcessBatch(at, std::move(batch));
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

Network::HopDecision Network::SettleHop(std::uint32_t at,
                                        packet::Packet& packet,
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
  if (home_it != address_home_.end() && home_it->second.home == at) {
    // Arrived: charge processing latency, then deliver.
    decision.kind = HopDecision::kDeliver;
    decision.delay = outcome.latency;
    return decision;
  }
  const auto candidates = home_it == address_home_.end()
                              ? std::span<const std::uint32_t>()
                              : Candidates(home_it->second.slot, at);
  if (candidates.empty()) {
    packet.MarkDropped("unroutable");
    decision.kind = HopDecision::kDrop;
    return decision;
  }
  std::uint32_t link = candidates.front();
  if (candidates.size() > 1) {
    // ECMP: only a real choice pays for the flow-key extraction + hash.
    const auto key = packet::ExtractFlowKey(packet);
    link = candidates[(key.has_value() ? key->Hash() : packet.id()) %
                      candidates.size()];
  }
  decision.kind = HopDecision::kForward;
  decision.next = csr_[link].peer;
  decision.delay = outcome.latency + csr_[link].latency;
  return decision;
}

void Network::HopProcess(std::uint32_t at, packet::Packet packet) {
  runtime::ManagedDevice& device = *devices_[at];
  arch::ProcessOutcome outcome = device.Process(packet, sim_->now());
  RecordPostcardHop(packet, device, outcome, 1);
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

void Network::HopProcessBatch(std::uint32_t at, packet::PacketBatch batch) {
  runtime::ManagedDevice& device = *devices_[at];
  outcome_scratch_.assign(batch.size(), arch::ProcessOutcome{});
  device.ProcessBatch(batch.span(), sim_->now(), outcome_scratch_);
  if (recorder_ != nullptr) {
    // Sampled members append their hop in member order — the same order
    // the scalar oracle would visit them.
    const auto batch_size = static_cast<std::uint32_t>(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      RecordPostcardHop(batch[i], device, outcome_scratch_[i], batch_size);
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
