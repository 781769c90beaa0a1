#include "arch/device.h"

#include <utility>

namespace flexnet::arch {

const char* ToString(ArchKind kind) noexcept {
  switch (kind) {
    case ArchKind::kRmt:
      return "rmt";
    case ArchKind::kDrmt:
      return "drmt";
    case ArchKind::kTile:
      return "tile";
    case ArchKind::kNic:
      return "nic";
    case ArchKind::kHost:
      return "host";
  }
  return "?";
}

Device::Device(DeviceId id, std::string name)
    : id_(id), name_(std::move(name)) {}

ResourceVector Device::UsedResources() const noexcept {
  ResourceVector used;
  for (const auto& [_, res] : reservations_) {
    used.sram_entries += static_cast<std::int64_t>(res.demand.sram_entries);
    used.tcam_entries += static_cast<std::int64_t>(res.demand.tcam_entries);
    used.action_slots += static_cast<std::int64_t>(res.demand.action_slots);
    used.state_bytes += static_cast<std::int64_t>(res.demand.state_bytes);
  }
  used.parser_states =
      static_cast<std::int64_t>(pipeline_.parser().state_count());
  return used;
}

std::string Device::LocationOf(const std::string& table_name) const {
  const auto it = reservations_.find(table_name);
  return it == reservations_.end() ? "" : it->second.location;
}

ProcessOutcome Device::ProcessPacket(packet::Packet& p, SimTime now) {
  ProcessOutcome out;
  ++packets_;
  if (!online_) {
    p.MarkDropped("device_offline");
    out.pipeline.dropped = true;
    ++drops_;
    return out;
  }
  p.RecordHop(id_, program_version_, now);
  out.pipeline = pipeline_.Process(p, now);
  if (out.pipeline.dropped) ++drops_;
  out.latency = LatencyModel(out.pipeline.tables_traversed);
  out.energy_nj = EnergyModelNj(out.pipeline.tables_traversed);
  return out;
}

void Device::ProcessPacketBatch(std::span<packet::Packet> pkts, SimTime now,
                                std::span<ProcessOutcome> outcomes) {
  packets_ += pkts.size();
  if (!online_) {
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      pkts[i].MarkDropped("device_offline");
      outcomes[i] = ProcessOutcome{};
      outcomes[i].pipeline.dropped = true;
      ++drops_;
    }
    return;
  }
  // Hop records carry one (device, version, time) per member; within one
  // simulator event the version cannot change, so recording them up front
  // is indistinguishable from the scalar interleaving.
  for (packet::Packet& p : pkts) p.RecordHop(id_, program_version_, now);
  batch_results_.assign(pkts.size(), dataplane::PipelineResult{});
  pipeline_.ProcessBatch(pkts, now, batch_results_);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    ProcessOutcome& out = outcomes[i];
    out = ProcessOutcome{};
    out.pipeline = std::move(batch_results_[i]);
    if (out.pipeline.dropped) ++drops_;
    out.latency = LatencyModel(out.pipeline.tables_traversed);
    out.energy_nj = EnergyModelNj(out.pipeline.tables_traversed);
  }
}

}  // namespace flexnet::arch
