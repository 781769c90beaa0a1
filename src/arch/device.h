// Device: base class for all programmable targets.
//
// A device owns one Pipeline (its logical program: parse graph + tables +
// stateful objects) and an architecture-specific *placement map* that pins
// each table to a physical location (stage, tile, processor pool, ...).
// Architectures differ in:
//   * structural placement constraints   -> Reserve/Release overrides
//   * per-packet latency & energy        -> latency/energy model overrides
//   * runtime reconfiguration capability -> reconfig cost model overrides
//
// Section 3.3 of the paper: fungibility ranges from "within one stage"
// (RMT) through "within a tile type" (Trident4/Jericho2) and "whole memory
// pool" (dRMT/Spectrum) to "everything" (SmartNIC/FPGA/host).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/resources.h"
#include "common/result.h"
#include "common/types.h"
#include "dataplane/pipeline.h"
#include "packet/packet.h"

namespace flexnet::arch {

enum class ArchKind : std::uint8_t { kRmt, kDrmt, kTile, kNic, kHost };

const char* ToString(ArchKind kind) noexcept;

// What a reconfiguration step does; each has an arch-specific time cost.
enum class ReconfigOp : std::uint8_t {
  kAddTable,
  kRemoveTable,
  kMoveTable,
  kAddParserState,
  kRemoveParserState,
  kAddStateObject,
  kRemoveStateObject,
};

struct ProcessOutcome {
  dataplane::PipelineResult pipeline;
  SimDuration latency = 0;
  double energy_nj = 0.0;
};

class Device {
 public:
  Device(DeviceId id, std::string name);
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  DeviceId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  virtual ArchKind arch() const noexcept = 0;

  dataplane::Pipeline& pipeline() noexcept { return pipeline_; }
  const dataplane::Pipeline& pipeline() const noexcept { return pipeline_; }

  // --- Placement / fungibility ---
  // Reserve physical resources for a table; returns a human-readable
  // location ("stage3", "tile7", "pool").
  //
  // `position_hint` is the table's index in *its program's* pipeline
  // order and `order_group` identifies that program: staged architectures
  // (RMT) must place same-group tables in non-decreasing stage order, but
  // tables of independent programs carry no mutual constraint.  A hint of
  // SIZE_MAX means "unordered" — the table neither obeys nor imposes
  // stage-order constraints.
  virtual Result<std::string> ReserveTable(
      const std::string& table_name, const dataplane::TableResources& demand,
      std::size_t position_hint, std::uint64_t order_group = 0) = 0;
  virtual Status ReleaseTable(const std::string& table_name) = 0;
  // True if the architecture can repack existing reservations to make room
  // (fungibility across structural boundaries).  Default: no.
  virtual bool Defragment() { return false; }

  virtual ResourceVector TotalCapacity() const noexcept = 0;
  virtual ResourceVector UsedResources() const noexcept;
  double Utilization() const noexcept {
    return ResourceVector::Utilization(UsedResources(), TotalCapacity());
  }
  // Location of a placed table ("" if absent).
  std::string LocationOf(const std::string& table_name) const;

  // --- Runtime reconfiguration model ---
  virtual bool SupportsRuntimeReconfig() const noexcept { return true; }
  // Time for the device to apply one reconfiguration op while live.
  virtual SimDuration ReconfigCost(ReconfigOp op) const noexcept = 0;
  // Time for a full drain -> reflash -> redeploy cycle (compile-time path).
  virtual SimDuration FullReflashCost() const noexcept { return 30 * kSecond; }

  // --- Packet processing ---
  // Parses and runs the pipeline, records the hop (device id + program
  // version) on the packet, and returns modeled latency/energy.
  ProcessOutcome ProcessPacket(packet::Packet& p, SimTime now);

  // Burst overload: per-member bookkeeping, pipeline semantics, and
  // modeled latency/energy identical to calling ProcessPacket on each
  // member in order (the pipeline runs member-major); the burst amortizes
  // per-packet setup.  `outcomes` must have at least pkts.size() slots.
  void ProcessPacketBatch(std::span<packet::Packet> pkts, SimTime now,
                          std::span<ProcessOutcome> outcomes);

  std::uint64_t program_version() const noexcept { return program_version_; }
  void BumpProgramVersion() noexcept { ++program_version_; }

  // Offline devices drop every packet (used by the drain baseline, E2).
  bool online() const noexcept { return online_; }
  void set_online(bool online) noexcept { online_ = online; }

  std::uint64_t packets_processed() const noexcept { return packets_; }
  std::uint64_t packets_dropped() const noexcept { return drops_; }

  // Marginal per-packet latency of `elements` extra pipeline elements
  // (used to cost FlexBPF functions hosted beside the table pipeline).
  SimDuration MarginalLatency(std::size_t elements) const noexcept {
    return LatencyModel(elements) - LatencyModel(0);
  }
  double MarginalEnergyNj(std::size_t elements) const noexcept {
    return EnergyModelNj(elements) - EnergyModelNj(0);
  }
  // Absolute per-packet estimates for a program with `elements` pipeline
  // elements; the compiler's SLA/energy objectives use these.
  SimDuration EstimateLatency(std::size_t elements) const noexcept {
    return LatencyModel(elements);
  }
  double EstimateEnergyNj(std::size_t elements) const noexcept {
    return EnergyModelNj(elements);
  }

 protected:
  virtual SimDuration LatencyModel(std::size_t tables_traversed) const noexcept = 0;
  virtual double EnergyModelNj(std::size_t tables_traversed) const noexcept = 0;

  // Placement bookkeeping shared by subclasses.
  struct Reservation {
    dataplane::TableResources demand;
    std::string location;
  };
  std::unordered_map<std::string, Reservation> reservations_;

 private:
  DeviceId id_;
  std::string name_;
  dataplane::Pipeline pipeline_;
  std::uint64_t program_version_ = 1;
  bool online_ = true;
  std::uint64_t packets_ = 0;
  std::uint64_t drops_ = 0;
  // Scratch for ProcessPacketBatch: reused so a burst costs no allocation.
  std::vector<dataplane::PipelineResult> batch_results_;
};

}  // namespace flexnet::arch
