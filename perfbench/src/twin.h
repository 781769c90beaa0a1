// Traced-run instrumentation that lives entirely outside src/: twin copies
// of the devices on one packet path, kept in the same program state as the
// real ones, through which the benchmark replays every burst it injects and
// every reconfiguration it rolls out, timing the public entry point of each
// layer:
//
//   hops          runtime::ManagedDevice::ProcessBatch per device on the path
//   switch hop    dataplane::Pipeline::ProcessBatch (pipe twin),
//                 Pipeline::Process per packet by answering tier (tier twin),
//                 ParseGraph::Parse and MatchActionTable::MatchEntry for the
//                 packets the slow path resolves, bound
//                 flexbpf::CompiledFunction::Run (fn twin's maps)
//   reconfig      FingerprintProgram, FingerprintDevice, MakePlanKey,
//                 Verifier::Verify, DiffPrograms, ComputeClassPlan, and
//                 ManagedDevice::ApplyStep on every twin of the arch kind
//
// Twins see the same packet stream in the same order as the real devices,
// so their cache tiers take the same decisions; the fabric workloads check
// that the twin switch's counters equal the real switches'.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "flexbpf/compile.h"
#include "runtime/managed_device.h"

namespace perfbench {

// A fresh, unprogrammed device of the same kind and id as `d` (the
// workloads build only hosts, NICs and dRMT switches).
std::unique_ptr<flexnet::arch::Device> TwinOf(const flexnet::arch::Device& d);

struct LayerTimes {
  Acc build;        // flow draw + MakeTcpPacket, per packet
  Acc burst_event;  // whole traced burst event (build + copies + replays)
  std::array<Acc, 5> device;  // per arch::ArchKind, per packet-hop
  Acc pipeline;     // per packet through Pipeline::ProcessBatch
  Acc parse;        // per slow-path packet
  Acc match;        // per slow-path packet (all tables)
  std::vector<double> micro_ns, mega_ns, slow_ns;  // per packet by tier
  Acc fn_run;       // per bound CompiledFunction::Run
  Acc program_fp, device_fp, plan_key, verify, diff, class_plan, apply_step;
  Acc twin_reconfig;  // whole Reconfigure calls made inside a measured phase
  std::uint64_t add_function_steps = 0;

  // Flattens the totals into name -> value for the phase record.
  void Export(std::map<std::string, double>& out);
};

class TwinPath {
 public:
  // `hops` are fresh devices mirroring the real path, in path order;
  // `switch_hop` indexes the hop whose sub-layers are timed.
  TwinPath(std::vector<std::unique_ptr<flexnet::arch::Device>> hops,
           std::size_t switch_hop);

  // Times the compiler calls a rollout of (before -> after) makes for one
  // device of `kind`, then applies the resulting class plan to every twin
  // of that kind, timing each ApplyStep.
  void Reconfigure(const flexnet::flexbpf::ProgramIR& before,
                   const flexnet::flexbpf::ProgramIR& after,
                   flexnet::arch::ArchKind kind);

  // Replays one burst (a copy of what the network is about to receive)
  // along the path.
  void Replay(std::span<const flexnet::packet::Packet> burst,
              flexnet::SimTime now);

  // Layer totals plus the twins' FlexBPF compile time (compile_ns_total).
  void Export(std::map<std::string, double>& out);

  flexnet::runtime::ManagedDevice& hop(std::size_t i) { return *hops_[i]; }
  flexnet::runtime::ManagedDevice& tier_twin() { return *tier_; }
  LayerTimes& times() { return times_; }

 private:
  void ApplyPlan(flexnet::runtime::ManagedDevice& dev,
                 const flexnet::runtime::ReconfigPlan& plan);
  void ReplaySwitchLayers(std::span<const flexnet::packet::Packet> pkts,
                          flexnet::SimTime now);
  void Rebind();

  std::vector<std::unique_ptr<flexnet::runtime::ManagedDevice>> hops_;
  std::size_t switch_hop_;
  // Sub-layer twins of the switch hop: pipe (batch pipeline), tier (per
  // packet pipeline), fn (map storage for the bound compiled functions).
  std::unique_ptr<flexnet::runtime::ManagedDevice> pipe_, tier_, fn_;
  std::vector<flexnet::dataplane::MatchActionTable*> tables_;
  std::vector<flexnet::flexbpf::CompiledFunction> fns_;
  LayerTimes times_;
  // Scratch reused across bursts.
  std::vector<flexnet::packet::Packet> path_pkts_, pipe_pkts_, tier_pkts_;
  std::vector<flexnet::arch::ProcessOutcome> outcomes_;
  std::vector<flexnet::dataplane::PipelineResult> results_;
  std::vector<flexnet::packet::FieldRef> parser_reads_;
  std::vector<char> slow_;
};

}  // namespace perfbench
