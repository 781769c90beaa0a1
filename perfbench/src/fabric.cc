// heavytail_fabric and unique_flow_fabric: the E14 host-NIC-3xdRMT-NIC-host
// line, driven open-loop in sim time.  Each step is one fixed sim-time
// slice of kBurstsPerSlice bursts of kBurst packets, fired kBurstGap apart
// whatever the host's speed, so the generator is never late; the wall
// time the simulator takes to run a slice is the step time.
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compiler/incremental.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "programs.h"
#include "twin.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace flexnet;

constexpr std::size_t kBurst = 32;
constexpr std::size_t kBurstsPerSlice = 8;
constexpr SimDuration kBurstGap = 1 * kMicrosecond;
constexpr std::uint32_t kPacketBytes = 512;

class Fabric final : public Workload {
 public:
  Fabric(FabricKind kind, std::uint64_t seed, bool traced)
      : kind_(kind), rng_(seed), network_(&sim_) {
    topo_ = net::BuildLinear(network_, 3, net::SwitchKind::kDrmt);
    path_ = {topo_.client.host, topo_.client.nic};
    path_.insert(path_.end(), topo_.switches.begin(), topo_.switches.end());
    path_.push_back(topo_.server.nic);
    path_.push_back(topo_.server.host);
    for (const DeviceId id : topo_.switches) switches_.push_back(network_.Find(id));

    // Deploy the switch program the way a fleet rollout would: one class
    // plan from the empty program, applied to every switch.
    program_ = kind == FabricKind::kHeavyTail ? HeavyTailProgram()
                                              : UniqueFlowProgram();
    flexbpf::ProgramIR empty;
    empty.name = program_.name;
    auto plan = compiler::ComputeClassPlan(empty, program_, arch::ArchKind::kDrmt);
    if (!plan.ok()) {
      setup_error_ = "class plan: " + plan.error().ToText();
      return;
    }
    deploy_steps_ = plan.value().plan.steps.size();
    for (runtime::ManagedDevice* sw : switches_) {
      const Status s = sw->ApplyAll(plan.value().plan);
      if (!s.ok()) setup_error_ = "deploy: " + s.error().ToText();
    }

    heavy_.flows = kHeavyFlows;
    heavy_.elephants = 4096;
    heavy_.mice_fraction = 0.7;
    heavy_.src_base = kHeavySrcBase;
    unique_base_ = kUniqueSrcBase + rng_.NextBounded(1 << 16);

    network_.SetDeliverySink([this](const net::DeliveryRecord& r) {
      if (r.packet.trace().size() == path_.size()) ++delivered_full_path_;
    });

    if (traced) {
      std::vector<std::unique_ptr<arch::Device>> hops;
      for (const DeviceId id : path_) hops.push_back(TwinOf(network_.Find(id)->device()));
      twins_ = std::make_unique<TwinPath>(std::move(hops), 2);
      twins_->Reconfigure(empty, program_, arch::ArchKind::kDrmt);
    }
  }

  Phase Run(double budget_s, std::size_t steps) override {
    Phase ph;
    if (!setup_error_.empty()) {
      ph.errors.push_back(setup_error_);
      return ph;
    }
    const auto start = Clock::now();
    SimTime t = sim_.now();
    while (MoreSteps(ph, start, budget_s, steps)) {
      for (std::size_t b = 1; b <= kBurstsPerSlice; ++b) {
        sim_.ScheduleAt(t + static_cast<SimDuration>(b) * kBurstGap,
                        [this]() { FireBurst(); });
      }
      t += static_cast<SimDuration>(kBurstsPerSlice) * kBurstGap;
      const auto s0 = Clock::now();
      sim_.RunUntil(t);
      NoteStep(ph, NanosBetween(s0, Clock::now()) / 1e6);
      ++ph.steps;
    }
    sim_.Run();  // deliver what is still in flight
    ph.wall_s = NanosBetween(start, Clock::now()) / 1e9;
    Collect(ph);
    return ph;
  }

 private:
  packet::Packet NextPacket() {
    const std::uint64_t id = next_id_++;
    std::uint64_t src, sport, dport;
    if (kind_ == FabricKind::kHeavyTail) {
      const net::FlowSpec flow = net::TrafficGenerator::HeavyTailFlow(heavy_, rng_);
      src = flow.src_ip;
      sport = flow.src_port;
      dport = flow.dst_port;
    } else {
      src = unique_base_ + id;  // every packet its own flow
      sport = 4000;
      dport = rng_.NextBounded(1024);
    }
    return packet::MakeTcpPacket(id, packet::Ipv4Spec{src, topo_.server.address},
                                 packet::TcpSpec{sport, dport}, kPacketBytes);
  }

  void FireBurst() {
    const Clock::time_point t0 = twins_ ? Clock::now() : Clock::time_point{};
    packet::PacketBatch batch = network_.AcquireBatch();
    for (std::size_t i = 0; i < kBurst; ++i) batch.Push(NextPacket());
    if (twins_) {
      LayerTimes& lt = twins_->times();
      lt.build.ns += NanosBetween(t0, Clock::now());
      lt.build.n += batch.size();
      twins_->Replay(batch.span(), sim_.now());
      lt.burst_event.Add(NanosBetween(t0, Clock::now()));
    }
    network_.InjectBatch(topo_.client.host, std::move(batch));
  }

  void Collect(Phase& ph) {
    const net::NetworkStats& st = network_.stats();
    ph.attempted = st.injected;
    ph.failed = st.injected - std::min(st.injected, st.delivered);
    auto& c = ph.counts;
    c["sim.events"] = static_cast<double>(sim_.executed_events());
    c["net.injected"] = static_cast<double>(st.injected);
    c["net.delivered"] = static_cast<double>(st.delivered);
    c["net.dropped"] = static_cast<double>(st.dropped);
    c["net.delivered_full_path"] = static_cast<double>(delivered_full_path_);
    c["work.items"] = static_cast<double>(st.delivered);  // packets
    c["path.hops"] = static_cast<double>(path_.size());
    c["path.switch_hops"] = static_cast<double>(switches_.size());
    CountDataplane(switches_, c);
    // The set-up deploy is the only reconfiguration: one class plan on
    // each switch.
    c["reconfig.devices_updated"] = static_cast<double>(switches_.size());
    c["reconfig.steps_applied"] = static_cast<double>(switches_.size() * deploy_steps_);
    c["fleet.rollouts"] = 0;
    c["fleet.waves"] = 0;
    c["fleet.control_messages"] = 0;
    c["compiler.plans_compiled"] = 1;
    c["compiler.plans_reused"] = 0;
    c["model.latency_ns"] = st.latency_ns.mean();
    c["model.energy_nj"] = st.total_energy_nj;

    if (st.dropped != 0) {
      std::string detail;
      for (const auto& [reason, n] : st.drops_by_reason) {
        detail += " " + reason + "=" + std::to_string(n);
      }
      ph.errors.push_back(std::to_string(st.dropped) + " packets dropped:" + detail);
    }
    if (st.delivered != st.injected) {
      ph.errors.push_back("delivered " + std::to_string(st.delivered) + " of " +
                          std::to_string(st.injected) + " injected");
    }
    if (delivered_full_path_ != st.delivered) {
      ph.errors.push_back("delivered packets skipped hops on the path");
    }
    if (twins_) {
      CheckTwins(ph);
      twins_->Export(ph.layers);
    }
  }

  // The traced replay is only a faithful stand-in for the real devices if
  // its switches took the same cache decisions.
  void CheckTwins(Phase& ph) {
    const auto same = [](const dataplane::Pipeline& a, const dataplane::Pipeline& b) {
      return a.flow_cache_hits() == b.flow_cache_hits() &&
             a.flow_cache_misses() == b.flow_cache_misses() &&
             a.megaflow_hits() == b.megaflow_hits() &&
             a.megaflow_misses() == b.megaflow_misses() &&
             a.flow_cache_evictions() == b.flow_cache_evictions() &&
             a.megaflow_evictions() == b.megaflow_evictions();
    };
    for (std::size_t k = 0; k < switches_.size(); ++k) {
      if (!same(twins_->hop(2 + k).device().pipeline(), switches_[k]->device().pipeline())) {
        ph.errors.push_back("twin of switch " + std::to_string(k) + " diverged from the network");
      }
    }
    if (!same(twins_->tier_twin().device().pipeline(), switches_[0]->device().pipeline())) {
      ph.errors.push_back("per-packet tier twin diverged from the network");
    }
  }

  FabricKind kind_;
  Rng rng_;
  sim::Simulator sim_;
  net::Network network_;
  net::LinearTopology topo_;
  std::vector<DeviceId> path_;
  std::vector<runtime::ManagedDevice*> switches_;
  flexbpf::ProgramIR program_;
  net::TrafficGenerator::HeavyTailConfig heavy_;
  std::size_t deploy_steps_ = 0;
  std::uint64_t unique_base_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t delivered_full_path_ = 0;
  std::unique_ptr<TwinPath> twins_;
  std::string setup_error_;
};

}  // namespace

std::unique_ptr<Workload> MakeFabric(FabricKind kind, std::uint64_t seed,
                                     bool traced) {
  return std::make_unique<Fabric>(kind, seed, traced);
}

}  // namespace perfbench
