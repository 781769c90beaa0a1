// fleet_rollout: the E19 1088-device leaf-spine behind a 3-node Raft
// controller, updated closed-loop by one operator: each step is one
// FleetManager::UpdateFleetWide rollout in waves of 64, issued as soon as
// the previous one returns, cycling through the fleet program versions.
// Every third rollout admits and removes tenants between waves.  Light
// heavy-tailed traffic between a few endpoint pairs runs in sim time
// throughout, so each wave's epoch bumps are followed by cache refills.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "controller/fleet.h"
#include "controller/tenant.h"
#include "fault/invariants.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "programs.h"
#include "twin.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace flexnet;

constexpr const char* kUri = "flexnet://fleet/app";
constexpr std::size_t kTrafficPairs = 4;
constexpr std::size_t kTrafficBurst = 8;
constexpr SimDuration kTrafficGap = 40 * kMillisecond;
constexpr std::size_t kTenantEndpoint = 100;  // clear of the traffic pairs
constexpr std::size_t kTenantsPerRollout = 2;
constexpr std::size_t kWavesPerRollout = 17;  // 128 switches + 960 endpoints, 64 a wave

net::LeafSpineTopology BuildFleet(net::Network& network) {
  net::LeafSpineConfig cfg;
  cfg.spines = 8;
  cfg.leaves = 120;
  cfg.hosts_per_leaf = 4;  // 8 + 120 + 2 * 480 = 1088 devices
  cfg.switch_kind = net::SwitchKind::kDrmt;
  return net::BuildLeafSpine(network, cfg);
}

constexpr arch::ArchKind kFleetKinds[] = {arch::ArchKind::kDrmt, arch::ArchKind::kNic,
                                          arch::ArchKind::kHost};

class Fleet final : public Workload {
 public:
  Fleet(std::uint64_t seed, bool traced)
      : rng_(seed),
        network_(&sim_),
        topo_(BuildFleet(network_)),
        ctrl_(&network_, {}, &metrics_),
        tenants_(&ctrl_),
        fleet_(&ctrl_),
        raft_(&sim_, {}, seed),
        checker_(&network_),
        versions_(FleetVersions()) {
    raft_.Start();
    sim_.RunUntil(sim_.now() + 500 * kMillisecond);
    fleet_.AttachRaft(&raft_);
    checker_.Begin();

    heavy_.flows = kHeavyFlows;
    heavy_.src_base = kHeavySrcBase;
    traffic_on_ = true;
    sim_.Schedule(kTrafficGap, [this]() { TrafficTick(); });

    const auto deploy = fleet_.DeployFleetWide(kUri, versions_[0]);
    if (!deploy.ok()) {
      setup_error_ = "deploy: " + deploy.error().ToText();
    } else if (!deploy->ok()) {
      setup_error_ = "deploy: " + std::to_string(deploy->device_failures) +
                     " devices failed";
    }
    fleet_.config().on_wave_complete = [this](std::size_t wave) { OnWave(wave); };

    if (traced) {
      const auto& src = topo_.endpoint(0);
      const auto& dst = topo_.endpoint(topo_.endpoint_count() - 1);
      std::vector<std::unique_ptr<arch::Device>> hops;
      std::size_t switch_hop = 0;
      for (const DeviceId id : network_.PathTo(src.host, dst.address)) {
        const arch::Device& real = network_.Find(id)->device();
        if (switch_hop == 0 && real.arch() == arch::ArchKind::kDrmt) {
          switch_hop = hops.size();
        }
        hops.push_back(TwinOf(real));
      }
      twins_ = std::make_unique<TwinPath>(std::move(hops), switch_hop);
      flexbpf::ProgramIR empty;
      empty.name = versions_[0].name;
      for (const arch::ArchKind kind : kFleetKinds) {
        twins_->Reconfigure(empty, versions_[0], kind);
      }
    }
  }

  Phase Run(double budget_s, std::size_t steps) override {
    Phase ph;
    if (!setup_error_.empty()) {
      ph.errors.push_back(setup_error_);
      return ph;
    }
    phase_ = &ph;
    const std::uint64_t events0 = sim_.executed_events();
    std::vector<runtime::ManagedDevice*> all;
    for (const auto& d : network_.devices()) all.push_back(d.get());
    std::map<std::string, double> before;
    CountDataplane(all, before);
    const telemetry::Counter* applied0 = metrics_.FindCounter("runtime.steps_applied");
    const std::uint64_t steps_applied0 = applied0 ? applied0->value() : 0;
    std::uint64_t devices = 0, messages = 0, compiled = 0, reused = 0, waves = 0;

    const auto start = Clock::now();
    while (MoreSteps(ph, start, budget_s, steps)) {
      const std::size_t next = (version_ + 1) % versions_.size();
      churn_ = ph.steps % 3 == 2;
      const auto r0 = Clock::now();
      last_wave_end_ = r0;
      const auto report = fleet_.UpdateFleetWide(kUri, versions_[next]);
      ph.rollout_ms.push_back(NanosBetween(r0, Clock::now()) / 1e6);
      if (!report.ok()) {
        ph.errors.push_back("rollout " + std::to_string(ph.steps) + ": " +
                            report.error().ToText());
        break;
      }
      for (const std::string& e : report->errors) ph.errors.push_back(e);
      if (report->waves != kWavesPerRollout) {
        ph.errors.push_back("rollout ran " + std::to_string(report->waves) + " waves");
      }
      ph.failed += report->device_failures;
      devices += report->devices;
      messages += report->control_messages;
      compiled += report->plans_compiled;
      reused += report->plans_reused;
      waves += report->waves;
      // Departing tenants leave the fleet homogeneous again.
      for (const std::string& name : active_tenants_) (void)tenants_.RemoveTenant(name);
      active_tenants_.clear();
      if (twins_) {
        const auto t0 = Clock::now();
        for (const arch::ArchKind kind : kFleetKinds) {
          twins_->Reconfigure(versions_[version_], versions_[next], kind);
        }
        twins_->times().twin_reconfig.Add(NanosBetween(t0, Clock::now()));
      }
      version_ = next;
      ++ph.steps;
    }
    traffic_on_ = false;
    sim_.RunUntil(sim_.now() + 100 * kMillisecond);  // drain in-flight traffic
    ph.wall_s = NanosBetween(start, Clock::now()) / 1e9;
    phase_ = nullptr;

    checker_.Finish();
    checker_.CheckFleetConvergence();
    checker_.CheckRaft(raft_);
    for (const fault::Violation& v : checker_.violations()) {
      ph.errors.push_back(fault::ToText(v));
    }

    const net::NetworkStats& st = network_.stats();
    ph.attempted = devices;
    auto& c = ph.counts;
    c["sim.events"] = static_cast<double>(sim_.executed_events() - events0);
    c["net.injected"] = static_cast<double>(st.injected);
    c["net.delivered"] = static_cast<double>(st.delivered);
    c["net.dropped"] = static_cast<double>(st.dropped);
    c["path.hops"] = 7;  // host, NIC, leaf, spine, leaf, NIC, host
    c["path.switch_hops"] = 3;
    c["fleet.rollouts"] = static_cast<double>(ph.steps);
    c["fleet.waves"] = static_cast<double>(waves);
    c["fleet.control_messages"] = static_cast<double>(messages);
    c["compiler.plans_compiled"] = static_cast<double>(compiled);
    c["compiler.plans_reused"] = static_cast<double>(reused);
    c["reconfig.devices_updated"] = static_cast<double>(devices);
    c["work.items"] = static_cast<double>(devices);  // device updates
    const telemetry::Counter* applied = metrics_.FindCounter("runtime.steps_applied");
    c["reconfig.steps_applied"] =
        applied ? static_cast<double>(applied->value() - steps_applied0) : 0.0;
    CountDataplane(all, c);
    c["dataplane.epochs"] -= before["dataplane.epochs"];
    c["model.latency_ns"] = st.latency_ns.mean();
    c["model.energy_nj"] = st.total_energy_nj;

    if (st.delivered == 0) ph.errors.push_back("no traffic delivered");
    if (twins_) twins_->Export(ph.layers);
    return ph;
  }

 private:
  void OnWave(std::size_t wave) {
    if (phase_ == nullptr) return;
    const auto now = Clock::now();
    NoteStep(*phase_, NanosBetween(last_wave_end_, now) / 1e6);
    last_wave_end_ = now;
    if (!churn_) return;
    if (wave % 3 == 0 && active_tenants_.size() < kTenantsPerRollout) {
      const std::string name = "tenant" + std::to_string(tenant_seq_++);
      const std::size_t e = kTenantEndpoint + 2 * active_tenants_.size();
      std::vector<runtime::ManagedDevice*> slice{
          network_.Find(topo_.endpoint(e).host),
          network_.Find(topo_.endpoint(e + 1).host)};
      if (tenants_.AdmitTenantOn(name, TenantExtension(), slice).ok()) {
        active_tenants_.push_back(name);
      }
    } else if (wave % 3 == 2 && !active_tenants_.empty()) {
      (void)tenants_.RemoveTenant(active_tenants_.back());
      active_tenants_.pop_back();
    }
  }

  void TrafficTick() {
    if (!traffic_on_) return;
    for (std::size_t p = 0; p < kTrafficPairs; ++p) FireBurst(p);
    sim_.Schedule(kTrafficGap, [this]() { TrafficTick(); });
  }

  void FireBurst(std::size_t pair) {
    const auto& src = topo_.endpoint(pair);
    const auto& dst = topo_.endpoint(topo_.endpoint_count() - 1 - pair);
    const Clock::time_point t0 = twins_ ? Clock::now() : Clock::time_point{};
    packet::PacketBatch batch = network_.AcquireBatch();
    for (std::size_t i = 0; i < kTrafficBurst; ++i) {
      const net::FlowSpec flow = net::TrafficGenerator::HeavyTailFlow(heavy_, rng_);
      batch.Push(packet::MakeTcpPacket(next_id_++,
                                       packet::Ipv4Spec{flow.src_ip, dst.address},
                                       packet::TcpSpec{flow.src_port, flow.dst_port},
                                       512));
    }
    if (twins_) {
      LayerTimes& lt = twins_->times();
      lt.build.ns += NanosBetween(t0, Clock::now());
      lt.build.n += batch.size();
      twins_->Replay(batch.span(), sim_.now());
      lt.burst_event.Add(NanosBetween(t0, Clock::now()));
    }
    network_.InjectBatch(src.host, std::move(batch));
  }

  Rng rng_;
  sim::Simulator sim_;
  net::Network network_;
  net::LeafSpineTopology topo_;
  telemetry::MetricsRegistry metrics_;
  controller::Controller ctrl_;
  controller::TenantManager tenants_;
  controller::FleetManager fleet_;
  controller::RaftCluster raft_;
  fault::InvariantChecker checker_;
  std::vector<flexbpf::ProgramIR> versions_;
  std::size_t version_ = 0;
  net::TrafficGenerator::HeavyTailConfig heavy_;
  bool traffic_on_ = false;
  std::uint64_t next_id_ = 1;
  bool churn_ = false;
  std::vector<std::string> active_tenants_;
  std::uint64_t tenant_seq_ = 0;
  Phase* phase_ = nullptr;
  Clock::time_point last_wave_end_;
  std::unique_ptr<TwinPath> twins_;
  std::string setup_error_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleet(std::uint64_t seed, bool traced) {
  return std::make_unique<Fleet>(seed, traced);
}

}  // namespace perfbench
