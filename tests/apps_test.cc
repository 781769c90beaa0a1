#include <gtest/gtest.h>

#include "apps/congestion.h"
#include "apps/firewall.h"
#include "apps/heavy_hitter.h"
#include "apps/infra.h"
#include "apps/load_balancer.h"
#include "apps/synflood.h"
#include "apps/telemetry.h"
#include "arch/drmt.h"
#include "flexbpf/verifier.h"
#include "packet/flow.h"

namespace flexnet::apps {
namespace {

// Every app program must pass the verifier — parameterized across the
// whole library.
struct AppCase {
  std::string name;
  flexbpf::ProgramIR program;
};

// gtest prints the parameter into the test listing; print the name, never
// the struct's raw bytes (they hold heap pointers that change per run).
void PrintTo(const AppCase& c, std::ostream* os) { *os << c.name; }

std::vector<AppCase> AllApps() {
  std::vector<AppCase> apps;
  apps.push_back({"infra", MakeInfrastructureProgram()});
  apps.push_back({"infra_big", MakeInfrastructureProgram(
                                   InfraOptions{.filler_tables = 32})});
  apps.push_back({"firewall", MakeFirewallProgram()});
  apps.push_back({"syn_monitor", MakeSynMonitorProgram()});
  apps.push_back({"syn_guard", MakeSynGuardProgram(100)});
  apps.push_back({"heavy_hitter", MakeHeavyHitterProgram()});
  apps.push_back({"lb", MakeLoadBalancerProgram(99, {1, 2, 3})});
  apps.push_back({"lb_empty", MakeLoadBalancerProgram(99, {})});
  apps.push_back({"telemetry", MakeTelemetryProgram()});
  apps.push_back({"cc_dctcp", MakeDctcpStyleProgram()});
  apps.push_back({"cc_additive", MakeAdditiveStyleProgram()});
  return apps;
}

class AppVerifyTest : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppVerifyTest, PassesVerifier) {
  flexbpf::ProgramIR program = GetParam().program;
  flexbpf::Verifier v;
  const auto r = v.Verify(program);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().ToText());
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppVerifyTest, ::testing::ValuesIn(AllApps()),
    [](const auto& info) { return info.param.name; });

// Host fixture: one dRMT switch with a program applied.
class AppOnDeviceTest : public ::testing::Test {
 protected:
  AppOnDeviceTest()
      : device_(std::make_unique<arch::DrmtDevice>(DeviceId(1), "sw")) {}

  void InstallAll(const flexbpf::ProgramIR& program) {
    for (const auto& m : program.maps) {
      runtime::StepAddMap step;
      step.decl = m;
      step.encoding = flexbpf::MapEncoding::kStatefulTable;
      ASSERT_TRUE(device_.ApplyStep(step).ok());
    }
    for (const auto& h : program.headers) {
      runtime::StepAddParserState step;
      step.state.name = h.header;
      step.from = h.after;
      step.select_value = h.select_value;
      ASSERT_TRUE(device_.ApplyStep(step).ok());
    }
    for (const auto& t : program.tables) {
      ASSERT_TRUE(device_.ApplyStep(runtime::StepAddTable{t, SIZE_MAX}).ok());
    }
    for (const auto& f : program.functions) {
      ASSERT_TRUE(device_.ApplyStep(runtime::StepAddFunction{f}).ok());
    }
  }
  runtime::ManagedDevice device_;
};

TEST_F(AppOnDeviceTest, FirewallDropsDeniedTraffic) {
  FirewallOptions options;
  FirewallRule block_telnet;
  block_telnet.dport_lo = 23;
  block_telnet.dport_hi = 23;
  block_telnet.allow = false;
  options.rules.push_back(block_telnet);
  InstallAll(MakeFirewallProgram(options));

  packet::Packet telnet = packet::MakeTcpPacket(
      1, packet::Ipv4Spec{1, 2}, packet::TcpSpec{999, 23});
  device_.Process(telnet, 0);
  EXPECT_TRUE(telnet.dropped());

  packet::Packet http = packet::MakeTcpPacket(2, packet::Ipv4Spec{1, 2},
                                              packet::TcpSpec{999, 80});
  device_.Process(http, 0);
  EXPECT_FALSE(http.dropped());
  // Conntrack recorded the surviving flow.
  const auto key = packet::ExtractFlowKey(http);
  EXPECT_EQ(device_.maps().Load("fw.conn", key->Hash(), "pkts"), 1u);
}

TEST_F(AppOnDeviceTest, SynGuardDropsPastThreshold) {
  InstallAll(MakeSynGuardProgram(3));
  int delivered = 0, dropped = 0;
  for (int i = 0; i < 10; ++i) {
    packet::Packet syn = packet::MakeTcpPacket(
        static_cast<std::uint64_t>(i), packet::Ipv4Spec{100 + i, 555},
        packet::TcpSpec{1000, 80, packet::kTcpFlagSyn});
    device_.Process(syn, 0);
    (syn.dropped() ? dropped : delivered) += 1;
  }
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(dropped, 7);
  // Non-SYN traffic to the same destination is untouched.
  packet::Packet ack = packet::MakeTcpPacket(99, packet::Ipv4Spec{7, 555},
                                             packet::TcpSpec{1000, 80});
  device_.Process(ack, 0);
  EXPECT_FALSE(ack.dropped());
}

TEST_F(AppOnDeviceTest, SynMonitorCountsOnlySyns) {
  InstallAll(MakeSynMonitorProgram());
  for (int i = 0; i < 5; ++i) {
    packet::Packet syn = packet::MakeTcpPacket(
        static_cast<std::uint64_t>(i), packet::Ipv4Spec{1, 2},
        packet::TcpSpec{1000, 80, packet::kTcpFlagSyn});
    device_.Process(syn, 0);
  }
  packet::Packet ack = packet::MakeTcpPacket(9, packet::Ipv4Spec{1, 2},
                                             packet::TcpSpec{1000, 80});
  device_.Process(ack, 0);
  EXPECT_EQ(device_.maps().Load("syn.seen", 0, "syns"), 5u);
}

TEST_F(AppOnDeviceTest, HeavyHitterQueryRanksFlows) {
  InstallAll(MakeHeavyHitterProgram());
  for (int i = 0; i < 50; ++i) {
    packet::Packet p = packet::MakeTcpPacket(
        static_cast<std::uint64_t>(i), packet::Ipv4Spec{1, 2},
        packet::TcpSpec{1000, 80});
    device_.Process(p, 0);
  }
  for (int i = 0; i < 5; ++i) {
    packet::Packet p = packet::MakeTcpPacket(
        static_cast<std::uint64_t>(100 + i), packet::Ipv4Spec{3, 4},
        packet::TcpSpec{2000, 80});
    device_.Process(p, 0);
  }
  const auto hitters = QueryHeavyHitters(device_, 10);
  ASSERT_EQ(hitters.size(), 1u);
  EXPECT_EQ(hitters[0].count, 50u);
  const auto all = QueryHeavyHitters(device_, 1);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_GE(all[0].count, all[1].count);
}

TEST_F(AppOnDeviceTest, LoadBalancerSpreadsAndSticks) {
  const std::vector<std::uint64_t> backends = {500, 501, 502};
  InstallAll(MakeLoadBalancerProgram(999, backends));
  std::set<std::uint64_t> chosen;
  for (std::uint64_t i = 0; i < 64; ++i) {
    packet::Packet p = packet::MakeTcpPacket(
        i, packet::Ipv4Spec{10 + i, 999}, packet::TcpSpec{1000 + i, 80});
    device_.Process(p, 0);
    const std::uint64_t dst = p.GetField("ipv4.dst").value();
    EXPECT_NE(dst, 999u);  // always rewritten
    chosen.insert(dst);
  }
  EXPECT_EQ(chosen.size(), 3u);  // all backends used
  // Same flow -> same backend.
  packet::Packet a = packet::MakeTcpPacket(1, packet::Ipv4Spec{7, 999},
                                           packet::TcpSpec{1234, 80});
  packet::Packet b = packet::MakeTcpPacket(2, packet::Ipv4Spec{7, 999},
                                           packet::TcpSpec{1234, 80});
  device_.Process(a, 0);
  device_.Process(b, 0);
  EXPECT_EQ(a.GetField("ipv4.dst"), b.GetField("ipv4.dst"));
  // Non-VIP traffic untouched.
  packet::Packet other = packet::MakeTcpPacket(3, packet::Ipv4Spec{7, 123},
                                               packet::TcpSpec{1, 2});
  device_.Process(other, 0);
  EXPECT_EQ(other.GetField("ipv4.dst"), 123u);
}

TEST_F(AppOnDeviceTest, TelemetryNeedsParserState) {
  // Without the app, INT probes are parse-rejected.
  packet::Packet probe = MakeTelemetryProbe(1, 1, 2);
  device_.Process(probe, 0);
  EXPECT_TRUE(probe.dropped());
  EXPECT_EQ(probe.drop_reason(), "parse_reject");

  InstallAll(MakeTelemetryProgram());
  packet::Packet probe2 = MakeTelemetryProbe(2, 1, 2);
  device_.Process(probe2, 0);
  EXPECT_FALSE(probe2.dropped());
  EXPECT_EQ(TelemetryHops(probe2), 1u);
  device_.Process(probe2, 0);
  EXPECT_EQ(TelemetryHops(probe2), 2u);
}

TEST_F(AppOnDeviceTest, DctcpHalvesOnMark) {
  CongestionOptions options;
  options.mark_rate_pps = 1000.0;
  options.mark_burst = 1.0;  // second packet in the same instant is red
  InstallAll(MakeDctcpStyleProgram(options));
  // First packet: green, window init to 10 then +1.
  packet::Packet p1 = packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2},
                                            packet::TcpSpec{10, 80});
  device_.Process(p1, 0);
  const auto key = packet::ExtractFlowKey(p1);
  EXPECT_EQ(device_.maps().Load("cc.window", key->Hash(), "wnd"), 11u);
  // Second packet same instant: meter red -> halve.
  packet::Packet p2 = packet::MakeTcpPacket(2, packet::Ipv4Spec{1, 2},
                                            packet::TcpSpec{10, 80});
  device_.Process(p2, 0);
  EXPECT_EQ(device_.maps().Load("cc.window", key->Hash(), "wnd"), 5u);
}

TEST_F(AppOnDeviceTest, AdditiveDecreasesByOne) {
  CongestionOptions options;
  options.mark_rate_pps = 1000.0;
  options.mark_burst = 1.0;
  InstallAll(MakeAdditiveStyleProgram(options));
  packet::Packet p1 = packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2},
                                            packet::TcpSpec{10, 80});
  device_.Process(p1, 0);
  const auto key = packet::ExtractFlowKey(p1);
  EXPECT_EQ(device_.maps().Load("cc.window", key->Hash(), "wnd"), 11u);
  packet::Packet p2 = packet::MakeTcpPacket(2, packet::Ipv4Spec{1, 2},
                                            packet::TcpSpec{10, 80});
  device_.Process(p2, 0);
  EXPECT_EQ(device_.maps().Load("cc.window", key->Hash(), "wnd"), 10u);
}

TEST_F(AppOnDeviceTest, InfraTtlExpiryDrops) {
  InstallAll(MakeInfrastructureProgram());
  packet::Packet dying = packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2},
                                               packet::TcpSpec{});
  dying.SetField("ipv4.ttl", 0);
  device_.Process(dying, 0);
  EXPECT_TRUE(dying.dropped());
  EXPECT_EQ(dying.drop_reason(), "ttl_expired");
  packet::Packet alive = packet::MakeTcpPacket(2, packet::Ipv4Spec{1, 2},
                                               packet::TcpSpec{});
  device_.Process(alive, 0);
  EXPECT_FALSE(alive.dropped());
  EXPECT_EQ(alive.GetField("ipv4.ttl"), 63u);
}

TEST(InfraHelpersTest, AddRouteAndVlan) {
  flexbpf::ProgramIR infra = MakeInfrastructureProgram();
  AddRoute(infra, 0x0a000000, 8, 1);
  AdmitVlan(infra, 100);
  EXPECT_EQ(infra.FindTable("infra.l3")->entries.size(), 1u);
  EXPECT_EQ(infra.FindTable("infra.vlan")->entries.size(), 1u);
}

}  // namespace
}  // namespace flexnet::apps
