#include <gtest/gtest.h>

#include "dataplane/parser.h"
#include "packet/packet.h"

namespace flexnet::dataplane {
namespace {

// The visible headers' names, outermost first.
std::vector<std::string> SeenNames(const ParseResult& r) {
  std::vector<std::string> names;
  for (const packet::Symbol sym : r.headers_seen) {
    names.push_back(packet::SymbolName(sym));
  }
  return names;
}

TEST(ParseGraphTest, StandardGraphAcceptsTcpUdp) {
  const ParseGraph g = MakeStandardParseGraph();
  packet::Packet tcp = packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2},
                                             packet::TcpSpec{});
  packet::Packet udp = packet::MakeUdpPacket(2, packet::Ipv4Spec{1, 2},
                                             packet::UdpSpec{});
  EXPECT_TRUE(g.Accepts(tcp));
  EXPECT_TRUE(g.Accepts(udp));
}

TEST(ParseGraphTest, StandardGraphAcceptsVlanTagged) {
  const ParseGraph g = MakeStandardParseGraph();
  packet::Packet p(1);
  packet::AddEthernet(p, packet::EthernetSpec{0, 0, 0x8100});
  packet::AddVlan(p, 42);
  packet::AddIpv4(p, packet::Ipv4Spec{1, 2, 6});
  packet::AddTcp(p, packet::TcpSpec{});
  const ParseResult r = g.Parse(p);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(SeenNames(r),
            (std::vector<std::string>{"eth", "vlan", "ipv4", "tcp"}));
}

TEST(ParseGraphTest, RejectsUnknownEthertype) {
  const ParseGraph g = MakeStandardParseGraph();
  packet::Packet p(1);
  packet::AddEthernet(p, packet::EthernetSpec{0, 0, 0x86dd});  // IPv6
  EXPECT_FALSE(g.Accepts(p));
}

TEST(ParseGraphTest, RejectsUnknownIpProto) {
  const ParseGraph g = MakeStandardParseGraph();
  packet::Packet p(1);
  packet::AddEthernet(p, packet::EthernetSpec{});
  packet::AddIpv4(p, packet::Ipv4Spec{1, 2, 0xFD});  // no such transition
  EXPECT_FALSE(g.Accepts(p));
}

TEST(ParseGraphTest, RuntimeAddProtocolState) {
  ParseGraph g = MakeStandardParseGraph();
  packet::Packet p(1);
  packet::AddEthernet(p, packet::EthernetSpec{});
  packet::AddIpv4(p, packet::Ipv4Spec{1, 2, 0xFD});
  p.PushHeader("int").Set("hops", 0);
  EXPECT_FALSE(g.Accepts(p));

  // Runtime reconfiguration: add the "int" state + transition, hitlessly.
  ParseState st;
  st.name = "int";
  ASSERT_TRUE(g.AddState(st).ok());
  ASSERT_TRUE(g.AddTransition("ipv4", 0xFD, "int").ok());
  EXPECT_TRUE(g.Accepts(p));
}

TEST(ParseGraphTest, RuntimeRemoveProtocolState) {
  ParseGraph g = MakeStandardParseGraph();
  packet::Packet tcp = packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2},
                                             packet::TcpSpec{});
  ASSERT_TRUE(g.Accepts(tcp));
  ASSERT_TRUE(g.RemoveState("tcp").ok());
  // The ipv4->tcp transition now dangles: expected header is absent from
  // the graph, so TCP packets accept early... removal rewires to accept.
  const ParseResult r = g.Parse(tcp);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(SeenNames(r).back(), "ipv4");
}

TEST(ParseGraphTest, DuplicateStateRejected) {
  ParseGraph g = MakeStandardParseGraph();
  ParseState eth;
  eth.name = "eth";
  EXPECT_EQ(g.AddState(eth).error().code(), ErrorCode::kAlreadyExists);
}

TEST(ParseGraphTest, TransitionValidation) {
  ParseGraph g = MakeStandardParseGraph();
  EXPECT_FALSE(g.AddTransition("nope", 1, "tcp").ok());
  EXPECT_FALSE(g.AddTransition("eth", 1, "nope").ok());
  EXPECT_EQ(g.AddTransition("eth", 0x0800, "tcp").error().code(),
            ErrorCode::kAlreadyExists);
  ASSERT_TRUE(g.RemoveTransition("eth", 0x0800).ok());
  EXPECT_FALSE(g.RemoveTransition("eth", 0x0800).ok());
  // After removing the transition, IPv4 traffic is rejected.
  packet::Packet p = packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2},
                                           packet::TcpSpec{});
  EXPECT_FALSE(g.Accepts(p));
}

TEST(ParseGraphTest, MissingExpectedHeaderRejects) {
  const ParseGraph g = MakeStandardParseGraph();
  packet::Packet p(1);
  packet::AddEthernet(p, packet::EthernetSpec{});  // type says ipv4...
  EXPECT_FALSE(g.Accepts(p));                      // ...but no ipv4 header
}

TEST(ParseGraphTest, EmptyGraphRejectsEverything) {
  ParseGraph g;
  packet::Packet p = packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2},
                                           packet::TcpSpec{});
  EXPECT_FALSE(g.Accepts(p));
  EXPECT_EQ(g.state_count(), 0u);
}

TEST(ParseGraphTest, SetStartValidation) {
  ParseGraph g = MakeStandardParseGraph();
  EXPECT_FALSE(g.SetStart("nope").ok());
  ASSERT_TRUE(g.SetStart("ipv4").ok());
  // Starting at ipv4, an eth-first packet still parses because ipv4 is in
  // the stack; eth is just not visited.
  packet::Packet p = packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2},
                                           packet::TcpSpec{});
  const ParseResult r = g.Parse(p);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(SeenNames(r).front(), "ipv4");
}

TEST(ParseGraphTest, LoopingGraphRejected) {
  // eth's type 0x0800 leads back to eth: the walk visits eth, then eth
  // again, and would never end.  Running out of steps is a reject.
  ParseGraph g = MakeStandardParseGraph();
  ASSERT_TRUE(g.RemoveTransition("eth", 0x0800).ok());
  ASSERT_TRUE(g.AddTransition("eth", 0x0800, "eth").ok());
  packet::Packet p(1);
  packet::AddEthernet(p, packet::EthernetSpec{});
  const ParseResult r = g.Parse(p);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(SeenNames(r), (std::vector<std::string>{"eth", "eth"}));
  EXPECT_FALSE(g.Accepts(p));
  // The loop closes only on 0x0800; other ethertypes still reject cleanly
  // and a rewired graph accepts again.
  ASSERT_TRUE(g.RemoveTransition("eth", 0x0800).ok());
  ASSERT_TRUE(g.AddTransition("eth", 0x0800, "ipv4").ok());
  EXPECT_TRUE(g.Accepts(
      packet::MakeTcpPacket(2, packet::Ipv4Spec{1, 2}, packet::TcpSpec{})));
}

}  // namespace
}  // namespace flexnet::dataplane
