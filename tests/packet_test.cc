#include <gtest/gtest.h>

#include "packet/batch.h"
#include "packet/flow.h"
#include "packet/packet.h"

namespace flexnet::packet {
namespace {

TEST(PacketTest, HeaderStackPushFind) {
  Packet p(1);
  AddEthernet(p, EthernetSpec{0xaa, 0xbb, 0x0800});
  AddIpv4(p, Ipv4Spec{10, 20, 6, 64, 0});
  EXPECT_TRUE(p.HasHeader("eth"));
  EXPECT_TRUE(p.HasHeader("ipv4"));
  EXPECT_FALSE(p.HasHeader("tcp"));
  EXPECT_EQ(p.headers().size(), 2u);
}

TEST(PacketTest, DottedFieldAccess) {
  Packet p = MakeTcpPacket(1, Ipv4Spec{100, 200, 6, 64, 0},
                           TcpSpec{1234, 80, 0x10, 0});
  EXPECT_EQ(p.GetField("ipv4.src"), 100u);
  EXPECT_EQ(p.GetField("ipv4.dst"), 200u);
  EXPECT_EQ(p.GetField("tcp.dport"), 80u);
  EXPECT_EQ(p.GetField("eth.type"), 0x0800u);
  EXPECT_FALSE(p.GetField("udp.dport").has_value());
  EXPECT_FALSE(p.GetField("nodot").has_value());
  EXPECT_FALSE(p.GetField("ipv4.nofield").has_value());
}

TEST(PacketTest, SetFieldUpdatesAndFailsOnMissingHeader) {
  Packet p = MakeTcpPacket(1, Ipv4Spec{1, 2}, TcpSpec{});
  EXPECT_TRUE(p.SetField("ipv4.ttl", 32));
  EXPECT_EQ(p.GetField("ipv4.ttl"), 32u);
  EXPECT_FALSE(p.SetField("vlan.id", 5));
}

TEST(PacketTest, MetaNamespace) {
  Packet p(1);
  EXPECT_FALSE(p.GetMeta("mark").has_value());
  p.SetMeta("mark", 7);
  EXPECT_EQ(p.GetMeta("mark"), 7u);
  EXPECT_EQ(p.GetField("meta.mark"), 7u);
  EXPECT_TRUE(p.SetField("meta.other", 9));
  EXPECT_EQ(p.GetMeta("other"), 9u);
  p.ClearMeta();
  EXPECT_FALSE(p.GetMeta("mark").has_value());
}

TEST(PacketTest, PopHeaderRemovesOnlyNamed) {
  Packet p(1);
  AddEthernet(p, EthernetSpec{});
  AddVlan(p, 100);
  AddIpv4(p, Ipv4Spec{});
  EXPECT_TRUE(p.PopHeader("vlan"));
  EXPECT_FALSE(p.HasHeader("vlan"));
  EXPECT_TRUE(p.HasHeader("eth"));
  EXPECT_TRUE(p.HasHeader("ipv4"));
  EXPECT_FALSE(p.PopHeader("vlan"));
}

TEST(PacketTest, DropMarking) {
  Packet p(1);
  EXPECT_FALSE(p.dropped());
  p.MarkDropped("acl");
  EXPECT_TRUE(p.dropped());
  EXPECT_EQ(p.drop_reason(), "acl");
}

TEST(PacketTest, HopTraceRecordsVersions) {
  Packet p(1);
  p.RecordHop(DeviceId(1), 3, 100);
  p.RecordHop(DeviceId(2), 5, 200);
  ASSERT_EQ(p.trace().size(), 2u);
  EXPECT_EQ(p.trace()[0].program_version, 3u);
  EXPECT_EQ(p.trace()[1].device, DeviceId(2));
}

TEST(PacketTest, UdpFactorySetsProto) {
  Packet p = MakeUdpPacket(9, Ipv4Spec{1, 2}, UdpSpec{53, 53});
  EXPECT_EQ(p.GetField("ipv4.proto"), 17u);
  EXPECT_EQ(p.GetField("udp.sport"), 53u);
}

TEST(FlowTest, ExtractFiveTuple) {
  Packet p = MakeTcpPacket(1, Ipv4Spec{11, 22}, TcpSpec{333, 444});
  const auto key = ExtractFlowKey(p);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->src_ip, 11u);
  EXPECT_EQ(key->dst_ip, 22u);
  EXPECT_EQ(key->proto, 6u);
  EXPECT_EQ(key->src_port, 333u);
  EXPECT_EQ(key->dst_port, 444u);
}

TEST(FlowTest, NoIpv4MeansNoKey) {
  Packet p(1);
  AddEthernet(p, EthernetSpec{});
  EXPECT_FALSE(ExtractFlowKey(p).has_value());
}

TEST(FlowTest, UdpPortsExtracted) {
  Packet p = MakeUdpPacket(1, Ipv4Spec{1, 2}, UdpSpec{1000, 2000});
  const auto key = ExtractFlowKey(p);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(key->src_port, 1000u);
  EXPECT_EQ(key->dst_port, 2000u);
}

TEST(FlowTest, HashStableAndSensitive) {
  FlowKey a{1, 2, 6, 10, 20};
  FlowKey b{1, 2, 6, 10, 20};
  FlowKey c{1, 2, 6, 10, 21};
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FlowTest, ToTextFormat) {
  FlowKey k{1, 2, 6, 10, 20};
  EXPECT_EQ(k.ToText(), "1:10->2:20/6");
}

TEST(BatchArenaTest, RecycledBufferReturnsWithCapacityIntact) {
  BatchArena arena(8);
  PacketBatch batch = arena.Acquire();
  EXPECT_EQ(batch.capacity(), 8u);
  for (std::uint64_t i = 0; i < 12; ++i) batch.Push(Packet(i));  // grows
  const std::size_t grown = batch.capacity();
  const Packet* storage = batch.span().data();
  arena.Recycle(std::move(batch));
  EXPECT_EQ(arena.pooled(), 1u);

  PacketBatch reused = arena.Acquire();
  EXPECT_EQ(arena.reuses(), 1u);
  EXPECT_EQ(arena.pooled(), 0u);
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(reused.capacity(), grown);
  EXPECT_EQ(reused.span().data(), storage);  // the very same buffer

  PacketBatch fresh = arena.Acquire();  // pool empty: a new reservation
  EXPECT_EQ(fresh.capacity(), 8u);
}

}  // namespace
}  // namespace flexnet::packet
