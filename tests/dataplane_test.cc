#include <gtest/gtest.h>

#include "dataplane/executor.h"
#include "dataplane/pipeline.h"
#include "dataplane/table.h"
#include "packet/packet.h"

namespace flexnet::dataplane {
namespace {

packet::Packet TcpPkt(std::uint64_t src, std::uint64_t dst,
                      std::uint64_t dport = 80) {
  return packet::MakeTcpPacket(1, packet::Ipv4Spec{src, dst},
                               packet::TcpSpec{4000, dport});
}

// --- MatchValue builders ---

TEST(MatchValueTest, LpmMaskDerivation) {
  const MatchValue m = MatchValue::Lpm(0x0a000000, 8, 32);
  EXPECT_EQ(m.mask, 0xff000000u);
  EXPECT_EQ(m.value, 0x0a000000u);
  const MatchValue all = MatchValue::Lpm(123, 0, 32);
  EXPECT_EQ(all.mask, 0u);
  EXPECT_EQ(all.value, 0u);
  const MatchValue host = MatchValue::Lpm(0x0a0b0c0d, 32, 32);
  EXPECT_EQ(host.mask, 0xffffffffu);
}

TEST(MatchValueTest, TernaryMasksValue) {
  const MatchValue m = MatchValue::Ternary(0xff12, 0xff00);
  EXPECT_EQ(m.value, 0xff00u);
}

// --- Exact matching ---

TEST(TableTest, ExactMatchHitAndMiss) {
  MatchActionTable t("acl", {{"ipv4.src", MatchKind::kExact, 32}}, 16);
  TableEntry e;
  e.match = {MatchValue::Exact(42)};
  e.action = MakeDropAction("bad");
  ASSERT_TRUE(t.AddEntry(e).ok());

  packet::Packet hit = TcpPkt(42, 1);
  EXPECT_EQ(t.Lookup(hit).name, "drop");
  packet::Packet miss = TcpPkt(43, 1);
  EXPECT_EQ(t.Lookup(miss).name, "nop");
  EXPECT_EQ(t.lookups(), 2u);
  EXPECT_EQ(t.hits(), 1u);
}

TEST(TableTest, MultiColumnExact) {
  MatchActionTable t("pair",
                     {{"ipv4.src", MatchKind::kExact, 32},
                      {"ipv4.dst", MatchKind::kExact, 32}},
                     16);
  TableEntry e;
  e.match = {MatchValue::Exact(1), MatchValue::Exact(2)};
  e.action = MakeForwardAction(7);
  ASSERT_TRUE(t.AddEntry(e).ok());
  packet::Packet both = TcpPkt(1, 2);
  EXPECT_EQ(t.Lookup(both).name, "forward");
  packet::Packet half = TcpPkt(1, 3);
  EXPECT_EQ(t.Lookup(half).name, "nop");
}

// --- LPM ---

TEST(TableTest, LongestPrefixWins) {
  MatchActionTable t("rt", {{"ipv4.dst", MatchKind::kLpm, 32}}, 16);
  TableEntry wide;
  wide.match = {MatchValue::Lpm(0x0a000000, 8, 32)};
  wide.action = MakeForwardAction(1);
  TableEntry narrow;
  narrow.match = {MatchValue::Lpm(0x0a010000, 16, 32)};
  narrow.action = MakeForwardAction(2);
  ASSERT_TRUE(t.AddEntry(wide).ok());
  ASSERT_TRUE(t.AddEntry(narrow).ok());

  packet::Packet in_narrow = TcpPkt(9, 0x0a010203);
  const Action& a = t.Lookup(in_narrow);
  ASSERT_EQ(a.ops.size(), 1u);
  EXPECT_EQ(std::get<OperandConst>(std::get<OpForward>(a.ops[0]).port).value,
            2u);

  packet::Packet in_wide = TcpPkt(9, 0x0a990000);
  const Action& b = t.Lookup(in_wide);
  EXPECT_EQ(std::get<OperandConst>(std::get<OpForward>(b.ops[0]).port).value,
            1u);
}

// --- Ternary / priority ---

TEST(TableTest, TernaryPriorityOrder) {
  MatchActionTable t("tern", {{"tcp.dport", MatchKind::kTernary, 16}}, 16);
  TableEntry low;
  low.match = {MatchValue::Wildcard()};
  low.action = MakeNopAction();
  low.priority = 1;
  TableEntry high;
  high.match = {MatchValue::Ternary(80, 0xffff)};
  high.action = MakeDropAction("http");
  high.priority = 10;
  ASSERT_TRUE(t.AddEntry(low).ok());
  ASSERT_TRUE(t.AddEntry(high).ok());
  packet::Packet http = TcpPkt(1, 2, 80);
  EXPECT_EQ(t.Lookup(http).name, "drop");
  packet::Packet ssh = TcpPkt(1, 2, 22);
  EXPECT_EQ(t.Lookup(ssh).name, "nop");
}

// --- Range ---

TEST(TableTest, RangeMatching) {
  MatchActionTable t("range", {{"tcp.dport", MatchKind::kRange, 16}}, 4);
  TableEntry e;
  e.match = {MatchValue::Range(1000, 2000)};
  e.action = MakeDropAction("ephemeral");
  ASSERT_TRUE(t.AddEntry(e).ok());
  packet::Packet inside = TcpPkt(1, 2, 1500);
  EXPECT_EQ(t.Lookup(inside).name, "drop");
  packet::Packet at_edge = TcpPkt(1, 2, 2000);
  EXPECT_EQ(t.Lookup(at_edge).name, "drop");
  packet::Packet outside = TcpPkt(1, 2, 2001);
  EXPECT_EQ(t.Lookup(outside).name, "nop");
}

// --- Capacity / arity ---

TEST(TableTest, CapacityEnforced) {
  MatchActionTable t("small", {{"ipv4.src", MatchKind::kExact, 32}}, 2);
  for (std::uint64_t i = 0; i < 2; ++i) {
    TableEntry e;
    e.match = {MatchValue::Exact(i)};
    e.action = MakeNopAction();
    ASSERT_TRUE(t.AddEntry(e).ok());
  }
  TableEntry overflow;
  overflow.match = {MatchValue::Exact(99)};
  overflow.action = MakeNopAction();
  const Status s = t.AddEntry(overflow);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kResourceExhausted);
}

TEST(TableTest, ArityMismatchRejected) {
  MatchActionTable t("k2",
                     {{"ipv4.src", MatchKind::kExact, 32},
                      {"ipv4.dst", MatchKind::kExact, 32}},
                     4);
  TableEntry e;
  e.match = {MatchValue::Exact(1)};
  e.action = MakeNopAction();
  EXPECT_EQ(t.AddEntry(e).error().code(), ErrorCode::kInvalidArgument);
}

TEST(TableTest, RemoveEntriesByMatch) {
  MatchActionTable t("rm", {{"ipv4.src", MatchKind::kExact, 32}}, 8);
  TableEntry e;
  e.match = {MatchValue::Exact(5)};
  e.action = MakeNopAction();
  ASSERT_TRUE(t.AddEntry(e).ok());
  ASSERT_TRUE(t.AddEntry(e).ok());
  EXPECT_EQ(t.RemoveEntries({MatchValue::Exact(5)}), 2u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.RemoveEntries({MatchValue::Exact(5)}), 0u);
}

TEST(TableTest, MissingFieldNeverMatches) {
  MatchActionTable t("vlan_only", {{"vlan.id", MatchKind::kExact, 12}}, 4);
  TableEntry e;
  e.match = {MatchValue::Exact(100)};
  e.action = MakeDropAction();
  ASSERT_TRUE(t.AddEntry(e).ok());
  packet::Packet no_vlan = TcpPkt(1, 2);
  EXPECT_EQ(t.Lookup(no_vlan).name, "nop");
}

TEST(TableTest, ResourceDescriptorReflectsKeyKind) {
  MatchActionTable exact("e", {{"a.b", MatchKind::kExact, 32}}, 100);
  EXPECT_EQ(exact.Resources().sram_entries, 100u);
  EXPECT_EQ(exact.Resources().tcam_entries, 0u);
  MatchActionTable tern("t", {{"a.b", MatchKind::kTernary, 32}}, 100);
  EXPECT_EQ(tern.Resources().tcam_entries, 100u);
  EXPECT_FALSE(exact.NeedsTcam());
  EXPECT_TRUE(tern.NeedsTcam());
}

// --- Stateful objects ---

TEST(StatefulTest, RegisterArrayReadWrite) {
  RegisterArray reg("r", 8);
  EXPECT_EQ(reg.Read(3), 0u);
  reg.Write(3, 42);
  reg.Add(3, 8);
  EXPECT_EQ(reg.Read(3), 50u);
  EXPECT_EQ(reg.Read(100), 0u);  // out of range reads zero
  reg.Write(100, 1);             // out of range writes ignored
  reg.Clear();
  EXPECT_EQ(reg.Read(3), 0u);
}

TEST(StatefulTest, CounterCountsPacketsAndBytes) {
  Counter c("c");
  c.Inc(100);
  c.Inc(200);
  EXPECT_EQ(c.packets(), 2u);
  EXPECT_EQ(c.bytes(), 300u);
  c.Reset();
  EXPECT_EQ(c.packets(), 0u);
}

TEST(StatefulTest, MeterRefillsOverTime) {
  Meter m("m", 1000.0, 2.0);  // 1000 pps, burst 2
  EXPECT_EQ(m.Execute(0), MeterColor::kGreen);
  EXPECT_EQ(m.Execute(0), MeterColor::kGreen);
  EXPECT_EQ(m.Execute(0), MeterColor::kRed);  // burst exhausted
  // 1ms later one token refilled.
  EXPECT_EQ(m.Execute(1 * kMillisecond), MeterColor::kGreen);
  EXPECT_EQ(m.Execute(1 * kMillisecond), MeterColor::kRed);
}

TEST(StatefulTest, FlowTableInsertOnUpdate) {
  StatefulFlowTable t("ft", 2);
  packet::FlowKey a{1, 2, 6, 3, 4};
  packet::FlowKey b{5, 6, 6, 7, 8};
  packet::FlowKey c{9, 9, 6, 9, 9};
  EXPECT_TRUE(t.Update(a, "pkts", 1, 0));
  EXPECT_TRUE(t.Update(a, "pkts", 1, 0));
  EXPECT_TRUE(t.Update(b, "pkts", 1, 0));
  EXPECT_FALSE(t.Update(c, "pkts", 1, 0));  // full
  EXPECT_EQ(t.Read(a, "pkts"), 2u);
  EXPECT_FALSE(t.Read(c, "pkts").has_value());
  EXPECT_TRUE(t.Remove(a));
  EXPECT_TRUE(t.Update(c, "pkts", 1, 0));  // room again
}

TEST(StatefulTest, FlowTableIdleExpiry) {
  StatefulFlowTable t("ft", 16, 100);
  packet::FlowKey a{1, 2, 6, 3, 4};
  packet::FlowKey b{5, 6, 6, 7, 8};
  t.Update(a, "pkts", 1, 0);
  t.Update(b, "pkts", 1, 150);
  EXPECT_EQ(t.ExpireIdle(200), 1u);  // a idle since 0
  EXPECT_FALSE(t.Read(a, "pkts").has_value());
  EXPECT_TRUE(t.Read(b, "pkts").has_value());
}

TEST(StatefulTest, FlowInstructionSlots) {
  FlowInstructionState fis("f", 64);
  packet::FlowKey k{1, 2, 6, 3, 4};
  fis.Write(k, 0, 10);
  fis.Add(k, 0, 5);
  fis.Write(k, 1, 99);
  EXPECT_EQ(fis.Read(k, 0), 15u);
  EXPECT_EQ(fis.Read(k, 1), 99u);
  // Slot index wraps at kSlotsPerFlow.
  fis.Write(k, FlowInstructionState::kSlotsPerFlow, 7);
  EXPECT_EQ(fis.Read(k, 0), 7u);
}

TEST(StatefulTest, StateObjectsRegistryUniqueNames) {
  StateObjects objs;
  ASSERT_TRUE(objs.AddRegisterArray("r", 8).ok());
  EXPECT_FALSE(objs.AddRegisterArray("r", 8).ok());
  ASSERT_TRUE(objs.AddCounter("c").ok());
  ASSERT_TRUE(objs.AddMeter("m", 100, 10).ok());
  ASSERT_TRUE(objs.AddFlowTable("ft", 128).ok());
  EXPECT_NE(objs.FindRegisterArray("r"), nullptr);
  EXPECT_EQ(objs.FindRegisterArray("zzz"), nullptr);
  EXPECT_EQ(objs.Names().size(), 4u);
  EXPECT_TRUE(objs.Remove("r"));
  EXPECT_FALSE(objs.Remove("r"));
}

// --- Executor ---

TEST(ExecutorTest, SetAddForwardOps) {
  StateObjects state;
  ActionExecutor exec(&state);
  packet::Packet p = TcpPkt(1, 2);
  Action a;
  a.name = "multi";
  a.ops.push_back(OpSetField{"ipv4.dscp", OperandConst{46}});
  a.ops.push_back(OpAddField{"ipv4.ttl", OperandConst{~0ULL}});
  a.ops.push_back(OpForward{OperandConst{9}});
  const ExecResult r = exec.Execute(a, p, 0);
  EXPECT_FALSE(r.dropped);
  EXPECT_EQ(r.ops_executed, 3u);
  EXPECT_EQ(p.GetField("ipv4.dscp"), 46u);
  EXPECT_EQ(p.GetField("ipv4.ttl"), 63u);
  EXPECT_EQ(p.egress_port, 9u);
}

TEST(ExecutorTest, DropShortCircuits) {
  StateObjects state;
  ActionExecutor exec(&state);
  packet::Packet p = TcpPkt(1, 2);
  Action a;
  a.ops.push_back(OpDrop{"test"});
  a.ops.push_back(OpSetField{"ipv4.dscp", OperandConst{1}});
  const ExecResult r = exec.Execute(a, p, 0);
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(r.ops_executed, 1u);
  EXPECT_NE(p.GetField("ipv4.dscp"), 1u);
}

TEST(ExecutorTest, OperandFieldReadsPacket) {
  StateObjects state;
  ActionExecutor exec(&state);
  packet::Packet p = TcpPkt(77, 2);
  Action a;
  a.ops.push_back(OpSetField{"meta.copy", OperandField{"ipv4.src"}});
  exec.Execute(a, p, 0);
  EXPECT_EQ(p.GetMeta("copy"), 77u);
}

TEST(ExecutorTest, RegisterAndCounterOps) {
  StateObjects state;
  ASSERT_TRUE(state.AddRegisterArray("reg", 16).ok());
  ASSERT_TRUE(state.AddCounter("cnt").ok());
  ActionExecutor exec(&state);
  packet::Packet p = TcpPkt(1, 2);
  Action a;
  a.ops.push_back(OpRegisterWrite{"reg", OperandConst{3}, OperandConst{10}});
  a.ops.push_back(OpRegisterAdd{"reg", OperandConst{3}, OperandConst{5}});
  a.ops.push_back(OpCounterInc{"cnt"});
  exec.Execute(a, p, 0);
  EXPECT_EQ(state.FindRegisterArray("reg")->Read(3), 15u);
  EXPECT_EQ(state.FindCounter("cnt")->packets(), 1u);
}

TEST(ExecutorTest, FlowStateUpdateUsesFiveTuple) {
  StateObjects state;
  ASSERT_TRUE(state.AddFlowTable("ft", 64).ok());
  ActionExecutor exec(&state);
  packet::Packet p = TcpPkt(1, 2);
  Action a;
  a.ops.push_back(OpFlowStateUpdate{"ft", "pkts", OperandConst{1}});
  exec.Execute(a, p, 0);
  exec.Execute(a, p, 0);
  const auto key = packet::ExtractFlowKey(p);
  EXPECT_EQ(state.FindFlowTable("ft")->Read(*key, "pkts"), 2u);
}

TEST(ExecutorTest, MissingStateObjectIsNoop) {
  StateObjects state;
  ActionExecutor exec(&state);
  packet::Packet p = TcpPkt(1, 2);
  Action a;
  a.ops.push_back(OpCounterInc{"nope"});
  const ExecResult r = exec.Execute(a, p, 0);
  EXPECT_EQ(r.ops_executed, 1u);
  EXPECT_FALSE(r.dropped);
}

// --- Pipeline ---

TEST(PipelineTest, TablesExecuteInOrder) {
  Pipeline pipe;
  auto t1 = pipe.AddTable("first", {{"ipv4.src", MatchKind::kExact, 32}}, 4);
  ASSERT_TRUE(t1.ok());
  TableEntry mark;
  mark.match = {MatchValue::Exact(1)};
  mark.action.name = "mark";
  mark.action.ops.push_back(OpSetField{"meta.seen", OperandConst{1}});
  ASSERT_TRUE(t1.value()->AddEntry(mark).ok());

  auto t2 = pipe.AddTable("second", {{"meta.seen", MatchKind::kExact, 1}}, 4);
  ASSERT_TRUE(t2.ok());
  TableEntry drop;
  drop.match = {MatchValue::Exact(1)};
  drop.action = MakeDropAction("chained");
  ASSERT_TRUE(t2.value()->AddEntry(drop).ok());

  packet::Packet p = TcpPkt(1, 2);
  const PipelineResult r = pipe.Process(p, 0);
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(p.drop_reason(), "chained");
  EXPECT_EQ(r.tables_traversed, 2u);
}

TEST(PipelineTest, InsertAtPositionAndMove) {
  Pipeline pipe;
  ASSERT_TRUE(pipe.AddTable("b", {{"x.y", MatchKind::kExact, 8}}, 4).ok());
  ASSERT_TRUE(pipe.AddTable("a", {{"x.y", MatchKind::kExact, 8}}, 4, 0).ok());
  ASSERT_TRUE(pipe.AddTable("c", {{"x.y", MatchKind::kExact, 8}}, 4).ok());
  EXPECT_EQ(pipe.TableNames(), (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_TRUE(pipe.MoveTable("c", 0).ok());
  EXPECT_EQ(pipe.IndexOf("c"), 0u);
  EXPECT_FALSE(pipe.MoveTable("zzz", 0).ok());
}

TEST(PipelineTest, DuplicateTableNameRejected) {
  Pipeline pipe;
  ASSERT_TRUE(pipe.AddTable("t", {{"x.y", MatchKind::kExact, 8}}, 4).ok());
  EXPECT_EQ(pipe.AddTable("t", {{"x.y", MatchKind::kExact, 8}}, 4)
                .error()
                .code(),
            ErrorCode::kAlreadyExists);
}

TEST(PipelineTest, RemoveTable) {
  Pipeline pipe;
  ASSERT_TRUE(pipe.AddTable("t", {{"x.y", MatchKind::kExact, 8}}, 4).ok());
  ASSERT_TRUE(pipe.RemoveTable("t").ok());
  EXPECT_EQ(pipe.table_count(), 0u);
  EXPECT_FALSE(pipe.RemoveTable("t").ok());
}

TEST(PipelineTest, LoopingParseGraphRejectsThroughTheCache) {
  Pipeline pipe;
  ASSERT_TRUE(pipe.AddTable("t", {{"eth.dst", MatchKind::kExact, 48}}, 4).ok());
  ASSERT_TRUE(pipe.parser().RemoveTransition("eth", 0x0800).ok());
  ASSERT_TRUE(pipe.parser().AddTransition("eth", 0x0800, "eth").ok());
  // The slow path memoizes the reject; the second packet replays it.
  for (std::uint64_t id = 1; id <= 2; ++id) {
    packet::Packet p(id);
    packet::AddEthernet(p, packet::EthernetSpec{});
    const PipelineResult r = pipe.Process(p, 0);
    EXPECT_TRUE(r.dropped);
    EXPECT_EQ(p.drop_reason(), "parse_reject");
    EXPECT_EQ(r.tables_traversed, 0u);
  }
  EXPECT_EQ(pipe.megaflow_misses(), 1u);
  EXPECT_EQ(pipe.megaflow_hits(), 1u);
  // With the cache off the walk itself rejects.
  pipe.set_flow_cache_enabled(false);
  packet::Packet p(3);
  packet::AddEthernet(p, packet::EthernetSpec{});
  EXPECT_TRUE(pipe.Process(p, 0).dropped);
  EXPECT_EQ(p.drop_reason(), "parse_reject");
}

TEST(PipelineTest, UnparseablePacketDropped) {
  Pipeline pipe;  // standard parse graph
  packet::Packet p(1);
  p.PushHeader("mystery");
  const PipelineResult r = pipe.Process(p, 0);
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(p.drop_reason(), "parse_reject");
  EXPECT_EQ(r.tables_traversed, 0u);
}

}  // namespace
}  // namespace flexnet::dataplane
