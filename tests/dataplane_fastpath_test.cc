// Fast-path coverage: ternary/range priority ordering, the randomized
// differential check of the indexed lookup against the retained reference
// scan, and flow-cache invalidation across every mutation source
// (entry churn, table moves, default actions, parser edits, reflash).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/drmt.h"
#include "common/rng.h"
#include "dataplane/pipeline.h"
#include "packet/packet.h"
#include "runtime/engine.h"
#include "runtime/managed_device.h"
#include "telemetry/telemetry.h"

namespace flexnet::dataplane {
namespace {

packet::Packet TcpPkt(std::uint64_t src, std::uint64_t dst = 2,
                      std::uint64_t dport = 80) {
  return packet::MakeTcpPacket(1, packet::Ipv4Spec{src, dst},
                               packet::TcpSpec{4000, dport});
}

// --- Satellite regression: priority among overlapping ternary entries ---

TEST(TernaryPriorityTest, HigherPriorityWinsWhenInsertedSecond) {
  MatchActionTable t("acl", {{"ipv4.src", MatchKind::kTernary, 32}}, 16);
  TableEntry low;
  low.match = {MatchValue::Ternary(0x0a00, 0xff00)};  // 10.x wildcard
  low.action = MakeForwardAction(1);
  low.priority = 1;
  TableEntry high;
  high.match = {MatchValue::Ternary(0x0a0a, 0xffff)};  // exact-ish overlap
  high.action = MakeForwardAction(2);
  high.priority = 9;
  ASSERT_TRUE(t.AddEntry(low).ok());   // lower priority inserted FIRST
  ASSERT_TRUE(t.AddEntry(high).ok());

  packet::Packet both = TcpPkt(0x0a0a);  // matches both entries
  const TableEntry* hit = t.MatchEntry(both);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 9);
  EXPECT_EQ(t.MatchEntryReference(both), hit);

  packet::Packet wide_only = TcpPkt(0x0a01);
  const TableEntry* wide = t.MatchEntry(wide_only);
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->priority, 1);
}

TEST(TernaryPriorityTest, EqualPriorityFallsBackToInsertionOrder) {
  MatchActionTable t("acl",
                     {{"tcp.dport", MatchKind::kRange, 16}}, 16);
  TableEntry first;
  first.match = {MatchValue::Range(10, 90)};
  first.action = MakeForwardAction(1);
  TableEntry second;
  second.match = {MatchValue::Range(50, 120)};
  second.action = MakeForwardAction(2);
  ASSERT_TRUE(t.AddEntry(first).ok());
  ASSERT_TRUE(t.AddEntry(second).ok());
  packet::Packet overlap = TcpPkt(1, 2, 80);  // in both ranges
  const TableEntry* hit = t.MatchEntry(overlap);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<OpForward>(hit->action.ops[0]),
            std::get<OpForward>(first.action.ops[0]));
}

// --- Satellite: randomized differential test, indexed vs reference ---

struct Shape {
  std::string name;
  std::vector<KeySpec> key;
};

MatchValue RandomMatch(Rng& rng, MatchKind kind) {
  switch (kind) {
    case MatchKind::kExact:
      return MatchValue::Exact(rng.NextBounded(16));
    case MatchKind::kLpm:
      return MatchValue::Lpm(rng.NextBounded(16),
                             28 + static_cast<std::uint32_t>(
                                      rng.NextBounded(5)),  // /28../32
                             32);
    case MatchKind::kTernary:
      return MatchValue::Ternary(rng.NextBounded(16), rng.NextBounded(16));
    case MatchKind::kRange: {
      const std::uint64_t lo = rng.NextBounded(16);
      return MatchValue::Range(lo, lo + rng.NextBounded(4));
    }
  }
  return MatchValue::Wildcard();
}

TEST(DifferentialTest, IndexedLookupAgreesWithReferenceUnderChurn) {
  const std::vector<Shape> shapes = {
      {"exact2",
       {{"ipv4.src", MatchKind::kExact, 32},
        {"tcp.dport", MatchKind::kExact, 16}}},
      {"lpm1", {{"ipv4.dst", MatchKind::kLpm, 32}}},
      {"exact_lpm",
       {{"ipv4.src", MatchKind::kExact, 32},
        {"ipv4.dst", MatchKind::kLpm, 32}}},
      {"mixed",
       {{"ipv4.src", MatchKind::kTernary, 32},
        {"ipv4.dst", MatchKind::kLpm, 32},
        {"tcp.dport", MatchKind::kRange, 16}}},
  };
  Rng rng(0xf457f10);
  for (const Shape& shape : shapes) {
    MatchActionTable t(shape.name, shape.key, 512);
    std::vector<std::vector<MatchValue>> live;
    for (int round = 0; round < 300; ++round) {
      // Churn: mostly adds, with removals once entries accumulate.
      if (!live.empty() && rng.NextBounded(4) == 0) {
        // RemoveEntries drops every entry with this match, so purge all
        // copies from the shadow list too (random matches can collide).
        const std::vector<MatchValue> victim =
            live[rng.NextBounded(live.size())];
        EXPECT_GE(t.RemoveEntries(victim), 1u);
        live.erase(std::remove(live.begin(), live.end(), victim),
                   live.end());
      } else {
        TableEntry e;
        for (const KeySpec& k : shape.key) {
          e.match.push_back(RandomMatch(rng, k.kind));
        }
        e.priority = static_cast<std::int32_t>(rng.NextBounded(4));
        ASSERT_TRUE(t.AddEntry(e).ok());
        live.push_back(e.match);
      }
      // Probe: the overlap-heavy value domain exercises priority and
      // longest-prefix tie-breaks, not just hit/miss.
      for (int probe = 0; probe < 8; ++probe) {
        const packet::Packet p = TcpPkt(rng.NextBounded(16),
                                        rng.NextBounded(16),
                                        rng.NextBounded(16));
        EXPECT_EQ(t.MatchEntry(p), t.MatchEntryReference(p))
            << shape.name << " diverged at round " << round;
      }
    }
  }
}

// --- Satellite: flow cache invalidation ---

TEST(FlowCacheTest, SecondPacketOfAFlowHitsTheCache) {
  Pipeline pl;
  auto* t = pl.AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  TableEntry e;
  e.match = {MatchValue::Exact(1)};
  e.action = MakeForwardAction(7);
  ASSERT_TRUE(t->AddEntry(e).ok());

  packet::Packet p1 = TcpPkt(1);
  EXPECT_FALSE(pl.Process(p1, 0).megaflow_hit);
  EXPECT_EQ(p1.egress_port, 7u);
  packet::Packet p2 = TcpPkt(1);
  EXPECT_TRUE(pl.Process(p2, 0).megaflow_hit);
  EXPECT_EQ(p2.egress_port, 7u);
  EXPECT_EQ(pl.megaflow_hits(), 1u);
  EXPECT_EQ(pl.megaflow_misses(), 1u);
}

TEST(FlowCacheTest, AddEntryInvalidatesAndReResolves) {
  Pipeline pl;
  auto* t = pl.AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  packet::Packet warm = TcpPkt(2);
  (void)pl.Process(warm, 0);
  EXPECT_EQ(warm.egress_port, 0u);  // default nop
  packet::Packet hit = TcpPkt(2);
  EXPECT_TRUE(pl.Process(hit, 0).megaflow_hit);

  TableEntry e;
  e.match = {MatchValue::Exact(2)};
  e.action = MakeForwardAction(9);
  ASSERT_TRUE(t->AddEntry(e).ok());

  packet::Packet after = TcpPkt(2);
  const PipelineResult r = pl.Process(after, 0);
  EXPECT_FALSE(r.megaflow_hit);  // epoch bump voided the memoized steps
  EXPECT_EQ(after.egress_port, 9u);
  packet::Packet again = TcpPkt(2);
  EXPECT_TRUE(pl.Process(again, 0).megaflow_hit);
  EXPECT_EQ(again.egress_port, 9u);
}

TEST(FlowCacheTest, RemoveEntriesInvalidatesAndReResolves) {
  Pipeline pl;
  auto* t = pl.AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  TableEntry e;
  e.match = {MatchValue::Exact(3)};
  e.action = MakeForwardAction(5);
  ASSERT_TRUE(t->AddEntry(e).ok());
  packet::Packet warm = TcpPkt(3);
  (void)pl.Process(warm, 0);
  EXPECT_EQ(warm.egress_port, 5u);

  EXPECT_EQ(t->RemoveEntries({MatchValue::Exact(3)}), 1u);
  packet::Packet after = TcpPkt(3);
  EXPECT_FALSE(pl.Process(after, 0).megaflow_hit);
  EXPECT_EQ(after.egress_port, 0u);  // back to the default action
}

TEST(FlowCacheTest, MoveTableInvalidatesAndReordersExecution) {
  Pipeline pl;
  auto* a = pl.AddTable("a", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  auto* b = pl.AddTable("b", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  TableEntry ea;
  ea.match = {MatchValue::Exact(4)};
  ea.action = MakeForwardAction(1);
  ASSERT_TRUE(a->AddEntry(ea).ok());
  TableEntry eb;
  eb.match = {MatchValue::Exact(4)};
  eb.action = MakeForwardAction(2);
  ASSERT_TRUE(b->AddEntry(eb).ok());

  packet::Packet warm = TcpPkt(4);
  (void)pl.Process(warm, 0);
  EXPECT_EQ(warm.egress_port, 2u);  // b ran last
  packet::Packet hit = TcpPkt(4);
  EXPECT_TRUE(pl.Process(hit, 0).megaflow_hit);

  ASSERT_TRUE(pl.MoveTable("b", 0).ok());
  packet::Packet after = TcpPkt(4);
  EXPECT_FALSE(pl.Process(after, 0).megaflow_hit);
  EXPECT_EQ(after.egress_port, 1u);  // a runs last now
}

TEST(FlowCacheTest, RemoveTableInvalidates) {
  Pipeline pl;
  auto* t = pl.AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  TableEntry e;
  e.match = {MatchValue::Exact(5)};
  e.action = MakeForwardAction(6);
  ASSERT_TRUE(t->AddEntry(e).ok());
  packet::Packet warm = TcpPkt(5);
  (void)pl.Process(warm, 0);
  EXPECT_EQ(warm.egress_port, 6u);

  ASSERT_TRUE(pl.RemoveTable("fwd").ok());
  packet::Packet after = TcpPkt(5);
  EXPECT_FALSE(pl.Process(after, 0).megaflow_hit);
  EXPECT_EQ(after.egress_port, 0u);
}

TEST(FlowCacheTest, DefaultActionChangeInvalidates) {
  Pipeline pl;
  auto* t = pl.AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  packet::Packet warm = TcpPkt(6);
  (void)pl.Process(warm, 0);
  t->SetDefaultAction(MakeForwardAction(8));
  packet::Packet after = TcpPkt(6);
  EXPECT_FALSE(pl.Process(after, 0).megaflow_hit);
  EXPECT_EQ(after.egress_port, 8u);
}

TEST(FlowCacheTest, ParserMutationInvalidatesMemoizedVerdicts) {
  // Needs at least one table: table-less pipelines bypass the cache (the
  // probe would cost more than the parse it memoizes).
  Pipeline pl;
  ASSERT_TRUE(pl.AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                  .ok());
  packet::Packet warm = TcpPkt(7);
  EXPECT_FALSE(pl.Process(warm, 0).dropped);
  packet::Packet hit = TcpPkt(7);
  EXPECT_TRUE(pl.Process(hit, 0).megaflow_hit);

  // Unwiring eth's IPv4 transition makes the same packet unparseable
  // (no transition, no default); the memoized accept must not survive.
  ASSERT_TRUE(pl.parser().RemoveTransition("eth", 0x0800).ok());
  packet::Packet after = TcpPkt(7);
  const PipelineResult r = pl.Process(after, 0);
  EXPECT_FALSE(r.megaflow_hit);
  EXPECT_TRUE(r.dropped);
  EXPECT_TRUE(after.dropped());
}

TEST(FlowCacheTest, RuntimeReflashInvalidates) {
  sim::Simulator sim;
  runtime::ManagedDevice dev(
      std::make_unique<arch::DrmtDevice>(DeviceId(1), "sw"));
  Pipeline& pl = dev.device().pipeline();
  // A resident table so the cache engages pre-reflash (table-less
  // pipelines bypass it).
  ASSERT_TRUE(pl.AddTable("resident", {{"ipv4.src", MatchKind::kExact, 32}},
                          16).ok());

  packet::Packet warm = TcpPkt(8);
  dev.Process(warm, sim.now());
  packet::Packet hit = TcpPkt(8);
  dev.Process(hit, sim.now());
  EXPECT_EQ(pl.megaflow_hits(), 1u);

  // Drain-reflash a program that drops src=8.
  flexbpf::TableDecl t;
  t.name = "deny";
  t.key = {{"ipv4.src", MatchKind::kExact, 32}};
  t.capacity = 16;
  Action deny = MakeDropAction("blocked");
  deny.name = "deny";
  t.actions.push_back(deny);
  flexbpf::InitialEntry e;
  e.match = {MatchValue::Exact(8)};
  e.action_name = "deny";
  t.entries.push_back(e);
  runtime::RuntimeEngine engine(&sim);
  runtime::ReconfigPlan plan;
  plan.steps.push_back(runtime::StepAddTable{t, 0});
  engine.ApplyDrain(dev, plan);
  sim.Run();

  const std::uint64_t hits_before = pl.megaflow_hits();
  packet::Packet after = TcpPkt(8);
  dev.Process(after, sim.now());
  EXPECT_TRUE(after.dropped());  // re-resolved against the new program
  EXPECT_EQ(pl.megaflow_hits(), hits_before);
}

TEST(FlowCacheTest, MeterActionsAreNeverCached) {
  Pipeline pl;
  auto* t = pl.AddTable("meter", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  TableEntry e;
  e.match = {MatchValue::Exact(9)};
  e.action.name = "police";
  e.action.ops.push_back(OpMeterExec{"m", "meta.color"});
  ASSERT_TRUE(t->AddEntry(e).ok());

  packet::Packet p1 = TcpPkt(9);
  EXPECT_FALSE(pl.Process(p1, 0).megaflow_hit);
  packet::Packet p2 = TcpPkt(9);
  EXPECT_FALSE(pl.Process(p2, 0).megaflow_hit);
  EXPECT_EQ(pl.megaflow_misses(), 2u);
}

TEST(FlowCacheTest, CachedHitsKeepLookupAndHitAccounting) {
  Pipeline cached;
  Pipeline uncached;
  uncached.set_flow_cache_enabled(false);
  for (Pipeline* pl : {&cached, &uncached}) {
    auto* t = pl->AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                  .value();
    TableEntry e;
    e.match = {MatchValue::Exact(1)};
    e.action = MakeForwardAction(3);
    ASSERT_TRUE(t->AddEntry(e).ok());
  }
  for (int i = 0; i < 10; ++i) {
    packet::Packet a = TcpPkt(1);
    packet::Packet b = TcpPkt(1);
    (void)cached.Process(a, 0);
    (void)uncached.Process(b, 0);
    packet::Packet c = TcpPkt(2);  // default-action flow
    packet::Packet d = TcpPkt(2);
    (void)cached.Process(c, 0);
    (void)uncached.Process(d, 0);
  }
  const MatchActionTable* ct = cached.FindTable("fwd");
  const MatchActionTable* ut = uncached.FindTable("fwd");
  EXPECT_EQ(ct->lookups(), ut->lookups());
  EXPECT_EQ(ct->hits(), ut->hits());
  EXPECT_EQ(ct->entries()[0].hit_count, ut->entries()[0].hit_count);
  EXPECT_GT(cached.megaflow_hits(), 0u);
}

// --- Satellite: telemetry counters reach ExportJson ---

TEST(FastPathMetricsTest, PublishMetricsExportsAllCounters) {
  Pipeline pl;
  auto* exact = pl.AddTable("e", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                    .value();
  (void)exact;
  auto* scan = pl.AddTable("s", {{"ipv4.src", MatchKind::kTernary, 32}}, 16)
                   .value();
  (void)scan;
  for (int i = 0; i < 4; ++i) {
    packet::Packet p = TcpPkt(static_cast<std::uint64_t>(i % 2));
    (void)pl.Process(p, 0);
  }
  telemetry::MetricsRegistry registry;
  pl.PublishMetrics(registry);
  const std::string json = telemetry::ExportJson(registry, "fastpath");
  for (const char* name :
       {"dataplane_flowcache_invalidations", "dataplane_megaflow_hits",
        "dataplane_megaflow_misses", "dataplane_megaflow_evictions",
        "dataplane_megaflow_stale_reclaimed", "dataplane_megaflow_size",
        "dataplane_megaflow_masks", "table_lookup_indexed",
        "table_lookup_scanned"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_GT(registry.CounterNamed("table_lookup_indexed").value(), 0u);
  EXPECT_GT(registry.CounterNamed("table_lookup_scanned").value(), 0u);
}

}  // namespace
}  // namespace flexnet::dataplane
