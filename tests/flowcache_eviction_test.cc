// Megaflow cache eviction and wildcard regression coverage.
//
// The bugs pinned here: an early cache handled overflow by silently
// clearing the whole map (hot flows paid a re-resolve storm and telemetry
// showed nothing), and dead-epoch entries were never reclaimed (live flows
// paid eviction pressure for corpses, and a device whose program kept
// changing piled them up).  Now overflow runs CLOCK, clears count as
// evictions, the first lookup after an epoch bump releases the dead epoch
// whole, and one wildcard entry covers a whole prefix.  An
// exact-key table makes every distinct key its own entry, which is how the
// CLOCK tests below put the cache under per-flow pressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dataplane/pipeline.h"
#include "packet/packet.h"
#include "telemetry/telemetry.h"

namespace flexnet::dataplane {
namespace {

packet::Packet FlowPkt(std::uint64_t src, std::uint64_t dst = 2,
                       std::uint64_t sport = 4000,
                       std::uint64_t dport = 80) {
  return packet::MakeTcpPacket(1, packet::Ipv4Spec{src, dst},
                               packet::TcpSpec{sport, dport});
}

MatchActionTable* AddExactSrcTable(Pipeline& pl, std::uint32_t port = 7) {
  auto* t = pl.AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 64)
                .value();
  TableEntry e;
  e.match = {MatchValue::Exact(1)};
  e.action = MakeForwardAction(port);
  EXPECT_TRUE(t->AddEntry(e).ok());
  return t;
}

// --- CLOCK eviction: hot flows survive capacity pressure ---

TEST(FlowCacheEvictionTest, HotFlowsSurviveMousePressure) {
  Pipeline pl;
  pl.set_megaflow_cap(64);
  AddExactSrcTable(pl);

  constexpr std::uint64_t kHotBase = 1000;
  constexpr std::uint64_t kMiceBase = 100000;
  constexpr int kHot = 8;
  for (int h = 0; h < kHot; ++h) {
    packet::Packet p = FlowPkt(kHotBase + h);
    (void)pl.Process(p, 0);
  }
  // 1000 one-shot mice stream past while the hot set is re-referenced
  // round-robin: CLOCK must evict the mice, not the hot flows.  The old
  // clear-on-overflow behavior dropped the hot set with every overflow.
  int hot_hits = 0;
  int hot_refs = 0;
  for (int m = 0; m < 1000; ++m) {
    packet::Packet mouse = FlowPkt(kMiceBase + m);
    (void)pl.Process(mouse, 0);
    packet::Packet hot = FlowPkt(kHotBase + (m % kHot));
    if (m >= 500) {  // past the warm-up transient
      ++hot_refs;
      if (pl.Process(hot, 0).megaflow_hit) ++hot_hits;
    } else {
      (void)pl.Process(hot, 0);
    }
  }
  EXPECT_GT(pl.megaflow_evictions(), 500u);  // mice churned through
  EXPECT_GE(hot_hits, hot_refs * 9 / 10) << hot_hits << "/" << hot_refs;
  // Steady state: every hot flow is still resident.
  for (int h = 0; h < kHot; ++h) {
    packet::Packet p = FlowPkt(kHotBase + h);
    EXPECT_TRUE(pl.Process(p, 0).megaflow_hit) << "hot flow " << h;
  }
  EXPECT_EQ(pl.megaflow_size(), 64u);
}

// --- Eviction accounting: every removal shows up in the counters ---

TEST(FlowCacheEvictionTest, EvictionCountersMatchObservedRemovals) {
  Pipeline pl;
  pl.set_megaflow_cap(32);
  AddExactSrcTable(pl);

  for (int i = 0; i < 100; ++i) {
    packet::Packet p = FlowPkt(5000 + i);
    (void)pl.Process(p, 0);
  }
  EXPECT_EQ(pl.megaflow_size(), 32u);
  EXPECT_EQ(pl.megaflow_evictions(), 68u);  // 100 installs - 32 resident

  // Disabling the cache is a wholesale clear; the regression was that such
  // clears were invisible in telemetry.  They count as evictions now.
  pl.set_flow_cache_enabled(false);
  EXPECT_EQ(pl.megaflow_size(), 0u);
  EXPECT_EQ(pl.megaflow_evictions(), 100u);

  telemetry::MetricsRegistry registry;
  pl.PublishMetrics(registry);
  EXPECT_EQ(registry.CounterNamed("dataplane_megaflow_evictions").value(),
            pl.megaflow_evictions());
  EXPECT_EQ(
      registry.CounterNamed("dataplane_flowcache_invalidations").value(),
      pl.epoch());
}

TEST(FlowCacheEvictionTest, CapShrinkEvictsDownAndCounts) {
  Pipeline pl;
  AddExactSrcTable(pl);
  for (int i = 0; i < 20; ++i) {
    packet::Packet p = FlowPkt(6000 + i);
    (void)pl.Process(p, 0);
  }
  EXPECT_EQ(pl.megaflow_size(), 20u);
  pl.set_megaflow_cap(4);
  EXPECT_EQ(pl.megaflow_size(), 4u);
  EXPECT_EQ(pl.megaflow_evictions(), 16u);
}

// --- Stale-epoch reclamation: live flows never pay for dead ones ---

TEST(FlowCacheEvictionTest, StaleEpochEntriesReclaimedNotEvicted) {
  Pipeline pl;
  pl.set_megaflow_cap(16);
  auto* t = AddExactSrcTable(pl);
  for (int i = 0; i < 16; ++i) {
    packet::Packet p = FlowPkt(7000 + i);
    (void)pl.Process(p, 0);
  }
  EXPECT_EQ(pl.megaflow_size(), 16u);

  // Epoch bump: every resident entry is now a dead-epoch corpse.
  TableEntry e;
  e.match = {MatchValue::Exact(999)};
  e.action = MakeForwardAction(9);
  ASSERT_TRUE(t->AddEntry(e).ok());

  // The first lookup after the bump releases all 16 corpses at once; only
  // the re-resolved flow is resident afterwards.
  packet::Packet repeat = FlowPkt(7000);
  EXPECT_FALSE(pl.Process(repeat, 0).megaflow_hit);
  EXPECT_EQ(pl.megaflow_stale_reclaimed(), 16u);
  EXPECT_EQ(pl.megaflow_size(), 1u);

  // Refill with fresh flows: no corpse is left for CLOCK to weigh against
  // live flows.  The regression was that stale entries sat in the map
  // forever, so a refill after reconfig evicted the flows that had just
  // been installed.
  for (int i = 16; i < 31; ++i) {
    packet::Packet p = FlowPkt(7000 + i);
    (void)pl.Process(p, 0);
  }
  EXPECT_EQ(pl.megaflow_stale_reclaimed(), 16u);
  EXPECT_EQ(pl.megaflow_evictions(), 0u);
  EXPECT_EQ(pl.megaflow_size(), 16u);
  // Every fresh flow survived the refill.
  packet::Packet again = FlowPkt(7000);
  EXPECT_TRUE(pl.Process(again, 0).megaflow_hit);
  for (int i = 16; i < 31; ++i) {
    packet::Packet p = FlowPkt(7000 + i);
    EXPECT_TRUE(pl.Process(p, 0).megaflow_hit) << "fresh flow " << i;
  }
}

// A device whose program keeps changing under light traffic: every round
// resolves 100 new flows, then one entry add kills the epoch.  Dead epochs
// must not pile up — each is released whole by the next round's first
// lookup, so the cache never holds more than one epoch's flows.
TEST(MegaflowTest, DeadEpochsDoNotAccumulate) {
  Pipeline pl;
  auto* t = AddExactSrcTable(pl);
  constexpr int kRounds = 50;
  constexpr int kFlows = 100;
  for (int round = 0; round < kRounds; ++round) {
    for (int f = 0; f < kFlows; ++f) {
      packet::Packet p = FlowPkt(100000 + round * kFlows + f);
      (void)pl.Process(p, 0);
    }
    TableEntry e;
    e.match = {MatchValue::Exact(2 + static_cast<std::uint64_t>(round))};
    e.action = MakeForwardAction(9);
    ASSERT_TRUE(t->AddEntry(e).ok());
    ASSERT_LE(pl.megaflow_size(), 101u) << "round " << round;
  }
  EXPECT_EQ(pl.megaflow_stale_reclaimed(),
            static_cast<std::uint64_t>((kRounds - 1) * kFlows));
  EXPECT_EQ(pl.megaflow_evictions(), 0u);
}

// --- Megaflow tier: one wildcard entry covers a whole prefix ---

TEST(MegaflowTest, WildcardEntryCoversUnseenFlowsInPrefix) {
  Pipeline pl;
  auto* route = pl.AddTable("route", {{"ipv4.dst", MatchKind::kLpm, 32}}, 8)
                    .value();
  TableEntry e;
  e.match = {MatchValue::Lpm(0x0a000000, 24, 32)};
  e.action = MakeForwardAction(3);
  ASSERT_TRUE(route->AddEntry(e).ok());

  packet::Packet first = FlowPkt(111, 0x0a000001, 1111, 80);
  const PipelineResult r1 = pl.Process(first, 0);
  EXPECT_FALSE(r1.megaflow_hit);
  EXPECT_EQ(first.egress_port, 3u);

  // A flow never seen before — different src, sport, and dst — but inside
  // the consulted /24: the single wildcard entry answers it.
  packet::Packet second = FlowPkt(222, 0x0a000055, 2222, 80);
  const PipelineResult r2 = pl.Process(second, 0);
  EXPECT_TRUE(r2.megaflow_hit);
  EXPECT_EQ(second.egress_port, 3u);
  EXPECT_EQ(pl.megaflow_hits(), 1u);
  EXPECT_EQ(pl.megaflow_size(), 1u);

  // The miss region is cacheable too: dsts outside the /24 share their
  // own wildcard entry (default action).
  packet::Packet miss1 = FlowPkt(333, 0x0a000101);
  EXPECT_FALSE(pl.Process(miss1, 0).megaflow_hit);
  EXPECT_EQ(miss1.egress_port, 0u);
  packet::Packet miss2 = FlowPkt(444, 0x0a000102);
  EXPECT_TRUE(pl.Process(miss2, 0).megaflow_hit);
  EXPECT_EQ(miss2.egress_port, 0u);
}

TEST(MegaflowTest, TableMutationInvalidatesMegaflows) {
  Pipeline pl;
  auto* route = pl.AddTable("route", {{"ipv4.dst", MatchKind::kLpm, 32}}, 8)
                    .value();
  TableEntry wide;
  wide.match = {MatchValue::Lpm(0x0a000000, 24, 32)};
  wide.action = MakeForwardAction(3);
  ASSERT_TRUE(route->AddEntry(wide).ok());
  packet::Packet warm = FlowPkt(1, 0x0a000001);
  (void)pl.Process(warm, 0);
  packet::Packet hit = FlowPkt(2, 0x0a000002);
  ASSERT_TRUE(pl.Process(hit, 0).megaflow_hit);

  // A more-specific route lands: the memoized wildcard must not answer
  // for the refined region.
  TableEntry narrow;
  narrow.match = {MatchValue::Lpm(0x0a000000, 28, 32)};
  narrow.action = MakeForwardAction(5);
  ASSERT_TRUE(route->AddEntry(narrow).ok());

  packet::Packet refined = FlowPkt(3, 0x0a000002);
  const PipelineResult r = pl.Process(refined, 0);
  EXPECT_FALSE(r.megaflow_hit);
  EXPECT_EQ(refined.egress_port, 5u);
  EXPECT_GE(pl.megaflow_stale_reclaimed(), 1u);  // probe reclaimed a corpse
  packet::Packet settled = FlowPkt(4, 0x0a000003);
  EXPECT_TRUE(pl.Process(settled, 0).megaflow_hit);
  EXPECT_EQ(settled.egress_port, 5u);
}

TEST(MegaflowTest, ParseRejectIsCachedAsWildcard) {
  Pipeline pl;
  ASSERT_TRUE(pl.AddTable("fwd", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                  .ok());
  // Unwire eth -> ipv4: every TCP packet now fails to parse.  The reject
  // verdict keys only on the consulted eth.type, so one wildcard entry
  // covers every flow.
  ASSERT_TRUE(pl.parser().RemoveTransition("eth", 0x0800).ok());
  packet::Packet p1 = FlowPkt(1);
  const PipelineResult r1 = pl.Process(p1, 0);
  EXPECT_TRUE(r1.dropped);
  EXPECT_FALSE(r1.megaflow_hit);
  packet::Packet p2 = FlowPkt(2, 9, 1234, 4321);  // entirely different flow
  const PipelineResult r2 = pl.Process(p2, 0);
  EXPECT_TRUE(r2.dropped);
  EXPECT_TRUE(r2.megaflow_hit);
  EXPECT_TRUE(p2.dropped());
}

TEST(MegaflowTest, MeterFlowsUncacheableInBothTiers) {
  Pipeline pl;
  auto* t = pl.AddTable("meter", {{"ipv4.src", MatchKind::kExact, 32}}, 16)
                .value();
  TableEntry e;
  e.match = {MatchValue::Exact(9)};
  e.action.name = "police";
  e.action.ops.push_back(OpMeterExec{"m", "meta.color"});
  ASSERT_TRUE(t->AddEntry(e).ok());
  for (int i = 0; i < 2; ++i) {
    packet::Packet p = FlowPkt(9);
    const PipelineResult r = pl.Process(p, 0);
    EXPECT_FALSE(r.megaflow_hit);
  }
  EXPECT_EQ(pl.megaflow_misses(), 2u);
  EXPECT_EQ(pl.megaflow_size(), 0u);
}

TEST(MegaflowTest, MegaflowCapEvictsAndPublishes) {
  Pipeline pl;
  pl.set_megaflow_cap(8);
  // Exact dst key: the consulted mask is full-width, so every distinct
  // dst is its own megaflow — capacity pressure on the mega tier.
  auto* t = pl.AddTable("svc", {{"ipv4.dst", MatchKind::kExact, 32}}, 64)
                .value();
  TableEntry e;
  e.match = {MatchValue::Exact(0x0a000001)};
  e.action = MakeForwardAction(2);
  ASSERT_TRUE(t->AddEntry(e).ok());
  for (int i = 0; i < 20; ++i) {
    packet::Packet p = FlowPkt(1, 0x0b000000 + i);
    (void)pl.Process(p, 0);
  }
  EXPECT_EQ(pl.megaflow_size(), 8u);
  EXPECT_EQ(pl.megaflow_evictions(), 12u);

  telemetry::MetricsRegistry registry;
  pl.PublishMetrics(registry);
  EXPECT_EQ(registry.CounterNamed("dataplane_megaflow_evictions").value(),
            pl.megaflow_evictions());
  EXPECT_EQ(registry.CounterNamed("dataplane_megaflow_misses").value(),
            pl.megaflow_misses());
}

TEST(MegaflowTest, MasterSwitchClearsAndDisablesBothTiers) {
  Pipeline pl;
  AddExactSrcTable(pl);
  for (int i = 0; i < 4; ++i) {
    packet::Packet p = FlowPkt(100 + i);
    (void)pl.Process(p, 0);
  }
  EXPECT_GT(pl.megaflow_size(), 0u);
  const std::uint64_t resident = pl.megaflow_size();

  pl.set_flow_cache_enabled(false);
  EXPECT_EQ(pl.megaflow_size(), 0u);
  EXPECT_EQ(pl.megaflow_evictions(), resident);
  packet::Packet p = FlowPkt(100);
  const PipelineResult r = pl.Process(p, 0);
  EXPECT_FALSE(r.megaflow_hit);
  EXPECT_EQ(pl.megaflow_size(), 0u);

  pl.set_flow_cache_enabled(true);
  packet::Packet w = FlowPkt(100);
  (void)pl.Process(w, 0);
  packet::Packet h = FlowPkt(100);
  EXPECT_TRUE(pl.Process(h, 0).megaflow_hit);
}

// --- Wildcard-shape overflow: the restart stays bounded and sound ---

// Ternary and LPM masks widen as entries land, so every churn step can
// give resolutions a new consulted shape.  Past kMaxMegaflowMasks (32)
// shapes the cache restarts; the restart must count what it cleared as
// evictions, the shape list must never exceed the bound, and every
// outcome must still equal the caches-off reference scan.
TEST(MegaflowTest, ShapeOverflowRestartsAndMatchesOracle) {
  Pipeline cached;
  Pipeline oracle;
  oracle.set_flow_cache_enabled(false);
  for (Pipeline* pl : {&cached, &oracle}) {
    ASSERT_TRUE(
        pl->AddTable("acl", {{"ipv4.src", MatchKind::kTernary, 32}}, 256)
            .ok());
    ASSERT_TRUE(
        pl->AddTable("route", {{"ipv4.dst", MatchKind::kLpm, 32}}, 256).ok());
  }
  oracle.ForceReferenceScan(true);

  Rng rng(0x5a4e5ULL);
  std::vector<std::vector<MatchValue>> live[2];  // acl, route
  std::size_t max_masks = 0;
  std::uint64_t restarts = 0;
  std::uint64_t cleared = 0;
  for (int round = 0; round < 400; ++round) {
    // Churn: mostly adds — each a ternary mask bit or an LPM prefix length
    // the consulted union may not have seen yet — with removals that
    // narrow the union again.
    const int ti = round % 2;
    const char* table = ti == 0 ? "acl" : "route";
    if (!live[ti].empty() && rng.NextBounded(4) == 0) {
      const std::vector<MatchValue> victim =
          live[ti][rng.NextBounded(live[ti].size())];
      EXPECT_EQ(cached.FindTable(table)->RemoveEntries(victim),
                oracle.FindTable(table)->RemoveEntries(victim));
      live[ti].erase(std::remove(live[ti].begin(), live[ti].end(), victim),
                     live[ti].end());
    } else {
      TableEntry e;
      if (ti == 0) {
        const std::uint64_t bit = 1ULL << rng.NextBounded(32);
        e.match = {MatchValue::Ternary(rng.NextU64() & bit, bit)};
        e.priority = static_cast<std::int32_t>(rng.NextBounded(8));
      } else {
        const auto len = static_cast<std::uint32_t>(1 + rng.NextBounded(32));
        e.match = {MatchValue::Lpm(rng.NextU64() & 0xffffffffULL, len, 32)};
      }
      e.action = rng.NextBounded(5) == 0
                     ? MakeDropAction("churn")
                     : MakeForwardAction(static_cast<std::uint32_t>(
                           1 + rng.NextBounded(30)));
      live[ti].push_back(e.match);
      ASSERT_TRUE(cached.FindTable(table)->AddEntry(e).ok());
      ASSERT_TRUE(oracle.FindTable(table)->AddEntry(e).ok());
    }

    for (int probe = 0; probe < 6; ++probe) {
      const std::uint64_t src = rng.NextU64() & 0xffffffffULL;
      const std::uint64_t dst = rng.NextU64() & 0xffffffffULL;
      for (int repeat = 0; repeat < 2; ++repeat) {
        packet::Packet a = FlowPkt(src, dst);
        packet::Packet b = a;
        const std::size_t size_before = cached.megaflow_size();
        const std::size_t masks_before = cached.megaflow_mask_count();
        const std::uint64_t evictions_before = cached.megaflow_evictions();
        const std::uint64_t stale_before = cached.megaflow_stale_reclaimed();
        const PipelineResult ra = cached.Process(a, 0);
        const PipelineResult rb = oracle.Process(b, 0);
        ASSERT_EQ(ra.dropped, rb.dropped) << "round " << round;
        ASSERT_EQ(a.egress_port, b.egress_port) << "round " << round;
        ASSERT_EQ(a.ContentSignature(), b.ContentSignature());
        max_masks = std::max(max_masks, cached.megaflow_mask_count());
        if (cached.megaflow_mask_count() < masks_before) {
          // A restart: every entry the probe left resident was cleared and
          // counted as an eviction, then the new flow's entry landed alone.
          ++restarts;
          EXPECT_EQ(masks_before, 32u);
          EXPECT_EQ(cached.megaflow_mask_count(), 1u);
          EXPECT_EQ(cached.megaflow_size(), 1u);
          EXPECT_EQ(cached.megaflow_evictions() - evictions_before +
                        cached.megaflow_stale_reclaimed() - stale_before,
                    size_before);
          cleared += cached.megaflow_evictions() - evictions_before;
        }
      }
    }
  }
  EXPECT_EQ(max_masks, 32u);  // the bound was reached, never exceeded
  EXPECT_GT(restarts, 0u);
  EXPECT_GT(cleared, 0u);
  EXPECT_GT(cached.megaflow_hits(), 0u);
  for (const char* table : {"acl", "route"}) {
    EXPECT_EQ(cached.FindTable(table)->lookups(),
              oracle.FindTable(table)->lookups());
    EXPECT_EQ(cached.FindTable(table)->hits(), oracle.FindTable(table)->hits());
  }
}

}  // namespace
}  // namespace flexnet::dataplane
