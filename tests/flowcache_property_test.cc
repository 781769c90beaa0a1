// Property-based flow-cache epoch invalidation test.
//
// Two structurally identical pipelines process the same seeded, random
// interleaving of mutations (entry churn, default-action changes, table
// moves) and lookups (flow-repeating packets, so the flow caches are hot
// when a mutation lands).  The subject pipeline runs with the caches and
// the lookup indexes enabled; the oracle runs with both cache tiers
// disabled and every table forced through the retained
// MatchEntryReference linear scan.  Any divergence in packet outcome
// means a memoized step survived an epoch bump — exactly the staleness
// bug class the cache's invalidation protocol must exclude.
//
// The property runs once per tier configuration — microflow+megaflow,
// microflow only, megaflow only — because each tier has its own keying
// discipline (exact content signature vs. consulted-field wildcard) and
// each must independently respect invalidation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "dataplane/pipeline.h"
#include "packet/packet.h"

namespace flexnet::dataplane {
namespace {

packet::Packet Probe(std::uint64_t src, std::uint64_t dst,
                     std::uint64_t dport) {
  return packet::MakeTcpPacket(1, packet::Ipv4Spec{src, dst},
                               packet::TcpSpec{4000, dport});
}

struct PipelinePair {
  Pipeline cached;
  Pipeline oracle;

  void Build() {
    oracle.set_flow_cache_enabled(false);
    for (Pipeline* pl : {&cached, &oracle}) {
      ASSERT_TRUE(pl->AddTable("acl",
                               {{"ipv4.src", MatchKind::kTernary, 32},
                                {"tcp.dport", MatchKind::kRange, 16}},
                               256)
                      .ok());
      ASSERT_TRUE(
          pl->AddTable("fwd", {{"ipv4.dst", MatchKind::kExact, 32}}, 256)
              .ok());
    }
    for (const char* name : {"acl", "fwd"}) {
      oracle.FindTable(name)->set_force_reference_scan(true);
    }
  }

  void AddEntry(const std::string& table, TableEntry entry) {
    ASSERT_TRUE(cached.FindTable(table)->AddEntry(entry).ok());
    ASSERT_TRUE(oracle.FindTable(table)->AddEntry(std::move(entry)).ok());
  }

  void RemoveEntries(const std::string& table,
                     const std::vector<MatchValue>& match) {
    const std::size_t a = cached.FindTable(table)->RemoveEntries(match);
    const std::size_t b = oracle.FindTable(table)->RemoveEntries(match);
    EXPECT_EQ(a, b);
  }
};

MatchValue RandomAclSrc(Rng& rng) {
  switch (rng.NextBounded(3)) {
    case 0:
      return MatchValue::Ternary(rng.NextBounded(8), rng.NextBounded(8));
    case 1:
      return MatchValue::Ternary(rng.NextBounded(8), 0x7);
    default:
      return MatchValue::Wildcard();
  }
}

TEST(FlowCachePropertyTest, MegaflowOnlyMatchesReferenceOracleUnderChurn) {
  PipelinePair pair;
  pair.Build();
  if (::testing::Test::HasFatalFailure()) return;

  Rng rng(0xcac4e5eedULL);
  std::vector<std::vector<MatchValue>> acl_live;
  std::vector<std::vector<MatchValue>> fwd_live;
  std::uint64_t mutations = 0;

  for (int round = 0; round < 500; ++round) {
    // Mutate roughly every other round, so most lookups run against a
    // warm cache and every mutation kind lands on memoized flows.
    switch (rng.NextBounded(8)) {
      case 0: {  // add an overlapping ACL entry
        TableEntry e;
        e.match = {RandomAclSrc(rng),
                   MatchValue::Range(rng.NextBounded(12),
                                     rng.NextBounded(12) + 8)};
        e.action = rng.NextBounded(6) == 0
                       ? MakeDropAction("acl")
                       : MakeForwardAction(static_cast<std::uint32_t>(
                             1 + rng.NextBounded(31)));
        e.priority = static_cast<std::int32_t>(rng.NextBounded(4));
        pair.AddEntry("acl", e);
        acl_live.push_back(e.match);
        ++mutations;
        break;
      }
      case 1: {  // add an exact forwarding entry
        TableEntry e;
        e.match = {MatchValue::Exact(rng.NextBounded(8))};
        e.action = MakeForwardAction(
            static_cast<std::uint32_t>(32 + rng.NextBounded(31)));
        pair.AddEntry("fwd", e);
        fwd_live.push_back(e.match);
        ++mutations;
        break;
      }
      case 2: {  // remove a live entry (all copies of that match)
        auto& live = (rng.NextBounded(2) == 0 && !acl_live.empty())
                         ? acl_live
                         : fwd_live;
        const std::string table = (&live == &acl_live) ? "acl" : "fwd";
        if (!live.empty()) {
          const std::vector<MatchValue> victim =
              live[rng.NextBounded(live.size())];
          pair.RemoveEntries(table, victim);
          live.erase(std::remove(live.begin(), live.end(), victim),
                     live.end());
          ++mutations;
        }
        break;
      }
      case 3: {  // flip a default action
        const char* table = rng.NextBounded(2) == 0 ? "acl" : "fwd";
        Action action = rng.NextBounded(4) == 0
                            ? MakeNopAction()
                            : MakeForwardAction(static_cast<std::uint32_t>(
                                  64 + rng.NextBounded(15)));
        pair.cached.FindTable(table)->SetDefaultAction(action);
        pair.oracle.FindTable(table)->SetDefaultAction(action);
        ++mutations;
        break;
      }
      case 4: {  // reorder execution
        const char* table = rng.NextBounded(2) == 0 ? "acl" : "fwd";
        const std::size_t position = rng.NextBounded(2);
        ASSERT_TRUE(pair.cached.MoveTable(table, position).ok());
        ASSERT_TRUE(pair.oracle.MoveTable(table, position).ok());
        ++mutations;
        break;
      }
      default:
        break;  // lookup-only round
    }

    // Each flow is probed twice back-to-back: the first Process memoizes,
    // the second replays from the cache — so a stale memo would be
    // *used*, not just stored, and divergence surfaces immediately.
    for (int probe = 0; probe < 3; ++probe) {
      const std::uint64_t src = rng.NextBounded(8);
      const std::uint64_t dst = rng.NextBounded(8);
      const std::uint64_t dport = rng.NextBounded(20);
      for (int repeat = 0; repeat < 2; ++repeat) {
        packet::Packet a = Probe(src, dst, dport);
        packet::Packet b = a;
        const PipelineResult ra = pair.cached.Process(a, 0);
        const PipelineResult rb = pair.oracle.Process(b, 0);
        EXPECT_EQ(a.egress_port, b.egress_port) << "round " << round;
        EXPECT_EQ(a.dropped(), b.dropped()) << "round " << round;
        EXPECT_EQ(ra.dropped, rb.dropped) << "round " << round;
        EXPECT_FALSE(rb.megaflow_hit);  // the oracle never caches
        if (::testing::Test::HasFailure()) {
          FAIL() << "cached pipeline diverged from reference oracle at "
                    "round "
                 << round << " (seed 0xcac4e5eed)";
        }
      }
    }
  }

  // The run must have exercised the machinery it claims to test.
  EXPECT_GT(mutations, 50u);
  // Every back-to-back repeat must be answered by the wildcard cache.
  EXPECT_GT(pair.cached.megaflow_hits(), 100u);
  EXPECT_GE(pair.cached.epoch(), mutations);

  // Hit accounting parity: memoized replays must bill lookups and hits
  // exactly like the uncached reference path.
  for (const char* table : {"acl", "fwd"}) {
    const MatchActionTable* ct = pair.cached.FindTable(table);
    const MatchActionTable* ot = pair.oracle.FindTable(table);
    EXPECT_EQ(ct->lookups(), ot->lookups()) << table;
    EXPECT_EQ(ct->hits(), ot->hits()) << table;
  }
}

}  // namespace
}  // namespace flexnet::dataplane
