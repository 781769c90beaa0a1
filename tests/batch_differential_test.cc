// Batched execution differential coverage: the burst path must be
// byte-identical to N scalar calls — pipeline outcomes, per-table hit
// counters, flow-cache accounting, stateful objects, delivery records —
// under randomized traffic, churn, epoch bumps, and mid-run reconfig.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataplane/pipeline.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "packet/batch.h"
#include "runtime/managed_device.h"

namespace flexnet {
namespace {

using dataplane::Action;
using dataplane::MatchValue;
using dataplane::Pipeline;
using dataplane::PipelineResult;
using dataplane::TableEntry;

// --- Pipeline-level randomized differential -------------------------------

// Two tables with stateful actions (meter + counter + TTL write) plus a
// drop entry, so bursts exercise hits, misses, drops, and state ordering.
void BuildTwin(Pipeline& p) {
  ASSERT_TRUE(p.state().AddMeter("m", 150000.0, 8).ok());
  ASSERT_TRUE(p.state().AddCounter("c").ok());

  auto acl = p.AddTable("acl", {{"ipv4.src", dataplane::MatchKind::kExact, 32}},
                        64);
  ASSERT_TRUE(acl.ok());
  Action metered;
  metered.name = "meter_count";
  metered.ops.push_back(dataplane::OpMeterExec{"m", "color"});
  metered.ops.push_back(dataplane::OpCounterInc{"c"});
  metered.ops.push_back(
      dataplane::OpAddField{"ipv4.ttl", dataplane::OperandConst{~0ULL}});
  for (std::uint64_t src = 0; src < 6; ++src) {
    TableEntry e;
    e.match = {MatchValue::Exact(src)};
    e.action = metered;
    ASSERT_TRUE(acl.value()->AddEntry(std::move(e)).ok());
  }
  TableEntry deny;
  deny.match = {MatchValue::Exact(7)};
  deny.action = dataplane::MakeDropAction("acl_deny");
  ASSERT_TRUE(acl.value()->AddEntry(std::move(deny)).ok());

  auto route = p.AddTable(
      "route", {{"ipv4.dst", dataplane::MatchKind::kLpm, 32}}, 64);
  ASSERT_TRUE(route.ok());
  TableEntry r;
  r.match = {MatchValue::Lpm(0x0a000000, 8, 32)};
  r.action = dataplane::MakeForwardAction(3);
  ASSERT_TRUE(route.value()->AddEntry(std::move(r)).ok());
}

packet::Packet RandomPacket(Rng& rng, std::uint64_t id) {
  // Narrow field ranges on purpose: later members of a burst replay cache
  // entries that earlier members of the same burst installed.
  const std::uint64_t src = rng.NextBounded(9);  // 7 = deny, 8 = default
  const std::uint64_t dst = 0x0a000000 + rng.NextBounded(3);
  const std::uint64_t dport = 80 + rng.NextBounded(2);
  return packet::MakeTcpPacket(id, packet::Ipv4Spec{src, dst},
                               packet::TcpSpec{4000, dport});
}

void ExpectSameCounters(const Pipeline& batch, const Pipeline& scalar) {
  EXPECT_EQ(batch.megaflow_hits(), scalar.megaflow_hits());
  EXPECT_EQ(batch.megaflow_misses(), scalar.megaflow_misses());
  EXPECT_EQ(batch.megaflow_size(), scalar.megaflow_size());
  EXPECT_EQ(batch.megaflow_evictions(), scalar.megaflow_evictions());
  EXPECT_EQ(batch.megaflow_stale_reclaimed(),
            scalar.megaflow_stale_reclaimed());
  for (const std::string& name : {std::string("acl"), std::string("route")}) {
    const auto* bt = batch.FindTable(name);
    const auto* st = scalar.FindTable(name);
    ASSERT_NE(bt, nullptr);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(bt->lookups(), st->lookups()) << name;
    EXPECT_EQ(bt->hits(), st->hits()) << name;
  }
  const auto* bc = const_cast<Pipeline&>(batch).state().FindCounter("c");
  const auto* sc = const_cast<Pipeline&>(scalar).state().FindCounter("c");
  ASSERT_NE(bc, nullptr);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(bc->packets(), sc->packets());
  EXPECT_EQ(bc->bytes(), sc->bytes());
}

TEST(BatchDifferentialTest, PipelineBatchMatchesScalarUnderChurnAndEpochBumps) {
  for (const std::uint64_t seed : {1ULL, 0xbadf00dULL, 77ULL}) {
    Pipeline batch_pipe;
    Pipeline scalar_pipe;
    BuildTwin(batch_pipe);
    BuildTwin(scalar_pipe);

    Rng traffic_rng(seed);
    Rng churn_rng(seed ^ 0x5eed);
    std::uint64_t next_id = 1;
    SimTime now = 0;

    for (int round = 0; round < 120; ++round) {
      const std::size_t burst = 1 + traffic_rng.NextBounded(
                                        packet::PacketBatch::kDefaultBurstCap);
      std::vector<packet::Packet> batch_pkts;
      std::vector<packet::Packet> scalar_pkts;
      for (std::size_t i = 0; i < burst; ++i) {
        packet::Packet p = RandomPacket(traffic_rng, next_id++);
        scalar_pkts.push_back(p);
        batch_pkts.push_back(std::move(p));
      }

      std::vector<PipelineResult> batch_results(burst);
      batch_pipe.ProcessBatch(batch_pkts, now, batch_results);
      for (std::size_t i = 0; i < burst; ++i) {
        const PipelineResult want = scalar_pipe.Process(scalar_pkts[i], now);
        const PipelineResult& got = batch_results[i];
        EXPECT_EQ(got.dropped, want.dropped) << "seed " << seed << " member "
                                             << i;
        EXPECT_EQ(got.tables_traversed, want.tables_traversed);
        EXPECT_EQ(got.ops_executed, want.ops_executed);
        EXPECT_EQ(got.megaflow_hit, want.megaflow_hit);
        EXPECT_EQ(batch_pkts[i].ContentSignature(),
                  scalar_pkts[i].ContentSignature());
        EXPECT_EQ(batch_pkts[i].dropped(), scalar_pkts[i].dropped());
        if (want.dropped) {
          EXPECT_EQ(batch_pkts[i].drop_reason(), scalar_pkts[i].drop_reason());
        }
      }
      now += 1 * kMicrosecond;

      // Mutations land between bursts on BOTH twins: an epoch bump or a
      // wholesale cache clear must reach both twins' caches alike.
      switch (churn_rng.NextBounded(6)) {
        case 0:
          batch_pipe.BumpEpoch();  // what a runtime reflash does
          scalar_pipe.BumpEpoch();
          break;
        case 1: {
          const std::uint64_t src = 32 + churn_rng.NextBounded(4);
          for (Pipeline* p : {&batch_pipe, &scalar_pipe}) {
            TableEntry e;
            e.match = {MatchValue::Exact(src)};
            e.action = dataplane::MakeNopAction();
            ASSERT_TRUE(p->FindTable("acl")->AddEntry(std::move(e)).ok());
          }
          break;
        }
        case 2: {
          const std::uint64_t src = 32 + churn_rng.NextBounded(4);
          batch_pipe.FindTable("acl")->RemoveEntries(
              {MatchValue::Exact(src)});
          scalar_pipe.FindTable("acl")->RemoveEntries(
              {MatchValue::Exact(src)});
          break;
        }
        case 3: {
          const bool enable = churn_rng.NextBool(0.5);
          batch_pipe.set_flow_cache_enabled(enable);
          scalar_pipe.set_flow_cache_enabled(enable);
          break;
        }
        default:
          break;  // no churn this round
      }
      ExpectSameCounters(batch_pipe, scalar_pipe);
    }
    EXPECT_GT(batch_pipe.batches_processed(), 0u);
  }
}

// --- Network-level differential across every traffic archetype ------------

struct DeliveredInfo {
  SimTime created_at = 0;
  SimTime delivered_at = 0;
  SimDuration latency = 0;
  std::uint64_t signature = 0;
  std::size_t hops = 0;

  friend bool operator==(const DeliveredInfo&, const DeliveredInfo&) = default;
};

struct RunOutcome {
  std::map<std::uint64_t, DeliveredInfo> delivered;  // by packet id
  std::uint64_t injected = 0;
  std::uint64_t dropped = 0;
  std::map<std::string, std::uint64_t> drops_by_reason;
  std::uint64_t events_saved = 0;
};

enum class Archetype { kCbr, kPoisson, kSynFlood, kMix };

struct RunConfig {
  std::size_t burst = 8;
  bool batching = true;
};

// One seeded run: same topology, same traffic stream, same mid-window
// reconfig; only the transport path (batched vs unbundled scalar)
// differs.
RunOutcome RunArchetype(Archetype archetype, std::uint64_t seed,
                        const RunConfig& config) {
  sim::Simulator sim;
  net::Network network(&sim);
  network.set_batching_enabled(config.batching);
  const net::LinearTopology topo = net::BuildLinear(network, 3);

  RunOutcome out;
  network.SetDeliverySink([&](const net::DeliveryRecord& rec) {
    out.delivered[rec.packet.id()] =
        DeliveredInfo{rec.packet.created_at, rec.packet.delivered_at,
                      rec.latency, rec.packet.ContentSignature(),
                      rec.packet.trace().size()};
  });

  net::TrafficGenerator traffic(&network, seed);
  traffic.set_burst(config.burst);
  const SimDuration window = 4 * kMillisecond;
  net::FlowSpec flow;
  flow.from = topo.client.host;
  flow.src_ip = topo.client.address;
  flow.dst_ip = topo.server.address;
  switch (archetype) {
    case Archetype::kCbr:
      traffic.StartCbr(flow, 400000.0, window);
      break;
    case Archetype::kPoisson:
      traffic.StartPoisson(flow, 400000.0, window);
      break;
    case Archetype::kSynFlood:
      traffic.StartSynFlood(topo.client.host, topo.server.address, 400000.0,
                            window);
      break;
    case Archetype::kMix: {
      net::TrafficGenerator::MixConfig mix;
      mix.flows = 24;
      mix.span = window;
      traffic.StartMix({{topo.client.host, topo.client.address},
                        {topo.server.host, topo.server.address}},
                       mix);
      break;
    }
  }

  // Mid-window reconfiguration on the middle switch: in-flight bursts
  // straddle the epoch bump (the batch is mid-path when the program
  // changes), which must replay identically on the scalar oracle.
  runtime::ManagedDevice* mid = network.Find(topo.switches[1]);
  sim.Schedule(window / 2, [mid]() {
    runtime::StepAddTable add;
    add.decl.name = "diff_acl";
    add.decl.key = {{"ipv4.src", dataplane::MatchKind::kExact, 32}};
    add.decl.capacity = 16;
    ASSERT_TRUE(mid->ApplyStep(add).ok());
    mid->device().pipeline().BumpEpoch();  // reflash-style invalidation
  });

  sim.Run();
  const net::NetworkStats& stats = network.stats();
  out.injected = stats.injected;
  out.dropped = stats.dropped;
  for (const auto& [reason, count] : stats.drops_by_reason) {
    out.drops_by_reason[reason] = count;
  }
  out.events_saved = stats.events_saved;
  return out;
}

TEST(BatchDifferentialTest, NetworkBatchMatchesScalarForEveryArchetype) {
  for (const Archetype archetype : {Archetype::kCbr, Archetype::kPoisson,
                                    Archetype::kSynFlood, Archetype::kMix}) {
    for (const std::uint64_t seed : {3ULL, 1234ULL}) {
      const RunOutcome batch =
          RunArchetype(archetype, seed, RunConfig{.batching = true});
      const RunOutcome scalar =
          RunArchetype(archetype, seed, RunConfig{.batching = false});
      EXPECT_EQ(batch.injected, scalar.injected);
      EXPECT_EQ(batch.dropped, scalar.dropped);
      EXPECT_EQ(batch.drops_by_reason, scalar.drops_by_reason);
      EXPECT_EQ(batch.delivered, scalar.delivered)
          << "archetype " << static_cast<int>(archetype) << " seed " << seed;
      EXPECT_GT(batch.injected, 0u);
      // The whole point: grouped hops schedule fewer events.
      EXPECT_GT(batch.events_saved, 0u);
      EXPECT_EQ(scalar.events_saved, 0u);
    }
  }
}

TEST(BatchDifferentialTest, BatchOfOneIsEventForEventScalar) {
  const RunOutcome one = RunArchetype(Archetype::kCbr, 9,
                                      RunConfig{.burst = 1, .batching = true});
  const RunOutcome scalar = RunArchetype(
      Archetype::kCbr, 9, RunConfig{.burst = 1, .batching = false});
  EXPECT_EQ(one.delivered, scalar.delivered);
  // A batch of 1 forms groups of 1: nothing saved, nothing lost.
  EXPECT_EQ(one.events_saved, 0u);
}

// --- Satellite regression: final-delivery path moves the packet -----------
//
// The scalar delivery hop used to copy the packet into a shared_ptr per
// scheduled event; the rewrite moves it through the event closure.  Pin
// the observable contract: the delivery record carries the exact packet —
// id, meta, full hop trace, timestamps consistent with the recorded
// latency — for both transports.
TEST(DeliveryRecordTest, FinalHopPreservesPacketIdentity) {
  for (const bool batching : {true, false}) {
    sim::Simulator sim;
    net::Network network(&sim);
    network.set_batching_enabled(batching);
    const net::LinearTopology topo = net::BuildLinear(network, 2);

    std::vector<net::DeliveryRecord> records;
    network.SetDeliverySink(
        [&](const net::DeliveryRecord& rec) { records.push_back(rec); });

    packet::PacketBatch batch = network.AcquireBatch();
    for (std::uint64_t id = 1; id <= 3; ++id) {
      packet::Packet p = packet::MakeTcpPacket(
          id, packet::Ipv4Spec{topo.client.address, topo.server.address},
          packet::TcpSpec{1000, 80});
      p.SetMeta("tenant", 40 + id);
      batch.Push(std::move(p));
    }
    network.InjectBatch(topo.client.host, std::move(batch));
    sim.Run();

    ASSERT_EQ(records.size(), 3u) << "batching=" << batching;
    for (std::uint64_t id = 1; id <= 3; ++id) {
      const net::DeliveryRecord& rec = records[id - 1];
      EXPECT_EQ(rec.packet.id(), id);
      EXPECT_EQ(rec.packet.GetMeta("tenant"), 40 + id);
      // host->nic->sw0->sw1->nic->host = 6 hops, every one recorded.
      EXPECT_EQ(rec.packet.trace().size(), 6u);
      EXPECT_FALSE(rec.packet.dropped());
      EXPECT_EQ(rec.packet.delivered_at - rec.packet.created_at, rec.latency);
      EXPECT_GT(rec.latency, 0);
    }
  }
}

}  // namespace
}  // namespace flexnet
