// Postcard telemetry coverage: deterministic flow sampling, the bounded
// drop-new ring, batch/scalar journey identity, cache-tier attribution,
// postcard-driven invariant re-checks, and the network-stats satellites
// (latency percentiles + drop-reason counters) that ride along.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "dataplane/pipeline.h"
#include "fault/invariants.h"
#include "net/network.h"
#include "net/topology.h"
#include "packet/flow.h"
#include "packet/packet.h"
#include "telemetry/postcard.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace flexnet {
namespace {

using telemetry::CacheTier;
using telemetry::Postcard;
using telemetry::PostcardHop;
using telemetry::PostcardRecorder;

// --- Recorder unit coverage -----------------------------------------------

TEST(PostcardRecorderTest, DisabledByDefaultSamplesNothing) {
  PostcardRecorder recorder;
  EXPECT_FALSE(recorder.sampling_enabled());
  for (std::uint64_t h = 0; h < 1000; ++h) {
    EXPECT_FALSE(recorder.ShouldSample(h));
  }
  EXPECT_EQ(recorder.Open(1, 42, 0), 0u);
  EXPECT_EQ(recorder.opened(), 0u);
}

TEST(PostcardRecorderTest, EveryFlowSampledAtNOne) {
  PostcardRecorder recorder;
  recorder.Configure({/*sample_every_n=*/1, /*capacity=*/16, /*seed=*/7});
  for (std::uint64_t h = 0; h < 100; ++h) {
    EXPECT_TRUE(recorder.ShouldSample(h));
  }
}

TEST(PostcardRecorderTest, SampledSetIsSeedDeterministic) {
  PostcardRecorder a;
  PostcardRecorder b;
  PostcardRecorder other;
  a.Configure({64, 16, 1});
  b.Configure({64, 16, 1});
  other.Configure({64, 16, 2});

  std::size_t sampled = 0;
  bool seed_changes_set = false;
  for (std::uint64_t h = 0; h < 100000; ++h) {
    const bool pick = a.ShouldSample(h);
    EXPECT_EQ(pick, b.ShouldSample(h)) << h;
    if (pick) ++sampled;
    if (pick != other.ShouldSample(h)) seed_changes_set = true;
  }
  // 1-in-64 over a mixed hash: expect roughly 100000/64 ~ 1562 picks.
  EXPECT_GT(sampled, 1000u);
  EXPECT_LT(sampled, 2400u);
  EXPECT_TRUE(seed_changes_set);
}

TEST(PostcardRecorderTest, OverflowDropsNewWithoutCorruptingOld) {
  PostcardRecorder recorder;
  recorder.Configure({1, /*capacity=*/3, 0});

  std::vector<std::uint64_t> ids;
  for (std::uint64_t pkt = 1; pkt <= 8; ++pkt) {
    ids.push_back(recorder.Open(pkt, /*flow_hash=*/pkt * 17, /*at=*/pkt));
  }
  EXPECT_EQ(ids[0], 1u);
  EXPECT_EQ(ids[2], 3u);
  for (std::size_t i = 3; i < ids.size(); ++i) EXPECT_EQ(ids[i], 0u);
  EXPECT_EQ(recorder.opened(), 8u);
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 5u);

  PostcardHop hop;
  hop.device = 9;
  hop.program_version = 2;
  recorder.RecordHop(ids[0], hop);
  recorder.RecordHop(0, hop);  // unsampled id: must be a no-op
  recorder.Finish(ids[0], Postcard::Fate::kDelivered, "", 99);
  recorder.Finish(0, Postcard::Fate::kDropped, "bogus", 99);

  ASSERT_EQ(recorder.cards().size(), 3u);
  const Postcard& first = recorder.cards()[0];
  EXPECT_EQ(first.packet_id, 1u);
  ASSERT_EQ(first.hops.size(), 1u);
  EXPECT_EQ(first.hops[0].device, 9u);
  EXPECT_EQ(first.fate, Postcard::Fate::kDelivered);
  EXPECT_EQ(recorder.cards()[1].fate, Postcard::Fate::kInFlight);
  EXPECT_EQ(recorder.hops_recorded(), 1u);
}

TEST(PostcardRecorderTest, CanonicalTextIgnoresBatchSize) {
  Postcard a;
  a.packet_id = 5;
  a.flow_hash = 0xabc;
  a.fate = Postcard::Fate::kDelivered;
  PostcardHop hop;
  hop.device = 1;
  hop.program_version = 3;
  hop.latency_ns = 250;
  hop.tier = CacheTier::kMega;
  hop.tables = {"acl", "route"};
  hop.batch_size = 1;
  a.hops.push_back(hop);

  Postcard b = a;
  b.hops[0].batch_size = 32;  // transport artifact, not journey identity
  EXPECT_EQ(a.CanonicalText(), b.CanonicalText());

  b.hops[0].tier = CacheTier::kSlowPath;
  EXPECT_NE(a.CanonicalText(), b.CanonicalText());
}

TEST(PostcardRecorderTest, MetricsAndJsonExport) {
  telemetry::MetricsRegistry registry;
  PostcardRecorder& recorder = registry.postcards();
  recorder.Configure({1, 4, 0});
  const std::uint64_t id = recorder.Open(7, 0x77, 10);
  PostcardHop hop;
  hop.device = 2;
  hop.tier = CacheTier::kMega;
  recorder.RecordHop(id, hop);
  recorder.Finish(id, Postcard::Fate::kDelivered, "", 20);
  recorder.PublishMetrics(registry);

  const auto* opened = registry.FindCounter("postcards_opened");
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->value(), 1u);
  const auto* mega = registry.FindCounter("postcard_hops_mega");
  ASSERT_NE(mega, nullptr);
  EXPECT_EQ(mega->value(), 1u);

  const std::string json = telemetry::ExportJson(registry, "postcard_unit");
  EXPECT_NE(json.find("\"postcards\""), std::string::npos);
  EXPECT_NE(json.find("\"sample_every_n\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tier\": \"mega\""), std::string::npos);

  const std::string trace =
      telemetry::ExportChromeTrace(registry.tracer(), "unit", &recorder);
  EXPECT_NE(trace.find("\"postcards\""), std::string::npos);
  EXPECT_NE(trace.find("hop.dev2.mega"), std::string::npos);
}

// --- Network integration --------------------------------------------------

// A linear fabric whose switches carry one exact-match table, so sampled
// hops exercise slow-path resolution and cached replays alike.
struct PostcardRig {
  PostcardRig() : network(&sim) {
    topo = net::BuildLinear(network, 2, net::SwitchKind::kDrmt);
    for (const DeviceId sw : topo.switches) {
      dataplane::Pipeline& pl = network.Find(sw)->device().pipeline();
      auto table = pl.AddTable(
          "svc", {{"tcp.dport", dataplane::MatchKind::kExact, 16}}, 8);
      EXPECT_TRUE(table.ok());
      dataplane::TableEntry e;
      e.match = {dataplane::MatchValue::Exact(80)};
      e.action = dataplane::MakeNopAction();
      EXPECT_TRUE(table.value()->AddEntry(std::move(e)).ok());
    }
  }

  packet::Packet FlowPacket(std::uint64_t id, std::uint64_t src_port) {
    return packet::MakeTcpPacket(
        id, packet::Ipv4Spec{topo.client.address, topo.server.address},
        packet::TcpSpec{src_port, 80});
  }

  sim::Simulator sim;
  net::Network network;
  net::LinearTopology topo;
};

TEST(PostcardNetTest, SamplingOffRecordsNothing) {
  PostcardRig rig;
  PostcardRecorder recorder;  // default config: disabled
  rig.network.set_postcard_recorder(&recorder);
  std::vector<std::uint64_t> delivered_card_ids;
  rig.network.SetDeliverySink([&](const net::DeliveryRecord& rec) {
    delivered_card_ids.push_back(rec.packet.postcard_id);
  });
  for (std::uint64_t id = 1; id <= 16; ++id) {
    rig.network.InjectPacket(rig.topo.client.host, rig.FlowPacket(id, 1000));
  }
  rig.sim.Run();
  EXPECT_EQ(rig.network.stats().delivered, 16u);
  EXPECT_EQ(recorder.opened(), 0u);
  EXPECT_TRUE(recorder.cards().empty());
  for (const std::uint64_t id : delivered_card_ids) EXPECT_EQ(id, 0u);
}

std::set<std::uint64_t> SampledFlowHashes(std::uint64_t seed) {
  PostcardRig rig;
  PostcardRecorder recorder;
  recorder.Configure({/*sample_every_n=*/4, /*capacity=*/4096, seed});
  rig.network.set_postcard_recorder(&recorder);
  for (std::uint64_t id = 1; id <= 256; ++id) {
    // 256 distinct source ports = 256 distinct flows.
    rig.network.InjectPacket(rig.topo.client.host,
                             rig.FlowPacket(id, 1000 + id));
  }
  rig.sim.Run();
  std::set<std::uint64_t> hashes;
  for (const Postcard& card : recorder.cards()) hashes.insert(card.flow_hash);
  return hashes;
}

TEST(PostcardNetTest, SameSeedSamplesSameFlowSet) {
  const std::set<std::uint64_t> first = SampledFlowHashes(11);
  const std::set<std::uint64_t> again = SampledFlowHashes(11);
  const std::set<std::uint64_t> other = SampledFlowHashes(12);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);
}

std::vector<std::string> RunJourneys(bool batching, std::size_t burst) {
  PostcardRig rig;
  rig.network.set_batching_enabled(batching);
  PostcardRecorder recorder;
  recorder.Configure({/*sample_every_n=*/2, /*capacity=*/4096, /*seed=*/5});
  rig.network.set_postcard_recorder(&recorder);

  // 64 packets over 16 flows, grouped into injection bursts.  The scalar
  // run unbundles each burst; the journey record must not notice.
  std::uint64_t id = 1;
  while (id <= 64) {
    packet::PacketBatch batch;
    for (std::size_t k = 0; k < burst && id <= 64; ++k, ++id) {
      batch.Push(rig.FlowPacket(id, 1000 + (id % 16)));
    }
    rig.network.InjectBatch(rig.topo.client.host, std::move(batch));
  }
  rig.sim.Run();
  EXPECT_EQ(rig.network.stats().delivered, 64u);
  EXPECT_GT(recorder.recorded(), 0u);

  std::vector<std::string> journeys;
  journeys.reserve(recorder.cards().size());
  for (const Postcard& card : recorder.cards()) {
    journeys.push_back(card.CanonicalText());
  }
  return journeys;
}

TEST(PostcardNetTest, ScalarBatchOfOneAndBurstAgreeByteForByte) {
  const std::vector<std::string> scalar = RunJourneys(false, 1);
  const std::vector<std::string> batch_one = RunJourneys(true, 1);
  const std::vector<std::string> burst = RunJourneys(true, 32);
  EXPECT_EQ(scalar, batch_one);
  EXPECT_EQ(scalar, burst);
}

TEST(PostcardNetTest, HopsCarryTierAndConsultedTables) {
  PostcardRig rig;
  PostcardRecorder recorder;
  recorder.Configure({1, 64, 0});
  rig.network.set_postcard_recorder(&recorder);

  // Two packets of one flow: the first resolves through the tables, the
  // second replays from a cache tier with the same memoized table list.
  rig.network.InjectPacket(rig.topo.client.host, rig.FlowPacket(1, 1000));
  rig.sim.Run();
  rig.network.InjectPacket(rig.topo.client.host, rig.FlowPacket(2, 1000));
  rig.sim.Run();

  ASSERT_EQ(recorder.cards().size(), 2u);
  const Postcard& cold = recorder.cards()[0];
  const Postcard& warm = recorder.cards()[1];
  // host, nic, sw0, sw1, nic, host.
  ASSERT_EQ(cold.hops.size(), 6u);
  ASSERT_EQ(warm.hops.size(), 6u);
  EXPECT_EQ(cold.fate, Postcard::Fate::kDelivered);

  EXPECT_EQ(cold.hops[2].tier, CacheTier::kSlowPath);
  EXPECT_NE(warm.hops[2].tier, CacheTier::kSlowPath);
  EXPECT_EQ(cold.hops[2].tables, (std::vector<std::string>{"svc"}));
  EXPECT_EQ(warm.hops[2].tables, cold.hops[2].tables);
  EXPECT_EQ(cold.hops[2].tables_consulted, 1u);
  for (const PostcardHop& hop : cold.hops) {
    EXPECT_GT(hop.program_version, 0u);
    EXPECT_FALSE(hop.dropped);
  }
}

TEST(PostcardNetTest, DroppedPacketCardSealedWithReason) {
  PostcardRig rig;
  PostcardRecorder recorder;
  recorder.Configure({1, 64, 0});
  rig.network.set_postcard_recorder(&recorder);
  packet::Packet p = packet::MakeTcpPacket(
      1, packet::Ipv4Spec{rig.topo.client.address, 0xdeadbeef},
      packet::TcpSpec{1000, 80});
  rig.network.InjectPacket(rig.topo.client.host, std::move(p));
  // Traffic without IPv4 has no flow identity to sample by: it is dropped
  // like the packet above but never sampled, even at 1-in-1.
  packet::Packet no_ip(2);
  packet::AddEthernet(no_ip, packet::EthernetSpec{});
  rig.network.InjectPacket(rig.topo.client.host, std::move(no_ip));
  rig.sim.Run();

  EXPECT_EQ(rig.network.stats().dropped, 2u);
  EXPECT_EQ(recorder.opened(), 1u);
  ASSERT_EQ(recorder.cards().size(), 1u);
  const Postcard& card = recorder.cards()[0];
  EXPECT_EQ(card.fate, Postcard::Fate::kDropped);
  EXPECT_EQ(card.drop_reason, "unroutable");
  EXPECT_FALSE(card.hops.empty());
}

// --- Satellites: drop accounting parity + latency percentiles -------------

TEST(PostcardNetTest, DropReasonTotalsMatchDroppedCounter) {
  PostcardRig rig;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    rig.network.InjectPacket(rig.topo.client.host, rig.FlowPacket(id, 1000));
  }
  rig.network.InjectPacket(
      rig.topo.client.host,
      packet::MakeTcpPacket(5,
                            packet::Ipv4Spec{rig.topo.client.address,
                                             0xdeadbeef},
                            packet::TcpSpec{1000, 80}));
  packet::Packet no_ip(6);
  packet::AddEthernet(no_ip, packet::EthernetSpec{});
  rig.network.InjectPacket(rig.topo.client.host, std::move(no_ip));
  rig.sim.Run();

  const net::NetworkStats& stats = rig.network.stats();
  EXPECT_EQ(stats.delivered, 4u);
  EXPECT_EQ(stats.dropped, 2u);
  std::uint64_t total = 0;
  for (const auto& [reason, count] : stats.drops_by_reason) {
    EXPECT_FALSE(reason.empty());
    total += count;
  }
  EXPECT_EQ(total, stats.dropped);

  telemetry::MetricsRegistry registry;
  rig.network.PublishMetrics(registry);
  const auto* unroutable = registry.FindCounter("net_drop_reason_unroutable");
  ASSERT_NE(unroutable, nullptr);
  EXPECT_EQ(unroutable->value(), 1u);

  const auto* p50 = registry.FindGauge("net_latency_p50_ns");
  const auto* p99 = registry.FindGauge("net_latency_p99_ns");
  const auto* p999 = registry.FindGauge("net_latency_p999_ns");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  ASSERT_NE(p999, nullptr);
  EXPECT_GT(p50->value(), 0.0);
  EXPECT_LE(p50->value(), p99->value());
  EXPECT_LE(p99->value(), p999->value());
  EXPECT_EQ(rig.network.stats().latency_percentiles.count(),
            rig.network.stats().delivered);
}

// --- Invariant re-checks from postcard evidence ---------------------------

TEST(PostcardInvariantTest, CleanRunValidatesEveryCard) {
  PostcardRig rig;
  PostcardRecorder recorder;
  recorder.Configure({1, 4096, 0});
  rig.network.set_postcard_recorder(&recorder);

  fault::InvariantChecker checker(&rig.network);
  checker.AttachPostcards(&recorder);
  checker.Begin();
  for (std::uint64_t id = 1; id <= 32; ++id) {
    rig.network.InjectPacket(rig.topo.client.host,
                             rig.FlowPacket(id, 1000 + (id % 8)));
  }
  rig.sim.Run();
  checker.Finish();

  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? ""
                                    : ToText(checker.violations().front()));
  EXPECT_EQ(checker.postcards_checked(), 32u);
}

TEST(PostcardInvariantTest, BadCardsFlagViolations) {
  PostcardRig rig;
  PostcardRecorder recorder;
  recorder.Configure({1, 64, 0});

  fault::InvariantChecker checker(&rig.network);
  checker.AttachPostcards(&recorder);
  checker.Begin();

  // Card 1: dropped -> no_blackhole.  Card 2: never sealed -> conservation.
  // Card 3: hop stamped with a version outside the device's window, and
  // hop times that regress -> version_consistency + postcard_parity.
  const std::uint64_t dropped = recorder.Open(1, 0x1, 0);
  recorder.Finish(dropped, Postcard::Fate::kDropped, "acl_deny", 5);
  (void)recorder.Open(2, 0x2, 0);
  const std::uint64_t skewed = recorder.Open(3, 0x3, 0);
  PostcardHop hop;
  hop.device = rig.topo.switches[0].value();
  hop.program_version = 0;  // below every device's [old, current] window
  hop.at = 10;
  recorder.RecordHop(skewed, hop);
  hop.at = 4;  // time regresses
  hop.program_version = 1;
  recorder.RecordHop(skewed, hop);
  recorder.Finish(skewed, Postcard::Fate::kDelivered, "", 20);

  checker.CheckPostcards();
  EXPECT_FALSE(checker.ok());
  std::set<std::string> invariants;
  for (const fault::Violation& v : checker.violations()) {
    invariants.insert(v.invariant);
  }
  EXPECT_TRUE(invariants.count("no_blackhole"));
  EXPECT_TRUE(invariants.count("conservation"));
  EXPECT_TRUE(invariants.count("version_consistency"));
  EXPECT_TRUE(invariants.count("postcard_parity"));
}

}  // namespace
}  // namespace flexnet
