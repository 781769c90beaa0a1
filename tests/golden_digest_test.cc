// Golden behaviour digest of the fabric data path.
//
// A 3-switch dRMT line (net::BuildLinear) runs a fixed switch program: an
// exact route, an LPM source-class table that rewrites ipv4.dscp, a ternary
// ACL with a deny entry, and one FlexBPF function that read-modify-writes a
// map.  Heavy-tailed traffic arrives in bursts of 32 while a second flow
// set arrives in bursts of 1, and the RuntimeEngine adds one entry and
// removes another mid-run.
//
// Each seed folds what the run did into one 64-bit digest:
//   * per delivery, in delivery order: packet id, delivered_at, every
//     hop's (device, program version), and the packet's final content;
//   * drop reasons with their counts;
//   * per-table lookup/hit counters on every device;
//   * every device's final FlexBPF map contents;
//   * every device's compiler::FingerprintDevice.
// Cache-tier hit counts, event counts and batch sizes are left out: they
// say how the data path reached its results, not what the results were.
// Packet content is hashed by header/field *name* and value — the content
// Packet::ContentSignature covers — because symbol ids depend on the
// process-wide interning order, which no data-path change should move.
//
// The expected digests were recorded before the flow cache lost its
// exact-match tier; a data-path refactor must leave them byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/incremental.h"
#include "compiler/plan_cache.h"
#include "dataplane/action.h"
#include "flexbpf/builder.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "runtime/engine.h"
#include "telemetry/telemetry.h"

namespace flexnet {
namespace {

using dataplane::Action;
using dataplane::MatchKind;
using dataplane::MatchValue;

constexpr std::uint64_t kSrcBase = 0x0b000000;
constexpr SimDuration kWindow = 2 * kMillisecond;

// FNV-1a over 64-bit words and strings.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void Add(std::string_view s) {
    Add(s.size());
    for (const char c : s) Byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

Action Named(Action action, std::string name) {
  action.name = std::move(name);
  return action;
}

flexbpf::TableDecl Table(std::string name,
                         std::vector<dataplane::KeySpec> key,
                         std::size_t capacity) {
  flexbpf::TableDecl t;
  t.name = std::move(name);
  t.key = std::move(key);
  t.capacity = capacity;
  return t;
}

flexbpf::ProgramIR SwitchProgram(std::uint64_t server, std::uint64_t client) {
  flexbpf::ProgramBuilder b("golden");

  flexbpf::TableDecl route =
      Table("route", {{"ipv4.dst", MatchKind::kExact, 32}}, 16);
  route.actions.push_back(Named(dataplane::MakeForwardAction(1), "to_server"));
  route.actions.push_back(Named(dataplane::MakeForwardAction(2), "to_client"));
  route.entries.push_back({{MatchValue::Exact(server)}, "to_server", 0});
  route.entries.push_back({{MatchValue::Exact(client)}, "to_client", 0});
  b.AddTable(std::move(route));

  // Eight /22 source classes; each stamps its class into ipv4.dscp.
  flexbpf::TableDecl classes =
      Table("src_class", {{"ipv4.src", MatchKind::kLpm, 32}}, 16);
  for (std::uint64_t i = 0; i < 8; ++i) {
    Action mark;
    mark.ops.push_back(
        dataplane::OpSetField{"ipv4.dscp", dataplane::OperandConst{i + 1}});
    const std::string name = "class" + std::to_string(i);
    classes.actions.push_back(Named(mark, name));
    classes.entries.push_back(
        {{MatchValue::Lpm(kSrcBase + (i << 10), 22, 32)}, name, 0});
  }
  b.AddTable(std::move(classes));

  // Deny every source whose low byte is 0x07.
  flexbpf::TableDecl acl =
      Table("acl", {{"ipv4.src", MatchKind::kTernary, 32}}, 16);
  acl.actions.push_back(Named(dataplane::MakeDropAction("acl_deny"), "deny"));
  acl.entries.push_back({{MatchValue::Ternary(0x07, 0xff)}, "deny", 1});
  b.AddTable(std::move(acl));

  // Per-flow-bucket packet count plus a read-modify-write of the dscp the
  // class table stamped.
  b.AddMap("acct", 64, {"pkts", "marks"});
  using flexbpf::BinOpKind;
  auto fn = flexbpf::FunctionBuilder("account")
                .FlowKey(1)
                .OpImm(BinOpKind::kAnd, 2, 1, 63)
                .Const(3, 1)
                .MapAdd("acct", 2, "pkts", 3)
                .Field(4, "ipv4.dscp")
                .MapLoad(5, "acct", 2, "marks")
                .Op(BinOpKind::kAdd, 5, 5, 4)
                .MapStore("acct", 2, "marks", 5)
                .Return()
                .Build();
  EXPECT_TRUE(fn.ok());
  b.AddFunction(std::move(fn).value());
  return b.Build();
}

std::uint64_t RunDigest(std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(&sim);
  const net::LinearTopology topo =
      net::BuildLinear(network, 3, net::SwitchKind::kDrmt);

  const flexbpf::ProgramIR program =
      SwitchProgram(topo.server.address, topo.client.address);
  flexbpf::ProgramIR empty;
  empty.name = program.name;
  const auto plan =
      compiler::ComputeClassPlan(empty, program, arch::ArchKind::kDrmt);
  EXPECT_TRUE(plan.ok());
  if (!plan.ok()) return 0;
  for (const DeviceId id : topo.switches) {
    EXPECT_TRUE(network.Find(id)->ApplyAll(plan.value().plan).ok());
  }

  Digest digest;
  std::uint64_t deliveries = 0;
  network.SetDeliverySink([&](const net::DeliveryRecord& rec) {
    const packet::Packet& p = rec.packet;
    ++deliveries;
    digest.Add(p.id());
    digest.Add(static_cast<std::uint64_t>(p.delivered_at));
    for (const packet::HopRecord& hop : p.trace()) {
      digest.Add(hop.device.value());
      digest.Add(hop.program_version);
    }
    for (const packet::Header& h : p.headers()) {
      digest.Add(h.name());
      for (const packet::Field& f : h.fields()) {
        digest.Add(packet::SymbolName(f.sym));
        digest.Add(f.value);
      }
    }
  });

  // Heavy-tailed set, client -> server, bursts of 32.
  net::TrafficGenerator heavy(&network, seed);
  heavy.set_burst(32);
  net::TrafficGenerator::HeavyTailConfig tail;
  tail.flows = 8192;
  tail.elephants = 64;
  tail.src_base = kSrcBase;
  tail.dst_base = topo.server.address;
  tail.dst_span = 1;
  heavy.StartHeavyTailed(topo.client.host, tail, 2e6, kWindow);

  // Second set, both directions, one packet per injection.
  net::TrafficGenerator single(&network, seed ^ 0x5eedULL);
  single.set_burst(1);
  net::TrafficGenerator::MixConfig mix;
  mix.flows = 24;
  mix.max_pkts = 40;
  mix.per_flow_pps = 100000.0;
  mix.span = kWindow;
  single.StartMix({{topo.client.host, topo.client.address},
                   {topo.server.host, topo.server.address}},
                  mix);

  // Mid-run control-plane writes on the middle switch: one ACL deny lands
  // a third of the way in, one source class is withdrawn at two thirds.
  telemetry::MetricsRegistry metrics;
  runtime::RuntimeEngine engine(&sim, &metrics);
  runtime::ManagedDevice* mid = network.Find(topo.switches[1]);
  sim.Schedule(kWindow / 3, [&engine, mid]() {
    runtime::StepAddEntry add;
    add.table = "acl";
    add.entry.match = {MatchValue::Ternary(0x21, 0xff)};
    add.entry.action = Named(dataplane::MakeDropAction("acl_deny"), "deny");
    add.entry.priority = 2;
    runtime::ReconfigPlan step;
    step.steps.push_back(add);
    engine.ApplyRuntime(*mid, step);
  });
  sim.Schedule(2 * kWindow / 3, [&engine, mid]() {
    runtime::StepRemoveEntry remove;
    remove.table = "src_class";
    remove.match = {MatchValue::Lpm(kSrcBase + (3 << 10), 22, 32)};
    runtime::ReconfigPlan step;
    step.steps.push_back(remove);
    engine.ApplyRuntime(*mid, step);
  });

  sim.Run();

  const net::NetworkStats& stats = network.stats();
  EXPECT_GT(deliveries, 1000u) << "seed " << seed;
  EXPECT_EQ(deliveries, stats.delivered);
  const std::map<std::string, std::uint64_t> drops(
      stats.drops_by_reason.begin(), stats.drops_by_reason.end());
  EXPECT_GT(drops.count("acl_deny"), 0u) << "seed " << seed;
  digest.Add(stats.injected);
  for (const auto& [reason, count] : drops) {
    digest.Add(reason);
    digest.Add(count);
  }

  for (const auto& device : network.devices()) {
    digest.Add(device->id().value());
    const dataplane::Pipeline& pipeline = device->device().pipeline();
    for (const std::string& name : pipeline.TableNames()) {
      const dataplane::MatchActionTable* t = pipeline.FindTable(name);
      digest.Add(name);
      digest.Add(t->lookups());
      digest.Add(t->hits());
    }
    std::vector<std::string> maps = device->maps().Names();
    std::sort(maps.begin(), maps.end());
    for (const std::string& name : maps) {
      state::MapSnapshot cells = device->maps().Find(name)->Export();
      std::sort(cells.begin(), cells.end(),
                [](const state::MapCellValue& a, const state::MapCellValue& b) {
                  return a.key != b.key ? a.key < b.key : a.cell < b.cell;
                });
      digest.Add(name);
      for (const state::MapCellValue& c : cells) {
        digest.Add(c.key);
        digest.Add(c.cell);
        digest.Add(c.value);
      }
    }
    digest.Add(compiler::FingerprintDevice(*device));
  }
  return digest.value();
}

TEST(GoldenDigestTest, FabricBehaviourMatchesRecordedDigests) {
  const std::map<std::uint64_t, std::uint64_t> golden = {
      {7, 0x9143ddbf13f66aa5ULL},
      {1234, 0xd12a473034dcae13ULL},
      {0xfab, 0x69d9a85cad86a614ULL},
  };
  for (const auto& [seed, want] : golden) {
    const std::uint64_t got = RunDigest(seed);
    EXPECT_EQ(got, want) << "seed " << seed << " digest 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace flexnet
