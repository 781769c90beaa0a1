// App lifecycle tests: deploy, update and retire through the fleet
// rollout engine and the sliced controller path.  Regression tests pin
// the header cases (a shared parser state, an update that adds a header,
// a retire that must leave no residue); the lifecycle oracle checks, over
// seeded random programs and two-app interleavings, that deploy then
// retire equals never deployed and that deploy v1 then update to v2
// equals deploy v2.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "apps/telemetry.h"
#include "arch/drmt.h"
#include "common/rng.h"
#include "compiler/plan_cache.h"
#include "controller/controller.h"
#include "controller/fleet.h"
#include "flexbpf/builder.h"
#include "flexbpf/printer.h"
#include "flexbpf/random_program.h"
#include "net/topology.h"

namespace flexnet::controller {
namespace {

flexbpf::TableDecl AclTable(const std::string& name) {
  flexbpf::TableDecl t;
  t.name = name;
  t.key = {{"ipv4.src", dataplane::MatchKind::kExact, 32}};
  t.capacity = 64;
  dataplane::Action deny = dataplane::MakeDropAction();
  deny.name = "deny";
  t.actions.push_back(deny);
  return t;
}

flexbpf::ProgramIR AclApp(const std::vector<std::string>& tables) {
  flexbpf::ProgramBuilder b("aclapp");
  for (const std::string& name : tables) b.AddTable(AclTable(name));
  return b.Build();
}

std::uint64_t CounterValue(const telemetry::MetricsRegistry& metrics,
                           const std::string& name) {
  const telemetry::Counter* counter = metrics.FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

// A step that fails on its own is deterministic: re-applying the plan's
// suffix cannot fix it, so the rollout fails that device at once with the
// step's error instead of spending its retry budget.
TEST(FleetFailFastTest, SemanticStepFailureFailsTheDeviceWithoutRetries) {
  sim::Simulator sim;
  telemetry::MetricsRegistry metrics;
  net::Network network(&sim);
  net::BuildLinear(network, 3);
  Controller ctrl(&network, {}, &metrics);
  FleetManager fleet(&ctrl);

  const std::string uri = "flexnet://fleet/acl";
  auto deploy = fleet.DeployFleetWide(uri, AclApp({"acl"}));
  ASSERT_TRUE(deploy.ok()) << deploy.error().ToText();
  ASSERT_TRUE(deploy->ok());

  // An operator installs a table named like the update's new one, behind
  // the controller's back, on one device.
  runtime::ManagedDevice* victim = network.devices().front().get();
  ASSERT_TRUE(victim->ApplyStep(runtime::StepAddTable{AclTable("acl2")}).ok());

  auto update = fleet.UpdateFleetWide(uri, AclApp({"acl", "acl2"}));
  ASSERT_TRUE(update.ok()) << update.error().ToText();
  EXPECT_EQ(update->device_failures, 1u);
  ASSERT_EQ(update->errors.size(), 1u);
  EXPECT_NE(update->errors.front().find("add_table(acl2)"), std::string::npos)
      << update->errors.front();
  std::size_t retries = 0;
  for (const WaveStat& stat : update->wave_stats) retries += stat.retries;
  EXPECT_EQ(retries, 0u);
  EXPECT_EQ(CounterValue(metrics, "fleet.device_retries"), 0u);
}

flexbpf::ProgramIR VxlanApp(const std::string& name) {
  flexbpf::ProgramBuilder b(name);
  b.AddTable(AclTable(name + ".acl"));
  b.RequireHeader("vxlan", "udp", 4789);
  return b.Build();
}

std::size_t DevicesWithState(const net::Network& network,
                             const std::string& state) {
  std::size_t n = 0;
  for (const auto& d : network.devices()) {
    n += d->device().pipeline().parser().HasState(state) ? 1 : 0;
  }
  return n;
}

std::vector<std::uint64_t> Fingerprints(const net::Network& network) {
  std::vector<std::uint64_t> out;
  for (const auto& d : network.devices()) {
    out.push_back(compiler::FingerprintDevice(*d));
  }
  return out;
}

// Two fleet apps that need one header share its parser state: the second
// deploy joins the state instead of failing on it, retiring the first
// leaves it for the second, and retiring the second removes it.
TEST(ParserStateOwnersTest, FleetAppsShareAHeaderUntilTheLastRetires) {
  sim::Simulator sim;
  telemetry::MetricsRegistry metrics;
  net::Network network(&sim);
  net::BuildLinear(network, 3);
  Controller ctrl(&network, {}, &metrics);
  FleetManager fleet(&ctrl);
  const std::size_t devices = network.devices().size();
  const std::vector<std::uint64_t> before = Fingerprints(network);

  auto a = fleet.DeployFleetWide("flexnet://a/app", VxlanApp("a"));
  ASSERT_TRUE(a.ok()) << a.error().ToText();
  EXPECT_EQ(a->device_failures, 0u);
  EXPECT_EQ(DevicesWithState(network, "vxlan"), devices);

  auto b = fleet.DeployFleetWide("flexnet://b/app", VxlanApp("b"));
  ASSERT_TRUE(b.ok()) << b.error().ToText();
  EXPECT_EQ(b->device_failures, 0u);
  std::size_t retries = 0;
  for (const WaveStat& stat : b->wave_stats) retries += stat.retries;
  EXPECT_EQ(retries, 0u);

  auto retire_a = fleet.RetireFleetWide("flexnet://a/app");
  ASSERT_TRUE(retire_a.ok()) << retire_a.error().ToText();
  EXPECT_EQ(retire_a->device_failures, 0u);
  EXPECT_EQ(DevicesWithState(network, "vxlan"), devices);

  auto retire_b = fleet.RetireFleetWide("flexnet://b/app");
  ASSERT_TRUE(retire_b.ok()) << retire_b.error().ToText();
  EXPECT_EQ(retire_b->device_failures, 0u);
  EXPECT_EQ(DevicesWithState(network, "vxlan"), 0u);
  EXPECT_EQ(Fingerprints(network), before);
}

// Owner bookkeeping on one device: a standard-graph state gains and loses
// owners but is never removed; an owner cannot join a differently wired
// state; an ownerless step keeps its outright add/remove behaviour.
TEST(ParserStateOwnersTest, OwnedStepsOnOneDevice) {
  runtime::ManagedDevice device(
      std::make_unique<arch::DrmtDevice>(DeviceId(1), "sw"));
  const dataplane::ParseGraph& parser = device.device().pipeline().parser();
  const std::uint64_t pristine = compiler::FingerprintDevice(device);

  runtime::StepAddParserState udp;
  udp.state.name = "udp";
  udp.from = "ipv4";
  udp.select_value = 17;
  ASSERT_TRUE(device.ApplyStep(udp, "flexnet://a").ok());
  EXPECT_NE(compiler::FingerprintDevice(device), pristine);
  ASSERT_TRUE(
      device.ApplyStep(runtime::StepRemoveParserState{"udp"}, "flexnet://a")
          .ok());
  EXPECT_TRUE(parser.HasState("udp"));
  EXPECT_EQ(compiler::FingerprintDevice(device), pristine);

  runtime::StepAddParserState miswired = udp;
  miswired.select_value = 99;
  EXPECT_FALSE(device.ApplyStep(miswired, "flexnet://a").ok());
  EXPECT_FALSE(
      device.ApplyStep(runtime::StepRemoveParserState{"udp"}, "flexnet://b")
          .ok());

  runtime::StepAddParserState vxlan;
  vxlan.state.name = "vxlan";
  vxlan.from = "udp";
  vxlan.select_value = 4789;
  ASSERT_TRUE(device.ApplyStep(vxlan).ok());
  EXPECT_EQ(device.FindParserStateOwners("vxlan"), nullptr);
  EXPECT_FALSE(device.ApplyStep(vxlan).ok());  // ownerless: AlreadyExists
  ASSERT_TRUE(device.ApplyStep(runtime::StepRemoveParserState{"vxlan"}).ok());
  EXPECT_FALSE(parser.HasState("vxlan"));
  EXPECT_EQ(compiler::FingerprintDevice(device), pristine);
}

// --- Sliced path: the controller's deploy, update and retire ------------

// A switch line with a controller and a fleet manager over it.
struct Line {
  explicit Line(std::size_t switches) : network(&sim) {
    topo = net::BuildLinear(network, switches);
  }
  sim::Simulator sim;
  telemetry::MetricsRegistry metrics;
  net::Network network;
  net::LinearTopology topo;
  Controller ctrl{&network, {}, &metrics};
  FleetManager fleet{&ctrl};
};

// Sends one INT probe from the client to the server; returns its drop
// reason, or "" when it is delivered.
std::string SendIntProbe(Line& line) {
  line.network.ResetStats();
  line.network.InjectPacket(
      line.topo.client.host,
      apps::MakeTelemetryProbe(1, line.topo.client.address,
                               line.topo.server.address));
  line.sim.Run();
  const net::NetworkStats& stats = line.network.stats();
  if (stats.delivered == 1) return "";
  for (const auto& [reason, count] : stats.drops_by_reason) {
    if (count > 0) return reason;
  }
  return "lost";
}

// An update that adds a header installs it where a fresh deploy would:
// on the whole deploy slice, not only where the app's elements sit.
TEST(SlicedLifecycleTest, UpdateAddingAHeaderParsesItOnTheWholeSlice) {
  Line line(2);
  const std::size_t devices = line.network.devices().size();
  flexbpf::ProgramIR headerless = apps::MakeTelemetryProgram();
  headerless.headers.clear();
  ASSERT_TRUE(line.ctrl.DeployApp("flexnet://infra/int", headerless).ok());
  EXPECT_EQ(SendIntProbe(line), "parse_reject");

  const auto update =
      line.ctrl.UpdateApp("flexnet://infra/int", apps::MakeTelemetryProgram());
  ASSERT_TRUE(update.ok()) << update.error().ToText();
  EXPECT_EQ(DevicesWithState(line.network, "int"), devices);
  EXPECT_EQ(SendIntProbe(line), "");
}

// A retire is an update to the empty program: it removes the app's parser
// states with its elements, so the devices read as never deployed.
TEST(SlicedLifecycleTest, RetireLeavesNoResidue) {
  Line line(2);
  const std::vector<std::uint64_t> before = Fingerprints(line.network);
  EXPECT_EQ(SendIntProbe(line), "parse_reject");

  ASSERT_TRUE(
      line.ctrl.DeployApp("flexnet://infra/int", apps::MakeTelemetryProgram())
          .ok());
  EXPECT_EQ(SendIntProbe(line), "");
  ASSERT_TRUE(line.ctrl.RetireApp("flexnet://infra/int").ok());
  EXPECT_EQ(Fingerprints(line.network), before);
  EXPECT_EQ(SendIntProbe(line), "parse_reject");
}

// Two sliced apps that need one header share its state until the last
// one retires.
TEST(SlicedLifecycleTest, AppsShareAHeaderUntilTheLastRetires) {
  Line line(3);
  const std::size_t devices = line.network.devices().size();
  const std::vector<std::uint64_t> before = Fingerprints(line.network);
  ASSERT_TRUE(line.ctrl.DeployApp("flexnet://a/app", VxlanApp("a")).ok());
  const auto b = line.ctrl.DeployApp("flexnet://b/app", VxlanApp("b"));
  ASSERT_TRUE(b.ok()) << b.error().ToText();
  ASSERT_TRUE(line.ctrl.RetireApp("flexnet://a/app").ok());
  EXPECT_EQ(DevicesWithState(line.network, "vxlan"), devices);
  ASSERT_TRUE(line.ctrl.RetireApp("flexnet://b/app").ok());
  EXPECT_EQ(DevicesWithState(line.network, "vxlan"), 0u);
  EXPECT_EQ(Fingerprints(line.network), before);
}

// Parser states are owned by the app's URI, not its program name, so an
// update that renames the program keeps the header, and the retire that
// follows removes it.
TEST(SlicedLifecycleTest, RenamingUpdateKeepsTheHeaderUntilRetire) {
  Line line(3);
  const std::size_t devices = line.network.devices().size();
  const std::vector<std::uint64_t> before = Fingerprints(line.network);
  ASSERT_TRUE(line.ctrl.DeployApp("flexnet://a/app", VxlanApp("a")).ok());
  const auto update = line.ctrl.UpdateApp("flexnet://a/app", VxlanApp("a2"));
  ASSERT_TRUE(update.ok()) << update.error().ToText();
  EXPECT_EQ(DevicesWithState(line.network, "vxlan"), devices);
  ASSERT_TRUE(line.ctrl.RetireApp("flexnet://a/app").ok());
  EXPECT_EQ(DevicesWithState(line.network, "vxlan"), 0u);
  EXPECT_EQ(Fingerprints(line.network), before);
}

// --- Lifecycle oracle over random programs ---------------------------------

constexpr std::uint64_t kOracleSeeds = 12;

const flexbpf::HeaderRequirement kHeaderPool[] = {
    {"vxlan", "udp", 4789}, {"gtp", "udp", 2152}, {"int", "ipv4", 0xFD}};

// Prefixes the maps and functions of `program` (and every map reference)
// with `prefix`, so two random apps never collide on an element name.
void Namespace(flexbpf::ProgramIR& program, const std::string& prefix) {
  for (flexbpf::MapDecl& map : program.maps) map.name = prefix + map.name;
  for (flexbpf::FunctionDecl& fn : program.functions) {
    fn.name = prefix + fn.name;
    for (std::string& map : fn.maps_used) map = prefix + map;
    for (flexbpf::Instr& instr : fn.instrs) {
      std::visit(
          [&](auto& op) {
            if constexpr (requires { op.map; }) op.map = prefix + op.map;
          },
          instr);
    }
  }
}

// One random version of app `prefix`.  The function and its maps come from
// RandomVerifiedProgramIR under one of two seeds of the app's family; up
// to four deny tables are drawn slot by slot (present, capacity, entries);
// up to two headers come from kHeaderPool.  Two draws of one family thus
// differ by added, removed, restructured and re-entried tables, a changed
// function and added or removed headers, and two apps share headers.
flexbpf::ProgramIR RandomApp(std::uint64_t family, Rng& rng,
                             const std::string& prefix) {
  Rng fn_rng(family * 2 + rng.NextBounded(2));
  flexbpf::ProgramIR program = flexbpf::RandomVerifiedProgramIR(fn_rng);
  program.name = prefix + "app";
  Namespace(program, prefix);
  for (int slot = 0; slot < 4; ++slot) {
    if (rng.NextBounded(10) < 4) continue;
    flexbpf::TableDecl table = AclTable(prefix + "t" + std::to_string(slot));
    table.capacity = 32u << rng.NextBounded(2);
    for (std::uint64_t src = 1; src <= 3; ++src) {
      if (rng.NextBounded(2) == 0) continue;
      flexbpf::InitialEntry entry;
      entry.match = {dataplane::MatchValue::Exact(src)};
      entry.action_name = "deny";
      table.entries.push_back(entry);
    }
    program.tables.push_back(std::move(table));
  }
  for (const flexbpf::HeaderRequirement& req : kHeaderPool) {
    if (program.headers.size() < 2 && rng.NextBounded(3) == 0) {
      program.headers.push_back(req);
    }
  }
  return program;
}

// A device's parse graph, states sorted by name.
std::string ParseGraphText(const runtime::ManagedDevice& device) {
  const dataplane::ParseGraph& parser = device.device().pipeline().parser();
  std::vector<std::string> names = parser.StateNames();
  std::sort(names.begin(), names.end());
  std::string text;
  for (const std::string& name : names) {
    const dataplane::ParseState* state = parser.FindState(name);
    text += name + "[" + state->select_field + "]";
    for (const dataplane::ParseTransition& t : state->transitions) {
      text += " " + std::to_string(t.select_value) + (t.is_default ? "*" : "") +
              "->" + t.next_state;
    }
    text += ";";
  }
  return text;
}

// Parse verdicts of a probe per header in kHeaderPool plus plain TCP.
std::string ProbeVerdicts(const runtime::ManagedDevice& device) {
  std::vector<packet::Packet> probes;
  probes.push_back(
      packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2}, packet::TcpSpec{}));
  probes.push_back(apps::MakeTelemetryProbe(2, 1, 2));
  for (const std::uint64_t port : {4789u, 2152u}) {
    packet::Ipv4Spec ip{1, 2};
    ip.proto = 17;
    packet::Packet p = packet::MakeUdpPacket(3, ip, packet::UdpSpec{9, port});
    p.PushHeader(port == 4789u ? "vxlan" : "gtp");
    probes.push_back(std::move(p));
  }
  const dataplane::ParseGraph& parser = device.device().pipeline().parser();
  std::string verdicts;
  for (const packet::Packet& p : probes) {
    verdicts += parser.Accepts(p) ? 'A' : 'R';
  }
  return verdicts;
}

// FingerprintDevice's content with install order factored out: tables,
// entries and functions sorted, parser states with their owners.  An
// update appends the tables, entries and functions it adds or replaces,
// where a fresh deploy installs them in program order, so whole
// fingerprints of an updated and a freshly deployed device differ.
std::vector<std::string> HostedStates(const net::Network& network) {
  std::vector<std::string> states;
  for (const auto& d : network.devices()) {
    const dataplane::Pipeline& pipeline = d->device().pipeline();
    std::vector<std::string> items;
    for (const std::string& name : pipeline.TableNames()) {
      const dataplane::MatchActionTable* table = pipeline.FindTable(name);
      std::vector<std::string> entries;
      for (const dataplane::TableEntry& entry : table->entries()) {
        std::string e = entry.action.name + "/" +
                        std::to_string(entry.priority);
        for (const dataplane::MatchValue& m : entry.match) {
          e += "/" + std::to_string(m.value) + ":" + std::to_string(m.mask);
        }
        entries.push_back(std::move(e));
      }
      std::sort(entries.begin(), entries.end());
      std::string item = "table " + name + " " +
                         std::to_string(table->capacity());
      for (const dataplane::KeySpec& key : table->key()) {
        item += " " + key.field;
      }
      for (const std::string& e : entries) item += " " + e;
      items.push_back(std::move(item));
    }
    for (const flexbpf::FunctionDecl& fn : d->functions()) {
      const auto printed = flexbpf::PrintFunction(fn);
      items.push_back("fn " + (printed.ok() ? printed.value() : fn.name));
    }
    for (const std::string& name : d->maps().Names()) {
      items.push_back("map " + name + " " +
                      std::to_string(static_cast<int>(
                          d->maps().Find(name)->encoding())));
    }
    std::sort(items.begin(), items.end());
    std::string state = ParseGraphText(*d);
    for (const std::string& name :
         d->device().pipeline().parser().StateNames()) {
      if (const auto* owners = d->FindParserStateOwners(name)) {
        state += " " + name + (owners->installed ? "+" : "-");
        for (const std::string& app : owners->apps) state += " " + app;
      }
    }
    for (const std::string& item : items) state += "\n" + item;
    states.push_back(std::move(state));
  }
  return states;
}

std::vector<std::string> SlicedView(const net::Network& network) {
  std::vector<std::string> view;
  for (const auto& d : network.devices()) {
    view.push_back(ParseGraphText(*d) + " " + ProbeVerdicts(*d));
  }
  return view;
}

// Deploy then retire equals never deployed, on both paths, with two apps
// interleaved: B deploys after A and the two retire in random order.
TEST(LifecycleOracleTest, DeployThenRetireIsNeverDeployed) {
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const flexbpf::ProgramIR a = RandomApp(2 * seed, rng, "a.");
    const flexbpf::ProgramIR b = RandomApp(2 * seed + 1, rng, "b.");
    const bool a_first = rng.NextBounded(2) == 0;
    const char* order[2] = {a_first ? "flexnet://a" : "flexnet://b",
                            a_first ? "flexnet://b" : "flexnet://a"};

    Line fleet_line(3);
    const std::vector<std::uint64_t> fleet_before =
        Fingerprints(fleet_line.network);
    for (const auto& [uri, program] :
         {std::pair{"flexnet://a", &a}, std::pair{"flexnet://b", &b}}) {
      const auto r = fleet_line.fleet.DeployFleetWide(uri, *program);
      ASSERT_TRUE(r.ok()) << r.error().ToText();
      ASSERT_EQ(r->device_failures, 0u)
          << ::testing::PrintToString(r->errors);
    }
    for (const char* uri : order) {
      const auto r = fleet_line.fleet.RetireFleetWide(uri);
      ASSERT_TRUE(r.ok()) << r.error().ToText();
      ASSERT_EQ(r->device_failures, 0u)
          << ::testing::PrintToString(r->errors);
    }
    EXPECT_EQ(Fingerprints(fleet_line.network), fleet_before);

    Line sliced_line(3);
    const std::vector<std::uint64_t> sliced_before =
        Fingerprints(sliced_line.network);
    for (const auto& [uri, program] :
         {std::pair{"flexnet://a", &a}, std::pair{"flexnet://b", &b}}) {
      const auto r = sliced_line.ctrl.DeployApp(uri, *program);
      ASSERT_TRUE(r.ok()) << r.error().ToText();
    }
    for (const char* uri : order) {
      const Status r = sliced_line.ctrl.RetireApp(uri);
      ASSERT_TRUE(r.ok()) << r.error().ToText();
    }
    EXPECT_EQ(Fingerprints(sliced_line.network), sliced_before);
  }
}

// Deploy v1 then update to v2 equals deploy v2, next to a co-hosted app B
// that may share v1's and v2's headers.  The fleet path compares each
// device's hosted state up to install order (HostedStates); the sliced
// path compares each device's parse graph and probe verdicts, since
// placement may rightly differ there.
TEST(LifecycleOracleTest, UpdateEqualsFreshDeploy) {
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const flexbpf::ProgramIR v1 = RandomApp(2 * seed, rng, "a.");
    const flexbpf::ProgramIR v2 = RandomApp(2 * seed, rng, "a.");
    const flexbpf::ProgramIR b = RandomApp(2 * seed + 1, rng, "b.");

    Line updated(3);
    Line fresh(3);
    for (Line* line : {&updated, &fresh}) {
      const auto r = line->fleet.DeployFleetWide("flexnet://b", b);
      ASSERT_TRUE(r.ok()) << r.error().ToText();
    }
    ASSERT_TRUE(updated.fleet.DeployFleetWide("flexnet://a", v1).ok());
    const auto update = updated.fleet.UpdateFleetWide("flexnet://a", v2);
    ASSERT_TRUE(update.ok()) << update.error().ToText();
    ASSERT_EQ(update->device_failures, 0u)
        << ::testing::PrintToString(update->errors);
    ASSERT_TRUE(fresh.fleet.DeployFleetWide("flexnet://a", v2).ok());
    EXPECT_EQ(HostedStates(updated.network), HostedStates(fresh.network));

    Line sliced_updated(3);
    Line sliced_fresh(3);
    for (Line* line : {&sliced_updated, &sliced_fresh}) {
      ASSERT_TRUE(line->ctrl.DeployApp("flexnet://b", b).ok());
    }
    ASSERT_TRUE(sliced_updated.ctrl.DeployApp("flexnet://a", v1).ok());
    const auto sliced_update = sliced_updated.ctrl.UpdateApp("flexnet://a", v2);
    ASSERT_TRUE(sliced_update.ok()) << sliced_update.error().ToText();
    ASSERT_TRUE(sliced_fresh.ctrl.DeployApp("flexnet://a", v2).ok());
    EXPECT_EQ(SlicedView(sliced_updated.network),
              SlicedView(sliced_fresh.network));
  }
}

}  // namespace
}  // namespace flexnet::controller
