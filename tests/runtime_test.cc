#include <gtest/gtest.h>

#include "arch/drmt.h"
#include "arch/rmt.h"
#include "flexbpf/builder.h"
#include "packet/flow.h"
#include "runtime/engine.h"
#include "runtime/managed_device.h"
#include "telemetry/telemetry.h"

namespace flexnet::runtime {
namespace {

std::unique_ptr<ManagedDevice> MakeDrmt() {
  return std::make_unique<ManagedDevice>(
      std::make_unique<arch::DrmtDevice>(DeviceId(1), "sw"));
}

flexbpf::TableDecl SimpleTable(const std::string& name,
                               std::size_t capacity = 64) {
  flexbpf::TableDecl t;
  t.name = name;
  t.key = {{"ipv4.src", dataplane::MatchKind::kExact, 32}};
  t.capacity = capacity;
  dataplane::Action drop = dataplane::MakeDropAction("blocked");
  drop.name = "deny";
  t.actions.push_back(drop);
  return t;
}

flexbpf::FunctionDecl CountFunction() {
  auto fn = flexbpf::FunctionBuilder("counter")
                .FlowKey(0)
                .Const(1, 1)
                .MapAdd("counts", 0, "pkts", 1)
                .Return()
                .Build();
  return std::move(fn).value();
}

flexbpf::MapDecl CountsMap() {
  flexbpf::MapDecl m;
  m.name = "counts";
  m.size = 128;
  m.cells = {"pkts"};
  return m;
}

// Reservation-backed resources only (parser states always reflect the
// standard parse graph, so IsZero() never holds on a live device).
bool NoReservations(const arch::Device& dev) {
  const arch::ResourceVector used = dev.UsedResources();
  return used.sram_entries == 0 && used.tcam_entries == 0 &&
         used.action_slots == 0 && used.state_bytes == 0;
}

packet::Packet TcpPkt(std::uint64_t src = 1) {
  return packet::MakeTcpPacket(1, packet::Ipv4Spec{src, 2},
                               packet::TcpSpec{100, 80});
}

// --- ManagedDevice step application ---

TEST(ManagedDeviceTest, AddTableInstallsEntriesAndDefault) {
  auto dev = MakeDrmt();
  flexbpf::TableDecl t = SimpleTable("acl");
  flexbpf::InitialEntry e;
  e.match = {dataplane::MatchValue::Exact(7)};
  e.action_name = "deny";
  t.entries.push_back(e);
  ASSERT_TRUE(dev->ApplyStep(StepAddTable{t, 0}).ok());
  EXPECT_TRUE(dev->HasTable("acl"));
  packet::Packet bad = TcpPkt(7);
  dev->Process(bad, 0);
  EXPECT_TRUE(bad.dropped());
  packet::Packet good = TcpPkt(8);
  dev->Process(good, 0);
  EXPECT_FALSE(good.dropped());
}

TEST(ManagedDeviceTest, AddTableWithBadEntryActionRollsBack) {
  auto dev = MakeDrmt();
  flexbpf::TableDecl t = SimpleTable("acl");
  flexbpf::InitialEntry e;
  e.match = {dataplane::MatchValue::Exact(7)};
  e.action_name = "ghost";
  t.entries.push_back(e);
  EXPECT_FALSE(dev->ApplyStep(StepAddTable{t, 0}).ok());
  EXPECT_FALSE(dev->HasTable("acl"));
  // Resources were released on rollback.
  EXPECT_TRUE(NoReservations(dev->device()));
}

TEST(ManagedDeviceTest, RemoveTableReleasesResources) {
  auto dev = MakeDrmt();
  ASSERT_TRUE(dev->ApplyStep(StepAddTable{SimpleTable("t"), 0}).ok());
  EXPECT_FALSE(NoReservations(dev->device()));
  ASSERT_TRUE(dev->ApplyStep(StepRemoveTable{"t"}).ok());
  EXPECT_TRUE(NoReservations(dev->device()));
  EXPECT_FALSE(dev->ApplyStep(StepRemoveTable{"t"}).ok());
}

TEST(ManagedDeviceTest, FunctionNeedsItsMap) {
  auto dev = MakeDrmt();
  ASSERT_TRUE(dev->ApplyStep(StepAddMap{CountsMap(),
                                        flexbpf::MapEncoding::kStatefulTable})
                  .ok());
  ASSERT_TRUE(dev->ApplyStep(StepAddFunction{CountFunction()}).ok());
  EXPECT_TRUE(dev->HasFunction("counter"));
  packet::Packet p = TcpPkt();
  dev->Process(p, 0);
  dev->Process(p, 0);
  const auto key = packet::ExtractFlowKey(p);
  EXPECT_EQ(dev->maps().Load("counts", key->Hash(), "pkts"), 2u);
}

TEST(ManagedDeviceTest, DuplicateFunctionRejected) {
  auto dev = MakeDrmt();
  ASSERT_TRUE(dev->ApplyStep(StepAddFunction{CountFunction()}).ok());
  EXPECT_EQ(dev->ApplyStep(StepAddFunction{CountFunction()}).error().code(),
            ErrorCode::kAlreadyExists);
}

TEST(ManagedDeviceTest, RemoveFunction) {
  auto dev = MakeDrmt();
  ASSERT_TRUE(dev->ApplyStep(StepAddFunction{CountFunction()}).ok());
  ASSERT_TRUE(dev->ApplyStep(StepRemoveFunction{"counter"}).ok());
  EXPECT_FALSE(dev->HasFunction("counter"));
  EXPECT_TRUE(NoReservations(dev->device()));
}

TEST(ManagedDeviceTest, MapReservesStateBytes) {
  auto dev = MakeDrmt();
  ASSERT_TRUE(dev->ApplyStep(StepAddMap{CountsMap(),
                                        flexbpf::MapEncoding::kStatefulTable})
                  .ok());
  EXPECT_EQ(dev->device().UsedResources().state_bytes,
            static_cast<std::int64_t>(CountsMap().StateBytes()));
  ASSERT_TRUE(dev->ApplyStep(StepRemoveMap{"counts"}).ok());
  EXPECT_EQ(dev->device().UsedResources().state_bytes, 0);
}

TEST(ManagedDeviceTest, ParserStateSteps) {
  auto dev = MakeDrmt();
  StepAddParserState add;
  add.state.name = "int";
  add.from = "ipv4";
  add.select_value = 0xFD;
  ASSERT_TRUE(dev->ApplyStep(add).ok());
  EXPECT_TRUE(dev->device().pipeline().parser().HasState("int"));
  ASSERT_TRUE(dev->ApplyStep(StepRemoveParserState{"int"}).ok());
  EXPECT_FALSE(dev->device().pipeline().parser().HasState("int"));
}

TEST(ManagedDeviceTest, EntryStepsMutateInstalledTable) {
  auto dev = MakeDrmt();
  ASSERT_TRUE(dev->ApplyStep(StepAddTable{SimpleTable("acl"), 0}).ok());
  StepAddEntry add;
  add.table = "acl";
  add.entry.match = {dataplane::MatchValue::Exact(9)};
  add.entry.action = dataplane::MakeDropAction("x");
  ASSERT_TRUE(dev->ApplyStep(add).ok());
  packet::Packet p = TcpPkt(9);
  dev->Process(p, 0);
  EXPECT_TRUE(p.dropped());
  ASSERT_TRUE(dev->ApplyStep(
                     StepRemoveEntry{"acl", {dataplane::MatchValue::Exact(9)}})
                  .ok());
  packet::Packet q = TcpPkt(9);
  dev->Process(q, 0);
  EXPECT_FALSE(q.dropped());
}

TEST(ManagedDeviceTest, EveryStepBumpsProgramVersion) {
  auto dev = MakeDrmt();
  const std::uint64_t v0 = dev->device().program_version();
  ASSERT_TRUE(dev->ApplyStep(StepAddTable{SimpleTable("t"), 0}).ok());
  EXPECT_EQ(dev->device().program_version(), v0 + 1);
  ASSERT_TRUE(dev->ApplyStep(StepRemoveTable{"t"}).ok());
  EXPECT_EQ(dev->device().program_version(), v0 + 2);
}

TEST(ManagedDeviceTest, FailedStepDoesNotBumpVersion) {
  auto dev = MakeDrmt();
  const std::uint64_t v0 = dev->device().program_version();
  ASSERT_FALSE(dev->ApplyStep(StepRemoveTable{"ghost"}).ok());
  EXPECT_EQ(dev->device().program_version(), v0);
}

// --- Plan cost model ---

TEST(PlanTest, DurationSumsPerOpCosts) {
  auto dev = MakeDrmt();
  ReconfigPlan plan;
  plan.steps.push_back(StepAddTable{SimpleTable("a"), 0});
  plan.steps.push_back(StepAddTable{SimpleTable("b"), 1});
  plan.steps.push_back(StepRemoveTable{"a"});
  const SimDuration d = plan.EstimateDuration(dev->device());
  EXPECT_EQ(d, 2 * dev->device().ReconfigCost(arch::ReconfigOp::kAddTable) +
                   dev->device().ReconfigCost(arch::ReconfigOp::kRemoveTable));
}

TEST(PlanTest, EntryOpsAreMicroseconds) {
  auto dev = MakeDrmt();
  ReconfigPlan plan;
  StepAddEntry e;
  e.table = "t";
  plan.steps.push_back(e);
  EXPECT_LT(plan.EstimateDuration(dev->device()), 1 * kMillisecond);
  EXPECT_EQ(plan.StructuralOpCount(), 0u);
  EXPECT_EQ(plan.OpCount(), 1u);
}

TEST(PlanTest, StepText) {
  EXPECT_EQ(ToText(ReconfigStep(StepAddTable{SimpleTable("x"), 0})),
            "add_table(x)");
  EXPECT_EQ(ToText(ReconfigStep(StepRemoveMap{"m"})), "remove_map(m)");
}

// --- RuntimeEngine: hitless vs drain (E1/E2 semantics at unit scale) ---

TEST(EngineTest, RuntimeApplyIsHitless) {
  sim::Simulator sim;
  auto dev = MakeDrmt();
  RuntimeEngine engine(&sim);
  ReconfigPlan plan;
  plan.description = "install acl";
  plan.steps.push_back(StepAddTable{SimpleTable("acl"), 0});

  bool done_called = false;
  ApplyReport final_report;
  const SimTime eta = engine.ApplyRuntime(*dev, plan,
                                          [&](const ApplyReport& report) {
                                            done_called = true;
                                            final_report = report;
                                          });
  EXPECT_GT(eta, 0);
  // While the reconfig is pending, traffic flows (device online).
  packet::Packet during = TcpPkt();
  dev->Process(during, sim.now());
  EXPECT_FALSE(during.dropped());
  EXPECT_TRUE(dev->device().online());

  sim.Run();
  EXPECT_TRUE(done_called);
  EXPECT_TRUE(final_report.ok());
  EXPECT_EQ(final_report.steps_applied, 1u);
  EXPECT_EQ(final_report.duration(),
            dev->device().ReconfigCost(arch::ReconfigOp::kAddTable));
  EXPECT_TRUE(dev->HasTable("acl"));
}

TEST(EngineTest, RuntimeApplyMultiStepCompletesWithinASecond) {
  sim::Simulator sim;
  auto dev = MakeDrmt();
  RuntimeEngine engine(&sim);
  ReconfigPlan plan;
  for (int i = 0; i < 10; ++i) {
    plan.steps.push_back(StepAddTable{SimpleTable("t" + std::to_string(i)), 0});
  }
  const SimTime eta = engine.ApplyRuntime(*dev, plan);
  EXPECT_LT(eta, 1 * kSecond);  // the paper's headline bound
  sim.Run();
  EXPECT_EQ(dev->device().pipeline().table_count(), 10u);
}

TEST(EngineTest, DrainApplyTakesDeviceOffline) {
  sim::Simulator sim;
  auto dev = MakeDrmt();
  RuntimeEngine engine(&sim);
  ReconfigPlan plan;
  plan.steps.push_back(StepAddTable{SimpleTable("acl"), 0});
  const SimTime eta = engine.ApplyDrain(*dev, plan);
  EXPECT_FALSE(dev->device().online());
  // Traffic during the drain window is lost.
  packet::Packet during = TcpPkt();
  dev->Process(during, sim.now());
  EXPECT_TRUE(during.dropped());
  sim.Run();
  EXPECT_TRUE(dev->device().online());
  EXPECT_TRUE(dev->HasTable("acl"));
  EXPECT_EQ(eta, dev->device().FullReflashCost());
  EXPECT_GT(eta, 1 * kSecond);  // drains are orders of magnitude slower
}

TEST(EngineTest, FailingStepReportedNotFatal) {
  sim::Simulator sim;
  auto dev = MakeDrmt();
  RuntimeEngine engine(&sim);
  ReconfigPlan plan;
  plan.steps.push_back(StepRemoveTable{"ghost"});       // fails
  plan.steps.push_back(StepAddTable{SimpleTable("t"), 0});  // applies
  ApplyReport report;
  engine.ApplyRuntime(*dev, plan,
                      [&](const ApplyReport& r) { report = r; });
  sim.Run();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.steps_failed, 1u);
  EXPECT_EQ(report.steps_applied, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_TRUE(dev->HasTable("t"));
  // The chain ran past the failure, so steps_applied is NOT a resume
  // prefix; the resume point is the first step that did not land.
  EXPECT_EQ(report.first_failed_step, 0u);
  EXPECT_EQ(report.ResumePoint(), 0u);
}

TEST(EngineTest, SemanticFailureMidPlanResumePointIsFirstFailure) {
  sim::Simulator sim;
  auto dev = MakeDrmt();
  RuntimeEngine engine(&sim);
  ReconfigPlan plan;
  plan.steps.push_back(StepAddTable{SimpleTable("a"), 0});  // applies
  plan.steps.push_back(StepRemoveTable{"ghost"});           // fails
  plan.steps.push_back(StepAddTable{SimpleTable("b"), 1});  // applies
  plan.steps.push_back(StepRemoveTable{"ghost2"});          // fails
  ApplyReport report;
  engine.ApplyRuntime(*dev, plan,
                      [&](const ApplyReport& r) { report = r; });
  sim.Run();
  EXPECT_EQ(report.steps_applied, 2u);
  EXPECT_EQ(report.steps_failed, 2u);
  // A suffix retry must start at the first *failed* step (index 1), not
  // at the applied-step count (2), which would skip the failure forever.
  EXPECT_EQ(report.first_failed_step, 1u);
  EXPECT_EQ(report.ResumePoint(), 1u);
}

TEST(EngineTest, CleanApplyResumePointIsPlanLength) {
  sim::Simulator sim;
  auto dev = MakeDrmt();
  RuntimeEngine engine(&sim);
  ReconfigPlan plan;
  plan.steps.push_back(StepAddTable{SimpleTable("a"), 0});
  plan.steps.push_back(StepAddTable{SimpleTable("b"), 1});
  ApplyReport report;
  engine.ApplyRuntime(*dev, plan,
                      [&](const ApplyReport& r) { report = r; });
  sim.Run();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.first_failed_step, SIZE_MAX);
  EXPECT_EQ(report.ResumePoint(), plan.steps.size());
}

TEST(EngineTest, StepsApplyIncrementallyOverTime) {
  sim::Simulator sim;
  auto dev = MakeDrmt();
  RuntimeEngine engine(&sim);
  ReconfigPlan plan;
  plan.steps.push_back(StepAddTable{SimpleTable("first"), 0});
  plan.steps.push_back(StepAddTable{SimpleTable("second"), 1});
  engine.ApplyRuntime(*dev, plan);
  const SimDuration step_cost =
      dev->device().ReconfigCost(arch::ReconfigOp::kAddTable);
  sim.RunUntil(step_cost);
  EXPECT_TRUE(dev->HasTable("first"));
  EXPECT_FALSE(dev->HasTable("second"));
  sim.RunUntil(2 * step_cost);
  EXPECT_TRUE(dev->HasTable("second"));
}

// Per-packet consistency: every packet sees exactly one program version.
TEST(EngineTest, PacketsSeeConsistentVersions) {
  sim::Simulator sim;
  auto dev = MakeDrmt();
  RuntimeEngine engine(&sim);
  ReconfigPlan plan;
  for (int i = 0; i < 5; ++i) {
    plan.steps.push_back(StepAddTable{SimpleTable("t" + std::to_string(i)), 0});
  }
  engine.ApplyRuntime(*dev, plan);
  std::vector<std::uint64_t> versions;
  // Inject a packet every 10ms while the plan lands (5 steps x 50ms).
  for (int i = 1; i <= 30; ++i) {
    sim.Schedule(i * 10 * kMillisecond, [&versions, &dev, &sim]() {
      packet::Packet p = TcpPkt();
      dev->Process(p, sim.now());
      ASSERT_EQ(p.trace().size(), 1u);
      versions.push_back(p.trace()[0].program_version);
    });
  }
  sim.Run();
  // Versions are monotone and only ever step by whole versions.
  for (std::size_t i = 1; i < versions.size(); ++i) {
    EXPECT_GE(versions[i], versions[i - 1]);
  }
  EXPECT_EQ(versions.back(), versions.front() + 5);
}

// The engine points the registry's tracer clock at its simulator; once
// both are gone, the process-wide tracer must not read the dead simulator.
TEST(EngineTest, DestructionReleasesTracerClock) {
  telemetry::Tracer& tracer = telemetry::Default().tracer();
  auto simulator = std::make_unique<sim::Simulator>();
  auto engine = std::make_unique<RuntimeEngine>(simulator.get());
  simulator->RunUntil(5 * kMillisecond);
  EXPECT_EQ(tracer.now(), 5 * kMillisecond);
  engine.reset();
  simulator.reset();
  EXPECT_FALSE(tracer.has_clock());
  const telemetry::SpanId id = [&] {
    telemetry::ScopedSpan span(&tracer, "engine_test.after_engine");
    return span.id();
  }();
  ASSERT_NE(tracer.Find(id), nullptr);
  EXPECT_EQ(tracer.Find(id)->begin, 0);
}

// A second live engine on the same registry keeps its clock when an
// earlier one dies.
TEST(EngineTest, DestructionKeepsALaterEnginesClock) {
  telemetry::Tracer& tracer = telemetry::Default().tracer();
  sim::Simulator live_sim;
  live_sim.RunUntil(7 * kMillisecond);
  auto dead_sim = std::make_unique<sim::Simulator>();
  auto dead = std::make_unique<RuntimeEngine>(dead_sim.get());
  {
    RuntimeEngine live(&live_sim);
    dead.reset();
    dead_sim.reset();
    ASSERT_TRUE(tracer.has_clock());
    EXPECT_EQ(tracer.now(), 7 * kMillisecond);
  }
  EXPECT_FALSE(tracer.has_clock());
}

}  // namespace
}  // namespace flexnet::runtime
