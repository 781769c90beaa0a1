#include <gtest/gtest.h>

#include "apps/firewall.h"
#include "apps/infra.h"
#include "arch/drmt.h"
#include "arch/endpoint.h"
#include "arch/rmt.h"
#include "arch/tile.h"
#include "compiler/compile.h"
#include "compiler/incremental.h"
#include "flexbpf/builder.h"

namespace flexnet::compiler {
namespace {

flexbpf::TableDecl SmallTable(const std::string& name,
                              std::size_t capacity = 128) {
  flexbpf::TableDecl t;
  t.name = name;
  t.key = {{"ipv4.src", dataplane::MatchKind::kExact, 32}};
  t.capacity = capacity;
  return t;
}

flexbpf::ProgramIR TablesProgram(const std::string& name, int tables,
                                 std::size_t capacity = 128) {
  flexbpf::ProgramBuilder b(name);
  for (int i = 0; i < tables; ++i) {
    b.AddTable(SmallTable(name + ".t" + std::to_string(i), capacity));
  }
  return b.Build();
}

class SliceFixture : public ::testing::Test {
 protected:
  runtime::ManagedDevice* Add(std::unique_ptr<arch::Device> device) {
    devices_.push_back(
        std::make_unique<runtime::ManagedDevice>(std::move(device)));
    slice_.push_back(devices_.back().get());
    return devices_.back().get();
  }
  std::vector<std::unique_ptr<runtime::ManagedDevice>> devices_;
  std::vector<runtime::ManagedDevice*> slice_;
  std::uint64_t next_id_ = 1;
  DeviceId NextId() { return DeviceId(next_id_++); }
};

class CompilerTest : public SliceFixture {};

TEST_F(CompilerTest, EmptySliceFails) {
  Compiler c;
  EXPECT_FALSE(c.Compile(TablesProgram("p", 1), {}).ok());
}

TEST_F(CompilerTest, RejectsUnverifiableProgram) {
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  flexbpf::ProgramIR bad;
  bad.name = "bad";
  flexbpf::FunctionDecl fn;
  fn.name = "empty";  // empty body fails verification
  bad.functions.push_back(fn);
  Compiler c;
  const auto r = c.Compile(bad, slice_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kVerificationFailed);
}

TEST_F(CompilerTest, PlacesAllElementsAndEmitsPlans) {
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  Compiler c;
  const auto r = c.Compile(apps::MakeFirewallProgram(), slice_);
  ASSERT_TRUE(r.ok()) << r.error().ToText();
  // 1 table + 1 function + 1 map.
  EXPECT_EQ(r->placements.size(), 3u);
  EXPECT_EQ(r->plans.size(), 1u);
  EXPECT_EQ(r->TotalPlanOps(), 3u);
  EXPECT_NE(r->Find(ElementKind::kTable, "fw.acl"), nullptr);
  EXPECT_NE(r->Find(ElementKind::kFunction, "fw.conntrack"), nullptr);
  EXPECT_NE(r->Find(ElementKind::kMap, "fw.conn"), nullptr);
}

TEST_F(CompilerTest, ProbesAreRolledBack) {
  auto* sw = Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  Compiler c;
  ASSERT_TRUE(c.Compile(apps::MakeFirewallProgram(), slice_).ok());
  // Compilation must not leave reservations behind.
  const arch::ResourceVector used = sw->device().UsedResources();
  EXPECT_EQ(used.sram_entries, 0);
  EXPECT_EQ(used.tcam_entries, 0);
  EXPECT_EQ(used.action_slots, 0);
  EXPECT_EQ(used.state_bytes, 0);
}

TEST_F(CompilerTest, PlansApplyCleanly) {
  auto* sw = Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  Compiler c;
  const auto r = c.Compile(apps::MakeFirewallProgram(), slice_);
  ASSERT_TRUE(r.ok());
  for (const auto& [id, plan] : r->plans) {
    ASSERT_EQ(id, sw->id());
    ASSERT_TRUE(sw->ApplyAll(plan).ok());
  }
  EXPECT_TRUE(sw->HasTable("fw.acl"));
  EXPECT_TRUE(sw->HasFunction("fw.conntrack"));
  EXPECT_NE(sw->maps().Find("fw.conn"), nullptr);
}

TEST_F(CompilerTest, DomainConstraintForcesHost) {
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  auto* host = Add(std::make_unique<arch::HostDevice>(NextId(), "host"));
  flexbpf::ProgramBuilder b("cc");
  auto fn = flexbpf::FunctionBuilder("cc.react", flexbpf::Domain::kHost)
                .Const(0, 1)
                .Return()
                .Build();
  b.AddFunction(std::move(fn).value());
  Compiler c;
  const auto r = c.Compile(b.Build(), slice_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Find(ElementKind::kFunction, "cc.react")->device, host->id());
}

TEST_F(CompilerTest, DomainUnsatisfiableFails) {
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  flexbpf::ProgramBuilder b("cc");
  auto fn = flexbpf::FunctionBuilder("cc.react", flexbpf::Domain::kHost)
                .Const(0, 1)
                .Return()
                .Build();
  b.AddFunction(std::move(fn).value());
  Compiler c;
  EXPECT_FALSE(c.Compile(b.Build(), slice_).ok());
}

TEST_F(CompilerTest, OverflowSpillsToSecondDevice) {
  arch::DrmtConfig small;
  small.sram_pool = 300;
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw0", small));
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw1", small));
  Compiler c;  // default balanced objective
  const auto r = c.Compile(TablesProgram("p", 4, 128), slice_);
  ASSERT_TRUE(r.ok()) << r.error().ToText();
  std::set<std::uint64_t> devices;
  for (const auto& p : r->placements) devices.insert(p.device.value());
  EXPECT_EQ(devices.size(), 2u);
}

TEST_F(CompilerTest, FailsWhenNothingFits) {
  arch::DrmtConfig tiny;
  tiny.sram_pool = 100;
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw", tiny));
  Compiler c;
  const auto r = c.Compile(TablesProgram("p", 1, 500), slice_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kCompilationFailed);
}

TEST_F(CompilerTest, MinLatencyPrefersSwitch) {
  Add(std::make_unique<arch::HostDevice>(NextId(), "host"));
  auto* sw = Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  CompileOptions options;
  options.objective = Objective::kMinLatency;
  Compiler c(options);
  const auto r = c.Compile(TablesProgram("p", 2), slice_);
  ASSERT_TRUE(r.ok());
  for (const auto& p : r->placements) {
    EXPECT_EQ(p.device, sw->id());
  }
}

TEST_F(CompilerTest, BalancedSpreadsLoad) {
  arch::DrmtConfig config;
  config.sram_pool = 4096;
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw0", config));
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw1", config));
  CompileOptions options;
  options.objective = Objective::kBalanced;
  Compiler c(options);
  // Apply as we go so utilization is visible to the next compile.
  std::set<std::uint64_t> used_devices;
  for (int i = 0; i < 4; ++i) {
    const auto r =
        c.Compile(TablesProgram("p" + std::to_string(i), 1, 1024), slice_);
    ASSERT_TRUE(r.ok());
    for (const auto& [id, plan] : r->plans) {
      runtime::ManagedDevice* dev = nullptr;
      for (auto* d : slice_) {
        if (d->id() == id) dev = d;
      }
      ASSERT_TRUE(dev->ApplyAll(plan).ok());
      used_devices.insert(id.value());
    }
  }
  EXPECT_EQ(used_devices.size(), 2u);  // load spread over both switches
}

TEST_F(CompilerTest, MapCollocatedWithUsingFunction) {
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw0"));
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw1"));
  Compiler c;
  const auto r = c.Compile(apps::MakeFirewallProgram(), slice_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Find(ElementKind::kMap, "fw.conn")->device,
            r->Find(ElementKind::kFunction, "fw.conntrack")->device);
}

TEST_F(CompilerTest, EncodingResolvedPerArch) {
  using flexbpf::MapEncoding;
  EXPECT_EQ(ResolveEncoding(MapEncoding::kAuto, arch::ArchKind::kRmt),
            MapEncoding::kRegisterArray);
  EXPECT_EQ(ResolveEncoding(MapEncoding::kAuto, arch::ArchKind::kDrmt),
            MapEncoding::kStatefulTable);
  EXPECT_EQ(ResolveEncoding(MapEncoding::kAuto, arch::ArchKind::kTile),
            MapEncoding::kFlowInstruction);
  EXPECT_EQ(ResolveEncoding(MapEncoding::kAuto, arch::ArchKind::kHost),
            MapEncoding::kStatefulTable);
  // Explicit requests are honored.
  EXPECT_EQ(ResolveEncoding(MapEncoding::kFlowInstruction,
                            arch::ArchKind::kDrmt),
            MapEncoding::kFlowInstruction);
}

TEST_F(CompilerTest, HeaderRequirementEmitsParserSteps) {
  auto* sw = Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  flexbpf::ProgramBuilder b("int");
  b.AddTable(SmallTable("int.t"));
  b.RequireHeader("int", "ipv4", 0xFD);
  Compiler c;
  const auto r = c.Compile(b.Build(), slice_);
  ASSERT_TRUE(r.ok());
  bool has_parser_step = false;
  for (const auto& step : r->plans.at(sw->id()).steps) {
    if (std::holds_alternative<runtime::StepAddParserState>(step)) {
      has_parser_step = true;
    }
  }
  EXPECT_TRUE(has_parser_step);
}

TEST_F(CompilerTest, GcHookInvokedOnPressure) {
  arch::DrmtConfig small;
  small.sram_pool = 200;
  auto* sw = Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw", small));
  // Pre-fill the device so the new program cannot fit.
  ASSERT_TRUE(sw->ApplyStep(runtime::StepAddTable{SmallTable("old", 150), 0})
                  .ok());
  int gc_calls = 0;
  CompileOptions options;
  options.strategy = PlacementStrategy::kFungibleGc;
  options.gc_hook = [&]() {
    ++gc_calls;
    return sw->ApplyStep(runtime::StepRemoveTable{"old"}).ok();
  };
  Compiler c(options);
  const auto r = c.Compile(TablesProgram("new", 1, 128), slice_);
  ASSERT_TRUE(r.ok()) << r.error().ToText();
  EXPECT_EQ(gc_calls, 1);
  EXPECT_GE(r->iterations_used, 2);
}

TEST_F(CompilerTest, FirstFitDoesNotRetry) {
  arch::DrmtConfig small;
  small.sram_pool = 100;
  auto* sw = Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw", small));
  ASSERT_TRUE(
      sw->ApplyStep(runtime::StepAddTable{SmallTable("old", 100), 0}).ok());
  int gc_calls = 0;
  CompileOptions options;
  options.strategy = PlacementStrategy::kFirstFit;
  options.gc_hook = [&]() {
    ++gc_calls;
    return true;
  };
  Compiler c(options);
  EXPECT_FALSE(c.Compile(TablesProgram("new", 1, 50), slice_).ok());
  EXPECT_EQ(gc_calls, 0);
}

TEST_F(CompilerTest, IndependentProgramsDoNotCrossConstrainRmtStages) {
  // Regression: stage-ordering constraints are scoped per program (order
  // group).  Two independent 3-table programs both fit a 3-stage RMT even
  // though a *total* ordering across programs would wedge the second one
  // into the last occupied stage.
  arch::RmtConfig config;
  config.stages = 3;
  config.sram_per_stage = 200;
  auto* sw = Add(std::make_unique<arch::RmtDevice>(NextId(), "rmt", config));
  Compiler c;
  for (const char* name : {"alpha", "beta"}) {
    const auto r = c.Compile(TablesProgram(name, 3, 100), slice_);
    ASSERT_TRUE(r.ok()) << r.error().ToText();
    ASSERT_TRUE(sw->ApplyAll(r->plans.at(sw->id())).ok());
  }
  // Both programs' tables are placed in non-decreasing stage order.
  auto* rmt = static_cast<arch::RmtDevice*>(&sw->device());
  for (const char* name : {"alpha", "beta"}) {
    int previous = 0;
    for (int i = 0; i < 3; ++i) {
      const int stage = rmt->StageOf(std::string(name) + ".t" +
                                     std::to_string(i));
      ASSERT_GE(stage, previous) << name << " table " << i;
      previous = stage;
    }
  }
  EXPECT_EQ(sw->device().pipeline().table_count(), 6u);
}

TEST_F(CompilerTest, RemovalPlansMirrorInstall) {
  auto* sw = Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  Compiler c;
  flexbpf::ProgramIR program = apps::MakeFirewallProgram();
  const auto r = c.Compile(program, slice_);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(sw->ApplyAll(r->plans.at(sw->id())).ok());
  const auto removal = ComputeDevicePlans(program, r.value(), {}, {}, slice_);
  ASSERT_TRUE(removal.ok()) << removal.error().ToText();
  ASSERT_EQ(removal->size(), 1u);
  ASSERT_TRUE(sw->ApplyAll(removal->at(sw->id())).ok());
  EXPECT_FALSE(sw->HasTable("fw.acl"));
  EXPECT_FALSE(sw->HasFunction("fw.conntrack"));
  EXPECT_EQ(sw->maps().Find("fw.conn"), nullptr);
  const arch::ResourceVector used = sw->device().UsedResources();
  EXPECT_EQ(used.sram_entries + used.tcam_entries + used.action_slots +
                used.state_bytes,
            0);
}

TEST_F(CompilerTest, PredictedLatencyTracksObjective) {
  Add(std::make_unique<arch::HostDevice>(NextId(), "host"));
  Add(std::make_unique<arch::DrmtDevice>(NextId(), "sw"));
  CompileOptions fast;
  fast.objective = Objective::kMinLatency;
  CompileOptions cheap;
  cheap.objective = Objective::kMinEnergy;
  const auto program = TablesProgram("p", 3);
  const auto fast_r = Compiler(fast).Compile(program, slice_);
  const auto cheap_r = Compiler(cheap).Compile(program, slice_);
  ASSERT_TRUE(fast_r.ok());
  ASSERT_TRUE(cheap_r.ok());
  EXPECT_LE(fast_r->predicted_latency, cheap_r->predicted_latency);
  EXPECT_LE(cheap_r->predicted_energy_nj, fast_r->predicted_energy_nj);
}

}  // namespace
}  // namespace flexnet::compiler
