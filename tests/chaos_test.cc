// Chaos driver tests: randomized fault schedules across every device
// architecture, seed-for-seed determinism, shrinking to a minimal
// reproducer, and the env-driven replay entry point that ReproCommand()
// emits (FLEXNET_CHAOS_ARCH / FLEXNET_CHAOS_SEED /
// FLEXNET_CHAOS_LEGACY_MIGRATION).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "fault/chaos.h"

namespace flexnet::fault {
namespace {

// One parameter per architecture; each case sweeps several seeds so a
// failure names both the arch (test name) and the seed (repro command).
class ChaosSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSweep, RandomSchedulesHoldInvariants) {
  const arch::ArchKind arch =
      AllArchKinds()[static_cast<std::size_t>(GetParam())];
  std::uint64_t faults = 0;
  std::uint64_t packets = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ChaosConfig config;
    config.arch = arch;
    config.seed = seed;
    const ChaosReport report = RunChaosSchedule(config);
    EXPECT_TRUE(report.ok())
        << ToText(report) << "\nrepro: " << ReproCommand(config);
    EXPECT_GT(report.packets_checked, 0u) << "seed " << seed;
    faults += report.faults_injected;
    packets += report.packets_checked;
  }
  // The sweep must exercise real adversity, not vacuously pass.
  EXPECT_GT(faults, 0u);
  EXPECT_GT(packets, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, ChaosSweep, ::testing::Range(0, 5),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(
          ArchFlag(AllArchKinds()[static_cast<std::size_t>(info.param)]));
    });

TEST(ChaosDeterminism, SameSeedIdenticalReport) {
  ChaosConfig config;
  config.arch = arch::ArchKind::kTile;
  config.seed = 42;
  const ChaosReport a = RunChaosSchedule(config);
  const ChaosReport b = RunChaosSchedule(config);
  EXPECT_EQ(ToText(a.plan), ToText(b.plan));
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.packets_checked, b.packets_checked);
  EXPECT_EQ(a.drpc_invokes, b.drpc_invokes);
  EXPECT_EQ(a.migration_chunks, b.migration_chunks);
  EXPECT_EQ(a.raft_commits, b.raft_commits);
  EXPECT_EQ(a.recovery_ns, b.recovery_ns);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(ChaosDeterminism, RandomPlanIsSeedStable) {
  const FaultPlan a = RandomFaultPlan(1234, 5);
  const FaultPlan b = RandomFaultPlan(1234, 5);
  const FaultPlan c = RandomFaultPlan(1235, 5);
  EXPECT_EQ(ToText(a), ToText(b));
  EXPECT_NE(ToText(a), ToText(c));
}

// The deliberately broken build: with idempotent chunk sequencing off, a
// duplicated migration chunk is treated as fresh progress and the shadow
// oracle catches the divergence.  The shrinker must strip the unrelated
// rules and hand back the one that matters.
TEST(ChaosShrinker, ReducesCanaryToMinimalReproducer) {
  ChaosConfig config;
  config.arch = arch::ArchKind::kDrmt;
  config.seed = 7;
  config.idempotent_migration = false;

  FaultPlan plan;
  plan.seed = config.seed;
  plan.rules.push_back({"drpc.invoke", FaultAction::kDrop, 0, 1, 0});
  plan.rules.push_back(
      {"raft.send", FaultAction::kDelay, 0, 2, 5 * kMillisecond});
  plan.rules.push_back({"migration.chunk", FaultAction::kDuplicate, 1, 1,
                        40 * kMicrosecond});

  const ChaosReport failing = RunChaosSchedule(config, plan);
  ASSERT_FALSE(failing.ok()) << "canary schedule should violate";
  bool named = false;
  for (const Violation& v : failing.violations) {
    if (v.invariant == "migration_oracle") named = true;
  }
  EXPECT_TRUE(named) << ToText(failing);

  const FaultPlan shrunk = ShrinkFailingPlan(config, plan);
  ASSERT_EQ(shrunk.rules.size(), 1u) << ToText(shrunk);
  EXPECT_EQ(shrunk.rules[0].point, "migration.chunk");
  // Minimal plan still reproduces...
  EXPECT_FALSE(RunChaosSchedule(config, shrunk).ok());
  // ...and the fixed protocol absorbs the very same schedule.
  ChaosConfig fixed = config;
  fixed.idempotent_migration = true;
  const ChaosReport healthy = RunChaosSchedule(fixed, shrunk);
  EXPECT_TRUE(healthy.ok()) << ToText(healthy);
}

TEST(ChaosReplayHelpers, ArchFlagsRoundTrip) {
  for (const arch::ArchKind kind : AllArchKinds()) {
    const auto parsed = ParseArchFlag(ArchFlag(kind));
    ASSERT_TRUE(parsed.has_value()) << ArchFlag(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseArchFlag("fpga").has_value());
}

// Replays the schedule ReproCommand() points at.  Without the env knobs
// this runs a fixed healthy schedule; with them it reproduces a failing
// (arch, seed) and prints the shrunk plan.
TEST(ChaosReplay, EnvSelectedSchedule) {
  ChaosConfig config;
  if (const char* arch_env = std::getenv("FLEXNET_CHAOS_ARCH")) {
    const auto parsed = ParseArchFlag(arch_env);
    ASSERT_TRUE(parsed.has_value()) << "bad FLEXNET_CHAOS_ARCH: " << arch_env;
    config.arch = *parsed;
  }
  if (const char* seed_env = std::getenv("FLEXNET_CHAOS_SEED")) {
    config.seed = std::strtoull(seed_env, nullptr, 10);
  }
  if (std::getenv("FLEXNET_CHAOS_LEGACY_MIGRATION") != nullptr) {
    config.idempotent_migration = false;
  }
  const ChaosReport report = RunChaosSchedule(config);
  if (!report.ok()) {
    const FaultPlan shrunk = ShrinkFailingPlan(config, report.plan);
    ADD_FAILURE() << ToText(report) << "\nshrunk reproducer:\n"
                  << ToText(shrunk) << "\nrepro: " << ReproCommand(config);
  }
}

}  // namespace
}  // namespace flexnet::fault
