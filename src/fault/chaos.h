// Chaos driver: randomized fault schedules against the full
// reconfiguration pipeline, checked by the hitlessness invariants.
//
// One chaos schedule builds a linear host–NIC–switch fabric, keeps CBR
// traffic flowing through it, and exercises every reconfiguration
// mechanism the repo models — hitless plan application (with crash
// recovery by re-applying the unfinished suffix), in-data-plane state
// migration, in-band dRPC invocations (with retry), the drain/reflash
// baseline, and replicated-controller consensus — while a seeded
// FaultPlan injects faults at the named points (docs/FAULTS.md).  The
// InvariantChecker watches the whole run; ChaosReport::ok() means the
// paper's guarantees held under that schedule.
//
// Failing schedules shrink: ShrinkFailingPlan greedily removes rules
// while the violation reproduces, yielding the minimal reproducer that
// ReproCommand() prints as a copy-pasteable replay (fixed seed, fixed
// arch — runs are fully deterministic).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/device.h"
#include "fault/fault.h"
#include "fault/invariants.h"
#include "telemetry/telemetry.h"

namespace flexnet::fault {

struct ChaosConfig {
  arch::ArchKind arch = arch::ArchKind::kDrmt;
  std::uint64_t seed = 1;
  std::size_t rules = 3;              // rules drawn into the random plan
  double traffic_pps = 200000.0;      // continuous CBR through the fabric
  SimDuration traffic_window = 60 * kMillisecond;
  // Burst for the batched-injection phase: the first half of the traffic
  // window runs per-packet-shaped bursts of 1, the second half re-emits
  // at the same rate in bursts of `traffic_burst` via InjectBatch, so
  // every schedule exercises batched transport under the same faults.
  std::size_t traffic_burst = 16;
  // The paper's sub-second bound applies to the hitless path
  // (runtime.apply_plan) and in-band migration, not the drain baseline.
  SimDuration reconfig_latency_bound = 2 * kSecond;
  bool idempotent_migration = true;   // false = canary for the shrinker test
  // Metrics sink for aggregate counters across schedules (bench use);
  // null = schedule-local only.
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct ChaosReport {
  arch::ArchKind arch = arch::ArchKind::kDrmt;
  std::uint64_t seed = 0;
  FaultPlan plan;
  std::uint64_t faults_injected = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_checked = 0;
  std::uint64_t postcards_checked = 0;  // sampled per-packet evidence cards
  std::uint64_t drpc_invokes = 0;
  std::uint64_t migration_chunks = 0;
  std::uint64_t raft_commits = 0;
  SimDuration recovery_ns = 0;        // reconfig crash -> recovered
  std::vector<Violation> violations;

  bool ok() const noexcept { return violations.empty(); }
};

std::string ToText(const ChaosReport& report);

// The five device architectures every schedule sweep covers.
std::array<arch::ArchKind, 5> AllArchKinds() noexcept;

// "rmt" / "drmt" / "tile" / "nic" / "host" (arch::ToString) and back.
const char* ArchFlag(arch::ArchKind kind) noexcept;
std::optional<arch::ArchKind> ParseArchFlag(const std::string& flag) noexcept;

// Draws `rules` fault rules from the injection-point catalogue,
// deterministically from `seed`.  Counts are bounded (no kForever), so
// every schedule terminates.
FaultPlan RandomFaultPlan(std::uint64_t seed, std::size_t rules);

// Runs one schedule: plan = RandomFaultPlan(config.seed, config.rules),
// or an explicit plan (the shrinker replays candidates this way).
ChaosReport RunChaosSchedule(const ChaosConfig& config);
ChaosReport RunChaosSchedule(const ChaosConfig& config, FaultPlan plan);

// Greedily removes rules while the schedule still violates an invariant;
// returns the minimal still-failing plan (the input if nothing drops).
FaultPlan ShrinkFailingPlan(const ChaosConfig& config, FaultPlan plan);

// Copy-pasteable replay for a failing (config, plan): fixed seed + arch
// through the ChaosReplay test's environment knobs.
std::string ReproCommand(const ChaosConfig& config);

}  // namespace flexnet::fault
