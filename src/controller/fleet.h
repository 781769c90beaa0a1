// Fleet-scale rolling reconfiguration (ROADMAP: fleet orchestration).
//
// The per-app Controller API deploys one program to one slice in one
// shot.  At fleet scale — O(1000) devices behind one replicated
// controller — that shape breaks down: compiling a plan per device is
// O(devices) verifier/diff runs for work that is identical across every
// device in an equivalence class, and updating everything at once gives
// operators no blast-radius control.  FleetManager restructures rollouts
// into *waves*:
//
//   * plans are computed once per equivalence class (compiler/plan_cache.h)
//     and rehydrated per device as a shared immutable object
//     (RuntimeEngine::ApplyShared);
//   * devices update in bounded waves — every interior wave completes
//     before the first edge (host/NIC) wave starts, preserving the
//     two-phase consistent-update guarantee fleet-wide; within a wave,
//     Controller::ApplyPlanWave orders deterministically by device id;
//   * with a RaftCluster attached, each wave is committed through
//     consensus before any device is touched — a partitioned or
//     leaderless controller stalls the wave (counted, traced, retried)
//     instead of half-applying it;
//   * per-device apply failures (crashed reconfig agents) are retried by
//     re-applying the suffix from ApplyReport::ResumePoint() (the first
//     step that did not land) — steps are atomic, so a crash leaves no
//     torn state.
//
// docs/FLEET.md documents the wave protocol and cache invalidation rules;
// bench/bench_fleet.cc (experiment E19) measures wave completion time,
// plan-cache hit rate, and control messages per device at 1000+ devices.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/plan_cache.h"
#include "controller/controller.h"
#include "controller/raft.h"

namespace flexnet::controller {

struct FleetConfig {
  // Devices reconfigured per wave (blast radius).  The tail wave of each
  // phase may be smaller.
  std::size_t wave_size = 64;
  // Suffix-retry budget for a device whose reconfig agent keeps crashing.
  std::size_t max_retries_per_device = 25;
  // How long a wave waits for its Raft commit before declaring a stall.
  SimDuration raft_commit_timeout = 2 * kSecond;
  // Stalled waves re-propose up to this many times before the rollout
  // gives up (partitions are expected to heal within the retry window).
  std::size_t raft_retry_limit = 8;
  // Plan-cache entry bound (LRU).  Keys embed the live device-state
  // fingerprint, so device churn mints new keys forever on a long-lived
  // controller; the bound keeps memory flat.  Rollout working sets are
  // one entry per (equivalence class, wave kind) — tiny next to this.
  std::size_t plan_cache_capacity = 4096;
  // Invoked after each wave completes (chaos scheduling, tenant churn
  // between waves).  The wave index is 0-based across both phases.
  std::function<void(std::size_t wave_index)> on_wave_complete;
};

struct WaveStat {
  std::size_t devices = 0;
  SimTime started = 0;
  SimTime finished = 0;
  std::size_t retries = 0;  // suffix re-applies within this wave
  bool stalled = false;     // at least one Raft commit timeout
};

struct RolloutReport {
  std::size_t devices = 0;
  std::size_t waves = 0;
  std::size_t plans_compiled = 0;  // equivalence-class cache misses
  std::size_t plans_reused = 0;    // cache hits
  std::uint64_t control_messages = 0;
  std::size_t stalled_waves = 0;
  // Devices whose plan failed on a step, or that crashed and exhausted
  // their retries.
  std::size_t device_failures = 0;
  std::vector<std::string> errors;  // detail for device_failures
  std::vector<WaveStat> wave_stats;
  SimTime started = 0;
  SimTime finished = 0;

  double CacheHitRate() const noexcept {
    const std::size_t total = plans_compiled + plans_reused;
    return total == 0 ? 0.0 : static_cast<double>(plans_reused) / total;
  }
  double MessagesPerDevice() const noexcept {
    return devices == 0 ? 0.0
                        : static_cast<double>(control_messages) / devices;
  }
  bool ok() const noexcept { return device_failures == 0; }
};

class FleetManager {
 public:
  explicit FleetManager(Controller* controller, FleetConfig config = {})
      : controller_(controller),
        config_(std::move(config)),
        cache_(config_.plan_cache_capacity) {}

  // Routes every wave through consensus: the wave descriptor is proposed
  // and must commit before the wave's devices are touched.  Null detaches
  // (waves proceed without coordination).
  void AttachRaft(RaftCluster* raft) noexcept { raft_ = raft; }

  // --- Fleet-wide app lifecycle (generation-tracked per URI) ---

  // Rolls `program` out to every device in the network in waves.  Deploy
  // is update-from-empty: the same class-plan path covers first install
  // and subsequent updates.
  Result<RolloutReport> DeployFleetWide(const std::string& uri,
                                        flexbpf::ProgramIR program);

  // Rolls the registered app forward to `program` (minimal per-class
  // diff plans).
  Result<RolloutReport> UpdateFleetWide(const std::string& uri,
                                        flexbpf::ProgramIR program);

  // Rolls the app away (update-to-empty) and drops the registration.
  Result<RolloutReport> RetireFleetWide(const std::string& uri);

  const flexbpf::ProgramIR* FindProgram(const std::string& uri) const noexcept;
  std::uint64_t generation(const std::string& uri) const noexcept;

  // Mutable so benches/tests can install on_wave_complete hooks (chaos
  // scheduling, tenant churn) after construction.
  FleetConfig& config() noexcept { return config_; }

  compiler::PlanCache& plan_cache() noexcept { return cache_; }
  const compiler::PlanCache& plan_cache() const noexcept { return cache_; }

  std::uint64_t waves_started() const noexcept { return waves_started_; }
  std::uint64_t waves_completed() const noexcept { return waves_completed_; }
  std::uint64_t waves_stalled() const noexcept { return waves_stalled_; }

  // Publishes controller_plan_cache_{hits,misses,entries} for the current
  // cache totals.  fleet_wave_{started,completed,stalled} are counted live
  // as waves run, into the controller's registry.  Call once per bench run.
  void PublishMetrics(telemetry::MetricsRegistry& registry) const {
    cache_.PublishMetrics(registry);
  }

 private:
  struct FleetApp {
    flexbpf::ProgramIR program;
    std::uint64_t generation = 0;
  };

  // Shared rollout engine: waves of (before -> after) over the whole
  // network, interior phase first.
  Result<RolloutReport> Rollout(const std::string& uri,
                                const flexbpf::ProgramIR& before,
                                const flexbpf::ProgramIR& after,
                                std::uint64_t generation);

  // Commits the wave descriptor through Raft, driving the simulator until
  // the commit lands or the timeout/retry budget is exhausted.  Records
  // stalls into `stat` and `report`.
  Status CommitWaveThroughRaft(const std::string& op, WaveStat& stat,
                               RolloutReport& report);

  Controller* controller_;
  FleetConfig config_;
  RaftCluster* raft_ = nullptr;
  compiler::PlanCache cache_;
  std::unordered_map<std::string, FleetApp> apps_;
  std::uint64_t waves_started_ = 0;
  std::uint64_t waves_completed_ = 0;
  std::uint64_t waves_stalled_ = 0;
};

}  // namespace flexnet::controller
