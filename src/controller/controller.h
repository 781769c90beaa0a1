// The FlexNet controller (paper section 3.4).
//
// Pilots a runtime-programmable network at the *app* level: apps are
// named by URI ("flexnet://tenant7/firewall"), not by device addresses,
// and the controller translates app-level operations — deploy, update,
// migrate, retire, replicate — into compiled plans and hitless
// reconfigurations.  It maintains the global view: topology, per-device
// utilization, per-app placements, and SLA predictions.
//
// Rollouts that span devices use two-phase consistent updates: interior
// devices are reconfigured first and the traffic-facing (ingress) device
// last, so no packet ever traverses a half-updated path (the
// "application-level consistent packet processing" requirement).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "compiler/compile.h"
#include "compiler/incremental.h"
#include "net/network.h"
#include "runtime/engine.h"
#include "state/migration.h"
#include "telemetry/telemetry.h"

namespace flexnet::controller {

enum class AppState : std::uint8_t { kDeploying, kRunning, kRetired };

const char* ToString(AppState s) noexcept;

struct AppRecord {
  AppId id;
  std::string uri;
  TenantId tenant;           // invalid for infrastructure apps
  flexbpf::ProgramIR program;
  compiler::CompiledProgram compiled;
  AppState state = AppState::kDeploying;
  SimTime deployed_at = 0;
};

struct DeployOutcome {
  AppId app;
  SimTime ready_at = 0;          // when the last plan finished applying
  std::size_t plan_ops = 0;
  SimDuration predicted_latency = 0;
};

// One device's share of a fleet wave: an immutable plan shared across the
// device's whole equivalence class (compiler/plan_cache.h).
struct WavePlanAssignment {
  DeviceId device;
  std::shared_ptr<const runtime::ReconfigPlan> plan;
};

struct WaveApplyOutcome {
  SimTime finished = 0;
  // Per-device reports for plans that did not fully apply (crashed or
  // failed steps).  ApplyReport::ResumePoint() tells the fleet layer
  // which suffix to re-apply on retry.
  std::vector<std::pair<DeviceId, runtime::ApplyReport>> failures;
};

class Controller {
 public:
  // Deploy/update/migrate latencies and op counts are recorded into
  // `metrics` (the process Default() registry when null); the registry is
  // shared with the controller's RuntimeEngine.
  Controller(net::Network* network, compiler::CompileOptions compile_options = {},
             telemetry::MetricsRegistry* metrics = nullptr);

  // --- App-level API (URI-addressed; the paper's management abstraction) ---

  // Compiles and hitlessly installs `program` on `slice` (empty slice =
  // every device in the network).  Synchronous variant: runs the simulator
  // until the install completes.
  Result<DeployOutcome> DeployApp(const std::string& uri,
                                  flexbpf::ProgramIR program,
                                  std::vector<runtime::ManagedDevice*> slice = {});

  // Incrementally updates a running app to `new_program` (minimal plans).
  Result<DeployOutcome> UpdateApp(const std::string& uri,
                                  flexbpf::ProgramIR new_program);

  // Removes an app and releases its resources.
  Status RetireApp(const std::string& uri);

  // Moves every element of `uri` placed on `from` to `to`, migrating its
  // logical map state through the data plane (lossless).
  Status MigrateApp(const std::string& uri, DeviceId from, DeviceId to);

  const AppRecord* FindApp(const std::string& uri) const noexcept;
  std::vector<std::string> AppUris() const;
  std::size_t running_apps() const noexcept;

  // Aggregate utilization over all devices (max dimension per device).
  double PeakUtilization() const;

  // Number of reconfiguration ops issued since construction.
  std::uint64_t total_reconfig_ops() const noexcept { return reconfig_ops_; }

  net::Network* network() noexcept { return network_; }
  compiler::CompileOptions& compile_options() noexcept { return options_; }
  telemetry::MetricsRegistry* metrics() noexcept { return metrics_; }

  // --- Fleet wave API (controller/fleet.h drives this) ---
  //
  // Applies one wave of shared plans with deterministic consistent
  // ordering: interior devices first, edge (host/NIC) devices last, and
  // *sorted by device id within each phase* — wave traces and chaos
  // schedules reproduce run to run regardless of how the caller's map was
  // ordered.  Per-device failures are reported in the outcome (not folded
  // into one error) so the fleet layer can resume crashed suffixes.
  // `owner` is the app (URI) the wave acts for; it owns the parser states
  // the plans add (runtime::ManagedDevice::ApplyStep).
  Result<WaveApplyOutcome> ApplyPlanWave(std::vector<WavePlanAssignment> wave,
                                         std::string_view owner = {});

  // Forwards to the controller's RuntimeEngine: fleet chaos schedules
  // inject agent crashes/stalls into wave applies ("runtime.step").
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    engine_.set_fault_injector(injector);
  }

 private:
  std::vector<runtime::ManagedDevice*> AllDevices() const;
  // Applies plans with consistent ordering (interior first, ingress last),
  // driving the simulator until done.  Returns completion time.  Thin
  // wrapper over ApplyPlanWave: plans are sorted by device id, so apply
  // order is deterministic even though the input map is unordered.
  Result<SimTime> ApplyPlansConsistently(
      const std::unordered_map<DeviceId, runtime::ReconfigPlan>& plans,
      std::string_view owner);

  net::Network* network_;
  compiler::CompileOptions options_;
  telemetry::MetricsRegistry* metrics_;
  runtime::RuntimeEngine engine_;
  std::unordered_map<std::string, AppRecord> apps_;
  IdAllocator<AppId> app_ids_;
  std::uint64_t reconfig_ops_ = 0;
};

}  // namespace flexnet::controller
