// RuntimeEngine: executes reconfiguration plans over simulated time.
//
// Two paths, matching the paper's contrast (sections 1 and 2):
//
//  * ApplyRuntime — the FlexNet path.  The device keeps serving traffic;
//    each step is applied atomically after its arch-specific reconfig
//    delay, so every packet is processed by exactly one program version
//    and nothing is dropped.  A multi-step program change on a dRMT
//    switch completes within a second ("program changes complete within a
//    second ... packets are either processed by the new program or old
//    one in a consistent manner").
//
//  * ApplyDrain — the compile-time baseline.  The device is drained
//    (offline: every arriving packet is lost unless rerouted), reflashed
//    for FullReflashCost, then brought back with all steps applied at
//    once.  This is the disruption experiment E2 quantifies.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "runtime/managed_device.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace flexnet::runtime {

struct ApplyReport {
  SimTime started = 0;
  SimTime finished = 0;
  std::size_t steps_applied = 0;
  std::size_t steps_failed = 0;
  // Index of the first step that did not apply (SIZE_MAX when all ok).
  // A crash fails the whole suffix, but a *semantic* failure (e.g.
  // capacity exhaustion) does not stop the chain — later steps may have
  // applied, so steps_applied alone is a count, not a resume prefix.
  std::size_t first_failed_step = SIZE_MAX;
  // True when the plan failed only because the reconfig agent crashed:
  // every step from first_failed_step on failed with the crash and none
  // of them landed, so re-applying that suffix can converge.  False when
  // a step failed on its own (AlreadyExists, out of capacity): the
  // failure is deterministic and a retry would only re-apply later steps
  // that already landed.
  bool crashed = false;
  std::vector<std::string> errors;
  SimDuration duration() const noexcept { return finished - started; }
  bool ok() const noexcept { return steps_failed == 0; }
  // Where a retry of the same plan must start: the first step whose
  // effects are not on the device.  Every step before it applied; the
  // step itself (and possibly later ones) did not.
  std::size_t ResumePoint() const noexcept {
    return ok() ? steps_applied : first_failed_step;
  }
};

class RuntimeEngine {
 public:
  // Records per-step apply latency, failed steps, and drain windows into
  // `metrics` (the process Default() registry when null), and causal spans
  // (runtime.apply_plan > runtime.step, runtime.drain) into its tracer,
  // whose clock is pointed at `sim` so scoped spans read sim time.  The
  // destructor withdraws that clock unless another engine has installed
  // its own since, so a registry that outlives the engine (Default())
  // never reads a dead simulator.
  explicit RuntimeEngine(sim::Simulator* sim,
                         telemetry::MetricsRegistry* metrics = nullptr)
      : sim_(sim), metrics_(metrics ? metrics : &telemetry::Default()) {
    metrics_->tracer().set_clock([sim] { return sim->now(); }, this);
  }
  RuntimeEngine(const RuntimeEngine&) = delete;
  RuntimeEngine& operator=(const RuntimeEngine&) = delete;
  ~RuntimeEngine() { metrics_->tracer().ReleaseClock(this); }

  using DoneFn = std::function<void(const ApplyReport&)>;

  // Hitless apply: schedules each step at its cumulative reconfig delay.
  // Returns the predicted completion time.  A failing step is recorded and
  // the remaining steps still execute (partial failure is surfaced in the
  // report, mirroring how a real reconfig RPC stream behaves).
  SimTime ApplyRuntime(ManagedDevice& dev, ReconfigPlan plan,
                       DoneFn done = nullptr);

  // Cheap instantiate-from-cached-plan path (fleet rollouts): the caller
  // keeps one immutable plan per equivalence class and every device's
  // apply chain holds the same shared object — O(1000) devices, one plan
  // allocation instead of one deep copy each.  Execution semantics are
  // identical to ApplyRuntime (which now delegates here).
  // `owner` is the app the plan acts for (ManagedDevice::ApplyStep); it
  // rides the apply call, not the shareable plan, and must outlive the
  // chain (until `done` fires).
  SimTime ApplyShared(ManagedDevice& dev,
                      std::shared_ptr<const ReconfigPlan> plan,
                      DoneFn done = nullptr, std::string_view owner = {});

  // Drain baseline: device offline for the whole reflash window.
  SimTime ApplyDrain(ManagedDevice& dev, ReconfigPlan plan,
                     DoneFn done = nullptr);

  // Injection points (see docs/FAULTS.md): "runtime.step" — the reconfig
  // agent crashes (remaining steps fail) or stalls before a step lands;
  // "runtime.reflash" — a drain's reflash stalls or fails and is retried
  // (window doubles).  Null disables injection.  The SimTime returned by
  // ApplyRuntime/ApplyDrain stays the fault-free prediction; faults
  // surface in the ApplyReport.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  sim::Simulator* sim_;
  telemetry::MetricsRegistry* metrics_;
  fault::FaultInjector* injector_ = nullptr;
};

}  // namespace flexnet::runtime
