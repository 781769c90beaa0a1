#include "runtime/engine.h"

#include <memory>

namespace flexnet::runtime {

namespace {

// Entry writes are control-plane table updates (microseconds); structural
// steps pay the arch-specific reconfig cost.
SimDuration StepCost(const ManagedDevice& dev, const ReconfigStep& step) {
  const bool is_entry = std::holds_alternative<StepAddEntry>(step) ||
                        std::holds_alternative<StepRemoveEntry>(step);
  return is_entry ? 20 * kMicrosecond
                  : dev.device().ReconfigCost(OpClassOf(step));
}

// Execution state for one ApplyRuntime call.  Steps are *chained*: step k
// schedules step k+1 when it lands, so a fault (crash, stall) at step k
// affects exactly the remaining suffix — nothing is pre-committed to the
// event queue.  Fault-free, the chain reproduces the pre-scheduled timing
// exactly: each step lands at the cumulative sum of step costs.
struct ApplyChain {
  ManagedDevice* device;
  sim::Simulator* sim;
  telemetry::MetricsRegistry* metrics;
  fault::FaultInjector* injector;
  // Shared, immutable: at fleet scale every device in an equivalence class
  // chains over the same plan object (no per-device deep copy).
  std::shared_ptr<const ReconfigPlan> plan;
  std::size_t next = 0;
  std::shared_ptr<ApplyReport> report;
  telemetry::SpanId plan_span;
  RuntimeEngine::DoneFn done;
  std::string_view owner;  // outlives the chain (RuntimeEngine::ApplyShared)

  void Finish(SimTime at) {
    report->finished = at;
    metrics->Count("runtime.plans_applied");
    metrics->Observe("runtime.plan_apply_ns",
                     static_cast<double>(at - report->started));
    metrics->tracer().EndSpan(plan_span, at);
    if (done) done(*report);
  }

  // Schedules step `next` (or the finish when the plan is exhausted).
  // Self = shared_ptr to this chain, kept alive by the scheduled closures.
  void ScheduleNext(std::shared_ptr<ApplyChain> self) {
    if (next >= plan->steps.size()) {
      sim->ScheduleAt(sim->now(), [self]() { self->Finish(self->sim->now()); });
      return;
    }
    SimDuration cost = StepCost(*device, plan->steps[next]);
    if (injector != nullptr) {
      if (const auto f = injector->Decide("runtime.step")) {
        if (f.action == fault::FaultAction::kCrash) {
          Crash(std::move(self));
          return;
        }
        if (f.action == fault::FaultAction::kStall ||
            f.action == fault::FaultAction::kDelay) {
          cost += f.delay;
          metrics->Count("runtime.fault_stalls");
        }
      }
    }
    const SimTime step_begin = sim->now();
    sim->Schedule(cost, [self, cost, step_begin]() {
      self->ApplyStep(cost, step_begin);
      self->ScheduleNext(self);
    });
  }

  void ApplyStep(SimDuration cost, SimTime step_begin) {
    const ReconfigStep& step = plan->steps[next];
    const Status status = device->ApplyStep(step, owner);
    metrics->Observe("runtime.step_apply_ns", static_cast<double>(cost));
    std::string label = device->name() + ": " + ToText(step);
    metrics->trace().Record(sim->now(), "reconfig.step", label,
                            static_cast<double>(cost));
    const telemetry::SpanId step_span = metrics->tracer().RecordSpan(
        step_begin, sim->now(), "runtime.step", std::move(label), plan_span);
    if (status.ok()) {
      ++report->steps_applied;
      metrics->Count("runtime.steps_applied");
    } else {
      if (report->steps_failed == 0) report->first_failed_step = next;
      ++report->steps_failed;
      metrics->Count("runtime.steps_failed");
      metrics->tracer().Annotate(step_span, "error", status.error().ToText());
      report->errors.push_back(ToText(step) + ": " + status.error().ToText());
    }
    ++next;
  }

  // The reconfig agent crash-stops: every unapplied step fails, the report
  // lands immediately, and the device keeps serving its current program
  // (steps are atomic, so a crash between steps leaves no torn state).
  void Crash(std::shared_ptr<ApplyChain> self) {
    metrics->Count("runtime.fault_crashes");
    metrics->trace().Record(sim->now(), "reconfig.crash",
                            device->name() + ": agent crashed at step " +
                                std::to_string(next));
    metrics->tracer().Annotate(plan_span, "crash_at_step",
                               std::to_string(next));
    if (report->steps_failed == 0) {
      report->first_failed_step = next;
      report->crashed = true;
    }
    for (std::size_t i = next; i < plan->steps.size(); ++i) {
      ++report->steps_failed;
      metrics->Count("runtime.steps_failed");
      report->errors.push_back(ToText(plan->steps[i]) +
                               ": fault: reconfig agent crashed");
    }
    next = plan->steps.size();
    sim->ScheduleAt(sim->now(), [self]() { self->Finish(self->sim->now()); });
  }
};

}  // namespace

SimTime RuntimeEngine::ApplyRuntime(ManagedDevice& dev, ReconfigPlan plan,
                                    DoneFn done) {
  return ApplyShared(dev, std::make_shared<const ReconfigPlan>(std::move(plan)),
                     std::move(done));
}

SimTime RuntimeEngine::ApplyShared(ManagedDevice& dev,
                                   std::shared_ptr<const ReconfigPlan> plan,
                                   DoneFn done, std::string_view owner) {
  auto report = std::make_shared<ApplyReport>();
  report->started = sim_->now();
  // One span per plan (parented under the caller's open scope, e.g.
  // controller.apply_plans), one child span per step: the step's span is
  // the [previous step done, this step done] interval the plan's total
  // decomposes into.
  const telemetry::SpanId plan_span = metrics_->tracer().StartSpan(
      report->started, "runtime.apply_plan", dev.name());
  metrics_->tracer().Annotate(plan_span, "steps",
                              std::to_string(plan->steps.size()));
  // Predicted completion assumes no faults; callers treat it as the ETA
  // and learn the truth from the report.
  SimDuration predicted = 0;
  for (const ReconfigStep& step : plan->steps) {
    predicted += StepCost(dev, step);
  }

  auto chain = std::make_shared<ApplyChain>(
      ApplyChain{&dev, sim_, metrics_, injector_, std::move(plan), 0, report,
                 plan_span, std::move(done), owner});
  chain->ScheduleNext(chain);
  return report->started + predicted;
}

SimTime RuntimeEngine::ApplyDrain(ManagedDevice& dev, ReconfigPlan plan,
                                  DoneFn done) {
  auto report = std::make_shared<ApplyReport>();
  report->started = sim_->now();
  dev.device().set_online(false);  // drain: traffic to this device is lost
  SimDuration window = dev.device().FullReflashCost();
  const SimTime predicted = sim_->now() + window;
  telemetry::MetricsRegistry* metrics = metrics_;
  if (injector_ != nullptr) {
    if (const auto f = injector_->Decide("runtime.reflash")) {
      if (f.action == fault::FaultAction::kStall ||
          f.action == fault::FaultAction::kDelay) {
        window += f.delay;
        metrics->Count("runtime.fault_stalls");
      } else if (f.action == fault::FaultAction::kCrash) {
        // The reflash fails partway and is retried from scratch; the
        // device stays drained for a second full window.
        window *= 2;
        metrics->Count("runtime.fault_crashes");
      }
    }
  }
  const SimTime finish = sim_->now() + window;
  metrics->Count("runtime.drains");
  metrics->Observe("runtime.drain_window_ns", static_cast<double>(window));
  metrics->trace().Record(sim_->now(), "reconfig.drain_begin", dev.name(),
                          static_cast<double>(window));
  const telemetry::SpanId drain_span = metrics->tracer().StartSpan(
      sim_->now(), "runtime.drain", dev.name());
  metrics->tracer().Annotate(drain_span, "steps",
                             std::to_string(plan.steps.size()));
  // The drain window is one opaque reflash: offline, rewrite the full
  // pipeline image, reboot.  Known up front, so record it immediately.
  metrics->tracer().RecordSpan(report->started, finish, "runtime.reflash",
                               dev.name(), drain_span);
  ManagedDevice* device = &dev;
  sim_->ScheduleAt(finish, [device, plan = std::move(plan), report, done,
                            finish, metrics, drain_span]() {
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
      const ReconfigStep& step = plan.steps[i];
      const Status status = device->ApplyStep(step);
      if (status.ok()) {
        ++report->steps_applied;
        metrics->Count("runtime.steps_applied");
      } else {
        if (report->steps_failed == 0) report->first_failed_step = i;
        ++report->steps_failed;
        metrics->Count("runtime.steps_failed");
        report->errors.push_back(ToText(step) + ": " + status.error().ToText());
      }
    }
    // A reflash rewrote the whole pipeline image; whatever the flow cache
    // memoized before the drain window is void.
    device->device().pipeline().BumpEpoch();
    device->device().set_online(true);
    metrics->trace().Record(finish, "reconfig.drain_end", device->name(),
                            static_cast<double>(report->steps_applied));
    metrics->tracer().EndSpan(drain_span, finish);
    report->finished = finish;
    if (done) done(*report);
  });
  return predicted;
}

}  // namespace flexnet::runtime
