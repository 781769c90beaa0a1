#include "controller/controller.h"

#include <algorithm>

#include "common/logging.h"

namespace flexnet::controller {

const char* ToString(AppState s) noexcept {
  switch (s) {
    case AppState::kDeploying:
      return "deploying";
    case AppState::kRunning:
      return "running";
    case AppState::kRetired:
      return "retired";
  }
  return "?";
}

Controller::Controller(net::Network* network,
                       compiler::CompileOptions compile_options,
                       telemetry::MetricsRegistry* metrics)
    : network_(network),
      options_(std::move(compile_options)),
      metrics_(metrics ? metrics : &telemetry::Default()),
      engine_(network->simulator(), metrics_) {}

std::vector<runtime::ManagedDevice*> Controller::AllDevices() const {
  std::vector<runtime::ManagedDevice*> devices;
  for (const auto& d : network_->devices()) devices.push_back(d.get());
  return devices;
}

Result<WaveApplyOutcome> Controller::ApplyPlanWave(
    std::vector<WavePlanAssignment> wave, std::string_view owner) {
  WaveApplyOutcome outcome;
  outcome.finished = network_->simulator()->now();
  if (wave.empty()) return outcome;
  // Scoped span covering both phases; engine plan spans (including the
  // edge-phase ones scheduled below, which fire inside RunUntil while this
  // scope is still open) nest under it.
  telemetry::ScopedSpan apply_span(&metrics_->tracer(),
                                   "controller.apply_plans");
  apply_span.Annotate("devices", std::to_string(wave.size()));
  // Two-phase ordering: devices with more links (interior/fabric) update
  // first; edge devices (hosts/NICs, where traffic enters) flip last.
  // Within our latency model plans run concurrently per device, so we
  // stagger phases: interior now, edge after the slowest interior plan.
  // Each phase is sorted by device id — the apply order (and therefore the
  // trace and any injected fault alignment) is a function of the wave's
  // *contents*, never of hash-map iteration order.
  std::vector<std::pair<runtime::ManagedDevice*, const WavePlanAssignment*>>
      interior;
  std::vector<std::pair<runtime::ManagedDevice*, const WavePlanAssignment*>>
      edge;
  for (const WavePlanAssignment& assignment : wave) {
    runtime::ManagedDevice* device = network_->Find(assignment.device);
    if (device == nullptr) {
      return NotFound("plan targets unknown device");
    }
    if (assignment.plan == nullptr) {
      return InvalidArgument("wave assignment without a plan");
    }
    const arch::ArchKind kind = device->device().arch();
    if (kind == arch::ArchKind::kHost || kind == arch::ArchKind::kNic) {
      edge.emplace_back(device, &assignment);
    } else {
      interior.emplace_back(device, &assignment);
    }
  }
  const auto by_device_id = [](const auto& a, const auto& b) {
    return a.first->id() < b.first->id();
  };
  std::sort(interior.begin(), interior.end(), by_device_id);
  std::sort(edge.begin(), edge.end(), by_device_id);

  sim::Simulator* sim = network_->simulator();
  // Shared across the wave's done-callbacks; heap-allocated because edge
  // applies fire inside RunUntil after this frame could have returned on
  // an error path.  `outstanding` counts apply chains whose done-callback
  // has not fired yet: stall/delay faults push a chain past the fault-free
  // ETA, and the wave must not be declared finished (nor its failures
  // harvested) while any chain is still running.
  struct WaveState {
    std::vector<std::pair<DeviceId, runtime::ApplyReport>> failures;
    std::size_t outstanding = 0;
  };
  auto state = std::make_shared<WaveState>();
  state->outstanding = interior.size() + edge.size();
  const auto on_done_for = [state](DeviceId id) {
    return [state, id](const runtime::ApplyReport& report) {
      if (!report.ok()) state->failures.emplace_back(id, report);
      --state->outstanding;
    };
  };
  SimTime interior_done = sim->now();
  for (const auto& [device, assignment] : interior) {
    reconfig_ops_ += assignment->plan->OpCount();
    interior_done = std::max(
        interior_done, engine_.ApplyShared(*device, assignment->plan,
                                           on_done_for(device->id()), owner));
  }
  // Phase two: schedule edge plans to start once interior is in place.
  SimTime all_done = interior_done;
  for (const auto& [device, assignment] : edge) {
    reconfig_ops_ += assignment->plan->OpCount();
    const SimDuration offset = interior_done - sim->now();
    const SimTime done_at =
        interior_done + assignment->plan->EstimateDuration(device->device());
    runtime::RuntimeEngine* engine = &engine_;
    runtime::ManagedDevice* dev = device;
    std::shared_ptr<const runtime::ReconfigPlan> plan = assignment->plan;
    auto on_done = on_done_for(device->id());
    // The wave runs the simulator until every chain reports, so `owner`
    // outlives this callback.
    sim->Schedule(offset, [engine, dev, plan, on_done, owner]() {
      engine->ApplyShared(*dev, plan, on_done, owner);
    });
    all_done = std::max(all_done, done_at);
  }
  sim->RunUntil(all_done);
  // `all_done` is the fault-free estimate; injected stalls delay chains
  // past it.  Keep stepping until every done-callback has fired so late
  // failures land in the outcome instead of being silently lost.
  while (state->outstanding > 0 && sim->Step()) {
  }
  outcome.finished = std::max(all_done, sim->now());
  outcome.failures = std::move(state->failures);
  return outcome;
}

Result<SimTime> Controller::ApplyPlansConsistently(
    const std::unordered_map<DeviceId, runtime::ReconfigPlan>& plans,
    std::string_view owner) {
  if (plans.empty()) return network_->simulator()->now();
  std::vector<WavePlanAssignment> wave;
  wave.reserve(plans.size());
  for (const auto& [id, plan] : plans) {
    wave.push_back(WavePlanAssignment{
        id, std::make_shared<const runtime::ReconfigPlan>(plan)});
  }
  FLEXNET_ASSIGN_OR_RETURN(WaveApplyOutcome outcome,
                           ApplyPlanWave(std::move(wave), owner));
  if (!outcome.failures.empty()) {
    std::string joined;
    for (const auto& [id, report] : outcome.failures) {
      for (const std::string& e : report.errors) {
        joined += e;
        joined += "; ";
      }
    }
    return Internal("plan application failed: " + joined);
  }
  return outcome.finished;
}

Result<DeployOutcome> Controller::DeployApp(
    const std::string& uri, flexbpf::ProgramIR program,
    std::vector<runtime::ManagedDevice*> slice) {
  if (apps_.contains(uri)) {
    return AlreadyExists("app '" + uri + "'");
  }
  if (slice.empty()) slice = AllDevices();
  const SimTime deploy_started = network_->simulator()->now();
  telemetry::ScopedSpan deploy_span(&metrics_->tracer(), deploy_started,
                                    "controller.deploy", uri);
  compiler::Compiler compiler(options_);
  telemetry::ScopedSpan compile_span(&metrics_->tracer(), "compiler.compile",
                                     uri);
  FLEXNET_ASSIGN_OR_RETURN(compiler::CompiledProgram compiled,
                           compiler.Compile(program, slice));
  compile_span.Annotate("plan_ops", std::to_string(compiled.TotalPlanOps()));
  compile_span.End();
  FLEXNET_ASSIGN_OR_RETURN(const SimTime ready,
                           ApplyPlansConsistently(compiled.plans, uri));
  deploy_span.Annotate("devices", std::to_string(slice.size()));
  deploy_span.EndAt(ready);
  AppRecord record;
  record.id = app_ids_.Next();
  record.uri = uri;
  record.program = std::move(program);
  record.compiled = compiled;
  record.state = AppState::kRunning;
  record.deployed_at = ready;
  apps_.emplace(uri, std::move(record));

  DeployOutcome outcome;
  outcome.app = apps_.at(uri).id;
  outcome.ready_at = ready;
  outcome.plan_ops = compiled.TotalPlanOps();
  outcome.predicted_latency = compiled.predicted_latency;
  metrics_->Count("controller.deploys");
  metrics_->Observe("controller.deploy_ns",
                    static_cast<double>(ready - deploy_started));
  metrics_->trace().Record(ready, "controller.deploy", uri,
                           static_cast<double>(outcome.plan_ops));
  FLEXNET_ILOG << "deployed " << uri << " (" << outcome.plan_ops
               << " ops, ready at " << ToMillis(ready) << " ms)";
  return outcome;
}

Result<DeployOutcome> Controller::UpdateApp(const std::string& uri,
                                            flexbpf::ProgramIR new_program) {
  const auto it = apps_.find(uri);
  if (it == apps_.end() || it->second.state != AppState::kRunning) {
    return NotFound("running app '" + uri + "'");
  }
  const SimTime update_started = network_->simulator()->now();
  telemetry::ScopedSpan update_span(&metrics_->tracer(), update_started,
                                    "controller.update", uri);
  compiler::IncrementalCompiler incremental(metrics_);
  FLEXNET_ASSIGN_OR_RETURN(
      compiler::IncrementalResult result,
      incremental.Recompile(it->second.program, new_program,
                            it->second.compiled, AllDevices()));
  FLEXNET_ASSIGN_OR_RETURN(const SimTime ready,
                           ApplyPlansConsistently(result.plans, uri));
  update_span.Annotate("structural_ops",
                       std::to_string(result.structural_ops));
  update_span.Annotate("entry_ops", std::to_string(result.entry_ops));
  update_span.EndAt(ready);
  it->second.program = std::move(new_program);
  it->second.compiled = std::move(result.compiled);

  DeployOutcome outcome;
  outcome.app = it->second.id;
  outcome.ready_at = ready;
  outcome.plan_ops = result.TotalOps();
  metrics_->Count("controller.updates");
  metrics_->Observe("controller.update_ns",
                    static_cast<double>(ready - update_started));
  return outcome;
}

Status Controller::RetireApp(const std::string& uri) {
  const auto it = apps_.find(uri);
  if (it == apps_.end() || it->second.state != AppState::kRunning) {
    return NotFound("running app '" + uri + "'");
  }
  telemetry::ScopedSpan retire_span(&metrics_->tracer(), "controller.retire",
                                    uri);
  // A retire is an update to the empty program.
  FLEXNET_ASSIGN_OR_RETURN(
      const auto plans,
      compiler::ComputeDevicePlans(it->second.program, it->second.compiled,
                                   {}, {}, AllDevices()));
  FLEXNET_RETURN_IF_ERROR(ApplyPlansConsistently(plans, uri));
  retire_span.End();
  it->second.state = AppState::kRetired;
  apps_.erase(it);
  metrics_->Count("controller.retires");
  FLEXNET_ILOG << "retired " << uri;
  return OkStatus();
}

Status Controller::MigrateApp(const std::string& uri, DeviceId from,
                              DeviceId to) {
  const auto it = apps_.find(uri);
  if (it == apps_.end() || it->second.state != AppState::kRunning) {
    return NotFound("running app '" + uri + "'");
  }
  runtime::ManagedDevice* src = network_->Find(from);
  runtime::ManagedDevice* dst = network_->Find(to);
  if (src == nullptr || dst == nullptr) {
    return NotFound("migration endpoint device");
  }
  AppRecord& record = it->second;
  telemetry::ScopedSpan migrate_span(&metrics_->tracer(),
                                     "controller.migrate", uri);
  migrate_span.Annotate("from", src->name());
  migrate_span.Annotate("to", dst->name());

  // A migration is a placement-book change: every element on `from` moves
  // to `to`.  The `to` plan applies first so the destination can
  // dual-apply, then map state moves, then the `from` plan removes.
  compiler::CompiledProgram moved = record.compiled;
  std::vector<std::string> moved_maps;
  bool any_moved = false;
  for (compiler::ElementPlacement& p : moved.placements) {
    if (p.device != from) continue;
    if (p.kind == compiler::ElementKind::kMap) moved_maps.push_back(p.name);
    p.device = to;
    p.location = "migrated";
    any_moved = true;
  }
  if (!any_moved) {
    return FailedPrecondition("app '" + uri + "' has no elements on device");
  }
  FLEXNET_ASSIGN_OR_RETURN(
      auto to_plans,
      compiler::ComputeDevicePlans(record.program, record.compiled,
                                   record.program, moved, AllDevices()));
  std::unordered_map<DeviceId, runtime::ReconfigPlan> from_plans;
  if (auto from_plan = to_plans.extract(from)) {
    from_plans.insert(std::move(from_plan));
  }
  FLEXNET_RETURN_IF_ERROR(ApplyPlansConsistently(to_plans, uri));
  // Data-plane state migration per map (lossless; E6's protocol).
  {
    telemetry::ScopedSpan copy_span(&metrics_->tracer(), "state.copy_maps",
                                    uri);
    copy_span.Annotate("maps", std::to_string(moved_maps.size()));
    for (const std::string& map_name : moved_maps) {
      state::EncodedMap* source = src->maps().Find(map_name);
      state::EncodedMap* destination = dst->maps().Find(map_name);
      if (source == nullptr || destination == nullptr) {
        return Internal("migrated map '" + map_name + "' missing an endpoint");
      }
      destination->Import(source->Export());
    }
  }
  FLEXNET_RETURN_IF_ERROR(ApplyPlansConsistently(from_plans, uri));
  record.compiled.placements = std::move(moved.placements);
  metrics_->Count("controller.migrations");
  metrics_->Count("controller.migrated_maps", moved_maps.size());
  metrics_->trace().Record(network_->simulator()->now(),
                           "controller.migrate", uri,
                           static_cast<double>(moved_maps.size()));
  return OkStatus();
}

const AppRecord* Controller::FindApp(const std::string& uri) const noexcept {
  const auto it = apps_.find(uri);
  return it == apps_.end() ? nullptr : &it->second;
}

std::vector<std::string> Controller::AppUris() const {
  std::vector<std::string> uris;
  uris.reserve(apps_.size());
  for (const auto& [uri, _] : apps_) uris.push_back(uri);
  std::sort(uris.begin(), uris.end());
  return uris;
}

std::size_t Controller::running_apps() const noexcept {
  std::size_t n = 0;
  for (const auto& [_, record] : apps_) {
    if (record.state == AppState::kRunning) ++n;
  }
  return n;
}

double Controller::PeakUtilization() const {
  double peak = 0.0;
  for (const auto& device : network_->devices()) {
    peak = std::max(peak, device->device().Utilization());
  }
  return peak;
}

}  // namespace flexnet::controller
