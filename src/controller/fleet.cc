#include "controller/fleet.h"

#include <algorithm>
#include <utility>

#include "compiler/incremental.h"

namespace flexnet::controller {

namespace {

// Retire and first deploy reuse the update path: deploy is an update from
// the empty program, retire an update to it.  The empty side keeps the
// program's name so the class key's before/after hashes are deterministic.
flexbpf::ProgramIR EmptyLike(const flexbpf::ProgramIR& program) {
  flexbpf::ProgramIR empty;
  empty.name = program.name;
  return empty;
}

}  // namespace

Result<RolloutReport> FleetManager::DeployFleetWide(const std::string& uri,
                                                    flexbpf::ProgramIR program) {
  if (apps_.contains(uri)) return AlreadyExists("fleet app '" + uri + "'");
  FLEXNET_ASSIGN_OR_RETURN(RolloutReport report,
                           Rollout(uri, EmptyLike(program), program, 1));
  apps_.emplace(uri, FleetApp{std::move(program), 1});
  return report;
}

Result<RolloutReport> FleetManager::UpdateFleetWide(const std::string& uri,
                                                    flexbpf::ProgramIR program) {
  const auto it = apps_.find(uri);
  if (it == apps_.end()) return NotFound("fleet app '" + uri + "'");
  const std::uint64_t generation = it->second.generation + 1;
  FLEXNET_ASSIGN_OR_RETURN(
      RolloutReport report,
      Rollout(uri, it->second.program, program, generation));
  it->second.program = std::move(program);
  it->second.generation = generation;
  return report;
}

Result<RolloutReport> FleetManager::RetireFleetWide(const std::string& uri) {
  const auto it = apps_.find(uri);
  if (it == apps_.end()) return NotFound("fleet app '" + uri + "'");
  FLEXNET_ASSIGN_OR_RETURN(
      RolloutReport report,
      Rollout(uri, it->second.program, EmptyLike(it->second.program),
              it->second.generation + 1));
  apps_.erase(it);
  return report;
}

const flexbpf::ProgramIR* FleetManager::FindProgram(
    const std::string& uri) const noexcept {
  const auto it = apps_.find(uri);
  return it == apps_.end() ? nullptr : &it->second.program;
}

std::uint64_t FleetManager::generation(const std::string& uri) const noexcept {
  const auto it = apps_.find(uri);
  return it == apps_.end() ? 0 : it->second.generation;
}

Status FleetManager::CommitWaveThroughRaft(const std::string& op,
                                           WaveStat& stat,
                                           RolloutReport& report) {
  sim::Simulator* sim = controller_->network()->simulator();
  telemetry::MetricsRegistry* metrics = controller_->metrics();
  // RaftCluster holds each Propose callback in its pending list until the
  // entry commits at a leader — potentially long after this attempt's
  // deadline has passed (a partition heals, a later attempt's RunUntil
  // steps the simulator).  The callback therefore captures heap state by
  // shared_ptr, never stack locals, and every attempt's state is kept so
  // a *stale* proposal that commits late still counts: the wave record is
  // in the log, which is all the gate requires.  (A late commit racing a
  // re-propose can duplicate the descriptor in the log; descriptors are
  // idempotent markers keyed by uri/generation/wave, so replicas ignore
  // the duplicate.)
  struct ProposeState {
    bool responded = false;
    bool committed = false;
  };
  std::vector<std::shared_ptr<ProposeState>> attempts;
  const auto any_committed = [&attempts]() {
    for (const auto& a : attempts) {
      if (a->responded && a->committed) return true;
    }
    return false;
  };
  for (std::size_t attempt = 0; attempt <= config_.raft_retry_limit;
       ++attempt) {
    auto state = std::make_shared<ProposeState>();
    attempts.push_back(state);
    const bool proposed = raft_->Propose(op, [state](bool ok, std::uint64_t) {
      state->responded = true;
      state->committed = ok;
    });
    if (proposed) {
      // Drive the cluster until the commit callback fires or the deadline
      // passes.  Heartbeats keep the event queue non-empty while any node
      // is alive, so a lost entry ends at the deadline, not in a dry run.
      const SimTime deadline = sim->now() + config_.raft_commit_timeout;
      while (!state->responded && sim->now() < deadline && sim->Step()) {
      }
      if (any_committed()) return OkStatus();
    }
    // No leader, a lost entry, or a commit timeout: the wave is stalled.
    // Never touch a device without a committed wave record — a partitioned
    // controller must not half-apply a rollout.
    if (!stat.stalled) {
      stat.stalled = true;
      ++report.stalled_waves;
      ++waves_stalled_;
      metrics->Count("fleet_wave_stalled");
    }
    metrics->trace().Record(sim->now(), "fleet.wave_stall", op);
    // Give elections (and healing partitions) a window before re-proposing.
    sim->RunUntil(sim->now() + config_.raft_commit_timeout);
    // An earlier proposal may have committed while the simulator ran the
    // backoff window — the wave record is in the log; no re-propose.
    if (any_committed()) return OkStatus();
  }
  return Unavailable("wave never committed through raft: " + op);
}

Result<RolloutReport> FleetManager::Rollout(const std::string& uri,
                                            const flexbpf::ProgramIR& before,
                                            const flexbpf::ProgramIR& after,
                                            std::uint64_t generation) {
  net::Network* network = controller_->network();
  sim::Simulator* sim = network->simulator();
  telemetry::MetricsRegistry* metrics = controller_->metrics();
  telemetry::ScopedSpan rollout_span(&metrics->tracer(), "fleet.rollout", uri);
  rollout_span.Annotate("generation", std::to_string(generation));

  // Global two-phase order: every interior wave lands before the first
  // edge (host/NIC) wave, so no ingress device ever forwards onto a
  // not-yet-updated fabric.  Phases are sorted by device id — the wave
  // composition is a pure function of the topology.
  std::vector<runtime::ManagedDevice*> interior;
  std::vector<runtime::ManagedDevice*> edge;
  for (const auto& d : network->devices()) {
    const arch::ArchKind kind = d->device().arch();
    if (kind == arch::ArchKind::kHost || kind == arch::ArchKind::kNic) {
      edge.push_back(d.get());
    } else {
      interior.push_back(d.get());
    }
  }
  const auto by_id = [](const runtime::ManagedDevice* a,
                        const runtime::ManagedDevice* b) {
    return a->id() < b->id();
  };
  std::sort(interior.begin(), interior.end(), by_id);
  std::sort(edge.begin(), edge.end(), by_id);

  // The program half of every plan key is fixed for the whole rollout.
  const compiler::RolloutKey rollout_key =
      compiler::MakeRolloutKey(before, after);

  RolloutReport report;
  report.started = sim->now();
  report.devices = interior.size() + edge.size();
  rollout_span.Annotate("devices", std::to_string(report.devices));

  const std::size_t wave_size = std::max<std::size_t>(1, config_.wave_size);
  std::size_t wave_index = 0;
  for (const std::vector<runtime::ManagedDevice*>* phase : {&interior, &edge}) {
    for (std::size_t begin = 0; begin < phase->size(); begin += wave_size) {
      const std::size_t end = std::min(phase->size(), begin + wave_size);
      WaveStat stat;
      stat.devices = end - begin;
      stat.started = sim->now();
      ++waves_started_;
      metrics->Count("fleet_wave_started");
      telemetry::ScopedSpan wave_span(&metrics->tracer(), "fleet.wave", uri);
      wave_span.Annotate("wave", std::to_string(wave_index));
      wave_span.Annotate("devices", std::to_string(stat.devices));

      if (raft_ != nullptr) {
        const std::string op = "fleet.wave:" + uri + ":g" +
                               std::to_string(generation) + ":w" +
                               std::to_string(wave_index);
        const Status committed = CommitWaveThroughRaft(op, stat, report);
        if (stat.stalled) {
          wave_span.Annotate("stalled",
                             "raft commit timed out; re-proposed");
        }
        if (!committed.ok()) {
          report.wave_stats.push_back(stat);
          return committed.error();
        }
      }

      // One shared plan per equivalence class: the first device of a class
      // pays the verify+diff+plan cost, every sibling rehydrates the same
      // immutable object.
      std::vector<WavePlanAssignment> assignments;
      assignments.reserve(stat.devices);
      std::unordered_map<DeviceId,
                         std::shared_ptr<const runtime::ReconfigPlan>>
          plan_of;
      for (std::size_t i = begin; i < end; ++i) {
        runtime::ManagedDevice* device = (*phase)[i];
        const compiler::PlanKey key =
            compiler::MakePlanKey(rollout_key, *device);
        std::shared_ptr<const runtime::ReconfigPlan> plan = cache_.Find(key);
        if (plan == nullptr) {
          FLEXNET_ASSIGN_OR_RETURN(
              compiler::ClassPlanResult computed,
              compiler::ComputeClassPlan(before, after,
                                         device->device().arch()));
          plan = cache_.Insert(key, std::move(computed.plan));
          ++report.plans_compiled;
        } else {
          ++report.plans_reused;
        }
        plan_of.emplace(device->id(), plan);
        assignments.push_back(WavePlanAssignment{device->id(), std::move(plan)});
      }

      // Plan push + ack per device.
      report.control_messages += 2 * stat.devices;
      FLEXNET_ASSIGN_OR_RETURN(
          WaveApplyOutcome outcome,
          controller_->ApplyPlanWave(std::move(assignments), uri));

      // Crash recovery: a crashed device re-applies from the first step
      // whose effects are not on the device (ApplyReport::ResumePoint()),
      // until it converges or its budget runs out.  A step that failed on
      // its own (AlreadyExists, out of capacity) fails the device at once:
      // the failure is deterministic, and the engine runs past it, so a
      // retry would re-apply later steps that already landed.
      const auto fail_device = [&report](DeviceId id,
                                         const runtime::ApplyReport& rep) {
        ++report.device_failures;
        report.errors.push_back(
            "device " + std::to_string(id.value()) + ": " +
            (rep.errors.empty() ? std::string("plan failed")
                                : rep.errors.front()));
      };
      std::unordered_map<DeviceId, std::pair<std::size_t, std::size_t>>
          pending;  // device -> {resume step index, attempts}
      for (const auto& [id, rep] : outcome.failures) {
        if (!rep.crashed) {
          fail_device(id, rep);
          continue;
        }
        pending.emplace(id, std::make_pair(rep.ResumePoint(), std::size_t{0}));
      }
      while (!pending.empty()) {
        std::vector<WavePlanAssignment> retry_wave;
        retry_wave.reserve(pending.size());
        for (auto it = pending.begin(); it != pending.end();) {
          auto& [applied, attempts] = it->second;
          if (attempts >= config_.max_retries_per_device) {
            ++report.device_failures;
            report.errors.push_back(
                "device " + std::to_string(it->first.value()) +
                " exhausted its retry budget at step " +
                std::to_string(applied));
            it = pending.erase(it);
            continue;
          }
          ++attempts;
          ++stat.retries;
          const auto& full = plan_of.at(it->first);
          runtime::ReconfigPlan suffix;
          suffix.description = full->description + " (resume at step " +
                               std::to_string(applied) + ")";
          suffix.steps.assign(full->steps.begin() + applied,
                              full->steps.end());
          retry_wave.push_back(WavePlanAssignment{
              it->first,
              std::make_shared<const runtime::ReconfigPlan>(
                  std::move(suffix))});
          ++it;
        }
        if (retry_wave.empty()) break;
        report.control_messages += 2 * retry_wave.size();
        metrics->Count("fleet.device_retries", retry_wave.size());
        FLEXNET_ASSIGN_OR_RETURN(
            WaveApplyOutcome retry_outcome,
            controller_->ApplyPlanWave(std::move(retry_wave), uri));
        std::unordered_map<DeviceId, const runtime::ApplyReport*> failed_again;
        for (const auto& [id, rep] : retry_outcome.failures) {
          failed_again.emplace(id, &rep);
        }
        for (auto it = pending.begin(); it != pending.end();) {
          const auto f = failed_again.find(it->first);
          if (f == failed_again.end()) {
            it = pending.erase(it);  // converged this round
          } else if (!f->second->crashed) {
            fail_device(it->first, *f->second);
            it = pending.erase(it);
          } else {
            it->second.first += f->second->ResumePoint();  // advance
            ++it;
          }
        }
      }

      stat.finished = sim->now();
      report.wave_stats.push_back(stat);
      ++waves_completed_;
      metrics->Count("fleet_wave_completed");
      wave_span.End();
      if (config_.on_wave_complete) config_.on_wave_complete(wave_index);
      ++wave_index;
    }
  }
  report.waves = wave_index;
  report.finished = sim->now();
  rollout_span.Annotate("waves", std::to_string(report.waves));
  rollout_span.Annotate("cache_hit_rate", std::to_string(report.CacheHitRate()));
  return report;
}

}  // namespace flexnet::controller
