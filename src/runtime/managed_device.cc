#include "runtime/managed_device.h"

#include <algorithm>
#include <chrono>

namespace flexnet::runtime {

ManagedDevice::ManagedDevice(std::unique_ptr<arch::Device> device)
    : device_(std::move(device)) {}

bool ManagedDevice::HasFunction(const std::string& name) const noexcept {
  return std::any_of(functions_.begin(), functions_.end(),
                     [&](const flexbpf::FunctionDecl& f) {
                       return f.name == name;
                     });
}

Status ManagedDevice::AddTable(const StepAddTable& step) {
  const flexbpf::TableDecl& decl = step.decl;
  const std::size_t position = std::min(
      step.position, device_->pipeline().table_count());
  FLEXNET_ASSIGN_OR_RETURN(
      const std::string location,
      device_->ReserveTable(decl.name, decl.Resources(), step.order_hint,
                            step.order_group));
  (void)location;
  auto table_result = device_->pipeline().AddTable(decl.name, decl.key,
                                                   decl.capacity, position);
  if (!table_result.ok()) {
    (void)device_->ReleaseTable(decl.name);
    return table_result.error();
  }
  dataplane::MatchActionTable* table = table_result.value();
  table->SetDefaultAction(decl.default_action);
  for (const flexbpf::MeterDecl& meter : decl.meters) {
    (void)device_->pipeline().state().AddMeter(meter.name, meter.rate_pps,
                                               meter.burst);
  }
  for (const std::string& counter : decl.counters) {
    (void)device_->pipeline().state().AddCounter(counter);
  }
  for (const flexbpf::InitialEntry& e : decl.entries) {
    const dataplane::Action* action = decl.FindAction(e.action_name);
    if (action == nullptr) {
      (void)device_->pipeline().RemoveTable(decl.name);
      (void)device_->ReleaseTable(decl.name);
      return InvalidArgument("table '" + decl.name +
                             "': entry uses unknown action '" + e.action_name +
                             "'");
    }
    dataplane::TableEntry entry;
    entry.match = e.match;
    entry.action = *action;
    entry.priority = e.priority;
    FLEXNET_RETURN_IF_ERROR(table->AddEntry(std::move(entry)));
  }
  return OkStatus();
}

Status ManagedDevice::RemoveTable(const StepRemoveTable& step) {
  FLEXNET_RETURN_IF_ERROR(device_->pipeline().RemoveTable(step.name));
  return device_->ReleaseTable(step.name);
}

Status ManagedDevice::AddFunction(const StepAddFunction& step) {
  if (HasFunction(step.fn.name)) {
    return AlreadyExists("function '" + step.fn.name + "'");
  }
  // A function occupies one pipeline-element slot (action processing).
  dataplane::TableResources demand;
  demand.action_slots = 1;
  FLEXNET_ASSIGN_OR_RETURN(
      const std::string location,
      device_->ReserveTable("fn:" + step.fn.name, demand, SIZE_MAX));
  (void)location;
  // Compile inside the same step as the install: the next packet runs
  // against a (decl, compiled) pair that already agrees.  A compile
  // refusal (only possible for programs that bypassed the verifier) is not
  // an install error — that entry just runs on the reference interpreter.
  const auto t0 = std::chrono::steady_clock::now();
  auto compiled = flexbpf::CompiledFunction::Compile(step.fn);
  compile_ns_total_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  functions_.push_back(step.fn);
  if (compiled.ok()) {
    compiled_.push_back(std::move(compiled.value()));
  } else {
    compiled_.push_back(std::nullopt);
  }
  return OkStatus();
}

Status ManagedDevice::RemoveFunction(const StepRemoveFunction& step) {
  const auto it =
      std::find_if(functions_.begin(), functions_.end(),
                   [&](const flexbpf::FunctionDecl& f) {
                     return f.name == step.name;
                   });
  if (it == functions_.end()) {
    return NotFound("function '" + step.name + "'");
  }
  compiled_.erase(compiled_.begin() + (it - functions_.begin()));
  functions_.erase(it);
  return device_->ReleaseTable("fn:" + step.name);
}

Status ManagedDevice::AddParserState(const StepAddParserState& step,
                                     std::string_view owner) {
  dataplane::ParseGraph& parser = device_->pipeline().parser();
  const std::string& name = step.state.name;
  if (!owner.empty() && parser.HasState(name)) {
    // Shared: the state must already be wired the way this owner needs.
    bool wired = step.from.empty();
    if (const dataplane::ParseState* from = parser.FindState(step.from)) {
      for (const dataplane::ParseTransition& t : from->transitions) {
        wired |= !t.is_default && t.select_value == step.select_value &&
                 t.next_state == name;
      }
    }
    if (!wired) {
      return AlreadyExists("parse state '" + name +
                           "' exists with different wiring");
    }
    if (!parser_owners_[name].apps.emplace(owner).second) {
      return AlreadyExists("parse state '" + name + "' already owned by '" +
                           std::string(owner) + "'");
    }
    return OkStatus();
  }
  FLEXNET_RETURN_IF_ERROR(parser.AddState(step.state));
  if (!step.from.empty()) {
    const Status wired =
        parser.AddTransition(step.from, step.select_value, name);
    if (!wired.ok()) {
      (void)parser.RemoveState(name);
      return wired;
    }
  }
  if (!owner.empty()) {
    parser_owners_[name] = ParserStateOwners{{std::string(owner)}, true};
  }
  return OkStatus();
}

Status ManagedDevice::RemoveParserState(const StepRemoveParserState& step,
                                        std::string_view owner) {
  const auto it = parser_owners_.find(step.name);
  if (!owner.empty()) {
    if (it == parser_owners_.end() ||
        it->second.apps.erase(std::string(owner)) == 0) {
      return NotFound("parse state '" + step.name + "' not owned by '" +
                      std::string(owner) + "'");
    }
    if (!it->second.apps.empty()) return OkStatus();  // others still need it
    const bool installed = it->second.installed;
    parser_owners_.erase(it);
    if (!installed) return OkStatus();  // the standard graph's own state
  } else if (it != parser_owners_.end()) {
    parser_owners_.erase(it);
  }
  // Unwire inbound edges first: RemoveState alone leaves the chaining
  // transition behind (as a dangling accept), which a retired device's
  // state fingerprint would see as residue.
  dataplane::ParseGraph& parser = device_->pipeline().parser();
  parser.RemoveTransitionsTo(step.name);
  return parser.RemoveState(step.name);
}

const ManagedDevice::ParserStateOwners* ManagedDevice::FindParserStateOwners(
    const std::string& state) const noexcept {
  if (parser_owners_.empty()) return nullptr;  // the common, header-free case
  const auto it = parser_owners_.find(state);
  return it == parser_owners_.end() ? nullptr : &it->second;
}

std::size_t ManagedDevice::compiled_function_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(compiled_.begin(), compiled_.end(),
                    [](const auto& c) { return c.has_value(); }));
}

void ManagedDevice::PublishMetrics(telemetry::MetricsRegistry& registry) const {
  registry.Count("flexbpf_exec_compiled_runs", compiled_runs());
  registry.Count("flexbpf_exec_interp_runs", interp_runs());
  registry.Set("flexbpf_compile_ns_total",
               static_cast<double>(compile_ns_total_));
  registry.Set("flexbpf_compiled_functions",
               static_cast<double>(compiled_function_count()));
  std::size_t fused = 0;
  std::size_t bound = 0;
  std::size_t ops = 0;
  std::size_t src = 0;
  for (const auto& c : compiled_) {
    if (c.has_value()) {
      fused += c->fused_count();
      bound += c->bound_count();
      ops += c->op_count();
      src += c->source_instr_count();
    }
  }
  registry.Set("flexbpf_superinstructions", static_cast<double>(fused));
  registry.Set("flexbpf_bound_map_ops", static_cast<double>(bound));
  registry.Set("flexbpf_compiled_ops", static_cast<double>(ops));
  registry.Set("flexbpf_source_instrs", static_cast<double>(src));
}

Status ManagedDevice::ApplyStep(const ReconfigStep& step,
                                std::string_view owner) {
  Status status = OkStatus();
  if (const auto* s = std::get_if<StepAddTable>(&step)) {
    status = AddTable(*s);
  } else if (const auto* s = std::get_if<StepRemoveTable>(&step)) {
    status = RemoveTable(*s);
  } else if (const auto* s = std::get_if<StepMoveTable>(&step)) {
    status = device_->pipeline().MoveTable(s->name, s->position);
  } else if (const auto* s = std::get_if<StepAddFunction>(&step)) {
    status = AddFunction(*s);
  } else if (const auto* s = std::get_if<StepRemoveFunction>(&step)) {
    status = RemoveFunction(*s);
  } else if (const auto* s = std::get_if<StepAddMap>(&step)) {
    dataplane::TableResources demand;
    demand.state_bytes = s->decl.StateBytes();
    demand.action_slots = 0;
    auto reserve = device_->ReserveTable("map:" + s->decl.name, demand, SIZE_MAX);
    if (!reserve.ok()) {
      status = reserve.error();
    } else {
      status = maps_.Install(s->decl, s->encoding);
      if (!status.ok()) (void)device_->ReleaseTable("map:" + s->decl.name);
    }
  } else if (const auto* s = std::get_if<StepRemoveMap>(&step)) {
    status = maps_.Remove(s->name);
    if (status.ok()) (void)device_->ReleaseTable("map:" + s->name);
  } else if (const auto* s = std::get_if<StepAddParserState>(&step)) {
    status = AddParserState(*s, owner);
  } else if (const auto* s = std::get_if<StepRemoveParserState>(&step)) {
    status = RemoveParserState(*s, owner);
  } else if (const auto* s = std::get_if<StepAddEntry>(&step)) {
    dataplane::MatchActionTable* table =
        device_->pipeline().FindTable(s->table);
    if (table == nullptr) {
      status = NotFound("table '" + s->table + "'");
    } else {
      status = table->AddEntry(s->entry);
    }
  } else if (const auto* s = std::get_if<StepRemoveEntry>(&step)) {
    dataplane::MatchActionTable* table =
        device_->pipeline().FindTable(s->table);
    if (table == nullptr) {
      status = NotFound("table '" + s->table + "'");
    } else if (table->RemoveEntries(s->match) == 0) {
      status = NotFound("no matching entries in '" + s->table + "'");
    }
  }
  if (status.ok()) {
    // Map storage may have moved (install/remove); re-resolve every
    // compiled function's direct cell bindings before the next packet.
    for (auto& c : compiled_) {
      if (c.has_value()) c->Bind(&maps_);
    }
    device_->BumpProgramVersion();
  }
  return status;
}

Status ManagedDevice::ApplyAll(const ReconfigPlan& plan) {
  for (const ReconfigStep& step : plan.steps) {
    FLEXNET_RETURN_IF_ERROR(ApplyStep(step));
  }
  return OkStatus();
}

void ManagedDevice::RunFunctions(flexbpf::Interpreter& interp,
                                 packet::Packet& p,
                                 arch::ProcessOutcome& outcome) {
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    const bool use_compiled =
        compiled_exec_enabled_ && i < compiled_.size() &&
        compiled_[i].has_value();
    const flexbpf::InterpResult r = use_compiled
                                        ? compiled_[i]->Run(p, &maps_)
                                        : interp.Run(functions_[i], p);
    ++(use_compiled ? compiled_runs_ : interp_runs_);
    outcome.latency += device_->MarginalLatency(1);
    outcome.energy_nj += device_->MarginalEnergyNj(1);
    if (r.dropped) {
      outcome.pipeline.dropped = true;
      break;
    }
  }
}

arch::ProcessOutcome ManagedDevice::Process(packet::Packet& p, SimTime now) {
  arch::ProcessOutcome outcome = device_->ProcessPacket(p, now);
  if (outcome.pipeline.dropped || !device_->online()) return outcome;
  flexbpf::Interpreter interp(&maps_);
  RunFunctions(interp, p, outcome);
  return outcome;
}

void ManagedDevice::ProcessBatch(std::span<packet::Packet> pkts, SimTime now,
                                 std::span<arch::ProcessOutcome> outcomes) {
  device_->ProcessPacketBatch(pkts, now, outcomes);
  if (!device_->online() || functions_.empty()) return;
  flexbpf::Interpreter interp(&maps_);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (outcomes[i].pipeline.dropped) continue;
    RunFunctions(interp, pkts[i], outcomes[i]);
  }
}

}  // namespace flexnet::runtime
