#include "compiler/incremental.h"

#include <algorithm>
#include <unordered_map>

namespace flexnet::compiler {

bool ProgramDelta::Empty() const noexcept {
  return StructuralChangeCount() == 0 && EntryChangeCount() == 0;
}

std::size_t ProgramDelta::StructuralChangeCount() const noexcept {
  return tables_added.size() + tables_removed.size() +
         tables_restructured.size() + functions_added.size() +
         functions_removed.size() + functions_changed.size() +
         maps_added.size() + maps_removed.size() + headers_added.size() +
         headers_removed.size();
}

std::size_t ProgramDelta::EntryChangeCount() const noexcept {
  std::size_t n = 0;
  for (const EntryDelta& d : entry_deltas) {
    n += d.added.size() + d.removed.size();
  }
  return n;
}

ProgramDelta DiffPrograms(const flexbpf::ProgramIR& before,
                          const flexbpf::ProgramIR& after) {
  ProgramDelta delta;
  // Tables.
  for (const flexbpf::TableDecl& new_table : after.tables) {
    const flexbpf::TableDecl* old_table = before.FindTable(new_table.name);
    if (old_table == nullptr) {
      delta.tables_added.push_back(new_table);
    } else if (!old_table->SameStructure(new_table)) {
      delta.tables_restructured.push_back(new_table);
    } else if (old_table->entries != new_table.entries) {
      EntryDelta ed;
      ed.table = new_table.name;
      for (const flexbpf::InitialEntry& e : new_table.entries) {
        if (std::find(old_table->entries.begin(), old_table->entries.end(),
                      e) == old_table->entries.end()) {
          ed.added.push_back(e);
        }
      }
      for (const flexbpf::InitialEntry& e : old_table->entries) {
        if (std::find(new_table.entries.begin(), new_table.entries.end(), e) ==
            new_table.entries.end()) {
          ed.removed.push_back(e.match);
        }
      }
      delta.entry_deltas.push_back(std::move(ed));
    }
  }
  for (const flexbpf::TableDecl& old_table : before.tables) {
    if (after.FindTable(old_table.name) == nullptr) {
      delta.tables_removed.push_back(old_table.name);
    }
  }
  // Functions.
  for (const flexbpf::FunctionDecl& new_fn : after.functions) {
    const flexbpf::FunctionDecl* old_fn = before.FindFunction(new_fn.name);
    if (old_fn == nullptr) {
      delta.functions_added.push_back(new_fn);
    } else if (!(*old_fn == new_fn)) {
      delta.functions_changed.push_back(new_fn);
    }
  }
  for (const flexbpf::FunctionDecl& old_fn : before.functions) {
    if (after.FindFunction(old_fn.name) == nullptr) {
      delta.functions_removed.push_back(old_fn.name);
    }
  }
  // Maps (maps are never "restructured" in place: a size/cell change is a
  // remove+add because live state would be invalidated anyway).
  for (const flexbpf::MapDecl& new_map : after.maps) {
    const flexbpf::MapDecl* old_map = before.FindMap(new_map.name);
    if (old_map == nullptr) {
      delta.maps_added.push_back(new_map);
    } else if (!(*old_map == new_map)) {
      delta.maps_removed.push_back(new_map.name);
      delta.maps_added.push_back(new_map);
    }
  }
  for (const flexbpf::MapDecl& old_map : before.maps) {
    if (after.FindMap(old_map.name) == nullptr) {
      delta.maps_removed.push_back(old_map.name);
    }
  }
  // Headers.  A requirement that changed (same header, new chaining) is a
  // remove + add: removals land before additions in every plan, so the
  // state is rewired, not duplicated.
  for (const flexbpf::HeaderRequirement& req : after.headers) {
    if (std::find(before.headers.begin(), before.headers.end(), req) ==
        before.headers.end()) {
      delta.headers_added.push_back(req);
    }
  }
  for (const flexbpf::HeaderRequirement& req : before.headers) {
    // Exact-requirement match: a header whose chaining changed is removed
    // here and re-added above.
    if (std::find(after.headers.begin(), after.headers.end(), req) !=
        after.headers.end()) {
      continue;
    }
    if (std::find(delta.headers_removed.begin(), delta.headers_removed.end(),
                  req.header) == delta.headers_removed.end()) {
      delta.headers_removed.push_back(req.header);
    }
  }
  return delta;
}

namespace {

Result<dataplane::TableEntry> ResolveEntry(const flexbpf::TableDecl& table,
                                           const flexbpf::InitialEntry& e) {
  const dataplane::Action* action = table.FindAction(e.action_name);
  if (action == nullptr) {
    return InvalidArgument("table '" + table.name + "': unknown action '" +
                           e.action_name + "'");
  }
  dataplane::TableEntry entry;
  entry.match = e.match;
  entry.action = *action;
  entry.priority = e.priority;
  return entry;
}

// The one step emitter: appends the steps taking a device from the
// `before` side of `delta` to its `after` side.  `program` is the whole new
// program (order hints, entry actions); map encodings resolve for `arch`.
Status EmitSteps(const ProgramDelta& delta, const flexbpf::ProgramIR& program,
                 arch::ArchKind arch, runtime::ReconfigPlan& plan) {
  // Removals first (they free the resources the additions need):
  // functions, tables, maps.
  for (const std::string& name : delta.functions_removed) {
    plan.steps.push_back(runtime::StepRemoveFunction{name});
  }
  for (const std::string& name : delta.tables_removed) {
    plan.steps.push_back(runtime::StepRemoveTable{name});
  }
  for (const std::string& name : delta.maps_removed) {
    plan.steps.push_back(runtime::StepRemoveMap{name});
  }
  // Parser states last among removals: the tables matching on these
  // headers are removed above, so no table is left matching an
  // unparseable header.  Without this, retire (update-to-empty) would
  // leave the app's parser states installed on every device.
  for (const std::string& header : delta.headers_removed) {
    plan.steps.push_back(runtime::StepRemoveParserState{header});
  }

  // Restructured tables: remove + re-add in place (the element stays on
  // this device; a table that moves is a removal here and an addition on
  // its new device).
  for (const flexbpf::TableDecl& table : delta.tables_restructured) {
    plan.steps.push_back(runtime::StepRemoveTable{table.name});
    runtime::StepAddTable add;
    add.decl = table;
    plan.steps.push_back(std::move(add));
  }

  // Changed functions: replace in place.
  for (const flexbpf::FunctionDecl& fn : delta.functions_changed) {
    plan.steps.push_back(runtime::StepRemoveFunction{fn.name});
    runtime::StepAddFunction add;
    add.fn = fn;
    plan.steps.push_back(std::move(add));
  }

  // Additions: maps, parser states, tables (pipeline order), functions.
  for (const flexbpf::MapDecl& map : delta.maps_added) {
    runtime::StepAddMap step;
    step.decl = map;
    step.encoding = ResolveEncoding(map.encoding, arch);
    plan.steps.push_back(std::move(step));
  }
  for (const flexbpf::HeaderRequirement& req : delta.headers_added) {
    runtime::StepAddParserState step;
    step.state.name = req.header;
    step.from = req.after;
    step.select_value = req.select_value;
    plan.steps.push_back(std::move(step));
  }
  // Stage-ordering metadata: the table's index within the whole new
  // program and the program's identity as the order group, so staged
  // architectures keep one program's tables in pipeline order.
  const std::uint64_t order_group = std::hash<std::string>{}(program.name) | 1;
  for (const flexbpf::TableDecl& table : delta.tables_added) {
    runtime::StepAddTable step;
    step.decl = table;  // carries initial entries: deploy == update-from-empty
    for (std::size_t i = 0; i < program.tables.size(); ++i) {
      if (program.tables[i].name == table.name) {
        step.order_hint = i;
        step.order_group = order_group;
        break;
      }
    }
    plan.steps.push_back(std::move(step));
  }
  for (const flexbpf::FunctionDecl& fn : delta.functions_added) {
    runtime::StepAddFunction step;
    step.fn = fn;
    plan.steps.push_back(std::move(step));
  }

  // Entry-level deltas: control-plane writes against the hosting table.
  for (const EntryDelta& ed : delta.entry_deltas) {
    const flexbpf::TableDecl* table = program.FindTable(ed.table);
    if (table == nullptr) {
      return Internal("entry delta against unknown table '" + ed.table + "'");
    }
    for (const auto& match : ed.removed) {
      plan.steps.push_back(runtime::StepRemoveEntry{ed.table, match});
    }
    for (const flexbpf::InitialEntry& e : ed.added) {
      FLEXNET_ASSIGN_OR_RETURN(dataplane::TableEntry entry,
                               ResolveEntry(*table, e));
      plan.steps.push_back(runtime::StepAddEntry{ed.table, std::move(entry)});
    }
  }
  return OkStatus();
}

runtime::ManagedDevice* FindDevice(
    const std::vector<runtime::ManagedDevice*>& devices, DeviceId id) {
  for (runtime::ManagedDevice* d : devices) {
    if (d->id() == id) return d;
  }
  return nullptr;
}

// What `device` hosts of `program` under `book` (ComputeDevicePlans).
flexbpf::ProgramIR ProjectOnto(const flexbpf::ProgramIR& program,
                               const CompiledProgram& book, DeviceId device) {
  const auto placed_here = [&](ElementKind kind, const std::string& name) {
    const ElementPlacement* p = book.Find(kind, name);
    return p != nullptr && p->device == device;
  };
  flexbpf::ProgramIR projection;
  projection.name = program.name;
  for (const flexbpf::MapDecl& map : program.maps) {
    if (placed_here(ElementKind::kMap, map.name)) {
      projection.maps.push_back(map);
    }
  }
  for (const flexbpf::TableDecl& table : program.tables) {
    if (placed_here(ElementKind::kTable, table.name)) {
      projection.tables.push_back(table);
    }
  }
  for (const flexbpf::FunctionDecl& fn : program.functions) {
    if (placed_here(ElementKind::kFunction, fn.name)) {
      projection.functions.push_back(fn);
    }
  }
  // Header requirements are whole-slice: a protocol the program introduces
  // must parse on every device its traffic can traverse, or packets die at
  // the first hop that has not learned the header.
  const bool parses_headers =
      std::find(book.slice.begin(), book.slice.end(), device) !=
          book.slice.end() ||
      std::any_of(
          book.placements.begin(), book.placements.end(),
          [&](const ElementPlacement& p) { return p.device == device; });
  if (parses_headers) projection.headers = program.headers;
  return projection;
}

}  // namespace

Result<ClassPlanResult> ComputeClassPlan(const flexbpf::ProgramIR& before,
                                         const flexbpf::ProgramIR& after,
                                         arch::ArchKind arch) {
  // Verified once per equivalence class — at fleet scale this alone saves
  // O(devices) verifier runs per rollout.
  flexbpf::ProgramIR verified = after;
  {
    flexbpf::Verifier verifier;
    auto r = verifier.Verify(verified);
    if (!r.ok()) return r.error();
  }

  ClassPlanResult result;
  result.delta = DiffPrograms(before, verified);
  result.plan.description = "class plan: " + before.name + " -> " +
                            verified.name + " on " + arch::ToString(arch);
  FLEXNET_RETURN_IF_ERROR(EmitSteps(result.delta, verified, arch, result.plan));
  return result;
}

Result<std::unordered_map<DeviceId, runtime::ReconfigPlan>> ComputeDevicePlans(
    const flexbpf::ProgramIR& before, const CompiledProgram& before_book,
    const flexbpf::ProgramIR& after, const CompiledProgram& after_book,
    const std::vector<runtime::ManagedDevice*>& devices) {
  // Every device either book touches, in first-seen order.
  std::vector<DeviceId> touched;
  const auto touch = [&](DeviceId id) {
    if (std::find(touched.begin(), touched.end(), id) == touched.end()) {
      touched.push_back(id);
    }
  };
  for (const CompiledProgram* book : {&before_book, &after_book}) {
    for (const ElementPlacement& p : book->placements) touch(p.device);
    for (const DeviceId id : book->slice) touch(id);
  }

  std::unordered_map<DeviceId, runtime::ReconfigPlan> plans;
  for (const DeviceId id : touched) {
    const runtime::ManagedDevice* device = FindDevice(devices, id);
    if (device == nullptr) {
      return NotFound("device " + std::to_string(id.value()) +
                      " hosts part of '" + after.name +
                      "' but is not among the devices");
    }
    const ProgramDelta delta =
        DiffPrograms(ProjectOnto(before, before_book, id),
                     ProjectOnto(after, after_book, id));
    runtime::ReconfigPlan plan;
    plan.description =
        before.name + " -> " + after.name + " on " + device->name();
    FLEXNET_RETURN_IF_ERROR(
        EmitSteps(delta, after, device->device().arch(), plan));
    if (!plan.steps.empty()) plans.emplace(id, std::move(plan));
  }
  return plans;
}

Result<IncrementalResult> IncrementalCompiler::Recompile(
    const flexbpf::ProgramIR& before, const flexbpf::ProgramIR& after,
    const CompiledProgram& existing,
    const std::vector<runtime::ManagedDevice*>& slice) {
  telemetry::Tracer& tracer = metrics_->tracer();
  telemetry::ScopedSpan recompile_span(&tracer, "compiler.incremental",
                                       after.name);

  // Verify the *new* program before computing anything.
  flexbpf::ProgramIR verified = after;
  {
    telemetry::ScopedSpan verify_span(&tracer, "compiler.verify", after.name);
    flexbpf::Verifier verifier;
    FLEXNET_RETURN_IF_ERROR([&]() -> Status {
      auto r = verifier.Verify(verified);
      if (!r.ok()) return r.error();
      return OkStatus();
    }());
  }

  telemetry::ScopedSpan diff_span(&tracer, "compiler.diff", after.name);
  const ProgramDelta delta = DiffPrograms(before, verified);
  diff_span.Annotate("structural",
                     std::to_string(delta.StructuralChangeCount()));
  diff_span.Annotate("entries", std::to_string(delta.EntryChangeCount()));
  diff_span.End();

  telemetry::ScopedSpan plan_span(&tracer, "compiler.plan", after.name);

  IncrementalResult result;

  // Adjacency preference: the device hosting the most elements of this
  // program, for placing additions next to their siblings.
  std::unordered_map<DeviceId, std::size_t> host_weight;
  for (const ElementPlacement& p : existing.placements) {
    ++host_weight[p.device];
  }
  runtime::ManagedDevice* adjacent_preferred = nullptr;
  std::size_t best_weight = 0;
  for (const auto& [id, weight] : host_weight) {
    if (weight > best_weight) {
      if (runtime::ManagedDevice* d = FindDevice(slice, id)) {
        best_weight = weight;
        adjacent_preferred = d;
      }
    }
  }

  // Start from the old placement book; mutate as we process the delta.
  std::vector<ElementPlacement> placements = existing.placements;
  const auto drop_placement = [&](ElementKind kind, const std::string& name) {
    placements.erase(
        std::remove_if(placements.begin(), placements.end(),
                       [&](const ElementPlacement& p) {
                         return p.kind == kind && p.name == name;
                       }),
        placements.end());
  };
  const auto placement_of =
      [&](ElementKind kind,
          const std::string& name) -> const ElementPlacement* {
    for (const ElementPlacement& p : placements) {
      if (p.kind == kind && p.name == name) return &p;
    }
    return nullptr;
  };

  // Helper that places a new element adjacent-first, falling back to any
  // slice device; probes real devices, keeping reservations released.
  const auto place_new =
      [&](ElementKind kind, const std::string& name,
          const dataplane::TableResources& demand,
          flexbpf::Domain domain) -> Status {
    std::vector<runtime::ManagedDevice*> candidates;
    if (adjacent_preferred != nullptr) candidates.push_back(adjacent_preferred);
    for (runtime::ManagedDevice* d : slice) {
      if (d != adjacent_preferred) candidates.push_back(d);
    }
    const std::string reservation = ReservationName(kind, name);
    const std::uint64_t order_group =
        std::hash<std::string>{}(verified.name) | 1;
    std::string last_error = "no candidates";
    for (runtime::ManagedDevice* device : candidates) {
      if (!DomainAllows(domain, device->device().arch())) continue;
      auto probe = device->device().ReserveTable(reservation, demand,
                                                  SIZE_MAX, order_group);
      if (probe.ok()) {
        (void)device->device().ReleaseTable(reservation);
        placements.push_back(
            ElementPlacement{kind, name, device->id(), probe.value()});
        return OkStatus();
      }
      last_error = probe.error().message();
    }
    return CompilationFailed("incremental: cannot place '" + name +
                             "': " + last_error);
  };

  // --- Removals first (they free resources the additions may need). ---
  for (const std::string& name : delta.functions_removed) {
    drop_placement(ElementKind::kFunction, name);
  }
  for (const std::string& name : delta.tables_removed) {
    drop_placement(ElementKind::kTable, name);
  }
  for (const std::string& name : delta.maps_removed) {
    drop_placement(ElementKind::kMap, name);
  }

  // --- Restructured tables: same device when the new shape still fits.
  for (const flexbpf::TableDecl& table : delta.tables_restructured) {
    const ElementPlacement* old_place =
        placement_of(ElementKind::kTable, table.name);
    runtime::ManagedDevice* old_device =
        old_place != nullptr ? FindDevice(slice, old_place->device) : nullptr;
    drop_placement(ElementKind::kTable, table.name);
    bool fits = false;
    if (old_device != nullptr) {
      // The old reservation still sits on the device; adding the new shape
      // is feasible if the *delta* fits, probed with a scratch name.
      auto probe = old_device->device().ReserveTable(
          "probe:" + table.name, table.Resources(), SIZE_MAX, 0);
      if (probe.ok()) {
        (void)old_device->device().ReleaseTable("probe:" + table.name);
        fits = true;
      }
    }
    if (fits) {
      placements.push_back(ElementPlacement{ElementKind::kTable, table.name,
                                            old_device->id(), "adjacent"});
    } else {
      FLEXNET_RETURN_IF_ERROR(place_new(ElementKind::kTable, table.name,
                                        table.Resources(),
                                        flexbpf::Domain::kAny));
      ++result.moved_elements;
    }
  }

  // --- Changed functions are replaced in place (functions are tiny).
  for (const flexbpf::FunctionDecl& fn : delta.functions_changed) {
    if (placement_of(ElementKind::kFunction, fn.name) == nullptr) {
      return Internal("changed function '" + fn.name + "' has no placement");
    }
  }

  // --- Additions.
  for (const flexbpf::MapDecl& map : delta.maps_added) {
    dataplane::TableResources demand;
    demand.state_bytes = map.StateBytes();
    FLEXNET_RETURN_IF_ERROR(place_new(ElementKind::kMap, map.name, demand,
                                      flexbpf::Domain::kAny));
  }
  for (const flexbpf::TableDecl& table : delta.tables_added) {
    FLEXNET_RETURN_IF_ERROR(place_new(ElementKind::kTable, table.name,
                                      table.Resources(),
                                      flexbpf::Domain::kAny));
  }
  for (const flexbpf::FunctionDecl& fn : delta.functions_added) {
    dataplane::TableResources demand;
    demand.action_slots = 1;
    FLEXNET_RETURN_IF_ERROR(
        place_new(ElementKind::kFunction, fn.name, demand, fn.domain));
  }

  // --- Entry-level deltas ride on the table's existing placement.
  for (const EntryDelta& ed : delta.entry_deltas) {
    if (placement_of(ElementKind::kTable, ed.table) == nullptr) {
      return Internal("entry delta against unplaced table '" + ed.table + "'");
    }
  }

  result.compiled.program_name = verified.name;
  result.compiled.placements = std::move(placements);
  result.compiled.slice = existing.slice;
  FLEXNET_ASSIGN_OR_RETURN(result.plans,
                           ComputeDevicePlans(before, existing, verified,
                                              result.compiled, slice));
  for (const auto& [_, plan] : result.plans) {
    result.structural_ops += plan.StructuralOpCount();
    result.entry_ops += plan.OpCount() - plan.StructuralOpCount();
  }
  plan_span.Annotate("structural_ops", std::to_string(result.structural_ops));
  plan_span.Annotate("entry_ops", std::to_string(result.entry_ops));
  plan_span.Annotate("moved_elements", std::to_string(result.moved_elements));
  plan_span.End();

  result.compiled.plans = result.plans;
  return result;
}

Result<FullRecompileEstimate> EstimateFullRecompile(
    const flexbpf::ProgramIR& before, const flexbpf::ProgramIR& after,
    const CompiledProgram& existing,
    const std::vector<runtime::ManagedDevice*>& slice,
    CompileOptions options) {
  FullRecompileEstimate estimate;
  FLEXNET_ASSIGN_OR_RETURN(
      const auto removal_plans,
      ComputeDevicePlans(before, existing, {}, {}, slice));
  for (const auto& [_, plan] : removal_plans) {
    estimate.removal_ops += plan.OpCount();
  }
  // Probe the fresh compile against devices with the old program's
  // reservations temporarily lifted.
  struct Lifted {
    runtime::ManagedDevice* device;
    std::string name;
    dataplane::TableResources demand;
    std::size_t position;
  };
  std::vector<Lifted> lifted;
  for (const ElementPlacement& p : existing.placements) {
    runtime::ManagedDevice* device = FindDevice(slice, p.device);
    if (device == nullptr) continue;
    std::string reservation = ReservationName(p.kind, p.name);
    // Reconstruct demand from the program declaration.
    dataplane::TableResources demand;
    demand.action_slots = 0;  // only tables/functions consume action slots
    if (p.kind == ElementKind::kTable) {
      if (const flexbpf::TableDecl* t = before.FindTable(p.name)) {
        demand = t->Resources();
      }
    } else if (p.kind == ElementKind::kMap) {
      if (const flexbpf::MapDecl* m = before.FindMap(p.name)) {
        demand.state_bytes = m->StateBytes();
      }
    } else {
      demand.action_slots = 1;
    }
    if (device->device().ReleaseTable(reservation).ok()) {
      lifted.push_back(Lifted{device, reservation, demand, SIZE_MAX});
    }
  }
  Compiler fresh(options);
  auto compiled = fresh.Compile(after, slice);
  // Restore the lifted reservations regardless of outcome.
  for (const Lifted& l : lifted) {
    (void)l.device->device().ReserveTable(l.name, l.demand, l.position, 0);
  }
  if (!compiled.ok()) return compiled.error();
  estimate.install_ops = compiled.value().TotalPlanOps();
  return estimate;
}

}  // namespace flexnet::compiler
