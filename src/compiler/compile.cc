#include "compiler/compile.h"

#include <algorithm>

#include "compiler/incremental.h"

namespace flexnet::compiler {

const char* ToString(PlacementStrategy s) noexcept {
  switch (s) {
    case PlacementStrategy::kFirstFit:
      return "first_fit";
    case PlacementStrategy::kBestFit:
      return "best_fit";
    case PlacementStrategy::kFungibleGc:
      return "fungible_gc";
  }
  return "?";
}

const char* ToString(Objective o) noexcept {
  switch (o) {
    case Objective::kMinLatency:
      return "min_latency";
    case Objective::kMinEnergy:
      return "min_energy";
    case Objective::kBalanced:
      return "balanced";
  }
  return "?";
}

const ElementPlacement* CompiledProgram::Find(
    ElementKind kind, const std::string& name) const noexcept {
  for (const ElementPlacement& p : placements) {
    if (p.kind == kind && p.name == name) return &p;
  }
  return nullptr;
}

std::size_t CompiledProgram::TotalPlanOps() const noexcept {
  std::size_t ops = 0;
  for (const auto& [_, plan] : plans) ops += plan.OpCount();
  return ops;
}

flexbpf::MapEncoding ResolveEncoding(flexbpf::MapEncoding requested,
                                     arch::ArchKind target) noexcept {
  if (requested != flexbpf::MapEncoding::kAuto) return requested;
  switch (target) {
    case arch::ArchKind::kRmt:
      return flexbpf::MapEncoding::kRegisterArray;   // P4 register externs
    case arch::ArchKind::kDrmt:
      return flexbpf::MapEncoding::kStatefulTable;   // Spectrum stateful tables
    case arch::ArchKind::kTile:
      return flexbpf::MapEncoding::kFlowInstruction; // PoF-style tiles
    case arch::ArchKind::kNic:
    case arch::ArchKind::kHost:
      return flexbpf::MapEncoding::kStatefulTable;   // software hash maps
  }
  return flexbpf::MapEncoding::kRegisterArray;
}

namespace {

// Per-element resource demand, expressed through the reservation probe.
dataplane::TableResources DemandOf(const flexbpf::TableDecl& table) {
  return table.Resources();
}

dataplane::TableResources FunctionDemand() {
  dataplane::TableResources demand;
  demand.action_slots = 1;
  return demand;
}

dataplane::TableResources MapDemand(const flexbpf::MapDecl& map) {
  dataplane::TableResources demand;
  demand.state_bytes = map.StateBytes();
  demand.action_slots = 0;
  return demand;
}

}  // namespace

bool DomainAllows(flexbpf::Domain domain, arch::ArchKind kind) noexcept {
  switch (domain) {
    case flexbpf::Domain::kAny:
      return true;
    case flexbpf::Domain::kEndpoint:
      return kind == arch::ArchKind::kNic || kind == arch::ArchKind::kHost;
    case flexbpf::Domain::kHost:
      return kind == arch::ArchKind::kHost;
  }
  return false;
}

std::string ReservationName(ElementKind kind, const std::string& name) {
  if (kind == ElementKind::kFunction) return "fn:" + name;
  return kind == ElementKind::kMap ? "map:" + name : name;
}

// Tracks probe reservations so every path out of TryPlace restores devices.
struct Compiler::ProbeSession {
  struct Probe {
    runtime::ManagedDevice* device;
    std::string reservation_name;
  };
  std::vector<Probe> probes;

  Result<std::string> Reserve(runtime::ManagedDevice* device,
                              const std::string& reservation_name,
                              const dataplane::TableResources& demand,
                              std::size_t position_hint,
                              std::uint64_t order_group) {
    auto location = device->device().ReserveTable(reservation_name, demand,
                                                  position_hint, order_group);
    if (location.ok()) {
      probes.push_back(Probe{device, reservation_name});
    }
    return location;
  }

  ~ProbeSession() {
    for (auto it = probes.rbegin(); it != probes.rend(); ++it) {
      (void)it->device->device().ReleaseTable(it->reservation_name);
    }
  }
};

Result<CompiledProgram> Compiler::TryPlace(
    const flexbpf::ProgramIR& program,
    const std::vector<runtime::ManagedDevice*>& slice) {
  ProbeSession session;
  CompiledProgram out;
  out.program_name = program.name;

  // Candidate ordering per the objective.  Recomputed per element for
  // kBalanced because utilization shifts as probes land.
  const auto order_candidates =
      [&](flexbpf::Domain domain) -> std::vector<runtime::ManagedDevice*> {
    std::vector<runtime::ManagedDevice*> candidates;
    for (runtime::ManagedDevice* device : slice) {
      if (DomainAllows(domain, device->device().arch())) {
        candidates.push_back(device);
      }
    }
    switch (options_.objective) {
      case Objective::kMinLatency:
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const auto* a, const auto* b) {
                           return a->device().EstimateLatency(1) <
                                  b->device().EstimateLatency(1);
                         });
        break;
      case Objective::kMinEnergy:
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const auto* a, const auto* b) {
                           return a->device().EstimateEnergyNj(1) <
                                  b->device().EstimateEnergyNj(1);
                         });
        break;
      case Objective::kBalanced:
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const auto* a, const auto* b) {
                           return a->device().Utilization() <
                                  b->device().Utilization();
                         });
        break;
    }
    return candidates;
  };

  // One order group per program: staged architectures keep this program's
  // tables in pipeline order without cross-program interference.
  const std::uint64_t order_group =
      std::hash<std::string>{}(program.name) | 1;

  // Places one element; returns the chosen device or the last error.
  const auto place =
      [&](ElementKind kind, const std::string& name,
          const dataplane::TableResources& demand, flexbpf::Domain domain,
          std::size_t position_hint,
          runtime::ManagedDevice* preferred) -> Result<runtime::ManagedDevice*> {
    std::vector<runtime::ManagedDevice*> candidates = order_candidates(domain);
    if (preferred != nullptr) {
      const auto it =
          std::find(candidates.begin(), candidates.end(), preferred);
      if (it != candidates.end()) {
        candidates.erase(it);
        candidates.insert(candidates.begin(), preferred);
      }
    }
    if (candidates.empty()) {
      return CompilationFailed("no device in slice admits domain '" +
                               std::string(ToString(domain)) + "' for '" +
                               name + "'");
    }
    const std::string reservation_name = ReservationName(kind, name);

    if (options_.strategy == PlacementStrategy::kBestFit) {
      // Probe every candidate; keep the one with max post-fit utilization.
      runtime::ManagedDevice* best = nullptr;
      double best_util = -1.0;
      for (runtime::ManagedDevice* device : candidates) {
        auto location = device->device().ReserveTable(
            reservation_name, demand, position_hint, order_group);
        if (!location.ok()) continue;
        const double util = device->device().Utilization();
        (void)device->device().ReleaseTable(reservation_name);
        if (util > best_util) {
          best_util = util;
          best = device;
        }
      }
      if (best == nullptr) {
        return CompilationFailed("no candidate fits '" + name + "'");
      }
      FLEXNET_ASSIGN_OR_RETURN(
          const std::string location,
          session.Reserve(best, reservation_name, demand, position_hint,
                          order_group));
      out.placements.push_back(
          ElementPlacement{kind, name, best->id(), location});
      return best;
    }

    std::string last_error = "no candidates";
    for (runtime::ManagedDevice* device : candidates) {
      auto location = session.Reserve(device, reservation_name, demand,
                                      position_hint, order_group);
      if (location.ok()) {
        out.placements.push_back(
            ElementPlacement{kind, name, device->id(), location.value()});
        return device;
      }
      last_error = location.error().message();
    }
    return CompilationFailed("cannot place '" + name + "': " + last_error);
  };

  // 1. Tables, in pipeline order.
  for (std::size_t i = 0; i < program.tables.size(); ++i) {
    const flexbpf::TableDecl& table = program.tables[i];
    FLEXNET_RETURN_IF_ERROR(place(ElementKind::kTable, table.name,
                                  DemandOf(table), flexbpf::Domain::kAny, i,
                                  nullptr));
  }
  // 2. Functions.
  std::unordered_map<std::string, runtime::ManagedDevice*> function_device;
  for (const flexbpf::FunctionDecl& fn : program.functions) {
    FLEXNET_ASSIGN_OR_RETURN(
        runtime::ManagedDevice * device,
        place(ElementKind::kFunction, fn.name, FunctionDemand(), fn.domain,
              SIZE_MAX, nullptr));
    function_device[fn.name] = device;
  }
  // 3. Maps — collocated with their first user when possible (state and
  // compute should not be separated by a link).
  for (const flexbpf::MapDecl& map : program.maps) {
    runtime::ManagedDevice* preferred = nullptr;
    for (const flexbpf::FunctionDecl& fn : program.functions) {
      if (std::find(fn.maps_used.begin(), fn.maps_used.end(), map.name) !=
          fn.maps_used.end()) {
        preferred = function_device[fn.name];
        break;
      }
    }
    FLEXNET_RETURN_IF_ERROR(place(ElementKind::kMap, map.name, MapDemand(map),
                                  flexbpf::Domain::kAny, SIZE_MAX, preferred));
  }

  // 4. Plans: a deploy is an update from the empty program.
  out.slice.reserve(slice.size());
  for (const runtime::ManagedDevice* device : slice) {
    out.slice.push_back(device->id());
  }
  FLEXNET_ASSIGN_OR_RETURN(out.plans,
                           ComputeDevicePlans({}, {}, program, out, slice));

  // 5. Predicted cost: per-device pipeline length after install.
  std::unordered_map<DeviceId, std::size_t> elements_on;
  for (const ElementPlacement& p : out.placements) {
    if (p.kind != ElementKind::kMap) ++elements_on[p.device];
  }
  for (runtime::ManagedDevice* device : slice) {
    const auto it = elements_on.find(device->id());
    if (it == elements_on.end()) continue;
    const std::size_t existing = device->device().pipeline().table_count() +
                                 device->functions().size();
    out.predicted_latency +=
        device->device().EstimateLatency(existing + it->second);
    out.predicted_energy_nj +=
        device->device().EstimateEnergyNj(existing + it->second);
  }
  return out;
}

Result<CompiledProgram> Compiler::Compile(
    flexbpf::ProgramIR program,
    const std::vector<runtime::ManagedDevice*>& slice) {
  if (slice.empty()) {
    return CompilationFailed("empty device slice");
  }
  flexbpf::Verifier verifier;
  FLEXNET_ASSIGN_OR_RETURN(const flexbpf::VerifyStats stats,
                           verifier.Verify(program));
  (void)stats;

  std::string last_error;
  for (int iteration = 1; iteration <= options_.max_iterations; ++iteration) {
    auto attempt = TryPlace(program, slice);
    if (attempt.ok()) {
      attempt.value().iterations_used = iteration;
      return attempt;
    }
    last_error = attempt.error().message();
    if (options_.strategy != PlacementStrategy::kFungibleGc) break;
    // Optimization primitives between iterations: first live defrag (the
    // runtime-reconfig superpower: repack stages/tiles), then GC.
    bool progressed = false;
    for (runtime::ManagedDevice* device : slice) {
      progressed |= device->device().Defragment();
    }
    if (iteration >= 2 && options_.gc_hook) {
      progressed |= options_.gc_hook();
    }
    if (!progressed) break;
  }
  return CompilationFailed("program '" + program.name +
                           "' does not fit slice after " +
                           std::to_string(options_.max_iterations) +
                           " iterations: " + last_error);
}

}  // namespace flexnet::compiler
