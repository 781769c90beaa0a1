// Incremental recompilation (paper section 3.3, "Compiling runtime
// changes"): compile a program *change* into the network touching as few
// resources as possible — the "maximally adjacent reconfiguration".
//
// DiffPrograms() classifies changes at three intrusiveness levels:
//   1. entry-level   — same table structure, different entries: pure
//                      control-plane writes (microseconds, no reshuffle);
//   2. element-level — tables/functions/maps added or removed or with a
//                      changed structure: reconfig ops on one device,
//                      placed adjacent to the program's existing elements;
//   3. placement-level — only when an element no longer fits where it
//                      was does it move devices.
//
// FullRecompile() is the baseline E4 compares against: tear the whole
// program down and compile the new one from scratch.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/compile.h"
#include "telemetry/telemetry.h"

namespace flexnet::compiler {

struct EntryDelta {
  std::string table;
  std::vector<flexbpf::InitialEntry> added;
  std::vector<std::vector<dataplane::MatchValue>> removed;
};

struct ProgramDelta {
  std::vector<flexbpf::TableDecl> tables_added;
  std::vector<std::string> tables_removed;
  std::vector<flexbpf::TableDecl> tables_restructured;  // same name, new shape
  std::vector<EntryDelta> entry_deltas;
  std::vector<flexbpf::FunctionDecl> functions_added;
  std::vector<std::string> functions_removed;
  std::vector<flexbpf::FunctionDecl> functions_changed;
  std::vector<flexbpf::MapDecl> maps_added;
  std::vector<std::string> maps_removed;
  std::vector<flexbpf::HeaderRequirement> headers_added;
  // Header names no longer required by any requirement in `after`.  Their
  // parser states are retired after the tables matching on them (removals
  // first); parser-state owners keep a state another app still needs.
  std::vector<std::string> headers_removed;

  bool Empty() const noexcept;
  std::size_t StructuralChangeCount() const noexcept;
  std::size_t EntryChangeCount() const noexcept;
};

ProgramDelta DiffPrograms(const flexbpf::ProgramIR& before,
                          const flexbpf::ProgramIR& after);

// --- The step emitter -------------------------------------------------------
//
// Every reconfiguration plan the compiler produces turns one device's
// program diff into steps in one place.  At fleet scale every device hosts
// a *full copy* of the program, so the plan taking `before` to `after`
// depends only on (diff, arch kind) — not on which device it lands on.
// ComputeClassPlan is that pure computation: no device probing, no
// placement search, verified once per equivalence class and cached
// (compiler/plan_cache.h).  On the sliced path elements spread across
// devices: ComputeDevicePlans diffs each device's *projection* of the
// program — what a placement book puts there — with the same emitter, so a
// deploy is an update from empty, a retire an update to empty and a
// migration a placement-book change.

struct ClassPlanResult {
  // Device-agnostic steps for one device of the class's arch kind.
  runtime::ReconfigPlan plan;
  ProgramDelta delta;
};

// Computes the single-device plan updating a full copy of `before` into a
// full copy of `after` on a device of kind `arch` (map encodings are
// arch-resolved — part of the cache key).  `before` may be an empty
// program: the result is then a full install plan, so fleet deploys and
// fleet updates share one code path.  Pure: touches no devices.
Result<ClassPlanResult> ComputeClassPlan(const flexbpf::ProgramIR& before,
                                         const flexbpf::ProgramIR& after,
                                         arch::ArchKind arch);

// Per-device plans taking `before`, placed by `before_book`, to `after`,
// placed by `after_book`.  A device's projection of a program holds the
// elements its book places there, plus the program's header requirements
// when the device is in the book's slice or hosts an element.  Each
// device either book touches gets ComputeClassPlan's steps for the diff of
// its two projections; a device whose plan is empty gets no plan.  A
// table's order hint is its index in the whole `after` program.  `devices`
// resolves device ids (map encodings are per arch).  Pure: touches no
// devices, verifies nothing.
Result<std::unordered_map<DeviceId, runtime::ReconfigPlan>> ComputeDevicePlans(
    const flexbpf::ProgramIR& before, const CompiledProgram& before_book,
    const flexbpf::ProgramIR& after, const CompiledProgram& after_book,
    const std::vector<runtime::ManagedDevice*>& devices);

// --- Sliced incremental path ----------------------------------------------

struct IncrementalResult {
  // Updated placement book for the new program version.
  CompiledProgram compiled;
  // The delta plans to apply (subset of compiled.plans' devices).
  std::unordered_map<DeviceId, runtime::ReconfigPlan> plans;
  std::size_t structural_ops = 0;
  std::size_t entry_ops = 0;
  std::size_t moved_elements = 0;  // elements that changed devices

  std::size_t TotalOps() const noexcept { return structural_ops + entry_ops; }
};

class IncrementalCompiler {
 public:
  // Recompile() records causal spans (compiler.incremental with
  // verify/diff/plan children) into `metrics`'s tracer (the process
  // Default() registry when null).
  explicit IncrementalCompiler(telemetry::MetricsRegistry* metrics = nullptr)
      : metrics_(metrics ? metrics : &telemetry::Default()) {}

  // `existing` is the placement book from the previous (applied) compile of
  // `before`.  Devices in `slice` hold the old program's resources.  New
  // elements go next to the program's existing ones, and a restructured
  // table moves only when it no longer fits where it is; the plans are
  // ComputeDevicePlans(before, existing, after, <the new book>).
  Result<IncrementalResult> Recompile(
      const flexbpf::ProgramIR& before, const flexbpf::ProgramIR& after,
      const CompiledProgram& existing,
      const std::vector<runtime::ManagedDevice*>& slice);

 private:
  telemetry::MetricsRegistry* metrics_;
};

// Baseline: removal plans for the old program plus a fresh compile of the
// new one.  Returns the combined op counts for comparison with the
// incremental path.  NOTE: probes assume the old program's resources are
// released first, so the fresh compile runs against a slice where the old
// reservations were hypothetically freed; FullRecompileOps() accounts for
// that by releasing and re-probing against real devices.
struct FullRecompileEstimate {
  std::size_t removal_ops = 0;
  std::size_t install_ops = 0;
  std::size_t TotalOps() const noexcept { return removal_ops + install_ops; }
};

Result<FullRecompileEstimate> EstimateFullRecompile(
    const flexbpf::ProgramIR& before, const flexbpf::ProgramIR& after,
    const CompiledProgram& existing,
    const std::vector<runtime::ManagedDevice*>& slice,
    CompileOptions options = {});

}  // namespace flexnet::compiler
