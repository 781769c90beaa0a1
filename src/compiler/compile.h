// The FlexNet compiler (paper section 3.3).
//
// Maps a verified FlexBPF program onto a *slice* of physical devices:
//
//   * per-element placement under each architecture's structural
//     constraints (probed through arch::Device::ReserveTable),
//   * state-encoding selection per target (section 3.1: register externs
//     on RMT, stateful tables on dRMT/Spectrum, flow-instruction state on
//     tile machines, hash maps on endpoints),
//   * objectives beyond bin-packing: minimize path latency, minimize
//     energy, or balance utilization — possible because fungible
//     resources let the compiler "shuffle resources around",
//   * multi-iteration compilation: when placement fails the compiler
//     invokes optimization primitives — device defragmentation (live
//     repacking) and a caller-supplied garbage-collection hook that
//     evicts unused programs — then retries.
//
// Output is one ReconfigPlan per device (ComputeDevicePlans from an empty
// program: a deploy is an update from empty); the RuntimeEngine applies
// them hitlessly.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "flexbpf/ir.h"
#include "flexbpf/verifier.h"
#include "runtime/managed_device.h"

namespace flexnet::compiler {

enum class PlacementStrategy : std::uint8_t {
  kFirstFit,     // first candidate device that fits
  kBestFit,      // candidate with the highest post-placement utilization
  kFungibleGc,   // first-fit + defrag + gc retries (the FlexNet default)
};

enum class Objective : std::uint8_t {
  kMinLatency,   // candidate order: fastest per-element devices first
  kMinEnergy,    // candidate order: lowest per-element energy first
  kBalanced,     // candidate order: least-utilized first
};

const char* ToString(PlacementStrategy s) noexcept;
const char* ToString(Objective o) noexcept;

struct CompileOptions {
  PlacementStrategy strategy = PlacementStrategy::kFungibleGc;
  Objective objective = Objective::kBalanced;
  int max_iterations = 3;
  // Invoked between iterations when placement fails; returns true if it
  // freed anything (e.g. the controller evicted an unused tenant program).
  std::function<bool()> gc_hook;
};

enum class ElementKind : std::uint8_t { kTable, kFunction, kMap };

struct ElementPlacement {
  ElementKind kind;
  std::string name;
  DeviceId device;
  std::string location;  // arch-specific ("stage3", "pool", "mem", ...)
};

struct CompiledProgram {
  std::string program_name;
  std::vector<ElementPlacement> placements;
  // The devices the program was deployed on: each parses its headers.
  std::vector<DeviceId> slice;
  std::unordered_map<DeviceId, runtime::ReconfigPlan> plans;
  SimDuration predicted_latency = 0;  // sum over devices on the slice
  double predicted_energy_nj = 0.0;
  int iterations_used = 1;

  const ElementPlacement* Find(ElementKind kind,
                               const std::string& name) const noexcept;
  std::size_t TotalPlanOps() const noexcept;
};

// True when an element of `domain` may run on a device of kind `kind`.
bool DomainAllows(flexbpf::Domain domain, arch::ArchKind kind) noexcept;

// The name an element's device reservation goes by: a table's own name,
// "fn:<name>" for a function, "map:<name>" for a map.
std::string ReservationName(ElementKind kind, const std::string& name);

// Resolves MapEncoding::kAuto for a target architecture.
flexbpf::MapEncoding ResolveEncoding(flexbpf::MapEncoding requested,
                                     arch::ArchKind target) noexcept;

class Compiler {
 public:
  explicit Compiler(CompileOptions options = {}) : options_(options) {}

  // Compiles `program` onto `slice`.  The program is verified first.
  // Devices are only *probed* during compilation (reservations are made
  // and rolled back); real resources commit when the plans are applied.
  Result<CompiledProgram> Compile(
      flexbpf::ProgramIR program,
      const std::vector<runtime::ManagedDevice*>& slice);

  const CompileOptions& options() const noexcept { return options_; }

 private:
  struct ProbeSession;
  Result<CompiledProgram> TryPlace(
      const flexbpf::ProgramIR& program,
      const std::vector<runtime::ManagedDevice*>& slice);

  CompileOptions options_;
};

}  // namespace flexnet::compiler
