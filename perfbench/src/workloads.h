// The three workloads.  Each is set up from a seed, then measured as a
// number of steps: untraced until the time budget runs out, or traced
// for exactly the step count an untraced run of the same seed reached.
#pragma once

#include <cstdint>
#include <memory>

#include "bench.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs steps until `budget_s` of wall time has passed (steps == 0) or
  // exactly `steps` steps, then drains and checks the outputs.
  virtual Phase Run(double budget_s, std::size_t steps) = 0;
};

enum class FabricKind { kHeavyTail, kUniqueFlow };

std::unique_ptr<Workload> MakeFabric(FabricKind kind, std::uint64_t seed,
                                     bool traced);
std::unique_ptr<Workload> MakeFleet(std::uint64_t seed, bool traced);

}  // namespace perfbench
