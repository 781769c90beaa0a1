// Shared types of the measurement binary: the wall clock, per-layer
// accumulators, and the record one measured phase leaves behind.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace flexnet::runtime {
class ManagedDevice;
}  // namespace flexnet::runtime

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Wall time summed over the calls into one layer, and how many calls.
struct Acc {
  double ns = 0.0;
  std::uint64_t n = 0;
  void Add(double dt_ns) {
    ns += dt_ns;
    ++n;
  }
};

// One measured phase (the untraced run, or the traced replay of the same
// steps).  `counts` are outcomes of the program that must be identical in
// both phases; `layers` holds the traced phase's raw per-layer totals.
struct Phase {
  std::size_t steps = 0;           // fabric slices or fleet rollouts
  double wall_s = 0.0;             // wall time of all steps plus the drain
  std::vector<double> step_ms;     // per fabric slice / per fleet wave
  double peak_rss_mb = 0.0;        // after set-up and the first kMinSteps steps
  std::vector<double> rollout_ms;  // fleet only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> counts;
  std::map<std::string, double> layers;
  std::vector<std::string> errors;  // correctness failures, empty when clean
};

// Adds the cache-tier, table-lookup, epoch and FlexBPF counters summed
// over `devices` to `counts` (dataplane.*, flexbpf.runs).
void CountDataplane(const std::vector<flexnet::runtime::ManagedDevice*>& devices,
                    std::map<std::string, double>& counts);

// Median of `v` (0 when empty); reorders `v`.
double Median(std::vector<double>& v);

// Every phase records at least this many step times, so their p99 has ten
// samples beyond it; past the budget it stops at kMaxOverrun times
// the budget regardless.
inline constexpr std::size_t kMinSteps = 1000;
inline constexpr double kMaxOverrun = 3.0;

// Peak resident set size of the process so far.
double PeakRssMb();

// Records one step time; samples the peak RSS once kMinSteps are in, so
// the memory figure covers a fixed amount of work however fast it ran.
inline void NoteStep(Phase& ph, double ms) {
  ph.step_ms.push_back(ms);
  if (ph.step_ms.size() == kMinSteps) ph.peak_rss_mb = PeakRssMb();
}

// Moves the calling thread to the next CPU the process may run on once
// kCpuDwellMs of wall time have passed since the last move.  On a shared
// host each virtual CPU runs faster or slower for seconds at a time,
// depending on what else its physical core runs; pinned to one CPU a
// whole run can land in a slow phase, while spread over all of them its
// low step-time percentiles see the program's own speed.  Called between
// steps and between set-ups, never inside a timed step.
inline constexpr double kCpuDwellMs = 200.0;
void RotateCpu();

// True while a phase should take another step.
inline bool MoreSteps(const Phase& ph, Clock::time_point start, double budget_s,
                      std::size_t steps) {
  RotateCpu();
  if (steps > 0) return ph.steps < steps;
  const double elapsed_s = NanosBetween(start, Clock::now()) / 1e9;
  return elapsed_s < budget_s ||
         (ph.step_ms.size() < kMinSteps && elapsed_s < kMaxOverrun * budget_s);
}

}  // namespace perfbench
