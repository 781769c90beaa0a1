// Plan equivalence-class cache (ROADMAP: fleet-scale control plane).
//
// At fleet scale the incremental compiler's output is the same for every
// device in the same *equivalence class*: same program diff, same target
// architecture, same canonical placement shape, same hosted device state.
// Kugelblitz frames compiled configurations as cacheable artifacts keyed
// on their inputs; this cache is that idea applied to reconfiguration
// plans.  The FleetManager computes one plan per class and rehydrates it
// per device (RuntimeEngine::ApplyShared — no per-device deep copy).
//
// The key is a canonical (program diff, arch kind, placement, device-state
// fingerprint) hash:
//
//   * program diff  — FNV-1a over the printed text of the before/after
//                     programs (printer.h is the canonical serialization;
//                     structurally equal programs print identically);
//   * arch kind     — map encodings and reconfig costs are arch-resolved
//                     inside the plan, so kRmt and kHost plans differ even
//                     for the same diff;
//   * placement     — canonical over sorted (element kind, name) only.
//                     Deliberately NO device ids or location strings: two
//                     devices hosting the same elements are the same class
//                     no matter which devices they are;
//   * device state  — computed from the *live* device (pipeline tables,
//                     entries, functions, maps), never from controller
//                     bookkeeping, so out-of-band divergence (an operator
//                     poking a table behind the controller's back) changes
//                     the fingerprint and misses the cache instead of
//                     applying a stale plan.
//
// The key has a rollout half and a device half.  The program diff and the
// placement are fixed for a whole rollout, so FleetManager computes them
// once per rollout (MakeRolloutKey); only the arch kind and the device
// fingerprint are read per device.
//
// Invalidation is therefore structural: there is no TTL and no explicit
// invalidate call — a device whose state diverged simply stops matching
// its class key.  docs/FLEET.md spells out the rules.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "flexbpf/ir.h"
#include "runtime/managed_device.h"
#include "runtime/plan.h"
#include "telemetry/telemetry.h"

namespace flexnet::compiler {

// FNV-1a, the canonical hash every fingerprint below builds on.
std::uint64_t FnvHash64(std::string_view text) noexcept;
// Folds `next` into a running FNV state (order-sensitive).
std::uint64_t FnvMix(std::uint64_t state, std::string_view next) noexcept;

// Canonical program identity: FNV-1a over the printed text DSL.
std::uint64_t FingerprintProgram(const flexbpf::ProgramIR& program);

// Canonical full-copy placement identity: sorted (kind, name) pairs of the
// program's elements.  Device-free by design (see the header comment).
std::uint64_t FingerprintPlacement(const flexbpf::ProgramIR& program);

// Hosted-state fingerprint read from the live device: arch kind, pipeline
// tables in execution order (key specs, capacity, live entries), the
// parse graph (name-sorted states with their transitions and, when a
// state has owners, the owning apps and whether they installed it), installed
// FlexBPF functions, and the encoded map set.  Program-version counters
// are deliberately excluded: the class is defined by *what* the device
// hosts, not how many steps it took to get there.
std::uint64_t FingerprintDevice(const runtime::ManagedDevice& device);

struct PlanKey {
  std::uint64_t before_hash = 0;       // FingerprintProgram(before)
  std::uint64_t after_hash = 0;        // FingerprintProgram(after)
  arch::ArchKind arch = arch::ArchKind::kRmt;
  std::uint64_t placement_hash = 0;    // FingerprintPlacement(after)
  std::uint64_t device_fingerprint = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept;
};

// The rollout half of a PlanKey: the fields that depend only on the
// program pair, identical for every device a rollout updates.
struct RolloutKey {
  std::uint64_t before_hash = 0;     // FingerprintProgram(before)
  std::uint64_t after_hash = 0;      // FingerprintProgram(after)
  std::uint64_t placement_hash = 0;  // FingerprintPlacement(after)
};

RolloutKey MakeRolloutKey(const flexbpf::ProgramIR& before,
                          const flexbpf::ProgramIR& after);

// Completes `rollout` with the device half: arch kind plus
// FingerprintDevice(device).
PlanKey MakePlanKey(const RolloutKey& rollout,
                    const runtime::ManagedDevice& device);

// The key for updating `device` from `before` to `after` (full-copy fleet
// model: the device hosts every element of `before` today and every
// element of `after` once the plan lands).  Equal to composing the two
// halves above.
PlanKey MakePlanKey(const flexbpf::ProgramIR& before,
                    const flexbpf::ProgramIR& after,
                    const runtime::ManagedDevice& device);

// Class-keyed store of immutable reconfiguration plans.  Plans are held by
// shared_ptr<const>: a thousand devices applying the same class plan share
// one object (RuntimeEngine::ApplyShared) instead of a thousand copies.
//
// The cache is bounded: keys embed the live device-state fingerprint, so
// a long-lived controller with ongoing rollouts and device churn mints
// new keys forever (every divergent device is its own class).  Entries
// are evicted least-recently-used once `capacity` is exceeded; handed-out
// shared_ptrs stay valid across eviction.  An eviction costs at most one
// redundant ComputeClassPlan, never correctness.
class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit PlanCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Cache lookup; counts a hit or miss and refreshes the entry's LRU
  // position on a hit.  nullptr on miss.
  std::shared_ptr<const runtime::ReconfigPlan> Find(const PlanKey& key);

  // Stores the freshly computed plan for `key`, returning the shared
  // handle callers apply from.  Re-inserting an existing key replaces it.
  // Evicts the least-recently-used entry when over capacity.
  std::shared_ptr<const runtime::ReconfigPlan> Insert(
      const PlanKey& key, runtime::ReconfigPlan plan);

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::size_t entries() const noexcept { return index_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  double HitRate() const noexcept {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

  void Clear();

  // controller_plan_cache_{hits,misses,entries,evictions} (EXPERIMENTS E19).
  void PublishMetrics(telemetry::MetricsRegistry& registry) const;

 private:
  using Entry =
      std::pair<PlanKey, std::shared_ptr<const runtime::ReconfigPlan>>;
  // Most-recently-used at the front; index_ points into the list.
  std::list<Entry> lru_;
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index_;
  std::size_t capacity_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace flexnet::compiler
