#include "compiler/plan_cache.h"

#include <algorithm>
#include <vector>

#include "flexbpf/printer.h"

namespace flexnet::compiler {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t MixBytes(std::uint64_t state, std::string_view text) noexcept {
  for (const char c : text) {
    state ^= static_cast<std::uint8_t>(c);
    state *= kFnvPrime;
  }
  // Field separator so ("ab","c") and ("a","bc") hash differently.
  state ^= 0x1f;
  state *= kFnvPrime;
  return state;
}

std::uint64_t MixU64(std::uint64_t state, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    state ^= (value >> (8 * i)) & 0xff;
    state *= kFnvPrime;
  }
  return state;
}

}  // namespace

std::uint64_t FnvHash64(std::string_view text) noexcept {
  return MixBytes(kFnvOffset, text);
}

std::uint64_t FnvMix(std::uint64_t state, std::string_view next) noexcept {
  return MixBytes(state, next);
}

std::uint64_t FingerprintProgram(const flexbpf::ProgramIR& program) {
  const auto text = flexbpf::PrintProgramText(program);
  if (text.ok()) return FnvHash64(text.value());
  // The printer currently cannot fail; keep a deterministic fallback
  // anyway so an unprintable construct degrades to name identity.
  return FnvHash64("unprintable:" + program.name);
}

std::uint64_t FingerprintPlacement(const flexbpf::ProgramIR& program) {
  std::vector<std::string> elements;
  elements.reserve(program.tables.size() + program.functions.size() +
                   program.maps.size());
  for (const flexbpf::TableDecl& t : program.tables) {
    elements.push_back("table:" + t.name);
  }
  for (const flexbpf::FunctionDecl& f : program.functions) {
    elements.push_back("fn:" + f.name);
  }
  for (const flexbpf::MapDecl& m : program.maps) {
    elements.push_back("map:" + m.name);
  }
  std::sort(elements.begin(), elements.end());
  std::uint64_t state = kFnvOffset;
  for (const std::string& e : elements) state = MixBytes(state, e);
  return state;
}

std::uint64_t FingerprintDevice(const runtime::ManagedDevice& device) {
  std::uint64_t state = kFnvOffset;
  state = MixBytes(state, arch::ToString(device.device().arch()));

  // Pipeline tables in execution order (order is semantics: it decides
  // which table sees the packet first).
  const dataplane::Pipeline& pipeline = device.device().pipeline();
  for (const std::string& name : pipeline.TableNames()) {
    const dataplane::MatchActionTable* table = pipeline.FindTable(name);
    if (table == nullptr) continue;
    state = MixBytes(state, "table");
    state = MixBytes(state, table->name());
    state = MixU64(state, table->capacity());
    for (const dataplane::KeySpec& key : table->key()) {
      state = MixBytes(state, key.field);
      state = MixBytes(state, dataplane::ToString(key.kind));
      state = MixU64(state, key.width_bits);
    }
    // Live entries: an out-of-band table write must change the class.
    for (const dataplane::TableEntry& entry : table->entries()) {
      for (const dataplane::MatchValue& m : entry.match) {
        state = MixU64(state, m.value);
        state = MixU64(state, m.mask);
        state = MixU64(state, m.prefix_len);
        state = MixU64(state, m.range_hi);
      }
      state = MixBytes(state, entry.action.name);
      state = MixU64(state, static_cast<std::uint64_t>(entry.priority));
    }
  }

  // Parse graph, name-sorted (unordered_map order is an install
  // artifact).  Without this, parser-state residue (e.g. a retire that
  // failed to remove a header's state) would be invisible to the class
  // key and the fleet-convergence invariant.
  const dataplane::ParseGraph& parser = pipeline.parser();
  state = MixBytes(state, "start");
  state = MixBytes(state, parser.start());
  std::vector<std::string> state_names = parser.StateNames();
  std::sort(state_names.begin(), state_names.end());
  for (const std::string& name : state_names) {
    const dataplane::ParseState* ps = parser.FindState(name);
    if (ps == nullptr) continue;
    state = MixBytes(state, "parse");
    state = MixBytes(state, ps->name);
    state = MixBytes(state, ps->select_field);
    for (const dataplane::ParseTransition& t : ps->transitions) {
      state = MixU64(state, t.select_value);
      state = MixBytes(state, t.next_state);
      state = MixU64(state, t.is_default ? 1 : 0);
    }
    if (const auto* owners = device.FindParserStateOwners(name)) {
      state = MixU64(state, owners->installed ? 1 : 0);
      for (const std::string& owner : owners->apps) {
        state = MixBytes(state, "owner");
        state = MixBytes(state, owner);
      }
    }
  }

  // Installed FlexBPF functions, canonical text form.
  for (const flexbpf::FunctionDecl& fn : device.functions()) {
    state = MixBytes(state, "fn");
    const auto printed = flexbpf::PrintFunction(fn);
    state = MixBytes(state, printed.ok() ? printed.value() : fn.name);
  }

  // Encoded maps, name-sorted (MapSet order is an install artifact).
  std::vector<std::string> map_names = device.maps().Names();
  std::sort(map_names.begin(), map_names.end());
  for (const std::string& name : map_names) {
    state = MixBytes(state, "map");
    state = MixBytes(state, name);
    if (const state::EncodedMap* map = device.maps().Find(name)) {
      state = MixU64(state, static_cast<std::uint64_t>(map->encoding()));
    }
  }
  return state;
}

std::size_t PlanKeyHash::operator()(const PlanKey& key) const noexcept {
  std::uint64_t state = kFnvOffset;
  state = MixU64(state, key.before_hash);
  state = MixU64(state, key.after_hash);
  state = MixU64(state, static_cast<std::uint64_t>(key.arch));
  state = MixU64(state, key.placement_hash);
  state = MixU64(state, key.device_fingerprint);
  return static_cast<std::size_t>(state);
}

RolloutKey MakeRolloutKey(const flexbpf::ProgramIR& before,
                          const flexbpf::ProgramIR& after) {
  return RolloutKey{FingerprintProgram(before), FingerprintProgram(after),
                    FingerprintPlacement(after)};
}

PlanKey MakePlanKey(const RolloutKey& rollout,
                    const runtime::ManagedDevice& device) {
  return PlanKey{rollout.before_hash, rollout.after_hash,
                 device.device().arch(), rollout.placement_hash,
                 FingerprintDevice(device)};
}

PlanKey MakePlanKey(const flexbpf::ProgramIR& before,
                    const flexbpf::ProgramIR& after,
                    const runtime::ManagedDevice& device) {
  return MakePlanKey(MakeRolloutKey(before, after), device);
}

std::shared_ptr<const runtime::ReconfigPlan> PlanCache::Find(
    const PlanKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

std::shared_ptr<const runtime::ReconfigPlan> PlanCache::Insert(
    const PlanKey& key, runtime::ReconfigPlan plan) {
  auto shared = std::make_shared<const runtime::ReconfigPlan>(std::move(plan));
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = shared;
    lru_.splice(lru_.begin(), lru_, it->second);
    return shared;
  }
  lru_.emplace_front(key, shared);
  index_.emplace(key, lru_.begin());
  while (index_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
  return shared;
}

void PlanCache::Clear() {
  lru_.clear();
  index_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

void PlanCache::PublishMetrics(telemetry::MetricsRegistry& registry) const {
  registry.Count("controller_plan_cache_hits", hits_);
  registry.Count("controller_plan_cache_misses", misses_);
  registry.Count("controller_plan_cache_entries", index_.size());
  registry.Count("controller_plan_cache_evictions", evictions_);
  registry.Set("controller_plan_cache_hit_rate", HitRate());
}

}  // namespace flexnet::compiler
