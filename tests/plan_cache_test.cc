// Differential tests for the plan equivalence-class cache: a cached plan
// applied to a class sibling must be byte-for-byte the plan a fresh
// compile would produce, and must leave the sibling in the identical
// device state — across every device architecture.  A device whose state
// diverged out-of-band must stop matching its class key (structural
// invalidation) instead of receiving a stale plan.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/endpoint.h"
#include "compiler/incremental.h"
#include "compiler/plan_cache.h"
#include "flexbpf/builder.h"
#include "net/topology.h"
#include "runtime/engine.h"

namespace flexnet::compiler {
namespace {

flexbpf::TableDecl SmallTable(const std::string& name) {
  flexbpf::TableDecl t;
  t.name = name;
  t.key = {{"ipv4.src", dataplane::MatchKind::kExact, 32}};
  t.capacity = 64;
  dataplane::Action deny = dataplane::MakeDropAction();
  deny.name = "deny";
  t.actions.push_back(deny);
  return t;
}

flexbpf::ProgramIR V1() {
  flexbpf::ProgramBuilder b("app");
  b.AddTable(SmallTable("t0"));
  b.AddMap("m0", 64, {"v"});
  auto fn = flexbpf::FunctionBuilder("f0")
                .FlowKey(0)
                .Const(1, 1)
                .MapAdd("m0", 0, "v", 1)
                .Return()
                .Build();
  b.AddFunction(std::move(fn).value());
  return b.Build();
}

// v2: seeds entries into t0, adds t1, rewrites f0 — structural + entry
// deltas in one plan.
flexbpf::ProgramIR V2() {
  flexbpf::ProgramBuilder b("app");
  flexbpf::TableDecl t0 = SmallTable("t0");
  t0.entries.push_back({{dataplane::MatchValue::Exact(0xbad00001)}, "deny", 0});
  b.AddTable(std::move(t0));
  b.AddTable(SmallTable("t1"));
  b.AddMap("m0", 64, {"v"});
  auto fn = flexbpf::FunctionBuilder("f0")
                .FlowKey(0)
                .Const(1, 2)
                .MapAdd("m0", 0, "v", 1)
                .Return()
                .Build();
  b.AddFunction(std::move(fn).value());
  return b.Build();
}

flexbpf::ProgramIR EmptyLike(const flexbpf::ProgramIR& p) {
  flexbpf::ProgramIR empty;
  empty.name = p.name;
  return empty;
}

std::vector<std::string> StepTexts(const runtime::ReconfigPlan& plan) {
  std::vector<std::string> texts;
  texts.reserve(plan.steps.size());
  for (const runtime::ReconfigStep& step : plan.steps) {
    texts.push_back(runtime::ToText(step));
  }
  return texts;
}

constexpr arch::ArchKind kAllKinds[] = {
    arch::ArchKind::kRmt, arch::ArchKind::kDrmt, arch::ArchKind::kTile,
    arch::ArchKind::kNic, arch::ArchKind::kHost};

// Two fresh devices of the requested kind — a class representative and a
// sibling the cached plan is rehydrated onto.
struct DevicePair {
  runtime::ManagedDevice* a;
  runtime::ManagedDevice* b;
};

DevicePair AddPair(net::Network& network, arch::ArchKind kind,
                   std::uint64_t base_id) {
  const auto make = [&](std::uint64_t id,
                        const std::string& name) -> runtime::ManagedDevice* {
    switch (kind) {
      case arch::ArchKind::kRmt:
        return network.AddDevice(
            net::MakeSwitch(net::SwitchKind::kRmt, DeviceId(id), name));
      case arch::ArchKind::kDrmt:
        return network.AddDevice(
            net::MakeSwitch(net::SwitchKind::kDrmt, DeviceId(id), name));
      case arch::ArchKind::kTile:
        return network.AddDevice(
            net::MakeSwitch(net::SwitchKind::kTile, DeviceId(id), name));
      case arch::ArchKind::kNic:
        return network.AddDevice(
            std::make_unique<arch::NicDevice>(DeviceId(id), name));
      case arch::ArchKind::kHost:
        return network.AddDevice(
            std::make_unique<arch::HostDevice>(DeviceId(id), name));
    }
    return nullptr;
  };
  return {make(base_id, "dev-a-" + std::to_string(base_id)),
          make(base_id + 1, "dev-b-" + std::to_string(base_id))};
}

void ApplyAndDrain(sim::Simulator& sim, runtime::RuntimeEngine& engine,
                   runtime::ManagedDevice& dev,
                   std::shared_ptr<const runtime::ReconfigPlan> plan) {
  engine.ApplyShared(dev, std::move(plan));
  sim.Run();
}

TEST(PlanCacheDifferential, CachedEqualsFreshAcrossAllArchKinds) {
  sim::Simulator sim;
  net::Network network(&sim);
  runtime::RuntimeEngine engine(&sim);
  const flexbpf::ProgramIR v1 = V1();
  const flexbpf::ProgramIR v2 = V2();
  const flexbpf::ProgramIR empty = EmptyLike(v1);

  std::uint64_t next_id = 1000;
  for (const arch::ArchKind kind : kAllKinds) {
    SCOPED_TRACE(arch::ToString(kind));
    const DevicePair pair = AddPair(network, kind, next_id);
    next_id += 2;
    PlanCache cache;

    // Deploy (update-from-empty), then update v1 -> v2.  Each round: the
    // representative misses and compiles; the sibling must hit, receive a
    // byte-for-byte identical plan, and land in the identical state.
    struct Round {
      const flexbpf::ProgramIR* before;
      const flexbpf::ProgramIR* after;
    };
    for (const Round& round : {Round{&empty, &v1}, Round{&v1, &v2}}) {
      const PlanKey key_a = MakePlanKey(*round.before, *round.after, *pair.a);
      ASSERT_EQ(cache.Find(key_a), nullptr);
      auto fresh = ComputeClassPlan(*round.before, *round.after, kind);
      ASSERT_TRUE(fresh.ok()) << fresh.error().ToText();
      const auto cached = cache.Insert(key_a, std::move(fresh->plan));
      ApplyAndDrain(sim, engine, *pair.a, cached);

      // The sibling is in the representative's pre-apply state, so it
      // must produce the same key and hit the cache.
      const PlanKey key_b = MakePlanKey(*round.before, *round.after, *pair.b);
      EXPECT_EQ(key_a, key_b);
      const auto hit = cache.Find(key_b);
      ASSERT_NE(hit, nullptr);
      // Byte-for-byte: the cached plan's step text equals what a fresh
      // compile produces right now.
      auto refresh = ComputeClassPlan(*round.before, *round.after, kind);
      ASSERT_TRUE(refresh.ok());
      EXPECT_EQ(StepTexts(*hit), StepTexts(refresh->plan));
      ApplyAndDrain(sim, engine, *pair.b, hit);

      EXPECT_EQ(FingerprintDevice(*pair.a), FingerprintDevice(*pair.b));
    }
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_TRUE(pair.b->HasTable("t0"));
    EXPECT_TRUE(pair.b->HasTable("t1"));
    EXPECT_TRUE(pair.b->HasFunction("f0"));
  }
}

TEST(PlanCacheDifferential, DivergedDeviceStopsMatchingItsClass) {
  sim::Simulator sim;
  net::Network network(&sim);
  runtime::RuntimeEngine engine(&sim);
  const flexbpf::ProgramIR v1 = V1();
  const flexbpf::ProgramIR v2 = V2();
  const flexbpf::ProgramIR empty = EmptyLike(v1);
  const DevicePair pair = AddPair(network, arch::ArchKind::kDrmt, 2000);

  PlanCache cache;
  auto deploy = ComputeClassPlan(empty, v1, arch::ArchKind::kDrmt);
  ASSERT_TRUE(deploy.ok());
  const auto plan = cache.Insert(MakePlanKey(empty, v1, *pair.a),
                                 std::move(deploy->plan));
  ApplyAndDrain(sim, engine, *pair.a, plan);
  ApplyAndDrain(sim, engine, *pair.b, plan);
  ASSERT_EQ(FingerprintDevice(*pair.a), FingerprintDevice(*pair.b));

  // Both devices key identically for the v1 -> v2 update...
  auto update = ComputeClassPlan(v1, v2, arch::ArchKind::kDrmt);
  ASSERT_TRUE(update.ok());
  cache.Insert(MakePlanKey(v1, v2, *pair.a), std::move(update->plan));
  ASSERT_NE(cache.Find(MakePlanKey(v1, v2, *pair.b)), nullptr);

  // ...until an operator pokes device B behind the controller's back.
  // The fingerprint is read from the live device, so B stops matching —
  // a cache miss, never a stale plan.
  ASSERT_TRUE(pair.b->ApplyStep(runtime::StepRemoveTable{"t0"}).ok());
  EXPECT_NE(FingerprintDevice(*pair.a), FingerprintDevice(*pair.b));
  EXPECT_EQ(cache.Find(MakePlanKey(v1, v2, *pair.b)), nullptr);
}

// V1 plus a custom header chained off udp — exercises parser-state
// install and retire through the class-plan path.
flexbpf::ProgramIR V1WithHeader() {
  flexbpf::ProgramBuilder b("app");
  b.AddTable(SmallTable("t0"));
  b.AddMap("m0", 64, {"v"});
  auto fn = flexbpf::FunctionBuilder("f0")
                .FlowKey(0)
                .Const(1, 1)
                .MapAdd("m0", 0, "v", 1)
                .Return()
                .Build();
  b.AddFunction(std::move(fn).value());
  b.RequireHeader("vxlan", "udp", 4789);
  return b.Build();
}

TEST(PlanCacheDifferential, RetireRemovesParserStatesAndFingerprintSeesThem) {
  sim::Simulator sim;
  net::Network network(&sim);
  runtime::RuntimeEngine engine(&sim);
  const flexbpf::ProgramIR prog = V1WithHeader();
  const flexbpf::ProgramIR empty = EmptyLike(prog);
  const DevicePair pair = AddPair(network, arch::ArchKind::kDrmt, 5000);

  // The diff to empty must retire the header's parser state, not only
  // tables/maps/functions.
  const ProgramDelta delta = DiffPrograms(prog, empty);
  ASSERT_EQ(delta.headers_removed.size(), 1u);
  EXPECT_EQ(delta.headers_removed[0], "vxlan");

  auto deploy = ComputeClassPlan(empty, prog, arch::ArchKind::kDrmt);
  ASSERT_TRUE(deploy.ok()) << deploy.error().ToText();
  ApplyAndDrain(sim, engine, *pair.a,
                std::make_shared<const runtime::ReconfigPlan>(
                    std::move(deploy->plan)));
  EXPECT_TRUE(pair.a->device().pipeline().parser().HasState("vxlan"));
  // Parser residue is visible to the class key: the deployed device no
  // longer fingerprints like its pristine sibling.
  EXPECT_NE(FingerprintDevice(*pair.a), FingerprintDevice(*pair.b));

  auto retire = ComputeClassPlan(prog, empty, arch::ArchKind::kDrmt);
  ASSERT_TRUE(retire.ok()) << retire.error().ToText();
  ApplyAndDrain(sim, engine, *pair.a,
                std::make_shared<const runtime::ReconfigPlan>(
                    std::move(retire->plan)));
  EXPECT_FALSE(pair.a->device().pipeline().parser().HasState("vxlan"));
  // Retire returns the device to its pristine class: deploy/retire cycles
  // leak no state the fingerprint could miss.
  EXPECT_EQ(FingerprintDevice(*pair.a), FingerprintDevice(*pair.b));

  // And an out-of-band parser poke alone diverges the fingerprint.
  runtime::StepAddParserState poke;
  poke.state.name = "geneve";
  poke.from = "udp";
  poke.select_value = 6081;
  ASSERT_TRUE(pair.b->ApplyStep(poke).ok());
  EXPECT_NE(FingerprintDevice(*pair.a), FingerprintDevice(*pair.b));
}

// A rollout computes the program half of its plan keys once and the
// device half per device.  Composed, the halves must be the key the
// three-argument MakePlanKey builds, field by field, and that key must be
// the documented per-field fingerprints.
void ExpectComposedKeyIsWholeKey(const flexbpf::ProgramIR& before,
                                 const flexbpf::ProgramIR& after,
                                 const runtime::ManagedDevice& device) {
  const PlanKey composed = MakePlanKey(MakeRolloutKey(before, after), device);
  const PlanKey whole = MakePlanKey(before, after, device);
  EXPECT_EQ(composed.before_hash, whole.before_hash);
  EXPECT_EQ(composed.after_hash, whole.after_hash);
  EXPECT_EQ(composed.arch, whole.arch);
  EXPECT_EQ(composed.placement_hash, whole.placement_hash);
  EXPECT_EQ(composed.device_fingerprint, whole.device_fingerprint);
  EXPECT_EQ(whole.before_hash, FingerprintProgram(before));
  EXPECT_EQ(whole.after_hash, FingerprintProgram(after));
  EXPECT_EQ(whole.arch, device.device().arch());
  EXPECT_EQ(whole.placement_hash, FingerprintPlacement(after));
  EXPECT_EQ(whole.device_fingerprint, FingerprintDevice(device));
}

TEST(PlanCacheTest, ComposedKeyEqualsWholeKey) {
  sim::Simulator sim;
  net::Network network(&sim);
  runtime::RuntimeEngine engine(&sim);
  const flexbpf::ProgramIR v1 = V1();
  const flexbpf::ProgramIR v2 = V2();
  const flexbpf::ProgramIR with_header = V1WithHeader();
  const flexbpf::ProgramIR empty = EmptyLike(v1);
  struct Round {
    const flexbpf::ProgramIR* before;
    const flexbpf::ProgramIR* after;
  };
  const Round rounds[] = {{&empty, &v1},
                          {&v1, &v2},
                          {&empty, &with_header},
                          {&with_header, &empty}};
  const auto expect_all = [&](const DevicePair& pair) {
    for (const Round& round : rounds) {
      ExpectComposedKeyIsWholeKey(*round.before, *round.after, *pair.a);
      ExpectComposedKeyIsWholeKey(*round.before, *round.after, *pair.b);
    }
  };

  std::uint64_t next_id = 6000;
  for (const arch::ArchKind kind : kAllKinds) {
    SCOPED_TRACE(arch::ToString(kind));
    const DevicePair pair = AddPair(network, kind, next_id);
    next_id += 2;
    expect_all(pair);
    // Key every round against each state a rollout walks the pair through.
    for (const Round& round : {rounds[0], rounds[1]}) {
      auto computed = ComputeClassPlan(*round.before, *round.after, kind);
      ASSERT_TRUE(computed.ok()) << computed.error().ToText();
      const auto plan = std::make_shared<const runtime::ReconfigPlan>(
          std::move(computed->plan));
      ApplyAndDrain(sim, engine, *pair.a, plan);
      ApplyAndDrain(sim, engine, *pair.b, plan);
      expect_all(pair);
    }
    // Device B diverges out of band: its device half changes, and the
    // composed key still tracks the whole key.
    ASSERT_TRUE(pair.b->ApplyStep(runtime::StepRemoveTable{"t0"}).ok());
    ASSERT_NE(FingerprintDevice(*pair.a), FingerprintDevice(*pair.b));
    expect_all(pair);
  }
}

TEST(PlanCacheTest, LruEvictionBoundsEntries) {
  PlanCache cache(/*capacity=*/2);
  const PlanKey k1{1, 2, arch::ArchKind::kRmt, 3, 4};
  const PlanKey k2{5, 6, arch::ArchKind::kRmt, 7, 8};
  const PlanKey k3{9, 10, arch::ArchKind::kRmt, 11, 12};
  cache.Insert(k1, runtime::ReconfigPlan{});
  cache.Insert(k2, runtime::ReconfigPlan{});
  EXPECT_EQ(cache.entries(), 2u);

  // Touch k1 so k2 becomes the LRU victim when k3 arrives.
  const auto held = cache.Find(k1);
  ASSERT_NE(held, nullptr);
  cache.Insert(k3, runtime::ReconfigPlan{});
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Find(k2), nullptr);
  EXPECT_NE(cache.Find(k1), nullptr);
  EXPECT_NE(cache.Find(k3), nullptr);
  // Handed-out plans stay valid across eviction.
  EXPECT_EQ(held->steps.size(), 0u);
}

TEST(PlanCacheTest, KeysAreDeviceFreeWithinAClass) {
  sim::Simulator sim;
  net::Network network(&sim);
  const flexbpf::ProgramIR v1 = V1();
  const flexbpf::ProgramIR empty = EmptyLike(v1);
  const DevicePair pair = AddPair(network, arch::ArchKind::kRmt, 3000);
  // Different device ids and names, same class: identical keys.
  EXPECT_EQ(MakePlanKey(empty, v1, *pair.a), MakePlanKey(empty, v1, *pair.b));
  // Same diff on a different arch: different key.
  net::Network other(&sim);
  const DevicePair tile = AddPair(other, arch::ArchKind::kTile, 3100);
  EXPECT_FALSE(MakePlanKey(empty, v1, *pair.a) ==
               MakePlanKey(empty, v1, *tile.a));
}

TEST(PlanCacheTest, CountersAndMetricsExport) {
  sim::Simulator sim;
  net::Network network(&sim);
  const flexbpf::ProgramIR v1 = V1();
  const flexbpf::ProgramIR empty = EmptyLike(v1);
  const DevicePair pair = AddPair(network, arch::ArchKind::kHost, 4000);

  PlanCache cache;
  const PlanKey key = MakePlanKey(empty, v1, *pair.a);
  EXPECT_EQ(cache.Find(key), nullptr);
  auto computed = ComputeClassPlan(empty, v1, arch::ArchKind::kHost);
  ASSERT_TRUE(computed.ok());
  cache.Insert(key, std::move(computed->plan));
  EXPECT_NE(cache.Find(key), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);

  telemetry::MetricsRegistry registry;
  cache.PublishMetrics(registry);
  const telemetry::Counter* hits =
      registry.FindCounter("controller_plan_cache_hits");
  const telemetry::Counter* misses =
      registry.FindCounter("controller_plan_cache_misses");
  const telemetry::Counter* entries =
      registry.FindCounter("controller_plan_cache_entries");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(hits->value(), 1u);
  EXPECT_EQ(misses->value(), 1u);
  EXPECT_EQ(entries->value(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.Find(key), nullptr);
}

}  // namespace
}  // namespace flexnet::compiler
