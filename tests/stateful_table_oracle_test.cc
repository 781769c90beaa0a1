// Stateful-table oracle: the slot-indexed stateful-table encoding checked
// against dataplane::StatefulFlowTable, the string-keyed per-flow table it
// used to delegate to (a logical key rides in the flow key's src_ip, as it
// did).  Random Add/Store/Load calls through the string and the Symbol
// API run the table under capacity pressure; Load must always agree, and
// Export must agree as a multiset (its order is the encoding's own) and
// round-trip through Import.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dataplane/stateful.h"
#include "state/logical_map.h"

namespace flexnet::state {
namespace {

flexbpf::MapDecl Decl(std::size_t size) {
  flexbpf::MapDecl d;
  d.name = "st_oracle";
  d.size = size;
  d.cells = {"st_pkts", "st_bytes", "st_flag"};
  return d;
}

std::unique_ptr<EncodedMap> Table(std::size_t size) {
  auto map = CreateEncodedMap(Decl(size), flexbpf::MapEncoding::kStatefulTable);
  EXPECT_TRUE(map.ok());
  return std::move(map).value();
}

packet::FlowKey KeyOf(std::uint64_t key) {
  packet::FlowKey k;
  k.src_ip = key;
  return k;
}

// Snapshot as a sorted multiset of (key, cell, value).
std::vector<std::tuple<std::uint64_t, std::string, std::uint64_t>> Sorted(
    const MapSnapshot& snapshot) {
  std::vector<std::tuple<std::uint64_t, std::string, std::uint64_t>> out;
  for (const MapCellValue& v : snapshot) out.emplace_back(v.key, v.cell, v.value);
  std::sort(out.begin(), out.end());
  return out;
}

MapSnapshot ReferenceExport(const dataplane::StatefulFlowTable& table) {
  MapSnapshot snapshot;
  for (const auto& [key, flow] : table.flows()) {
    for (const auto& [cell, value] : flow.cells) {
      if (value != 0) snapshot.push_back(MapCellValue{key.src_ip, cell, value});
    }
  }
  return snapshot;
}

TEST(StatefulTableOracleTest, RandomOpsMatchStatefulFlowTable) {
  const std::vector<std::string> cells = Decl(1).cells;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const std::size_t capacity = 4 + rng.NextBounded(28);
    auto map = Table(capacity);
    dataplane::StatefulFlowTable ref("ref", capacity);
    std::size_t drops = 0;
    for (int step = 0; step < 600; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      // Twice as many keys as rows: new keys keep arriving at a full table.
      const std::uint64_t key = rng.NextBounded(2 * capacity) * 7919;
      const std::string& cell = cells[rng.NextBounded(cells.size())];
      const packet::Symbol sym = packet::Intern(cell);
      const bool by_symbol = rng.NextBounded(2) == 0;
      const std::uint64_t value =
          rng.NextBounded(4) == 0 ? 0 : rng.NextBounded(1000);
      const std::uint64_t current = ref.Read(KeyOf(key), cell).value_or(0);
      switch (rng.NextBounded(3)) {
        case 0:
          if (!ref.Update(KeyOf(key), cell, value, 0)) ++drops;
          by_symbol ? map->Add(key, sym, value) : map->Add(key, cell, value);
          break;
        case 1:
          // On the flow table a Store is a read-modify-write update.
          if (!ref.Update(KeyOf(key), cell, value - current, 0)) ++drops;
          by_symbol ? map->Store(key, sym, value)
                    : map->Store(key, cell, value);
          break;
        case 2:
          break;  // load only
      }
      const std::uint64_t want = ref.Read(KeyOf(key), cell).value_or(0);
      EXPECT_EQ(map->Load(key, cell), want) << where;
      EXPECT_EQ(map->Load(key, sym), want) << where;
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(drops, 0u) << "seed " << seed << " never filled the table";
    EXPECT_EQ(Sorted(map->Export()), Sorted(ReferenceExport(ref)))
        << "seed " << seed;

    auto copy = Table(capacity);
    copy->Import(map->Export());
    EXPECT_EQ(Sorted(copy->Export()), Sorted(map->Export())) << "seed " << seed;
    for (std::uint64_t k = 0; k < 2 * capacity; ++k) {
      for (const std::string& cell : cells) {
        EXPECT_EQ(copy->Load(k * 7919, cell), map->Load(k * 7919, cell));
      }
    }
  }
}

TEST(StatefulTableOracleTest, FullTableDropsNewKeys) {
  auto map = Table(2);
  map->Add(1, "st_pkts", 1);
  map->Add(2, "st_pkts", 1);
  map->Add(3, "st_pkts", 1);  // no room
  map->Add(1, "st_bytes", 5);  // existing rows still update
  EXPECT_EQ(map->Load(3, "st_pkts"), 0u);
  EXPECT_EQ(map->Load(1, "st_bytes"), 5u);
  EXPECT_EQ(Sorted(map->Export()).size(), 3u);
}

TEST(StatefulTableOracleTest, StoreOfZeroToANewKeyTakesARow) {
  auto map = Table(2);
  map->Store(1, "st_pkts", 0);
  map->Add(2, "st_pkts", 1);
  map->Add(3, "st_pkts", 1);  // key 1's row holds a 0 but is taken
  EXPECT_EQ(map->Load(2, "st_pkts"), 1u);
  EXPECT_EQ(map->Load(3, "st_pkts"), 0u);
  EXPECT_EQ(map->Export().size(), 1u);  // zero cells are not exported
}

TEST(StatefulTableOracleTest, LoadNeverInserts) {
  auto map = Table(1);
  EXPECT_EQ(map->Load(1, "st_pkts"), 0u);
  EXPECT_EQ(map->Load(1, packet::Intern("st_bytes")), 0u);
  map->Add(2, "st_pkts", 4);  // the only row is still free
  EXPECT_EQ(map->Load(2, "st_pkts"), 4u);
}

TEST(StatefulTableOracleTest, UndeclaredCellsAreIgnored) {
  auto map = Table(1);
  const packet::Symbol undeclared = packet::Intern("st_undeclared");
  map->Add(1, "st_undeclared", 5);
  map->Store(1, undeclared, 6);
  map->Add(1, undeclared, 7);
  EXPECT_EQ(map->Load(1, "st_undeclared"), 0u);
  EXPECT_EQ(map->Load(1, undeclared), 0u);
  EXPECT_TRUE(map->Export().empty());
  // Writes to undeclared cells took no row: the one row is still free.
  map->Add(2, "st_pkts", 1);
  EXPECT_EQ(map->Load(2, "st_pkts"), 1u);
}

TEST(StatefulTableOracleTest, ClearFreesEveryRow) {
  auto map = Table(1);
  map->Add(1, "st_pkts", 1);
  map->Clear();
  EXPECT_EQ(map->Load(1, "st_pkts"), 0u);
  map->Add(2, "st_pkts", 2);
  EXPECT_EQ(map->Load(2, "st_pkts"), 2u);
}

}  // namespace
}  // namespace flexnet::state
