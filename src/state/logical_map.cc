#include "state/logical_map.h"

#include <algorithm>

namespace flexnet::state {

namespace {

// A map's declared cells by interned name; a cell's position in
// declaration order is its slot, -1 when the declaration does not name it.
class CellSlots {
 public:
  explicit CellSlots(const std::vector<std::string>& cells) {
    syms_.reserve(cells.size());
    for (const std::string& cell : cells) syms_.push_back(packet::Intern(cell));
  }
  int Of(packet::Symbol cell) const noexcept {
    for (std::size_t i = 0; i < syms_.size(); ++i) {
      if (syms_[i] == cell) return static_cast<int>(i);
    }
    return -1;
  }
  // Never interns: a name never interned is no declared cell.
  int Of(const std::string& cell) const noexcept {
    return Of(packet::FindSymbol(cell));
  }

 private:
  std::vector<packet::Symbol> syms_;
};

// P4 register-extern encoding: one register array per cell column, indexed
// by key modulo the declared size (keys collide by design, as they would on
// real register-based sketches/arrays).
class RegisterEncodedMap final : public EncodedMap {
 public:
  explicit RegisterEncodedMap(const flexbpf::MapDecl& decl) : decl_(decl) {
    for (const std::string& cell : decl.cells) {
      auto [it, _] = arrays_.emplace(cell,
                                     dataplane::RegisterArray(cell, decl.size));
      // Node-based container: the RegisterArray address is stable.
      by_sym_.emplace_back(packet::Intern(cell), &it->second);
    }
  }

  const std::string& name() const noexcept override { return decl_.name; }
  flexbpf::MapEncoding encoding() const noexcept override {
    return flexbpf::MapEncoding::kRegisterArray;
  }
  std::size_t size() const noexcept override { return decl_.size; }

  std::uint64_t Load(std::uint64_t key, const std::string& cell) override {
    const auto it = arrays_.find(cell);
    return it == arrays_.end() ? 0 : it->second.Read(key % decl_.size);
  }
  void Store(std::uint64_t key, const std::string& cell,
             std::uint64_t value) override {
    const auto it = arrays_.find(cell);
    if (it != arrays_.end()) it->second.Write(key % decl_.size, value);
  }
  void Add(std::uint64_t key, const std::string& cell,
           std::uint64_t delta) override {
    const auto it = arrays_.find(cell);
    if (it != arrays_.end()) it->second.Add(key % decl_.size, delta);
  }

  std::uint64_t Load(std::uint64_t key, packet::Symbol cell) override {
    dataplane::RegisterArray* a = ArrayOf(cell);
    return a == nullptr ? 0 : a->Read(key % decl_.size);
  }

  // One register array per cell: direct access is exactly
  // cells[key % size], and the array never reallocates after Install.
  flexbpf::DirectCells ResolveCell(packet::Symbol cell) override {
    dataplane::RegisterArray* a = ArrayOf(cell);
    if (a == nullptr || decl_.size == 0) return {};
    return flexbpf::DirectCells::Of(a->data(), decl_.size, 1, 0);
  }

  void Store(std::uint64_t key, packet::Symbol cell,
             std::uint64_t value) override {
    if (dataplane::RegisterArray* a = ArrayOf(cell)) {
      a->Write(key % decl_.size, value);
    }
  }
  void Add(std::uint64_t key, packet::Symbol cell,
           std::uint64_t delta) override {
    if (dataplane::RegisterArray* a = ArrayOf(cell)) {
      a->Add(key % decl_.size, delta);
    }
  }

  MapSnapshot Export() const override {
    MapSnapshot snapshot;
    for (const auto& [cell, array] : arrays_) {
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (array.Read(i) != 0) {
          snapshot.push_back(MapCellValue{i, cell, array.Read(i)});
        }
      }
    }
    return snapshot;
  }
  void Import(const MapSnapshot& snapshot) override {
    for (const MapCellValue& v : snapshot) {
      Store(v.key, v.cell, v.value);
    }
  }
  void Clear() override {
    for (auto& [_, array] : arrays_) array.Clear();
  }

 private:
  dataplane::RegisterArray* ArrayOf(packet::Symbol cell) const noexcept {
    for (const auto& [sym, array] : by_sym_) {
      if (sym == cell) return array;
    }
    return nullptr;
  }

  flexbpf::MapDecl decl_;
  std::unordered_map<std::string, dataplane::RegisterArray> arrays_;
  // (interned cell, array) pairs in declaration order — cells number a
  // handful, so a linear symbol scan beats hashing the cell string.
  std::vector<std::pair<packet::Symbol, dataplane::RegisterArray*>> by_sym_;
};

// Mellanox-style stateful-table encoding: exact per-key state with
// data-plane insertion; bounded by declared size, drops new keys when full.
// A key maps to a row index, and a row is the declared cells' values,
// dense and in declaration order, so a cell resolves to a slot as in the
// flow-instruction encoding.  Cells the declaration does not name read as
// 0 and write nowhere, as in the other encodings (the verifier rejects
// programs that use them).  Rows are never removed short of Clear(), so
// row indices stay dense and the key index needs no tombstones: it is an
// open-addressing table of row numbers, probed linearly and kept at most
// half full.
class StatefulTableEncodedMap final : public EncodedMap {
 public:
  explicit StatefulTableEncodedMap(const flexbpf::MapDecl& decl)
      : decl_(decl), slots_(decl.cells) {}

  const std::string& name() const noexcept override { return decl_.name; }
  flexbpf::MapEncoding encoding() const noexcept override {
    return flexbpf::MapEncoding::kStatefulTable;
  }
  std::size_t size() const noexcept override { return decl_.size; }

  std::uint64_t Load(std::uint64_t key, const std::string& cell) override {
    return LoadSlot(key, slots_.Of(cell));
  }
  void Store(std::uint64_t key, const std::string& cell,
             std::uint64_t value) override {
    StoreSlot(key, slots_.Of(cell), value);
  }
  void Add(std::uint64_t key, const std::string& cell,
           std::uint64_t delta) override {
    AddSlot(key, slots_.Of(cell), delta);
  }

  std::uint64_t Load(std::uint64_t key, packet::Symbol cell) override {
    return LoadSlot(key, slots_.Of(cell));
  }
  void Store(std::uint64_t key, packet::Symbol cell,
             std::uint64_t value) override {
    StoreSlot(key, slots_.Of(cell), value);
  }
  void Add(std::uint64_t key, packet::Symbol cell,
           std::uint64_t delta) override {
    AddSlot(key, slots_.Of(cell), delta);
  }

  // Rows in insertion order, cells in declaration order.
  MapSnapshot Export() const override {
    MapSnapshot snapshot;
    const std::size_t width = decl_.cells.size();
    for (std::size_t row = 0; row < row_keys_.size(); ++row) {
      for (std::size_t s = 0; s < width; ++s) {
        const std::uint64_t v = cells_[row * width + s];
        if (v != 0) {
          snapshot.push_back(MapCellValue{row_keys_[row], decl_.cells[s], v});
        }
      }
    }
    return snapshot;
  }
  void Import(const MapSnapshot& snapshot) override {
    for (const MapCellValue& v : snapshot) Add(v.key, v.cell, v.value);
  }
  void Clear() override {
    index_.clear();
    row_keys_.clear();
    cells_.clear();
  }

 private:
  std::uint64_t LoadSlot(std::uint64_t key, int slot) const {
    if (slot < 0) return 0;
    const std::uint32_t row = FindRow(key);
    return row == kNoRow ? 0 : cells_[RowBase(row) + slot];
  }
  // Stateful tables write in the pipeline: the first write to a key takes
  // a row (even a write of 0), and a full table drops new keys.
  void StoreSlot(std::uint64_t key, int slot, std::uint64_t value) {
    if (slot < 0) return;
    if (std::uint64_t* row = Row(key)) row[slot] = value;
  }
  void AddSlot(std::uint64_t key, int slot, std::uint64_t delta) {
    if (slot < 0) return;
    if (std::uint64_t* row = Row(key)) row[slot] += delta;
  }

  // The key's row, inserted (zeroed) when absent and the table has room;
  // null when the table is full and the key is new.
  std::uint64_t* Row(std::uint64_t key) {
    if (const std::uint32_t row = FindRow(key); row != kNoRow) {
      return cells_.data() + RowBase(row);
    }
    if (row_keys_.size() >= decl_.size) return nullptr;
    const auto row = static_cast<std::uint32_t>(row_keys_.size());
    row_keys_.push_back(key);
    cells_.resize(cells_.size() + decl_.cells.size(), 0);
    if (2 * row_keys_.size() > index_.size()) {
      Reindex(std::max<std::size_t>(16, 2 * index_.size()));
    } else {
      index_[FreeSlotFor(key)] = row + 1;
    }
    return cells_.data() + RowBase(row);
  }

  static constexpr std::uint32_t kNoRow = 0xffffffffu;
  // Fibonacci hashing onto the power-of-two index.
  std::size_t Home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
           (index_.size() - 1);
  }
  std::uint32_t FindRow(std::uint64_t key) const noexcept {
    if (index_.empty()) return kNoRow;
    for (std::size_t i = Home(key);; i = (i + 1) & (index_.size() - 1)) {
      const std::uint32_t entry = index_[i];
      if (entry == 0) return kNoRow;
      if (row_keys_[entry - 1] == key) return entry - 1;
    }
  }
  std::size_t FreeSlotFor(std::uint64_t key) const noexcept {
    std::size_t i = Home(key);
    while (index_[i] != 0) i = (i + 1) & (index_.size() - 1);
    return i;
  }
  void Reindex(std::size_t slots) {
    index_.assign(slots, 0);
    for (std::size_t row = 0; row < row_keys_.size(); ++row) {
      index_[FreeSlotFor(row_keys_[row])] = static_cast<std::uint32_t>(row + 1);
    }
  }
  std::size_t RowBase(std::uint32_t row) const noexcept {
    return static_cast<std::size_t>(row) * decl_.cells.size();
  }

  flexbpf::MapDecl decl_;
  CellSlots slots_;
  std::vector<std::uint32_t> index_;     // key -> row + 1; 0 = empty slot
  std::vector<std::uint64_t> row_keys_;  // row -> key
  std::vector<std::uint64_t> cells_;  // row-major, decl_.cells.size() wide
};

// PoF flow-instruction encoding: per-flow slot array addressed by key hash;
// cells map to slot indices in declaration order.
class FlowInstructionEncodedMap final : public EncodedMap {
 public:
  explicit FlowInstructionEncodedMap(const flexbpf::MapDecl& decl)
      : decl_(decl),
        slots_(decl.cells),
        cells_(decl.size * decl.cells.size(), 0) {}

  const std::string& name() const noexcept override { return decl_.name; }
  flexbpf::MapEncoding encoding() const noexcept override {
    return flexbpf::MapEncoding::kFlowInstruction;
  }
  std::size_t size() const noexcept override { return decl_.size; }

  std::uint64_t Load(std::uint64_t key, const std::string& cell) override {
    const auto slot = slots_.Of(cell);
    return slot < 0 ? 0 : cells_[IndexOf(key, static_cast<std::size_t>(slot))];
  }
  void Store(std::uint64_t key, const std::string& cell,
             std::uint64_t value) override {
    const auto slot = slots_.Of(cell);
    if (slot >= 0) cells_[IndexOf(key, static_cast<std::size_t>(slot))] = value;
  }
  void Add(std::uint64_t key, const std::string& cell,
           std::uint64_t delta) override {
    const auto slot = slots_.Of(cell);
    if (slot >= 0) cells_[IndexOf(key, static_cast<std::size_t>(slot))] += delta;
  }

  std::uint64_t Load(std::uint64_t key, packet::Symbol cell) override {
    const auto slot = slots_.Of(cell);
    return slot < 0 ? 0 : cells_[IndexOf(key, static_cast<std::size_t>(slot))];
  }

  // Slot array: direct access is cells[(key % size) * ncells + slot], and
  // the vector is sized once at construction.
  flexbpf::DirectCells ResolveCell(packet::Symbol cell) override {
    const int slot = slots_.Of(cell);
    if (slot < 0 || decl_.size == 0) return {};
    return flexbpf::DirectCells::Of(
        cells_.data(), decl_.size,
        static_cast<std::uint32_t>(decl_.cells.size()),
        static_cast<std::uint32_t>(slot));
  }

  void Store(std::uint64_t key, packet::Symbol cell,
             std::uint64_t value) override {
    const auto slot = slots_.Of(cell);
    if (slot >= 0) cells_[IndexOf(key, static_cast<std::size_t>(slot))] = value;
  }
  void Add(std::uint64_t key, packet::Symbol cell,
           std::uint64_t delta) override {
    const auto slot = slots_.Of(cell);
    if (slot >= 0) cells_[IndexOf(key, static_cast<std::size_t>(slot))] += delta;
  }

  MapSnapshot Export() const override {
    MapSnapshot snapshot;
    for (std::size_t key = 0; key < decl_.size; ++key) {
      for (std::size_t s = 0; s < decl_.cells.size(); ++s) {
        const std::uint64_t v = cells_[key * decl_.cells.size() + s];
        if (v != 0) {
          snapshot.push_back(MapCellValue{key, decl_.cells[s], v});
        }
      }
    }
    return snapshot;
  }
  void Import(const MapSnapshot& snapshot) override {
    for (const MapCellValue& v : snapshot) Store(v.key, v.cell, v.value);
  }
  void Clear() override { std::fill(cells_.begin(), cells_.end(), 0); }

 private:
  std::size_t IndexOf(std::uint64_t key, std::size_t slot) const noexcept {
    return (key % decl_.size) * decl_.cells.size() + slot;
  }
  flexbpf::MapDecl decl_;
  CellSlots slots_;
  std::vector<std::uint64_t> cells_;
};

}  // namespace

Result<std::unique_ptr<EncodedMap>> CreateEncodedMap(
    const flexbpf::MapDecl& decl, flexbpf::MapEncoding encoding) {
  switch (encoding) {
    case flexbpf::MapEncoding::kAuto:
      return InvalidArgument("map '" + decl.name +
                             "': kAuto must be resolved before encoding");
    case flexbpf::MapEncoding::kRegisterArray:
      return std::unique_ptr<EncodedMap>(
          std::make_unique<RegisterEncodedMap>(decl));
    case flexbpf::MapEncoding::kStatefulTable:
      return std::unique_ptr<EncodedMap>(
          std::make_unique<StatefulTableEncodedMap>(decl));
    case flexbpf::MapEncoding::kFlowInstruction:
      return std::unique_ptr<EncodedMap>(
          std::make_unique<FlowInstructionEncodedMap>(decl));
  }
  return Internal("unknown encoding");
}

Status MapSet::Install(const flexbpf::MapDecl& decl,
                       flexbpf::MapEncoding encoding) {
  if (maps_.contains(decl.name)) {
    return AlreadyExists("map '" + decl.name + "'");
  }
  FLEXNET_ASSIGN_OR_RETURN(auto map, CreateEncodedMap(decl, encoding));
  EncodedMap* raw = map.get();
  maps_.emplace(decl.name, std::move(map));
  by_symbol_[packet::Intern(decl.name)] = raw;
  return OkStatus();
}

Status MapSet::Remove(const std::string& name) {
  if (maps_.erase(name) == 0) return NotFound("map '" + name + "'");
  by_symbol_.erase(packet::Intern(name));
  return OkStatus();
}

EncodedMap* MapSet::Find(const std::string& name) noexcept {
  const auto it = maps_.find(name);
  return it == maps_.end() ? nullptr : it->second.get();
}

const EncodedMap* MapSet::Find(const std::string& name) const noexcept {
  const auto it = maps_.find(name);
  return it == maps_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MapSet::Names() const {
  std::vector<std::string> names;
  names.reserve(maps_.size());
  for (const auto& [n, _] : maps_) names.push_back(n);
  return names;
}

std::uint64_t MapSet::Load(const std::string& map, std::uint64_t key,
                           const std::string& cell) {
  EncodedMap* m = Find(map);
  return m == nullptr ? 0 : m->Load(key, cell);
}

void MapSet::Store(const std::string& map, std::uint64_t key,
                   const std::string& cell, std::uint64_t value) {
  if (EncodedMap* m = Find(map)) m->Store(key, cell, value);
}

void MapSet::Add(const std::string& map, std::uint64_t key,
                 const std::string& cell, std::uint64_t delta) {
  if (EncodedMap* m = Find(map)) m->Add(key, cell, delta);
}

std::uint64_t MapSet::Load(packet::Symbol map, std::uint64_t key,
                           packet::Symbol cell) {
  EncodedMap* m = FindSym(map);
  return m == nullptr ? 0 : m->Load(key, cell);
}

void MapSet::Store(packet::Symbol map, std::uint64_t key, packet::Symbol cell,
                   std::uint64_t value) {
  if (EncodedMap* m = FindSym(map)) m->Store(key, cell, value);
}

void MapSet::Add(packet::Symbol map, std::uint64_t key, packet::Symbol cell,
                 std::uint64_t delta) {
  if (EncodedMap* m = FindSym(map)) m->Add(key, cell, delta);
}

flexbpf::DirectCells MapSet::Resolve(packet::Symbol map, packet::Symbol cell) {
  EncodedMap* m = FindSym(map);
  return m == nullptr ? flexbpf::DirectCells{} : m->ResolveCell(cell);
}

}  // namespace flexnet::state
