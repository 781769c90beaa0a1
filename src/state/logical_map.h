// Virtualized network state (paper section 3.1).
//
// FlexBPF programs see logical key/value maps; devices implement them with
// whatever stateful primitive the silicon offers.  EncodedMap is the
// common interface over the three encodings the paper names:
//
//   * RegisterEncodedMap      — P4 register externs, index = key mod size
//   * StatefulTableEncodedMap — Mellanox-style flow-keyed stateful tables
//   * FlowInstructionEncodedMap — PoF flow-state instruction sets
//
// Export()/Import() move state in the *logical* representation — the
// property that makes cross-encoding migration possible ("program
// migration carries its state in this logical representation").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dataplane/stateful.h"
#include "flexbpf/interp.h"
#include "flexbpf/ir.h"

namespace flexnet::state {

// One logical cell value; the unit of the logical representation.
struct MapCellValue {
  std::uint64_t key = 0;
  std::string cell;
  std::uint64_t value = 0;

  friend bool operator==(const MapCellValue&, const MapCellValue&) = default;
};

using MapSnapshot = std::vector<MapCellValue>;

class EncodedMap {
 public:
  virtual ~EncodedMap() = default;

  virtual const std::string& name() const noexcept = 0;
  virtual flexbpf::MapEncoding encoding() const noexcept = 0;

  virtual std::uint64_t Load(std::uint64_t key, const std::string& cell) = 0;
  virtual void Store(std::uint64_t key, const std::string& cell,
                     std::uint64_t value) = 0;
  virtual void Add(std::uint64_t key, const std::string& cell,
                   std::uint64_t delta) = 0;

  // Symbol-addressed cell access for the compiled FlexBPF executor: every
  // encoding resolves the cell to a pre-interned slot, so the per-packet
  // path does no string hashing or comparison.  Cells the declaration does
  // not name read as 0 and write nowhere, through either API.
  virtual std::uint64_t Load(std::uint64_t key, packet::Symbol cell) = 0;
  virtual void Store(std::uint64_t key, packet::Symbol cell,
                     std::uint64_t value) = 0;
  virtual void Add(std::uint64_t key, packet::Symbol cell,
                   std::uint64_t delta) = 0;

  // Direct binding (see flexbpf::MapBackend::Resolve): encodings whose
  // cell columns are dense, side-effect-free uint64 arrays with stable
  // addresses override this; the default says "not bindable".
  virtual flexbpf::DirectCells ResolveCell(packet::Symbol cell) {
    (void)cell;
    return {};
  }

  // Logical snapshot: every (key, cell) with a nonzero value.  Encodings
  // that fold keys (register arrays) export the folded key space.
  virtual MapSnapshot Export() const = 0;
  virtual void Import(const MapSnapshot& snapshot) = 0;
  virtual void Clear() = 0;

  // Number of logical slots this map was declared with.
  virtual std::size_t size() const noexcept = 0;
};

// Factory: materialize a MapDecl with a concrete encoding.  kAuto must be
// resolved by the compiler before this is called.
Result<std::unique_ptr<EncodedMap>> CreateEncodedMap(
    const flexbpf::MapDecl& decl, flexbpf::MapEncoding encoding);

// A device's set of encoded maps; implements the FlexBPF MapBackend seam.
class MapSet final : public flexbpf::MapBackend {
 public:
  Status Install(const flexbpf::MapDecl& decl, flexbpf::MapEncoding encoding);
  Status Remove(const std::string& name);
  EncodedMap* Find(const std::string& name) noexcept;
  const EncodedMap* Find(const std::string& name) const noexcept;
  std::vector<std::string> Names() const;

  // MapBackend: unknown maps read as 0 / write to nowhere (verifier
  // prevents this for admitted programs).
  std::uint64_t Load(const std::string& map, std::uint64_t key,
                     const std::string& cell) override;
  void Store(const std::string& map, std::uint64_t key,
             const std::string& cell, std::uint64_t value) override;
  void Add(const std::string& map, std::uint64_t key, const std::string& cell,
           std::uint64_t delta) override;

  // Symbol-addressed MapBackend used by compiled execution: map lookup is
  // one integer-keyed hash probe, cell lookup is a pre-resolved slot.
  std::uint64_t Load(packet::Symbol map, std::uint64_t key,
                     packet::Symbol cell) override;
  void Store(packet::Symbol map, std::uint64_t key, packet::Symbol cell,
             std::uint64_t value) override;
  void Add(packet::Symbol map, std::uint64_t key, packet::Symbol cell,
           std::uint64_t delta) override;

  // Direct binding for compiled execution: delegates to the encoding.
  flexbpf::DirectCells Resolve(packet::Symbol map,
                               packet::Symbol cell) override;

 private:
  EncodedMap* FindSym(packet::Symbol map) const noexcept {
    const auto it = by_symbol_.find(map);
    return it == by_symbol_.end() ? nullptr : it->second;
  }

  std::unordered_map<std::string, std::unique_ptr<EncodedMap>> maps_;
  // Interned-name index over maps_ (owned above), kept in Install/Remove.
  std::unordered_map<packet::Symbol, EncodedMap*> by_symbol_;
};

}  // namespace flexnet::state
