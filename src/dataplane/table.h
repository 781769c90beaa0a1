// Match/action tables: exact, LPM, ternary, and range matching over the
// dotted packet fields, with priorities and a default action.
//
// Tables are the unit of runtime reconfiguration in FlexNet: the runtime
// engine adds/removes whole tables hitlessly, and the compiler moves them
// between devices, so a table carries its own resource descriptor.
//
// Lookup is index-accelerated (docs/DATAPLANE_PERF.md):
//   * all-exact keys     -> one hash probe over the column tuple,
//   * exact + one LPM    -> per-prefix-length hash maps, longest first,
//   * ternary/range keys -> a priority-ordered scan over pre-extracted
//                           field values (no per-entry string parsing).
// Indexes are maintained incrementally on AddEntry/RemoveEntries — runtime
// reconfiguration never rebuilds them from scratch — and every mutation
// bumps the invalidation cell the owning Pipeline binds, so the megaflow
// cache can never serve a stale action.  The original linear scan survives
// as MatchEntryReference(), the oracle for differential tests and the
// bench baseline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "dataplane/action.h"
#include "packet/packet.h"

namespace flexnet::dataplane {

enum class MatchKind : std::uint8_t { kExact, kLpm, kTernary, kRange };

const char* ToString(MatchKind kind) noexcept;

// One column of a table's key.
struct KeySpec {
  std::string field;       // dotted, e.g. "ipv4.dst"
  MatchKind kind = MatchKind::kExact;
  std::uint32_t width_bits = 32;
  friend bool operator==(const KeySpec&, const KeySpec&) = default;
};

// The per-column match criterion of one entry.
struct MatchValue {
  std::uint64_t value = 0;
  std::uint64_t mask = ~0ULL;   // ternary mask / derived from LPM prefix_len
  std::uint32_t prefix_len = 0; // LPM only
  std::uint64_t range_hi = 0;   // range only: match if value <= f <= range_hi

  static MatchValue Exact(std::uint64_t v);
  static MatchValue Lpm(std::uint64_t v, std::uint32_t prefix_len,
                        std::uint32_t width_bits = 32);
  static MatchValue Ternary(std::uint64_t v, std::uint64_t mask);
  static MatchValue Range(std::uint64_t lo, std::uint64_t hi);
  static MatchValue Wildcard();
  friend bool operator==(const MatchValue&, const MatchValue&) = default;
};

struct TableEntry {
  std::vector<MatchValue> match;  // one per KeySpec column
  Action action;
  std::int32_t priority = 0;      // higher wins among ternary/range matches
  std::uint64_t hit_count = 0;
};

// Resource shape used by the compiler/arch layers for placement.
struct TableResources {
  std::size_t sram_entries = 0;   // exact / LPM capacity in SRAM
  std::size_t tcam_entries = 0;   // ternary capacity in TCAM
  std::size_t action_slots = 1;   // action processing units consumed
  std::size_t state_bytes = 0;    // attached stateful object footprint
};

// Which structure answers this table's lookups, fixed by the key shape.
enum class IndexMode : std::uint8_t { kExact, kLpm, kScan };

// One key column a lookup over the current entry set may consult, with the
// union of bits any live entry can test: exact and range columns consult
// the full value, LPM/ternary columns the OR of live entry masks.  A mask
// of zero still matters — field *presence* decides whether any entry can
// match at all.  The Pipeline's megaflow tier unions these across tables
// into a wildcard key.
struct ConsultedField {
  packet::FieldRef ref;
  std::uint64_t mask = ~0ULL;
  friend bool operator==(const ConsultedField&,
                         const ConsultedField&) = default;
};

class MatchActionTable {
 public:
  MatchActionTable(std::string name, std::vector<KeySpec> key,
                   std::size_t capacity);

  const std::string& name() const noexcept { return name_; }
  const std::vector<KeySpec>& key() const noexcept { return key_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return entries_.size(); }
  IndexMode index_mode() const noexcept { return mode_; }

  bool NeedsTcam() const noexcept;

  // Declared capacity expressed as a resource demand.
  TableResources Resources() const noexcept;

  // --- Entry management (control-plane API, P4Runtime-ish) ---
  Status AddEntry(TableEntry entry);
  // Removes all entries whose match exactly equals `match`; count removed.
  std::size_t RemoveEntries(const std::vector<MatchValue>& match);
  void ClearEntries();
  // Insertion-ordered live entries.
  const std::vector<TableEntry>& entries() const noexcept { return entries_; }

  void SetDefaultAction(Action action);
  const Action& default_action() const noexcept { return default_action_; }

  // --- Lookup ---
  // Returns the matched entry's action (recording the hit) or the default.
  const Action& Lookup(const packet::Packet& p);
  // Indexed lookup with hit accounting; nullptr means the default action
  // applies.  The Pipeline's megaflow cache memoizes the returned entry.
  TableEntry* LookupEntry(const packet::Packet& p);
  // Lookup without hit accounting (const contexts).
  const Action* Match(const packet::Packet& p) const;
  const TableEntry* MatchEntry(const packet::Packet& p) const;
  // Retained reference semantics: a linear scan in (longest-prefix,
  // priority, insertion) order re-reading each field through the dotted
  // string path — exactly the pre-index behavior.  Oracle for the
  // randomized differential test and the bench's linear-scan baseline.
  const TableEntry* MatchEntryReference(const packet::Packet& p) const;

  // Replays a memoized flow-cache step: same hit accounting as
  // LookupEntry without re-matching.  `entry` null means default action.
  void RecordCachedHit(TableEntry* entry);

  // Appends the key columns (with consulted-bit masks) that lookups on the
  // current entry set depend on.  An empty table consults nothing: every
  // packet takes the default action regardless of content.  Masks are
  // recomputed lazily after mutations and cached.
  void AppendConsultedFields(std::vector<ConsultedField>& out) const;

  // Bench/test knob: route Lookup/Match through the reference linear scan.
  void set_force_reference_scan(bool force) noexcept {
    force_reference_ = force;
  }

  // The owning Pipeline points this at its epoch counter; every mutation
  // (entry churn, default-action change) increments it so memoized lookups
  // are invalidated.
  void BindInvalidation(std::uint64_t* epoch_cell) noexcept {
    epoch_cell_ = epoch_cell;
  }

  std::uint64_t lookups() const noexcept { return lookups_; }
  std::uint64_t hits() const noexcept { return hits_; }
  // How lookups were answered: via the exact/LPM hash indexes vs. the
  // priority-ordered fallback scan (reference-scan lookups count as
  // scanned).  Flow-cache replays count in neither.
  std::uint64_t lookups_indexed() const noexcept { return lookups_indexed_; }
  std::uint64_t lookups_scanned() const noexcept { return lookups_scanned_; }

 private:
  // Per-prefix-length bucket group of the LPM index.  Grouped by the
  // (prefix_len, mask) pair because entries built with non-default
  // width_bits can share a prefix_len but mask differently.
  struct LpmGroup {
    std::uint32_t prefix_len = 0;
    std::uint64_t mask = 0;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  };

  void Bump() noexcept {
    if (epoch_cell_ != nullptr) ++*epoch_cell_;
    consult_dirty_ = true;
  }
  bool EntryMatches(const TableEntry& e, const packet::Packet& p) const;
  bool EntryMatchesVals(const TableEntry& e, const std::uint64_t* vals) const;
  // True when every key field is present; fills vals[0..key_.size()).
  bool ExtractKeyValues(const packet::Packet& p, std::uint64_t* vals) const;
  std::uint64_t ExactKeyOfEntry(const TableEntry& e) const;
  std::uint64_t ExactKeyOfVals(const std::uint64_t* vals) const;
  std::uint64_t LpmKeyOfVals(const std::uint64_t* vals,
                             std::uint64_t mask) const;
  // Ordering of the fallback/reference scan: per-column longest prefix,
  // then priority, then insertion (position).
  bool ScanOrderLess(std::uint32_t a, std::uint32_t b) const;
  // Candidate preference inside one index bucket.
  bool BucketLess(std::uint32_t a, std::uint32_t b) const;
  void InsertIntoIndex(std::uint32_t pos);
  void RemapAfterRemoval(const std::vector<std::uint32_t>& removed);
  const TableEntry* FindIndexed(const packet::Packet& p) const;

  std::string name_;
  std::vector<KeySpec> key_;
  std::vector<packet::FieldRef> key_refs_;  // interned key_[i].field
  std::size_t capacity_;
  IndexMode mode_ = IndexMode::kScan;
  std::size_t lpm_col_ = 0;  // valid when mode_ == kLpm

  std::vector<TableEntry> entries_;  // insertion order; positions are ids
  // kExact: tuple-hash -> candidate positions (priority-ordered).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> exact_;
  // kLpm: groups sorted longest-prefix-first.
  std::vector<LpmGroup> lpm_groups_;
  // All entries in reference scan order; the kScan fast path and
  // MatchEntryReference walk it.
  std::vector<std::uint32_t> scan_order_;

  Action default_action_ = MakeNopAction();
  std::uint64_t* epoch_cell_ = nullptr;  // not owned; null when unbound
  // Per-column consulted-bit masks, recomputed lazily after mutations.
  mutable std::vector<std::uint64_t> consult_masks_;
  mutable bool consult_dirty_ = true;
  bool force_reference_ = false;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_indexed_ = 0;
  std::uint64_t lookups_scanned_ = 0;
};

}  // namespace flexnet::dataplane
