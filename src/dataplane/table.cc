#include "dataplane/table.h"

#include <algorithm>

namespace flexnet::dataplane {

namespace {

// Widest key the stack-allocated value scratch covers; wider keys (never
// seen in practice) fall back to the reference scan.
constexpr std::size_t kMaxFastCols = 16;

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace

const char* ToString(MatchKind kind) noexcept {
  switch (kind) {
    case MatchKind::kExact:
      return "exact";
    case MatchKind::kLpm:
      return "lpm";
    case MatchKind::kTernary:
      return "ternary";
    case MatchKind::kRange:
      return "range";
  }
  return "?";
}

MatchValue MatchValue::Exact(std::uint64_t v) {
  MatchValue m;
  m.value = v;
  return m;
}

MatchValue MatchValue::Lpm(std::uint64_t v, std::uint32_t prefix_len,
                           std::uint32_t width_bits) {
  MatchValue m;
  m.prefix_len = prefix_len;
  m.mask = prefix_len == 0
               ? 0
               : (~0ULL << (width_bits - std::min(prefix_len, width_bits)));
  if (width_bits < 64) m.mask &= (1ULL << width_bits) - 1;
  m.value = v & m.mask;
  return m;
}

MatchValue MatchValue::Ternary(std::uint64_t v, std::uint64_t mask) {
  MatchValue m;
  m.mask = mask;
  m.value = v & mask;
  return m;
}

MatchValue MatchValue::Range(std::uint64_t lo, std::uint64_t hi) {
  MatchValue m;
  m.value = lo;
  m.range_hi = hi;
  return m;
}

MatchValue MatchValue::Wildcard() {
  MatchValue m;
  m.mask = 0;
  m.value = 0;
  return m;
}

MatchActionTable::MatchActionTable(std::string name, std::vector<KeySpec> key,
                                   std::size_t capacity)
    : name_(std::move(name)), key_(std::move(key)), capacity_(capacity) {
  key_refs_.reserve(key_.size());
  std::size_t lpm_cols = 0;
  std::size_t other_cols = 0;
  for (std::size_t i = 0; i < key_.size(); ++i) {
    key_refs_.push_back(packet::InternFieldPath(key_[i].field));
    if (key_[i].kind == MatchKind::kLpm) {
      lpm_cols += 1;
      lpm_col_ = i;
    } else if (key_[i].kind != MatchKind::kExact) {
      other_cols += 1;
    }
  }
  if (key_.size() > kMaxFastCols) {
    mode_ = IndexMode::kScan;  // scratch too small; reference scan applies
  } else if (lpm_cols == 0 && other_cols == 0) {
    mode_ = IndexMode::kExact;
  } else if (lpm_cols == 1 && other_cols == 0) {
    mode_ = IndexMode::kLpm;
  } else {
    mode_ = IndexMode::kScan;
  }
}

bool MatchActionTable::NeedsTcam() const noexcept {
  return std::any_of(key_.begin(), key_.end(), [](const KeySpec& k) {
    return k.kind == MatchKind::kTernary || k.kind == MatchKind::kRange ||
           k.kind == MatchKind::kLpm;
  });
}

TableResources MatchActionTable::Resources() const noexcept {
  TableResources r;
  if (NeedsTcam()) {
    r.tcam_entries = capacity_;
  } else {
    r.sram_entries = capacity_;
  }
  r.action_slots = 1;
  return r;
}

bool MatchActionTable::ScanOrderLess(std::uint32_t a, std::uint32_t b) const {
  const TableEntry& ea = entries_[a];
  const TableEntry& eb = entries_[b];
  for (std::size_t i = 0; i < key_.size(); ++i) {
    if (key_[i].kind == MatchKind::kLpm &&
        ea.match[i].prefix_len != eb.match[i].prefix_len) {
      return ea.match[i].prefix_len > eb.match[i].prefix_len;
    }
  }
  if (ea.priority != eb.priority) return ea.priority > eb.priority;
  return a < b;  // stable: first-inserted wins among equals
}

bool MatchActionTable::BucketLess(std::uint32_t a, std::uint32_t b) const {
  const TableEntry& ea = entries_[a];
  const TableEntry& eb = entries_[b];
  if (ea.priority != eb.priority) return ea.priority > eb.priority;
  return a < b;
}

std::uint64_t MatchActionTable::ExactKeyOfEntry(const TableEntry& e) const {
  std::uint64_t h = 0x51afd7ed558ccd11ULL;
  for (const MatchValue& m : e.match) h = Mix(h, m.value);
  return h;
}

std::uint64_t MatchActionTable::ExactKeyOfVals(const std::uint64_t* vals) const {
  std::uint64_t h = 0x51afd7ed558ccd11ULL;
  for (std::size_t i = 0; i < key_.size(); ++i) h = Mix(h, vals[i]);
  return h;
}

std::uint64_t MatchActionTable::LpmKeyOfVals(const std::uint64_t* vals,
                                             std::uint64_t mask) const {
  std::uint64_t h = 0x51afd7ed558ccd11ULL;
  for (std::size_t i = 0; i < key_.size(); ++i) {
    h = Mix(h, i == lpm_col_ ? (vals[i] & mask) : vals[i]);
  }
  return h;
}

void MatchActionTable::InsertIntoIndex(std::uint32_t pos) {
  const TableEntry& e = entries_[pos];
  const auto bucket_insert = [this](std::vector<std::uint32_t>& bucket,
                                    std::uint32_t p) {
    bucket.insert(std::upper_bound(bucket.begin(), bucket.end(), p,
                                   [this](std::uint32_t a, std::uint32_t b) {
                                     return BucketLess(a, b);
                                   }),
                  p);
  };
  if (mode_ == IndexMode::kExact) {
    bucket_insert(exact_[ExactKeyOfEntry(e)], pos);
  } else if (mode_ == IndexMode::kLpm) {
    const MatchValue& m = e.match[lpm_col_];
    auto it = std::find_if(lpm_groups_.begin(), lpm_groups_.end(),
                           [&](const LpmGroup& g) {
                             return g.prefix_len == m.prefix_len &&
                                    g.mask == m.mask;
                           });
    if (it == lpm_groups_.end()) {
      LpmGroup group;
      group.prefix_len = m.prefix_len;
      group.mask = m.mask;
      it = lpm_groups_.insert(
          std::lower_bound(lpm_groups_.begin(), lpm_groups_.end(),
                           m.prefix_len,
                           [](const LpmGroup& g, std::uint32_t plen) {
                             return g.prefix_len > plen;
                           }),
          std::move(group));
    }
    bucket_insert(it->buckets[ExactKeyOfEntry(e)], pos);
  }
  // Reference/fallback scan order is maintained for every mode.
  scan_order_.insert(
      std::upper_bound(scan_order_.begin(), scan_order_.end(), pos,
                       [this](std::uint32_t a, std::uint32_t b) {
                         return ScanOrderLess(a, b);
                       }),
      pos);
}

Status MatchActionTable::AddEntry(TableEntry entry) {
  if (entry.match.size() != key_.size()) {
    return InvalidArgument("table '" + name_ + "': entry has " +
                           std::to_string(entry.match.size()) +
                           " match columns, key has " +
                           std::to_string(key_.size()));
  }
  if (entries_.size() >= capacity_) {
    return ResourceExhausted("table '" + name_ + "' is full (capacity " +
                             std::to_string(capacity_) + ")");
  }
  const auto pos = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(std::move(entry));
  InsertIntoIndex(pos);
  Bump();
  return OkStatus();
}

void MatchActionTable::RemapAfterRemoval(
    const std::vector<std::uint32_t>& removed) {
  // removed is sorted ascending; surviving position p shifts down by the
  // number of removed positions below it.
  const auto remap = [&removed](std::vector<std::uint32_t>& ids) {
    std::size_t out = 0;
    for (const std::uint32_t pos : ids) {
      const auto it =
          std::lower_bound(removed.begin(), removed.end(), pos);
      if (it != removed.end() && *it == pos) continue;  // dropped
      ids[out++] = pos - static_cast<std::uint32_t>(it - removed.begin());
    }
    ids.resize(out);
  };
  remap(scan_order_);
  for (auto it = exact_.begin(); it != exact_.end();) {
    remap(it->second);
    it = it->second.empty() ? exact_.erase(it) : std::next(it);
  }
  for (auto git = lpm_groups_.begin(); git != lpm_groups_.end();) {
    for (auto it = git->buckets.begin(); it != git->buckets.end();) {
      remap(it->second);
      it = it->second.empty() ? git->buckets.erase(it) : std::next(it);
    }
    git = git->buckets.empty() ? lpm_groups_.erase(git) : std::next(git);
  }
}

std::size_t MatchActionTable::RemoveEntries(
    const std::vector<MatchValue>& match) {
  const auto same = [](const MatchValue& a, const MatchValue& b) {
    return a.value == b.value && a.mask == b.mask &&
           a.prefix_len == b.prefix_len && a.range_hi == b.range_hi;
  };
  std::vector<std::uint32_t> removed;
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    const TableEntry& e = entries_[pos];
    bool equal = e.match.size() == match.size();
    for (std::size_t i = 0; equal && i < match.size(); ++i) {
      equal = same(e.match[i], match[i]);
    }
    if (equal) removed.push_back(static_cast<std::uint32_t>(pos));
  }
  if (removed.empty()) return 0;
  std::size_t out = 0;
  std::size_t next_removed = 0;
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    if (next_removed < removed.size() && removed[next_removed] == pos) {
      ++next_removed;
      continue;
    }
    if (out != pos) entries_[out] = std::move(entries_[pos]);
    ++out;
  }
  entries_.resize(out);
  RemapAfterRemoval(removed);
  Bump();
  return removed.size();
}

void MatchActionTable::ClearEntries() {
  entries_.clear();
  exact_.clear();
  lpm_groups_.clear();
  scan_order_.clear();
  Bump();
}

void MatchActionTable::SetDefaultAction(Action action) {
  default_action_ = std::move(action);
  Bump();
}

bool MatchActionTable::EntryMatches(const TableEntry& e,
                                    const packet::Packet& p) const {
  for (std::size_t i = 0; i < key_.size(); ++i) {
    const auto field = p.GetField(key_refs_[i]);
    if (!field.has_value()) return false;
    const MatchValue& m = e.match[i];
    switch (key_[i].kind) {
      case MatchKind::kExact:
        if (*field != m.value) return false;
        break;
      case MatchKind::kLpm:
      case MatchKind::kTernary:
        if ((*field & m.mask) != m.value) return false;
        break;
      case MatchKind::kRange:
        if (*field < m.value || *field > m.range_hi) return false;
        break;
    }
  }
  return true;
}

bool MatchActionTable::EntryMatchesVals(const TableEntry& e,
                                        const std::uint64_t* vals) const {
  for (std::size_t i = 0; i < key_.size(); ++i) {
    const MatchValue& m = e.match[i];
    switch (key_[i].kind) {
      case MatchKind::kExact:
        if (vals[i] != m.value) return false;
        break;
      case MatchKind::kLpm:
      case MatchKind::kTernary:
        if ((vals[i] & m.mask) != m.value) return false;
        break;
      case MatchKind::kRange:
        if (vals[i] < m.value || vals[i] > m.range_hi) return false;
        break;
    }
  }
  return true;
}

bool MatchActionTable::ExtractKeyValues(const packet::Packet& p,
                                        std::uint64_t* vals) const {
  for (std::size_t i = 0; i < key_.size(); ++i) {
    const auto field = p.GetField(key_refs_[i]);
    if (!field.has_value()) return false;  // no entry can match
    vals[i] = *field;
  }
  return true;
}

const TableEntry* MatchActionTable::FindIndexed(const packet::Packet& p) const {
  std::uint64_t vals[kMaxFastCols];
  if (!ExtractKeyValues(p, vals)) return nullptr;
  switch (mode_) {
    case IndexMode::kExact: {
      const auto it = exact_.find(ExactKeyOfVals(vals));
      if (it == exact_.end()) return nullptr;
      // Bucket is (priority, insertion)-ordered; hash collisions are
      // rejected by verification, so the first verifying candidate wins.
      for (const std::uint32_t pos : it->second) {
        if (EntryMatchesVals(entries_[pos], vals)) return &entries_[pos];
      }
      return nullptr;
    }
    case IndexMode::kLpm: {
      // Groups are longest-prefix-first; groups sharing a prefix length
      // (differing masks) compete as one rank by (priority, insertion).
      std::size_t i = 0;
      while (i < lpm_groups_.size()) {
        const std::uint32_t plen = lpm_groups_[i].prefix_len;
        std::int64_t run_best = -1;
        for (; i < lpm_groups_.size() && lpm_groups_[i].prefix_len == plen;
             ++i) {
          const LpmGroup& g = lpm_groups_[i];
          const auto it = g.buckets.find(LpmKeyOfVals(vals, g.mask));
          if (it == g.buckets.end()) continue;
          for (const std::uint32_t pos : it->second) {
            if (!EntryMatchesVals(entries_[pos], vals)) continue;
            if (run_best < 0 ||
                BucketLess(pos, static_cast<std::uint32_t>(run_best))) {
              run_best = pos;
            }
            break;  // bucket sorted; later candidates can't beat this one
          }
        }
        if (run_best >= 0) return &entries_[static_cast<std::size_t>(run_best)];
      }
      return nullptr;
    }
    case IndexMode::kScan: {
      for (const std::uint32_t pos : scan_order_) {
        if (EntryMatchesVals(entries_[pos], vals)) return &entries_[pos];
      }
      return nullptr;
    }
  }
  return nullptr;
}

const TableEntry* MatchActionTable::MatchEntryReference(
    const packet::Packet& p) const {
  for (const std::uint32_t pos : scan_order_) {
    if (EntryMatches(entries_[pos], p)) return &entries_[pos];
  }
  return nullptr;
}

const TableEntry* MatchActionTable::MatchEntry(const packet::Packet& p) const {
  if (force_reference_ || key_.size() > kMaxFastCols) {
    return MatchEntryReference(p);
  }
  return FindIndexed(p);
}

const Action* MatchActionTable::Match(const packet::Packet& p) const {
  const TableEntry* e = MatchEntry(p);
  return e == nullptr ? nullptr : &e->action;
}

TableEntry* MatchActionTable::LookupEntry(const packet::Packet& p) {
  ++lookups_;
  const TableEntry* found;
  if (force_reference_ || key_.size() > kMaxFastCols) {
    ++lookups_scanned_;
    found = MatchEntryReference(p);
  } else {
    if (mode_ == IndexMode::kScan) {
      ++lookups_scanned_;
    } else {
      ++lookups_indexed_;
    }
    found = FindIndexed(p);
  }
  if (found == nullptr) return nullptr;
  auto* e = const_cast<TableEntry*>(found);
  ++e->hit_count;
  ++hits_;
  return e;
}

const Action& MatchActionTable::Lookup(const packet::Packet& p) {
  const TableEntry* e = LookupEntry(p);
  return e == nullptr ? default_action_ : e->action;
}

void MatchActionTable::AppendConsultedFields(
    std::vector<ConsultedField>& out) const {
  if (entries_.empty()) return;
  if (consult_dirty_) {
    consult_masks_.assign(key_.size(), 0);
    for (std::size_t i = 0; i < key_.size(); ++i) {
      switch (key_[i].kind) {
        case MatchKind::kExact:
        case MatchKind::kRange:
          // Exact compares the full 64-bit value; ranges bound it — every
          // bit is load-bearing.
          consult_masks_[i] = ~0ULL;
          break;
        case MatchKind::kLpm:
        case MatchKind::kTernary: {
          std::uint64_t mask = 0;
          for (const TableEntry& e : entries_) mask |= e.match[i].mask;
          consult_masks_[i] = mask;
          break;
        }
      }
    }
    consult_dirty_ = false;
  }
  for (std::size_t i = 0; i < key_.size(); ++i) {
    out.push_back(ConsultedField{key_refs_[i], consult_masks_[i]});
  }
}

void MatchActionTable::RecordCachedHit(TableEntry* entry) {
  ++lookups_;
  if (entry != nullptr) {
    ++hits_;
    ++entry->hit_count;
  }
}

}  // namespace flexnet::dataplane
