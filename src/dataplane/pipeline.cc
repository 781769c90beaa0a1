#include "dataplane/pipeline.h"

#include <algorithm>
#include <variant>

#include "telemetry/telemetry.h"

namespace flexnet::dataplane {

namespace {

// An action whose effect on *packet content* depends on mutable device
// state cannot be memoized: replaying the matched entries could diverge if
// a later table matches on the state-derived field.  OpMeterExec is the
// only such op (it writes the meter color into packet meta); everything
// else either reads only packet content/constants or writes device state
// that no match key can observe.
bool ActionIsCacheable(const Action& action) {
  return std::none_of(action.ops.begin(), action.ops.end(),
                      [](const ActionOp& op) {
                        return std::holds_alternative<OpMeterExec>(op);
                      });
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

std::uint64_t MegaKey(std::uint32_t mask_index, std::uint64_t structure_sig,
                      const auto& values) {
  std::uint64_t h = Mix(0xa5b35705f4a7c159ULL, mask_index + 1);
  h = Mix(h, structure_sig);
  for (const auto& v : values) {
    h = Mix(h, v.present ? 1 : 2);
    h = Mix(h, v.value);
  }
  return h;
}

// Appends (full-mask) the packet fields an action *reads while writing
// packet content*.  Replay re-executes actions against the live packet, so
// reads that feed packet writes must be part of the megaflow key: two
// packets agreeing on them produce identical writes, hence identical
// downstream matches.  Reads that feed only egress selection or device
// state (OpForward ports, register indexes, counter/meter/flow-state
// operands) are re-resolved per packet at replay time and need no key bits.
void AppendActionReads(const Action& action,
                       std::vector<ConsultedField>& out) {
  const auto add_operand = [&out](const Operand& operand) {
    if (const auto* f = std::get_if<OperandField>(&operand)) {
      out.push_back(ConsultedField{f->field.ref(), ~0ULL});
    }
  };
  for (const ActionOp& op : action.ops) {
    if (const auto* set = std::get_if<OpSetField>(&op)) {
      add_operand(set->value);
    } else if (const auto* add = std::get_if<OpAddField>(&op)) {
      out.push_back(ConsultedField{add->field.ref(), ~0ULL});  // read-mod-write
      add_operand(add->delta);
    }
  }
}

}  // namespace

Pipeline::Pipeline() { parser_.BindInvalidation(&epoch_); }

Result<MatchActionTable*> Pipeline::AddTable(std::string name,
                                             std::vector<KeySpec> key,
                                             std::size_t capacity,
                                             std::size_t position) {
  if (FindTable(name) != nullptr) {
    return AlreadyExists("table '" + name + "'");
  }
  auto table = std::make_unique<MatchActionTable>(std::move(name),
                                                  std::move(key), capacity);
  MatchActionTable* raw = table.get();
  raw->BindInvalidation(&epoch_);
  position = std::min(position, tables_.size());
  tables_.insert(tables_.begin() + static_cast<std::ptrdiff_t>(position),
                 std::move(table));
  BumpEpoch();
  return raw;
}

Status Pipeline::RemoveTable(const std::string& name) {
  for (auto it = tables_.begin(); it != tables_.end(); ++it) {
    if ((*it)->name() == name) {
      tables_.erase(it);
      BumpEpoch();
      return OkStatus();
    }
  }
  return NotFound("table '" + name + "'");
}

MatchActionTable* Pipeline::FindTable(const std::string& name) noexcept {
  for (auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

const MatchActionTable* Pipeline::FindTable(const std::string& name) const noexcept {
  for (const auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

std::vector<std::string> Pipeline::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& t : tables_) names.push_back(t->name());
  return names;
}

std::size_t Pipeline::IndexOf(const std::string& name) const noexcept {
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i]->name() == name) return i;
  }
  return static_cast<std::size_t>(-1);
}

Status Pipeline::MoveTable(const std::string& name, std::size_t position) {
  const std::size_t from = IndexOf(name);
  if (from == static_cast<std::size_t>(-1)) {
    return NotFound("table '" + name + "'");
  }
  auto table = std::move(tables_[from]);
  tables_.erase(tables_.begin() + static_cast<std::ptrdiff_t>(from));
  position = std::min(position, tables_.size());
  tables_.insert(tables_.begin() + static_cast<std::ptrdiff_t>(position),
                 std::move(table));
  BumpEpoch();
  return OkStatus();
}

void Pipeline::ForceReferenceScan(bool force) noexcept {
  for (auto& t : tables_) t->set_force_reference_scan(force);
  BumpEpoch();  // cached steps memoized the other path's accounting
}

// --- Cache plumbing -------------------------------------------------------

void Pipeline::Erase(CacheMap::iterator it) {
  free_slots_.push_back(it->second.slot);
  --masks_[it->second.mask_index].live;
  cache_.erase(it);
}

void Pipeline::EvictOne() {
  const std::size_t ring = slot_keys_.size();
  for (std::size_t step = 0; step <= 2 * ring; ++step) {
    if (hand_ >= ring) hand_ = 0;
    const std::size_t slot = hand_++;
    const auto it = cache_.find(slot_keys_[slot]);
    if (it == cache_.end() || it->second.slot != slot) continue;  // freed slot
    // Second chance for recently hit entries; the bound on `step`
    // guarantees the walk terminates with a victim.
    if (it->second.referenced && step < 2 * ring) {
      it->second.referenced = false;
      continue;
    }
    ++evictions_;
    Erase(it);
    return;
  }
}

void Pipeline::DropEntries() {
  cache_.clear();
  slot_keys_.clear();
  free_slots_.clear();
  hand_ = 0;
  for (MegaMask& m : masks_) m.live = 0;
}

void Pipeline::Clear(bool count_as_evictions) {
  if (count_as_evictions) {
    evictions_ += static_cast<std::uint64_t>(cache_.size());
  }
  DropEntries();
  masks_.clear();
}

void Pipeline::set_flow_cache_enabled(bool enabled) {
  flow_cache_enabled_ = enabled;
  if (!enabled) Clear(/*count_as_evictions=*/true);
}

void Pipeline::set_megaflow_cap(std::size_t cap) {
  cap_ = std::max<std::size_t>(1, cap);
  while (cache_.size() > cap_) EvictOne();
}

Pipeline::CachedFlow* Pipeline::Probe(const packet::Packet& p,
                                      std::uint64_t structure_sig) {
  for (std::uint32_t mi = 0; mi < static_cast<std::uint32_t>(masks_.size());
       ++mi) {
    const MegaMask& m = masks_[mi];
    if (m.live == 0) continue;
    probe_scratch_.clear();
    for (const ConsultedField& c : m.fields) {
      const auto v = p.GetField(c.ref);
      probe_scratch_.push_back(
          MaskedValue{v.has_value(), v.has_value() ? (*v & c.mask) : 0});
    }
    const auto it = cache_.find(MegaKey(mi, structure_sig, probe_scratch_));
    if (it == cache_.end()) continue;
    CachedFlow& e = it->second;
    // Hash collisions are rejected by full verification.
    if (e.mask_index != mi || e.structure_sig != structure_sig) continue;
    if (e.values != probe_scratch_) continue;
    return &e;
  }
  return nullptr;
}

void Pipeline::Install(const packet::Packet& pristine, CachedFlow flow) {
  // Canonicalize the consulted set: merge duplicate fields by OR-ing their
  // masks, preserving first-seen order so the shape is deterministic.
  mask_build_scratch_.clear();
  for (const ConsultedField& c : consulted_scratch_) {
    bool merged = false;
    for (ConsultedField& have : mask_build_scratch_) {
      if (have.ref == c.ref) {
        have.mask |= c.mask;
        merged = true;
        break;
      }
    }
    if (!merged) mask_build_scratch_.push_back(c);
  }

  // Find or create the wildcard shape (few shapes, linear search is fine —
  // this is the slow path).
  std::uint32_t mask_index = static_cast<std::uint32_t>(masks_.size());
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(masks_.size());
       ++i) {
    if (masks_[i].fields == mask_build_scratch_) {
      mask_index = i;
      break;
    }
  }
  if (mask_index == masks_.size()) {
    if (masks_.size() >= kMaxMegaflowMasks) {
      // Pathological shape churn: restart the cache rather than scan an
      // unbounded mask list on every probe.
      Clear(/*count_as_evictions=*/true);
      mask_index = 0;
    }
    masks_.push_back(MegaMask{mask_build_scratch_, 0});
  }

  flow.mask_index = mask_index;
  flow.values.reserve(masks_[mask_index].fields.size());
  for (const ConsultedField& c : masks_[mask_index].fields) {
    const auto v = pristine.GetField(c.ref);
    flow.values.push_back(
        MaskedValue{v.has_value(), v.has_value() ? (*v & c.mask) : 0});
  }
  const std::uint64_t key = MegaKey(mask_index, flow.structure_sig, flow.values);

  if (const auto it = cache_.find(key); it != cache_.end()) {
    Erase(it);  // a rare hash collision: the newer flow replaces it
  }
  while (cache_.size() >= cap_ && !cache_.empty()) EvictOne();
  if (!free_slots_.empty()) {
    flow.slot = free_slots_.back();
    free_slots_.pop_back();
    slot_keys_[flow.slot] = key;
  } else {
    flow.slot = static_cast<std::uint32_t>(slot_keys_.size());
    slot_keys_.push_back(key);
  }
  flow.referenced = true;
  cache_.emplace(key, std::move(flow));
  ++masks_[mask_index].live;
}

// --- Lookup path ----------------------------------------------------------

PipelineResult Pipeline::ReplayCached(const CachedFlow& flow,
                                      packet::Packet& p, SimTime now,
                                      ActionExecutor& executor) {
  PipelineResult result;
  if (flow.parse_reject) {
    p.MarkDropped("parse_reject");
    result.dropped = true;
    return result;
  }
  // Actions are re-executed (state updates and counters stay live); only
  // parse + match are skipped.  RecordCachedHit keeps per-table lookup/hit
  // accounting identical to the uncached path.
  const bool sampled = p.postcard_sampled();
  for (const CachedStep& step : flow.steps) {
    ++result.tables_traversed;
    if (sampled) result.consulted_tables.push_back(step.table->name());
    step.table->RecordCachedHit(step.entry);
    const Action& action = step.entry != nullptr
                               ? step.entry->action
                               : step.table->default_action();
    const ExecResult exec = executor.Execute(action, p, now);
    result.ops_executed += exec.ops_executed;
    if (exec.dropped) {
      result.dropped = true;
      return result;
    }
  }
  return result;
}

PipelineResult Pipeline::ResolveAndCache(packet::Packet& p, SimTime now,
                                         ActionExecutor& executor,
                                         std::uint64_t structure_sig) {
  PipelineResult result;
  CachedFlow flow;
  flow.structure_sig = structure_sig;

  // The key recorder: everything this resolution consults (parser selects,
  // table key columns with their masks, action operand reads), plus a
  // pristine copy of the packet — key values must be read *before* actions
  // mutate fields mid-pipeline.
  consulted_scratch_.clear();
  parser_reads_scratch_.clear();
  const packet::Packet pristine = p;

  const ParseResult parsed = parser_.Parse(p, &parser_reads_scratch_);
  for (const packet::FieldRef& ref : parser_reads_scratch_) {
    consulted_scratch_.push_back(ConsultedField{ref, ~0ULL});
  }

  if (!parsed.accepted) {
    p.MarkDropped("parse_reject");
    result.dropped = true;
    flow.parse_reject = true;
    Install(pristine, std::move(flow));
    return result;
  }
  flow.steps.reserve(tables_.size());
  bool cacheable = true;
  const bool sampled = p.postcard_sampled();
  for (auto& table : tables_) {
    ++result.tables_traversed;
    if (sampled) result.consulted_tables.push_back(table->name());
    table->AppendConsultedFields(consulted_scratch_);
    TableEntry* entry = table->LookupEntry(p);
    const Action& action =
        entry != nullptr ? entry->action : table->default_action();
    if (!ActionIsCacheable(action)) cacheable = false;
    AppendActionReads(action, consulted_scratch_);
    flow.steps.push_back(CachedStep{table.get(), entry});
    const ExecResult exec = executor.Execute(action, p, now);
    result.ops_executed += exec.ops_executed;
    if (exec.dropped) {
      result.dropped = true;
      break;
    }
  }
  // A mutation inside an action could in principle bump the epoch while we
  // resolve; such a flow lands in the dead epoch and the next lookup
  // releases it.
  if (cacheable) Install(pristine, std::move(flow));
  return result;
}

PipelineResult Pipeline::ProcessOne(packet::Packet& p, SimTime now,
                                    ActionExecutor& executor) {
  // An empty pipeline has nothing worth memoizing — the probe would cost
  // more than the parse it skips — so table-less devices (hosts, NICs)
  // bypass the cache entirely.
  if (!flow_cache_enabled_ || tables_.empty()) {
    PipelineResult result;
    if (!parser_.Accepts(p)) {
      p.MarkDropped("parse_reject");
      result.dropped = true;
      return result;
    }
    for (auto& table : tables_) {
      ++result.tables_traversed;
      if (p.postcard_sampled()) {
        result.consulted_tables.push_back(table->name());
      }
      const Action& action = table->Lookup(p);
      const ExecResult exec = executor.Execute(action, p, now);
      result.ops_executed += exec.ops_executed;
      if (exec.dropped) {
        result.dropped = true;
        return result;
      }
    }
    return result;
  }

  // Nothing resolved under an older epoch can hit again, so the first
  // lookup after a bump releases the dead epoch whole.
  if (cache_epoch_ != epoch_) {
    stale_reclaimed_ += static_cast<std::uint64_t>(cache_.size());
    DropEntries();
    cache_epoch_ = epoch_;
  }
  const std::uint64_t structure_sig = p.StructureSignature();
  if (CachedFlow* e = Probe(p, structure_sig)) {
    ++hits_;
    e->referenced = true;
    PipelineResult result = ReplayCached(*e, p, now, executor);
    result.megaflow_hit = true;
    return result;
  }
  ++misses_;
  return ResolveAndCache(p, now, executor, structure_sig);
}

PipelineResult Pipeline::Process(packet::Packet& p, SimTime now) {
  ActionExecutor executor(&state_);
  return ProcessOne(p, now, executor);
}

void Pipeline::ProcessBatch(std::span<packet::Packet> pkts, SimTime now,
                            std::span<PipelineResult> results) {
  ++batches_;
  batch_sizes_.Add(static_cast<double>(pkts.size()));
  ActionExecutor executor(&state_);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    results[i] = ProcessOne(pkts[i], now, executor);
  }
}

void Pipeline::PublishMetrics(telemetry::MetricsRegistry& registry) const {
  // Epoch bumps: whole-cache invalidations, one per pipeline mutation.
  // Per-entry removals are the evictions/stale_reclaimed counters, so
  // eviction storms are visible instead of hiding behind the epoch.
  registry.Count("dataplane_flowcache_invalidations", epoch_);
  registry.Count("dataplane_megaflow_hits", hits_);
  registry.Count("dataplane_megaflow_misses", misses_);
  registry.Count("dataplane_megaflow_evictions", evictions_);
  registry.Count("dataplane_megaflow_stale_reclaimed", stale_reclaimed_);
  registry.Set("dataplane_megaflow_size", static_cast<double>(cache_.size()));
  registry.Set("dataplane_megaflow_masks", static_cast<double>(masks_.size()));
  std::uint64_t indexed = 0;
  std::uint64_t scanned = 0;
  for (const auto& t : tables_) {
    indexed += t->lookups_indexed();
    scanned += t->lookups_scanned();
  }
  registry.Count("table_lookup_indexed", indexed);
  registry.Count("table_lookup_scanned", scanned);
  registry.Count("dataplane_batch_count", batches_);
  registry.Set("dataplane_batch_size_p50", batch_sizes_.Percentile(50.0));
  registry.Set("dataplane_batch_size_p99", batch_sizes_.Percentile(99.0));
}

}  // namespace flexnet::dataplane
