// A Pipeline is an ordered sequence of match/action tables executed against
// an accepted packet.  It owns its tables; the arch layer maps tables onto
// physical resources and assigns the latency cost of traversal.
//
// The pipeline carries an OVS-style wildcard flow cache, the megaflow
// cache (docs/DATAPLANE_PERF.md).  A slow-path resolution — parse plus
// every table lookup — records which fields it actually consulted (parser
// selects, table key columns with their LPM/ternary bit-masks, action
// operand reads) and memoizes its (table, entry) step sequence under the
// masked values of just those fields.  One entry therefore covers every
// packet that agrees on the masked bits: a whole prefix or tenant, not one
// 5-tuple.  Entries are verified field by field on probe, so a hash
// collision never replays another flow's steps.
//
// The cache evicts with a CLOCK (second-chance) policy instead of
// wholesale clears.  Soundness comes from a pipeline-wide epoch counter:
// every mutation anywhere (entry churn, default actions, table
// add/remove/move, parser edits, runtime reflash) bumps it, and the first
// cache lookup after a bump releases every cached flow at once — none
// resolved under an older epoch can ever hit again.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/types.h"
#include "dataplane/executor.h"
#include "dataplane/parser.h"
#include "dataplane/stateful.h"
#include "dataplane/table.h"

namespace flexnet::telemetry {
class MetricsRegistry;
}  // namespace flexnet::telemetry

namespace flexnet::dataplane {

struct PipelineResult {
  bool dropped = false;
  std::size_t tables_traversed = 0;
  std::size_t ops_executed = 0;
  // Always false: no exact-match tier exists.  Read only by perfbench.
  bool flow_cache_hit = false;
  bool megaflow_hit = false;  // answered by the megaflow cache
  // Names of the tables consulted, in execution order.  Filled ONLY for
  // postcard-sampled packets (p.postcard_sampled()); empty otherwise, so
  // the unsampled fast path never allocates here.  Cached replays report
  // the memoized step tables — the same set the scalar resolve consulted.
  std::vector<std::string> consulted_tables;
};

class Pipeline {
 public:
  Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  // Insert at `position` (clamped to [0, size]).  Returns the new table.
  Result<MatchActionTable*> AddTable(std::string name, std::vector<KeySpec> key,
                                     std::size_t capacity,
                                     std::size_t position = SIZE_MAX);
  Status RemoveTable(const std::string& name);
  MatchActionTable* FindTable(const std::string& name) noexcept;
  const MatchActionTable* FindTable(const std::string& name) const noexcept;

  std::size_t table_count() const noexcept { return tables_.size(); }
  std::vector<std::string> TableNames() const;
  // Position of a table in execution order, or npos.
  std::size_t IndexOf(const std::string& name) const noexcept;
  Status MoveTable(const std::string& name, std::size_t position);

  StateObjects& state() noexcept { return state_; }
  const StateObjects& state() const noexcept { return state_; }

  ParseGraph& parser() noexcept { return parser_; }
  const ParseGraph& parser() const noexcept { return parser_; }

  // Runs parse + every table in order.  Unparseable packets are dropped
  // ("parse_reject"); a Drop action short-circuits the remaining tables.
  // This scalar path is the semantic oracle for ProcessBatch.
  PipelineResult Process(packet::Packet& p, SimTime now);

  // Burst overload: processes `pkts` member-major (each packet runs its
  // full parse -> lookup -> action sequence before the next starts, so
  // stateful ops — meters, counters, registers — observe exactly the
  // scalar order) with one ActionExecutor for the whole burst.  Outcomes,
  // packet contents, per-table hit accounting, and cache counters are
  // identical to calling Process() on each member in order.
  // `results` must have at least pkts.size() slots.
  void ProcessBatch(std::span<packet::Packet> pkts, SimTime now,
                    std::span<PipelineResult> results);

  // --- Flow cache controls / observability ---
  // Disabling clears the cache (counted as evictions) and turns caching
  // off — the oracle configuration differential tests rely on.
  void set_flow_cache_enabled(bool enabled);
  bool flow_cache_enabled() const noexcept { return flow_cache_enabled_; }

  // Capacity in entries (default 65536).  Shrinking below the current
  // population evicts down through the CLOCK policy.
  void set_megaflow_cap(std::size_t cap);
  std::size_t megaflow_cap() const noexcept { return cap_; }

  // Invalidate every memoized flow.  Callers whose mutations bypass the
  // Pipeline API (e.g. the runtime engine reflashing device programs)
  // invoke this to keep cached steps from outliving what they memoized.
  // The epoch counts whole-cache invalidations, one per mutation.
  void BumpEpoch() noexcept { ++epoch_; }
  std::uint64_t epoch() const noexcept { return epoch_; }

  // --- Cache counters ---
  std::uint64_t megaflow_hits() const noexcept { return hits_; }
  std::uint64_t megaflow_misses() const noexcept { return misses_; }
  // Entries removed under capacity pressure, by a wholesale clear, or by a
  // wildcard-shape overflow restart.
  std::uint64_t megaflow_evictions() const noexcept { return evictions_; }
  // Dead-epoch entries released by the first lookup after an epoch bump.
  std::uint64_t megaflow_stale_reclaimed() const noexcept {
    return stale_reclaimed_;
  }
  std::size_t megaflow_size() const noexcept { return cache_.size(); }
  std::size_t megaflow_mask_count() const noexcept { return masks_.size(); }

  // Counters of the retired exact-match tier, read only by perfbench: no
  // lookup is answered before the megaflow probe, so hits and evictions
  // are 0 and every cache lookup counts as a miss.
  std::uint64_t flow_cache_hits() const noexcept { return 0; }
  std::uint64_t flow_cache_misses() const noexcept { return hits_ + misses_; }
  std::uint64_t flow_cache_evictions() const noexcept { return 0; }

  // --- Burst observability ---
  std::uint64_t batches_processed() const noexcept { return batches_; }
  double BatchSizePercentile(double p) const {
    return batch_sizes_.Percentile(p);
  }

  // Bench/test knob: route every table through its reference linear scan.
  void ForceReferenceScan(bool force) noexcept;

  // Snapshot the fast-path counters into `registry` (one-shot: callers
  // Reset() the registry first; values are current totals, not deltas):
  //   dataplane_flowcache_invalidations (epoch bumps),
  //   dataplane_megaflow_{hits,misses,evictions,stale_reclaimed} plus
  //   dataplane_megaflow_{size,masks} gauges,
  //   table_lookup_{indexed,scanned} (summed over current tables),
  //   dataplane_batch_count and dataplane_batch_size_{p50,p99} gauges.
  void PublishMetrics(telemetry::MetricsRegistry& registry) const;

 private:
  // One memoized pipeline step: the entry that matched (null = default
  // action applied).  Raw pointers are safe because any mutation that could
  // move or free them bumps epoch_ first, and the next lookup releases
  // every cached step before it could replay one.
  struct CachedStep {
    MatchActionTable* table = nullptr;
    TableEntry* entry = nullptr;
  };
  // One consulted field of a cache key: the pristine (pre-action) packet
  // value under the consult mask, or "absent" — field presence decides
  // matches (and parse verdicts) just as much as values do.
  struct MaskedValue {
    bool present = false;
    std::uint64_t value = 0;
    friend bool operator==(const MaskedValue&, const MaskedValue&) = default;
  };
  // A cached flow: the memoized step sequence, its key, and its CLOCK
  // eviction state (recency bit + ring slot).
  struct CachedFlow {
    bool parse_reject = false;  // memoized parser verdict
    bool referenced = true;     // CLOCK second-chance bit, set on every hit
    std::uint32_t slot = 0;     // position in the clock ring
    std::vector<CachedStep> steps;
    std::uint32_t mask_index = 0;     // which wildcard shape keyed this
    std::uint64_t structure_sig = 0;  // header-stack shape guard
    std::vector<MaskedValue> values;  // one per mask field; verified on probe
  };
  // A distinct wildcard shape: the deduped union of fields (with bit masks)
  // one slow-path resolution consulted.  Probes walk shapes in creation
  // order, so scalar and batched execution stay event-for-event identical.
  struct MegaMask {
    std::vector<ConsultedField> fields;
    std::uint32_t live = 0;  // entries currently keyed by this shape
  };
  using CacheMap = std::unordered_map<std::uint64_t, CachedFlow>;

  static constexpr std::size_t kFlowCacheDefaultCap = 65536;
  // Bound on distinct wildcard shapes; overflowing (pathological table
  // churn) clears the cache, counted as evictions.
  static constexpr std::size_t kMaxMegaflowMasks = 32;

  void Erase(CacheMap::iterator it);
  void EvictOne();
  // Drops every entry; keeps the wildcard shapes, whose indices key the
  // entries installed next.
  void DropEntries();
  void Clear(bool count_as_evictions);
  CachedFlow* Probe(const packet::Packet& p, std::uint64_t structure_sig);
  void Install(const packet::Packet& pristine, CachedFlow flow);

  PipelineResult ReplayCached(const CachedFlow& flow, packet::Packet& p,
                              SimTime now, ActionExecutor& executor);
  // Single implementation under both Process and ProcessBatch.
  PipelineResult ProcessOne(packet::Packet& p, SimTime now,
                            ActionExecutor& executor);
  PipelineResult ResolveAndCache(packet::Packet& p, SimTime now,
                                 ActionExecutor& executor,
                                 std::uint64_t structure_sig);

  std::vector<std::unique_ptr<MatchActionTable>> tables_;
  StateObjects state_;
  ParseGraph parser_ = MakeStandardParseGraph();

  std::uint64_t epoch_ = 0;  // bumped by tables_/parser_/structure mutations
  std::uint64_t cache_epoch_ = 0;  // the epoch cache_'s entries belong to
  bool flow_cache_enabled_ = true;

  CacheMap cache_;
  std::vector<MegaMask> masks_;
  // CLOCK ring: slot -> cache key; freed slots are reused.
  std::size_t cap_ = kFlowCacheDefaultCap;
  std::vector<std::uint64_t> slot_keys_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t hand_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t stale_reclaimed_ = 0;

  // Scratch reused across slow-path resolutions and probes.
  std::vector<ConsultedField> consulted_scratch_;
  std::vector<ConsultedField> mask_build_scratch_;
  std::vector<packet::FieldRef> parser_reads_scratch_;
  std::vector<MaskedValue> probe_scratch_;

  std::uint64_t batches_ = 0;
  PercentileTracker batch_sizes_;
};

}  // namespace flexnet::dataplane
