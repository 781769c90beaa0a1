// In-band per-packet telemetry: sampled postcards (INT-style).
//
// The chaos invariant checkers assert "every packet saw exactly one
// consistent program version" from aggregate counters and delivered hop
// traces; postcards make that claim *evidenced per packet*.  A postcard is
// the journey record of one sampled packet: per hop it stores the device,
// the program/config version applied there, the sim-time processing
// latency, whether the flow cache answered (slow path / megaflow) with
// the tables consulted, and the burst the packet rode;
// per card it stores the final fate (delivered, or dropped with reason).
//
// Sampling is flow-level and deterministic: a seeded hash of the flow key
// picks 1 in N flows, so every packet of a sampled flow is sampled, the
// sampled set is identical run-to-run for a fixed seed, and batched vs
// scalar execution of the same stream produce identical postcards.  The
// recorder is a bounded pool with drop-new semantics: once full, new
// cards are counted in postcards_dropped and earlier records are never
// overwritten (an overflow must not corrupt evidence already gathered).
//
// With sampling disabled the data path pays one null/branch check per
// hop — the fast path stays postcard-free.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace flexnet::telemetry {

class MetricsRegistry;

// What answered a hop's lookup: a full resolve or the megaflow cache.
enum class CacheTier : std::uint8_t { kSlowPath = 0, kMega = 1 };

const char* ToString(CacheTier tier) noexcept;

// One device visit of a sampled packet.
struct PostcardHop {
  std::uint64_t device = 0;          // DeviceId value
  std::uint64_t program_version = 0; // version applied at this hop
  SimTime at = 0;                    // sim time the device processed it
  SimDuration latency_ns = 0;        // modeled processing latency charged
  CacheTier tier = CacheTier::kSlowPath;
  std::uint32_t tables_consulted = 0;
  std::uint32_t batch_size = 0;      // members riding the same hop event
  bool dropped = false;              // this hop dropped the packet
  std::vector<std::string> tables;   // consulted table names, in order
};

struct Postcard {
  enum class Fate : std::uint8_t { kInFlight = 0, kDelivered = 1, kDropped = 2 };

  std::uint64_t id = 0;         // 1-based; 0 means "not sampled"
  std::uint64_t packet_id = 0;
  std::uint64_t flow_hash = 0;  // sampling key (5-tuple hash)
  SimTime injected_at = 0;
  SimTime finished_at = 0;
  Fate fate = Fate::kInFlight;
  std::string drop_reason;
  std::vector<PostcardHop> hops;

  // Deterministic serialization of the card's *journey identity*: hops
  // (device, version, time, latency, tier, tables) plus fate and timing.
  // Excludes the per-hop batch_size annotation — how many siblings shared
  // a simulator event is a transport artifact, not part of what happened
  // to this packet — so scalar, batch-of-1, and burst-32 execution of the
  // same stream yield byte-identical canonical texts.
  std::string CanonicalText() const;
};

const char* ToString(Postcard::Fate fate) noexcept;

// Bounded recorder of sampled postcards.  Single-threaded like the rest of
// the simulator; owned by a MetricsRegistry (one per bench/test scope) and
// attached to the data path (net::Network) by pointer.
class PostcardRecorder {
 public:
  struct Config {
    // Sample 1 in N flows; 0 disables sampling entirely (the default, so
    // a freshly constructed registry adds no data-path work).
    std::uint64_t sample_every_n = 0;
    std::size_t capacity = 16384;  // max cards retained (drop-new when full)
    std::uint64_t seed = 0x705c0a8dULL;
  };

  PostcardRecorder() = default;
  explicit PostcardRecorder(const Config& config) { Configure(config); }
  PostcardRecorder(const PostcardRecorder&) = delete;
  PostcardRecorder& operator=(const PostcardRecorder&) = delete;

  // Replaces the config and clears all recorded cards/counters.
  void Configure(const Config& config);
  const Config& config() const noexcept { return config_; }

  bool sampling_enabled() const noexcept {
    return config_.sample_every_n > 0;
  }

  // Deterministic flow-sampling decision: true for ~1/N of flow hashes,
  // the same ones on every run with the same (seed, N).
  bool ShouldSample(std::uint64_t flow_hash) const noexcept;

  // Opens a card for a sampled packet.  Returns its id, or 0 when the
  // pool is full (counted in dropped(); earlier cards are untouched).
  std::uint64_t Open(std::uint64_t packet_id, std::uint64_t flow_hash,
                     SimTime at);
  // Appends one hop; no-op for id 0 (unsampled / dropped at Open).
  void RecordHop(std::uint64_t id, PostcardHop hop);
  // Seals the card with its fate; no-op for id 0.
  void Finish(std::uint64_t id, Postcard::Fate fate, std::string drop_reason,
              SimTime at);

  const std::vector<Postcard>& cards() const noexcept { return cards_; }
  const Postcard* Find(std::uint64_t id) const noexcept;

  // Open() attempts / cards retained / attempts refused because full.
  std::uint64_t opened() const noexcept { return opened_; }
  std::size_t recorded() const noexcept { return cards_.size(); }
  std::uint64_t dropped() const noexcept {
    return opened_ - static_cast<std::uint64_t>(cards_.size());
  }
  std::uint64_t hops_recorded() const noexcept { return hops_; }
  std::size_t capacity() const noexcept { return config_.capacity; }

  // Drops all cards and counters; keeps the config.
  void Clear();

  // Snapshot counters into `registry`: postcards_{opened,recorded,dropped},
  // postcard_hops, and per-tier hop counts postcard_hops_{slow,mega}.
  void PublishMetrics(MetricsRegistry& registry) const;

  // JSON object (schema in docs/TRACING.md "Postcards"): config, counters,
  // and up to `max_cards` card records with their hop sequences.
  void AppendJson(std::string& out, std::size_t max_cards = 512) const;

 private:
  Config config_;
  std::vector<Postcard> cards_;
  std::uint64_t opened_ = 0;
  std::uint64_t hops_ = 0;
};

}  // namespace flexnet::telemetry
