#include "telemetry/postcard.h"

#include <algorithm>
#include <cstdio>

#include "telemetry/telemetry.h"

namespace flexnet::telemetry {

const char* ToString(CacheTier tier) noexcept {
  switch (tier) {
    case CacheTier::kSlowPath:
      return "slow_path";
    case CacheTier::kMega:
      return "mega";
  }
  return "unknown";
}

const char* ToString(Postcard::Fate fate) noexcept {
  switch (fate) {
    case Postcard::Fate::kInFlight:
      return "in_flight";
    case Postcard::Fate::kDelivered:
      return "delivered";
    case Postcard::Fate::kDropped:
      return "dropped";
  }
  return "unknown";
}

std::string Postcard::CanonicalText() const {
  std::string out;
  out.reserve(96 + hops.size() * 64);
  out += "packet=" + std::to_string(packet_id);
  out += " flow=" + std::to_string(flow_hash);
  out += " injected_at=" + std::to_string(injected_at);
  out += " fate=";
  out += ToString(fate);
  if (!drop_reason.empty()) out += "(" + drop_reason + ")";
  out += " finished_at=" + std::to_string(finished_at);
  for (const PostcardHop& hop : hops) {
    out += "\n  hop device=" + std::to_string(hop.device);
    out += " version=" + std::to_string(hop.program_version);
    out += " at=" + std::to_string(hop.at);
    out += " latency=" + std::to_string(hop.latency_ns);
    out += " tier=";
    out += ToString(hop.tier);
    out += " tables=" + std::to_string(hop.tables_consulted);
    if (!hop.tables.empty()) {
      out += "[";
      for (std::size_t i = 0; i < hop.tables.size(); ++i) {
        if (i > 0) out += ",";
        out += hop.tables[i];
      }
      out += "]";
    }
    if (hop.dropped) out += " dropped";
  }
  return out;
}

void PostcardRecorder::Configure(const Config& config) {
  config_ = config;
  config_.capacity = std::max<std::size_t>(1, config_.capacity);
  Clear();
}

bool PostcardRecorder::ShouldSample(std::uint64_t flow_hash) const noexcept {
  const std::uint64_t n = config_.sample_every_n;
  if (n == 0) return false;
  if (n == 1) return true;
  // splitmix64 finalizer over (flow_hash ^ seed): the flow hash already
  // mixes the 5-tuple, but re-mixing with the seed decorrelates the sampled
  // set from any structure in the hash (and makes the choice seed-keyed).
  std::uint64_t x = flow_hash ^ config_.seed;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x % n == 0;
}

std::uint64_t PostcardRecorder::Open(std::uint64_t packet_id,
                                     std::uint64_t flow_hash, SimTime at) {
  if (!sampling_enabled()) return 0;  // disabled recorder is inert
  ++opened_;
  if (cards_.size() >= config_.capacity) return 0;  // drop-new
  Postcard card;
  card.id = cards_.size() + 1;
  card.packet_id = packet_id;
  card.flow_hash = flow_hash;
  card.injected_at = at;
  cards_.push_back(std::move(card));
  return cards_.back().id;
}

void PostcardRecorder::RecordHop(std::uint64_t id, PostcardHop hop) {
  if (id == 0 || id > cards_.size()) return;
  cards_[id - 1].hops.push_back(std::move(hop));
  ++hops_;
}

void PostcardRecorder::Finish(std::uint64_t id, Postcard::Fate fate,
                              std::string drop_reason, SimTime at) {
  if (id == 0 || id > cards_.size()) return;
  Postcard& card = cards_[id - 1];
  card.fate = fate;
  card.drop_reason = std::move(drop_reason);
  card.finished_at = at;
}

const Postcard* PostcardRecorder::Find(std::uint64_t id) const noexcept {
  if (id == 0 || id > cards_.size()) return nullptr;
  return &cards_[id - 1];
}

void PostcardRecorder::Clear() {
  cards_.clear();
  opened_ = 0;
  hops_ = 0;
}

void PostcardRecorder::PublishMetrics(MetricsRegistry& registry) const {
  registry.CounterNamed("postcards_opened").Increment(opened_);
  registry.CounterNamed("postcards_recorded").Increment(cards_.size());
  registry.CounterNamed("postcards_dropped").Increment(dropped());
  registry.CounterNamed("postcard_hops").Increment(hops_);
  std::uint64_t mega = 0;
  std::uint64_t slow = 0;
  for (const Postcard& card : cards_) {
    for (const PostcardHop& hop : card.hops) {
      ++(hop.tier == CacheTier::kMega ? mega : slow);
    }
  }
  registry.CounterNamed("postcard_hops_slow").Increment(slow);
  registry.CounterNamed("postcard_hops_mega").Increment(mega);
}

namespace {

void AppendQuoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void PostcardRecorder::AppendJson(std::string& out,
                                  std::size_t max_cards) const {
  out += "{\n    \"sample_every_n\": " +
         std::to_string(config_.sample_every_n);
  out += ",\n    \"capacity\": " + std::to_string(config_.capacity);
  out += ",\n    \"seed\": " + std::to_string(config_.seed);
  out += ",\n    \"opened\": " + std::to_string(opened_);
  out += ",\n    \"recorded\": " + std::to_string(cards_.size());
  out += ",\n    \"dropped\": " + std::to_string(dropped());
  out += ",\n    \"hops\": " + std::to_string(hops_);
  const std::size_t emit = std::min(cards_.size(), max_cards);
  out += ",\n    \"cards_emitted\": " + std::to_string(emit);
  out += ",\n    \"cards\": [";
  for (std::size_t i = 0; i < emit; ++i) {
    const Postcard& card = cards_[i];
    out += i == 0 ? "\n      " : ",\n      ";
    out += "{\"id\": " + std::to_string(card.id);
    out += ", \"packet_id\": " + std::to_string(card.packet_id);
    out += ", \"flow_hash\": " + std::to_string(card.flow_hash);
    out += ", \"injected_at\": " + std::to_string(card.injected_at);
    out += ", \"finished_at\": " + std::to_string(card.finished_at);
    out += ", \"fate\": ";
    AppendQuoted(out, ToString(card.fate));
    out += ", \"drop_reason\": ";
    AppendQuoted(out, card.drop_reason);
    out += ", \"hops\": [";
    for (std::size_t h = 0; h < card.hops.size(); ++h) {
      const PostcardHop& hop = card.hops[h];
      if (h > 0) out += ", ";
      out += "{\"device\": " + std::to_string(hop.device);
      out += ", \"version\": " + std::to_string(hop.program_version);
      out += ", \"at_ns\": " + std::to_string(hop.at);
      out += ", \"latency_ns\": " + std::to_string(hop.latency_ns);
      out += ", \"tier\": ";
      AppendQuoted(out, ToString(hop.tier));
      out += ", \"tables_consulted\": " +
             std::to_string(hop.tables_consulted);
      out += ", \"batch_size\": " + std::to_string(hop.batch_size);
      out += ", \"dropped\": ";
      out += hop.dropped ? "true" : "false";
      out += ", \"tables\": [";
      for (std::size_t t = 0; t < hop.tables.size(); ++t) {
        if (t > 0) out += ", ";
        AppendQuoted(out, hop.tables[t]);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += emit == 0 ? "]" : "\n    ]";
  out += "\n  }";
}

}  // namespace flexnet::telemetry
