// Programmable parse graph.
//
// Devices are protocol-oblivious: a packet's headers are only *visible* to
// the match/action pipeline if the device's parse graph accepts them.  The
// graph is a state machine — each state names a header and transitions on
// one of its fields — and states can be added/removed at runtime, which is
// exactly the "add and remove header types and protocols on-the-fly"
// capability of section 2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "packet/packet.h"

namespace flexnet::dataplane {

struct ParseTransition {
  std::uint64_t select_value = 0;  // value of the select field
  std::string next_state;          // "" == accept
  bool is_default = false;         // taken when no value matches
};

struct ParseState {
  std::string name;          // state name == header name it extracts
  std::string select_field;  // field of this header to branch on ("" = accept)
  std::vector<ParseTransition> transitions;
};

struct ParseResult {
  bool accepted = false;
  // The visible headers, outermost first, by header symbol; on a reject,
  // the states visited before it.
  packet::SmallVec<packet::Symbol, packet::kInlineHeaders + 1> headers_seen;
};

class ParseGraph {
 public:
  ParseGraph();
  // Copying transfers the graph's content but NOT its invalidation binding:
  // the destination keeps (and bumps) its own cell, so installing a new
  // graph into a Pipeline invalidates that pipeline's flow cache.
  ParseGraph(const ParseGraph& other);
  ParseGraph& operator=(const ParseGraph& other);

  // --- Runtime reconfiguration surface ---
  Status AddState(ParseState state);
  Status RemoveState(const std::string& name);
  bool HasState(const std::string& name) const noexcept;
  Status SetStart(std::string state_name);
  std::size_t state_count() const noexcept { return states_.size(); }

  // Wire `value` of `from`'s select field to `to`.
  Status AddTransition(const std::string& from, std::uint64_t value,
                       const std::string& to);
  Status RemoveTransition(const std::string& from, std::uint64_t value);
  // Erases every transition pointing at `state` (returns how many).  The
  // runtime uses this before RemoveState so retiring a header leaves no
  // dangling accept-edges behind — a retired device must be structurally
  // identical to one that never hosted the header.
  std::size_t RemoveTransitionsTo(const std::string& state);

  // Read-only view of one state (nullptr when absent) and of the start
  // state — the device-state fingerprint hashes the graph through these.
  const ParseState* FindState(const std::string& name) const noexcept;
  const std::string& start() const noexcept { return start_; }

  // --- Execution ---
  // Walks the graph against the packet's header stack.  Headers not visited
  // stay invisible to tables (ParseResult::headers_seen is the visible set).
  // A packet whose outermost headers cannot be parsed is not accepted, and
  // neither is one whose walk loops: each visited state needs its header
  // present, so a walk longer than the header stack has revisited a state
  // and would never end.
  // When `consulted` is non-null, every select field the walk read (or
  // tried to read) is appended — the megaflow tier's parser key component;
  // header *presence* is covered by Packet::StructureSignature.
  //
  // The walk runs over a dense copy of the graph (state indices, header and
  // select symbols, value -> state-index edges) that the first walk after a
  // mutation rebuilds, so it hashes no strings and allocates nothing.
  ParseResult Parse(const packet::Packet& p,
                    std::vector<packet::FieldRef>* consulted) const;
  ParseResult Parse(const packet::Packet& p) const { return Parse(p, nullptr); }

  // Convenience used by devices: true if the graph accepts the packet.
  bool Accepts(const packet::Packet& p) const { return Parse(p).accepted; }

  std::vector<std::string> StateNames() const;

  // The owning Pipeline points this at its epoch counter so parser
  // mutations invalidate memoized parse verdicts in the flow cache.
  void BindInvalidation(std::uint64_t* epoch_cell) noexcept {
    epoch_cell_ = epoch_cell;
  }

 private:
  // Dense walk table.  A transition target is a state index or one of the
  // two verdicts below; a dangling target (a name with no state) rejects.
  static constexpr std::int32_t kAccept = -1;
  static constexpr std::int32_t kReject = -2;
  struct DenseEdge {
    std::uint64_t value = 0;
    std::int32_t next = kReject;
  };
  struct DenseState {
    packet::Symbol header = packet::kInvalidSymbol;
    packet::Symbol select = packet::kInvalidSymbol;  // invalid: accept here
    std::uint32_t edges_begin = 0;
    std::uint32_t edges_end = 0;
    std::int32_t fallback = kReject;  // the last default transition
  };

  // Every mutation goes through here: the dense table is stale and the
  // owning pipeline's memoized verdicts are too.
  void Bump() noexcept {
    dense_stale_ = true;
    if (epoch_cell_ != nullptr) ++*epoch_cell_;
  }
  void RebuildDense() const;

  std::unordered_map<std::string, ParseState> states_;
  std::string start_;
  std::uint64_t* epoch_cell_ = nullptr;  // not owned; null when unbound

  // Rebuilt by the first walk after a mutation (walks are single-threaded,
  // like the rest of the simulated data plane).
  mutable bool dense_stale_ = true;
  mutable std::int32_t dense_start_ = kReject;
  mutable std::vector<DenseState> dense_states_;
  mutable std::vector<DenseEdge> dense_edges_;
};

// Builds the canonical L2/L3/L4 graph: eth -> (vlan ->) ipv4 -> tcp|udp.
ParseGraph MakeStandardParseGraph();

}  // namespace flexnet::dataplane
