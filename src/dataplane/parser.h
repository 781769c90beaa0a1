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
  std::vector<std::string> headers_seen;
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
  // A packet whose outermost headers cannot be parsed is not accepted.
  // When `consulted` is non-null, every select field the walk read (or
  // tried to read) is appended — the megaflow tier's parser key component;
  // header *presence* is covered by Packet::StructureSignature.
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
  void Bump() noexcept {
    if (epoch_cell_ != nullptr) ++*epoch_cell_;
  }

  std::unordered_map<std::string, ParseState> states_;
  std::string start_;
  std::uint64_t* epoch_cell_ = nullptr;  // not owned; null when unbound
};

// Builds the canonical L2/L3/L4 graph: eth -> (vlan ->) ipv4 -> tcp|udp.
ParseGraph MakeStandardParseGraph();

}  // namespace flexnet::dataplane
