#include "dataplane/parser.h"

#include <string_view>

namespace flexnet::dataplane {

ParseGraph::ParseGraph() = default;

ParseGraph::ParseGraph(const ParseGraph& other)
    : states_(other.states_), start_(other.start_) {}

ParseGraph& ParseGraph::operator=(const ParseGraph& other) {
  if (this != &other) {
    states_ = other.states_;
    start_ = other.start_;
    Bump();  // the graph's content changed under any memoized verdicts
  }
  return *this;
}

Status ParseGraph::AddState(ParseState state) {
  if (states_.contains(state.name)) {
    return AlreadyExists("parse state '" + state.name + "'");
  }
  if (start_.empty()) start_ = state.name;
  states_.emplace(state.name, std::move(state));
  Bump();
  return OkStatus();
}

Status ParseGraph::RemoveState(const std::string& name) {
  if (states_.erase(name) == 0) {
    return NotFound("parse state '" + name + "'");
  }
  Bump();
  // Dangling transitions to the removed state become accepts; callers that
  // need stricter semantics rewire transitions before removal.
  for (auto& [_, st] : states_) {
    for (ParseTransition& t : st.transitions) {
      if (t.next_state == name) t.next_state.clear();
    }
  }
  if (start_ == name) start_.clear();
  return OkStatus();
}

bool ParseGraph::HasState(const std::string& name) const noexcept {
  return states_.contains(name);
}

const ParseState* ParseGraph::FindState(
    const std::string& name) const noexcept {
  const auto it = states_.find(name);
  return it == states_.end() ? nullptr : &it->second;
}

Status ParseGraph::SetStart(std::string state_name) {
  if (!states_.contains(state_name)) {
    return NotFound("parse state '" + state_name + "'");
  }
  start_ = std::move(state_name);
  Bump();
  return OkStatus();
}

Status ParseGraph::AddTransition(const std::string& from, std::uint64_t value,
                                 const std::string& to) {
  auto it = states_.find(from);
  if (it == states_.end()) return NotFound("parse state '" + from + "'");
  if (!to.empty() && !states_.contains(to)) {
    return NotFound("parse state '" + to + "'");
  }
  for (const ParseTransition& t : it->second.transitions) {
    if (!t.is_default && t.select_value == value) {
      return AlreadyExists("transition on value " + std::to_string(value));
    }
  }
  it->second.transitions.push_back(ParseTransition{value, to, false});
  Bump();
  return OkStatus();
}

Status ParseGraph::RemoveTransition(const std::string& from,
                                    std::uint64_t value) {
  auto it = states_.find(from);
  if (it == states_.end()) return NotFound("parse state '" + from + "'");
  auto& ts = it->second.transitions;
  for (auto t = ts.begin(); t != ts.end(); ++t) {
    if (!t->is_default && t->select_value == value) {
      ts.erase(t);
      Bump();
      return OkStatus();
    }
  }
  return NotFound("transition on value " + std::to_string(value));
}

std::size_t ParseGraph::RemoveTransitionsTo(const std::string& state) {
  std::size_t removed = 0;
  for (auto& [name, ps] : states_) {
    auto& ts = ps.transitions;
    for (auto t = ts.begin(); t != ts.end();) {
      if (t->next_state == state) {
        t = ts.erase(t);
        ++removed;
      } else {
        ++t;
      }
    }
  }
  if (removed > 0) Bump();
  return removed;
}

void ParseGraph::RebuildDense() const {
  dense_states_.clear();
  dense_edges_.clear();
  std::unordered_map<std::string_view, std::int32_t> index;
  index.reserve(states_.size());
  for (const auto& [name, _] : states_) {
    index.emplace(name, static_cast<std::int32_t>(index.size()));
  }
  const auto target = [&index](const std::string& name) {
    if (name.empty()) return kAccept;
    const auto it = index.find(name);
    return it == index.end() ? kReject : it->second;
  };
  dense_states_.resize(states_.size());
  for (const auto& [name, st] : states_) {
    DenseState& d = dense_states_[static_cast<std::size_t>(index.at(name))];
    d.header = packet::Intern(st.name);
    d.select = st.select_field.empty() ? packet::kInvalidSymbol
                                       : packet::Intern(st.select_field);
    d.edges_begin = static_cast<std::uint32_t>(dense_edges_.size());
    for (const ParseTransition& t : st.transitions) {
      if (t.is_default) {
        d.fallback = target(t.next_state);  // the last default wins
      } else {
        dense_edges_.push_back(DenseEdge{t.select_value, target(t.next_state)});
      }
    }
    d.edges_end = static_cast<std::uint32_t>(dense_edges_.size());
  }
  dense_start_ = start_.empty() ? kReject : target(start_);
  dense_stale_ = false;
}

ParseResult ParseGraph::Parse(
    const packet::Packet& p,
    std::vector<packet::FieldRef>* consulted) const {
  if (dense_stale_) RebuildDense();
  ParseResult result;
  std::int32_t current = dense_start_;
  // Cycle guard: every visited state needs its header in the stack, so a
  // walk that visits more states than there are headers has revisited a
  // state.  The walk is deterministic, so it would loop forever: reject.
  std::size_t steps_left = p.headers().size() + 1;
  while (current >= 0) {
    if (steps_left-- == 0) return result;
    const DenseState& st = dense_states_[static_cast<std::size_t>(current)];
    const packet::Header* h = p.FindHeader(st.header);
    if (h == nullptr) return result;  // expected header absent: reject
    result.headers_seen.push_back(st.header);
    if (st.select == packet::kInvalidSymbol) break;  // accept
    if (consulted != nullptr) {
      consulted->push_back(packet::FieldRef{st.header, st.select});
    }
    const auto sel = h->Get(st.select);
    if (!sel.has_value()) return result;
    // The first transition on the value wins; otherwise the default.
    current = st.fallback;
    for (std::uint32_t e = st.edges_begin; e < st.edges_end; ++e) {
      if (dense_edges_[e].value == *sel) {
        current = dense_edges_[e].next;
        break;
      }
    }
  }
  result.accepted = current != kReject;
  return result;
}

std::vector<std::string> ParseGraph::StateNames() const {
  std::vector<std::string> names;
  names.reserve(states_.size());
  for (const auto& [n, _] : states_) names.push_back(n);
  return names;
}

ParseGraph MakeStandardParseGraph() {
  ParseGraph g;
  ParseState eth;
  eth.name = "eth";
  eth.select_field = "type";
  (void)g.AddState(eth);

  ParseState vlan;
  vlan.name = "vlan";
  vlan.select_field = "id";
  // VLAN always continues to ipv4 via default transition.
  vlan.transitions.push_back(ParseTransition{0, "ipv4", true});
  (void)g.AddState(vlan);

  ParseState ipv4;
  ipv4.name = "ipv4";
  ipv4.select_field = "proto";
  (void)g.AddState(ipv4);

  ParseState tcp;
  tcp.name = "tcp";  // terminal
  (void)g.AddState(tcp);

  ParseState udp;
  udp.name = "udp";  // terminal
  (void)g.AddState(udp);

  (void)g.SetStart("eth");
  (void)g.AddTransition("eth", 0x0800, "ipv4");
  (void)g.AddTransition("eth", 0x8100, "vlan");
  (void)g.AddTransition("ipv4", 6, "tcp");
  (void)g.AddTransition("ipv4", 17, "udp");
  return g;
}

}  // namespace flexnet::dataplane
