// Parser oracle: ParseGraph's dense-id walk checked against the
// string-keyed walk it replaced, kept here as a test-only reference (with
// the cycle guard rejecting, as the dense walk does).  Random graphs are
// built and then mutated through AddState, RemoveState, SetStart,
// AddTransition, RemoveTransition and RemoveTransitionsTo — with default
// edges, edges to states that do not exist, and loops — and random header
// stacks are parsed between mutations, so every walk also exercises the
// lazy rebuild of the dense table.  Both walks must agree on the verdict,
// the consulted select fields and the visible header order.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataplane/parser.h"
#include "dataplane/pipeline.h"
#include "packet/packet.h"

namespace flexnet::dataplane {
namespace {

struct ReferenceResult {
  bool accepted = false;
  std::vector<std::string> headers_seen;
  std::vector<packet::FieldRef> consulted;
};

// The string walk: states found by name, headers and select fields looked
// up by name, state names copied into headers_seen.
ReferenceResult ReferenceParse(const ParseGraph& g, const packet::Packet& p) {
  ReferenceResult result;
  if (g.start().empty()) return result;
  std::string current = g.start();
  std::size_t steps = 0;
  const std::size_t max_steps = p.headers().size() + 1;
  while (!current.empty()) {
    if (steps++ == max_steps) return result;  // the walk loops: reject
    const ParseState* st = g.FindState(current);
    if (st == nullptr) return result;  // dangling: reject
    const packet::Header* h = p.FindHeader(st->name);
    if (h == nullptr) return result;  // expected header absent: reject
    result.headers_seen.push_back(st->name);
    if (st->select_field.empty()) break;  // accept
    result.consulted.push_back(
        packet::FieldRef{h->name_sym(), packet::Intern(st->select_field)});
    const auto sel = h->Get(st->select_field);
    if (!sel.has_value()) return result;
    const ParseTransition* chosen = nullptr;
    const ParseTransition* fallback = nullptr;
    for (const ParseTransition& t : st->transitions) {
      if (t.is_default) {
        fallback = &t;
      } else if (t.select_value == *sel) {
        chosen = &t;
        break;
      }
    }
    if (chosen == nullptr) chosen = fallback;
    if (chosen == nullptr) return result;  // no transition: reject
    current = chosen->next_state;
  }
  result.accepted = true;
  return result;
}

// Header names of the random graphs; "po_gone" never gets a state, so
// edges to it dangle.
const std::vector<std::string>& Names() {
  static const std::vector<std::string> names = {"po_a", "po_b", "po_c",
                                                 "po_d", "po_e"};
  return names;
}
const std::vector<std::string>& Selects() {
  static const std::vector<std::string> selects = {"", "po_x", "po_y"};
  return selects;
}

std::string RandomTarget(Rng& rng) {
  const std::uint64_t r = rng.NextBounded(8);
  if (r == 0) return "";         // accept
  if (r == 1) return "po_gone";  // dangling
  return Names()[rng.NextBounded(Names().size())];
}

ParseState RandomState(Rng& rng, const std::string& name) {
  ParseState st;
  st.name = name;
  st.select_field = Selects()[rng.NextBounded(Selects().size())];
  const std::uint64_t edges = rng.NextBounded(4);
  for (std::uint64_t i = 0; i < edges; ++i) {
    // Inline transitions skip AddTransition's checks: duplicate values,
    // several defaults and unknown targets all get through.
    st.transitions.push_back(ParseTransition{
        rng.NextBounded(4), RandomTarget(rng), rng.NextBounded(4) == 0});
  }
  return st;
}

void Mutate(ParseGraph& g, Rng& rng) {
  const std::string& name = Names()[rng.NextBounded(Names().size())];
  switch (rng.NextBounded(6)) {
    case 0:
      (void)g.AddState(RandomState(rng, name));
      break;
    case 1:
      (void)g.RemoveState(name);
      break;
    case 2:
      (void)g.SetStart(name);
      break;
    case 3:
      (void)g.AddTransition(name, rng.NextBounded(4), RandomTarget(rng));
      break;
    case 4:
      (void)g.RemoveTransition(name, rng.NextBounded(4));
      break;
    case 5:
      (void)g.RemoveTransitionsTo(name);
      break;
  }
}

packet::Packet RandomPacket(Rng& rng, std::uint64_t id) {
  packet::Packet p(id);
  const std::uint64_t depth = rng.NextBounded(6);
  for (std::uint64_t i = 0; i < depth; ++i) {
    packet::Header& h = p.PushHeader(Names()[rng.NextBounded(Names().size())]);
    for (const char* field : {"po_x", "po_y"}) {
      if (rng.NextBounded(4) != 0) h.Set(field, rng.NextBounded(4));
    }
  }
  return p;
}

void ExpectAgree(const ParseGraph& g, const packet::Packet& p,
                 const std::string& where, std::size_t& loops,
                 std::size_t& accepted) {
  const ReferenceResult want = ReferenceParse(g, p);
  std::vector<packet::FieldRef> consulted;
  const ParseResult got = g.Parse(p, &consulted);
  EXPECT_EQ(got.accepted, want.accepted) << where;
  EXPECT_EQ(g.Accepts(p), want.accepted) << where;
  std::vector<std::string> seen;
  for (const packet::Symbol sym : got.headers_seen) {
    seen.push_back(packet::SymbolName(sym));
  }
  EXPECT_EQ(seen, want.headers_seen) << where;
  EXPECT_EQ(consulted, want.consulted) << where;
  if (!want.accepted && want.headers_seen.size() == p.headers().size() + 1) {
    ++loops;
  }
  if (want.accepted) ++accepted;
}

TEST(ParserOracleTest, DenseWalkMatchesStringWalkOnRandomGraphs) {
  std::size_t loops = 0;
  std::size_t accepted = 0;
  std::size_t walks = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    ParseGraph g;
    for (const std::string& name : Names()) {
      if (rng.NextBounded(3) != 0) (void)g.AddState(RandomState(rng, name));
    }
    for (int round = 0; round < 30; ++round) {
      for (int i = 0; i < 8; ++i) {
        const packet::Packet p = RandomPacket(rng, ++walks);
        ExpectAgree(g, p,
                    "seed " + std::to_string(seed) + " round " +
                        std::to_string(round),
                    loops, accepted);
      }
      // A copy starts with no dense table of its own.
      if (round % 10 == 0) {
        const ParseGraph copy = g;
        const packet::Packet p = RandomPacket(rng, ++walks);
        ExpectAgree(copy, p, "copy, seed " + std::to_string(seed), loops,
                    accepted);
      }
      if (::testing::Test::HasFailure()) return;
      Mutate(g, rng);
    }
  }
  // The random graphs reach every verdict, loops included.
  EXPECT_GT(loops, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, walks);
}

TEST(ParserOracleTest, StandardGraphAgreesOnStandardPackets) {
  const ParseGraph g = MakeStandardParseGraph();
  std::size_t loops = 0;
  std::size_t accepted = 0;
  packet::Packet vlan(3);
  packet::AddEthernet(vlan, packet::EthernetSpec{0, 0, 0x8100});
  packet::AddVlan(vlan, 7);
  packet::AddIpv4(vlan, packet::Ipv4Spec{1, 2, 17});
  packet::AddUdp(vlan, packet::UdpSpec{});
  for (const packet::Packet& p :
       {packet::MakeTcpPacket(1, packet::Ipv4Spec{1, 2}, packet::TcpSpec{}),
        packet::MakeUdpPacket(2, packet::Ipv4Spec{1, 2}, packet::UdpSpec{}),
        vlan}) {
    ExpectAgree(g, p, "standard", loops, accepted);
  }
  EXPECT_EQ(accepted, 3u);
}

}  // namespace
}  // namespace flexnet::dataplane
