// Packet-model property test: random push/pop/set/get sequences on
// headers, fields and metadata, plus RecordHop, checked step by step
// against a string-keyed reference model.  The sequences run every inline
// array (header stack, a header's fields, metadata, hop trace) past its
// inline capacity, pop headers from the middle of the stack, and copy and
// move packets both inline and spilled, comparing contents and signatures
// across the copies.  Lookups of names never interned must read as absent
// without growing the interner.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "packet/packet.h"

namespace flexnet::packet {
namespace {

using NamedValue = std::pair<std::string, std::uint64_t>;

struct RefHeader {
  std::string name;
  std::vector<NamedValue> fields;
};

// The reference: everything by name, in plain vectors.
struct RefPacket {
  std::vector<RefHeader> headers;
  std::vector<NamedValue> meta;
  std::vector<HopRecord> hops;

  RefHeader* Find(const std::string& name) {
    for (RefHeader& h : headers) {
      if (h.name == name) return &h;
    }
    return nullptr;
  }
  static std::optional<std::uint64_t> Get(const std::vector<NamedValue>& kv,
                                          const std::string& name) {
    for (const auto& [n, v] : kv) {
      if (n == name) return v;
    }
    return std::nullopt;
  }
  static void Set(std::vector<NamedValue>& kv, const std::string& name,
                  std::uint64_t value) {
    for (auto& [n, v] : kv) {
      if (n == name) {
        v = value;
        return;
      }
    }
    kv.emplace_back(name, value);
  }
};

// Names this test owns; more of each than the inline capacities hold.
const std::vector<std::string>& HeaderNames() {
  static const std::vector<std::string> names = {
      "pp_h0", "pp_h1", "pp_h2", "pp_h3", "pp_h4", "pp_h5"};
  return names;
}
std::string FieldName(std::size_t i) { return "pp_f" + std::to_string(i); }
std::string MetaName(std::size_t i) { return "pp_m" + std::to_string(i); }
constexpr std::size_t kFieldNames = kInlineFields + 4;
constexpr std::size_t kMetaNames = kInlineMeta + 4;
constexpr std::size_t kMaxHeaders = kInlineHeaders + 4;
constexpr std::size_t kMaxHops = kInlineHops + 4;

void ExpectSame(const Packet& p, const RefPacket& ref, const std::string& where) {
  ASSERT_EQ(p.headers().size(), ref.headers.size()) << where;
  for (std::size_t i = 0; i < ref.headers.size(); ++i) {
    const Header& h = p.headers()[i];
    const RefHeader& r = ref.headers[i];
    EXPECT_EQ(h.name(), r.name) << where;
    ASSERT_EQ(h.fields().size(), r.fields.size()) << where;
    for (std::size_t f = 0; f < r.fields.size(); ++f) {
      EXPECT_EQ(SymbolName(h.fields()[f].sym), r.fields[f].first) << where;
      EXPECT_EQ(h.fields()[f].value, r.fields[f].second) << where;
    }
  }
  ASSERT_EQ(p.meta().size(), ref.meta.size()) << where;
  for (std::size_t i = 0; i < ref.meta.size(); ++i) {
    EXPECT_EQ(SymbolName(p.meta()[i].sym), ref.meta[i].first) << where;
    EXPECT_EQ(p.meta()[i].value, ref.meta[i].second) << where;
  }
  ASSERT_EQ(p.trace().size(), ref.hops.size()) << where;
  for (std::size_t i = 0; i < ref.hops.size(); ++i) {
    EXPECT_EQ(p.trace()[i].device, ref.hops[i].device) << where;
    EXPECT_EQ(p.trace()[i].program_version, ref.hops[i].program_version)
        << where;
    EXPECT_EQ(p.trace()[i].at, ref.hops[i].at) << where;
  }
}

// Which arrays of a packet live on the heap.
struct Spills {
  bool headers = false;
  bool fields = false;
  bool meta = false;
  bool hops = false;
};
Spills SpillsOf(const Packet& p) {
  Spills s;
  s.headers = p.headers().spilled();
  for (const Header& h : p.headers()) s.fields |= h.fields().spilled();
  s.meta = p.meta().spilled();
  s.hops = p.trace().spilled();
  return s;
}

TEST(PacketPropertyTest, RandomOpsMatchStringKeyedModel) {
  Spills seen_spilled;
  std::size_t middle_pops = 0;
  std::size_t inline_copies = 0;
  std::size_t spilled_copies = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    Packet p(seed);
    RefPacket ref;
    for (int step = 0; step < 160; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const std::string& hname =
          HeaderNames()[rng.NextBounded(HeaderNames().size())];
      const std::string fname = FieldName(rng.NextBounded(kFieldNames));
      const std::string mname = MetaName(rng.NextBounded(kMetaNames));
      const std::uint64_t value = rng.NextU64();
      const bool by_symbol = rng.NextBounded(2) == 0;
      switch (rng.NextBounded(9)) {
        case 0:
        case 1:  // push a header
          if (ref.headers.size() < kMaxHeaders) {
            if (by_symbol) {
              p.PushHeader(Intern(hname));
            } else {
              p.PushHeader(hname);
            }
            ref.headers.push_back(RefHeader{hname, {}});
          }
          break;
        case 2: {  // pop the outermost header with a name
          std::size_t at = ref.headers.size();
          for (std::size_t i = 0; i < ref.headers.size(); ++i) {
            if (ref.headers[i].name == hname) {
              at = i;
              break;
            }
          }
          const bool popped =
              by_symbol ? p.PopHeader(Intern(hname)) : p.PopHeader(hname);
          EXPECT_EQ(popped, at < ref.headers.size()) << where;
          if (at < ref.headers.size()) {
            if (at > 0 && at + 1 < ref.headers.size()) ++middle_pops;
            ref.headers.erase(ref.headers.begin() +
                              static_cast<std::ptrdiff_t>(at));
          }
          break;
        }
        case 3:
        case 4: {  // set a header field
          RefHeader* r = ref.Find(hname);
          const bool ok = by_symbol
                              ? p.SetField(FieldRef{Intern(hname),
                                                    Intern(fname)},
                                           value)
                              : p.SetField(hname + "." + fname, value);
          EXPECT_EQ(ok, r != nullptr) << where;
          if (r != nullptr) RefPacket::Set(r->fields, fname, value);
          break;
        }
        case 5: {  // read a header field
          RefHeader* r = ref.Find(hname);
          const auto want =
              r == nullptr ? std::nullopt : RefPacket::Get(r->fields, fname);
          EXPECT_EQ(p.GetField(hname + "." + fname), want) << where;
          EXPECT_EQ(p.GetField(InternFieldPath(hname + "." + fname)), want)
              << where;
          const Header* h = p.FindHeader(hname);
          ASSERT_EQ(h != nullptr, r != nullptr) << where;
          if (h != nullptr) {
            EXPECT_EQ(h->Get(fname), want) << where;
          }
          break;
        }
        case 6:  // set, then read, a meta key
          if (by_symbol) {
            p.SetMeta(Intern(mname), value);
          } else {
            p.SetField("meta." + mname, value);
          }
          RefPacket::Set(ref.meta, mname, value);
          EXPECT_EQ(p.GetMeta(mname), value) << where;
          EXPECT_EQ(p.GetMeta(Intern(mname)), value) << where;
          break;
        case 7:  // record a hop
          if (ref.hops.size() < kMaxHops) {
            const HopRecord hop{DeviceId(static_cast<std::uint32_t>(step)),
                                value % 7, static_cast<SimTime>(step)};
            p.RecordHop(hop.device, hop.program_version, hop.at);
            ref.hops.push_back(hop);
          }
          break;
        case 8:
          if (rng.NextBounded(8) == 0) {
            p.ClearMeta();
            ref.meta.clear();
          }
          break;
      }
      ExpectSame(p, ref, where);
      if (::testing::Test::HasFailure()) return;

      const Spills now = SpillsOf(p);
      seen_spilled.headers |= now.headers;
      seen_spilled.fields |= now.fields;
      seen_spilled.meta |= now.meta;
      seen_spilled.hops |= now.hops;

      if (step % 16 == 15) {
        const bool spilled = now.headers || now.fields || now.meta || now.hops;
        ++(spilled ? spilled_copies : inline_copies);
        const Packet copy = p;
        ExpectSame(copy, ref, where + " (copy)");
        EXPECT_EQ(copy.ContentSignature(), p.ContentSignature()) << where;
        EXPECT_EQ(copy.StructureSignature(), p.StructureSignature()) << where;
        Packet source = copy;
        const Packet moved = std::move(source);
        ExpectSame(moved, ref, where + " (move)");
        EXPECT_EQ(moved.ContentSignature(), p.ContentSignature()) << where;
        EXPECT_EQ(moved.StructureSignature(), p.StructureSignature()) << where;
        Packet assigned(999);
        assigned = moved;
        ExpectSame(assigned, ref, where + " (copy-assign)");
        Packet move_assigned(998);
        move_assigned.RecordHop(DeviceId(1), 1, 1);
        move_assigned = std::move(assigned);
        ExpectSame(move_assigned, ref, where + " (move-assign)");
        EXPECT_EQ(move_assigned.ContentSignature(), p.ContentSignature())
            << where;
      }
    }
  }
  EXPECT_TRUE(seen_spilled.headers);
  EXPECT_TRUE(seen_spilled.fields);
  EXPECT_TRUE(seen_spilled.meta);
  EXPECT_TRUE(seen_spilled.hops);
  EXPECT_GT(middle_pops, 0u);
  EXPECT_GT(inline_copies, 0u);
  EXPECT_GT(spilled_copies, 0u);
}

TEST(PacketPropertyTest, SignaturesSeparateOrderAndContent) {
  Packet a = MakeTcpPacket(1, Ipv4Spec{1, 2}, TcpSpec{3, 4});
  Packet b = a;
  EXPECT_EQ(a.ContentSignature(), b.ContentSignature());
  b.SetField("ipv4.ttl", 1);
  EXPECT_NE(a.ContentSignature(), b.ContentSignature());
  EXPECT_EQ(a.StructureSignature(), b.StructureSignature());
  b.PopHeader("ipv4");
  EXPECT_NE(a.StructureSignature(), b.StructureSignature());
}

TEST(PacketPropertyTest, NeverInternedNamesReadAbsentWithoutInterning) {
  Packet p = MakeTcpPacket(1, Ipv4Spec{1, 2}, TcpSpec{3, 4});
  p.SetMeta("pp_known_meta", 5);
  const std::vector<std::string> unknown = {
      "pp_never_interned_header", "pp_never_interned_field",
      "pp_never_interned_meta"};
  for (const std::string& name : unknown) {
    ASSERT_EQ(FindSymbol(name), kInvalidSymbol) << name;
  }
  EXPECT_FALSE(p.GetField("pp_never_interned_header.src").has_value());
  EXPECT_FALSE(p.GetField("ipv4.pp_never_interned_field").has_value());
  EXPECT_FALSE(p.GetField("meta.pp_never_interned_meta").has_value());
  EXPECT_FALSE(p.GetMeta("pp_never_interned_meta").has_value());
  EXPECT_EQ(p.FindHeader("pp_never_interned_header"), nullptr);
  EXPECT_FALSE(p.HasHeader("pp_never_interned_header"));
  EXPECT_FALSE(p.PopHeader("pp_never_interned_header"));
  EXPECT_FALSE(p.SetField("pp_never_interned_header.src", 1));
  const Header* ip = p.FindHeader("ipv4");
  ASSERT_NE(ip, nullptr);
  EXPECT_FALSE(ip->Get("pp_never_interned_field").has_value());
  EXPECT_FALSE(ip->Has("pp_never_interned_field"));
  for (const std::string& name : unknown) {
    EXPECT_EQ(FindSymbol(name), kInvalidSymbol) << name;
  }
  EXPECT_EQ(p.GetMeta("pp_known_meta"), 5u);
}

}  // namespace
}  // namespace flexnet::packet
