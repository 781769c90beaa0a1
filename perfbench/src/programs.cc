#include "programs.h"

#include <string>
#include <utility>

#include "dataplane/action.h"
#include "flexbpf/builder.h"

namespace perfbench {

using flexnet::dataplane::Action;
using flexnet::dataplane::MatchKind;
using flexnet::dataplane::MatchValue;
using flexnet::flexbpf::FunctionBuilder;
using flexnet::flexbpf::InitialEntry;
using flexnet::flexbpf::ProgramBuilder;
using flexnet::flexbpf::ProgramIR;
using flexnet::flexbpf::TableDecl;

namespace {

Action Named(Action action, std::string name) {
  action.name = std::move(name);
  return action;
}

TableDecl Table(std::string name, std::vector<flexnet::dataplane::KeySpec> key,
                std::size_t capacity, Action action) {
  TableDecl t;
  t.name = std::move(name);
  t.key = std::move(key);
  t.capacity = capacity;
  t.actions.push_back(std::move(action));
  return t;
}

// 1024 exact routes over the /8; the fabric's server (10.0.0.2) is one.
TableDecl ExactRoute() {
  TableDecl t = Table("route", {{"ipv4.dst", MatchKind::kExact, 32}}, 1024,
                      Named(flexnet::dataplane::MakeForwardAction(1), "fwd"));
  for (std::uint64_t i = 0; i < 1024; ++i) {
    t.entries.push_back({{MatchValue::Exact(kDstBase + i)}, "fwd", 0});
  }
  return t;
}

}  // namespace

ProgramIR HeavyTailProgram() {
  ProgramBuilder b("heavytail");
  b.AddTable(ExactRoute());
  // One /20 class per 4096 sources: 256 entries tile the 2^20-flow span.
  TableDecl classes =
      Table("src_class", {{"ipv4.src", MatchKind::kLpm, 32}}, 256,
            Named(flexnet::dataplane::MakeNopAction(), "class"));
  for (std::uint64_t i = 0; i < kHeavyFlows / 4096; ++i) {
    classes.entries.push_back(
        {{MatchValue::Lpm(kHeavySrcBase + (i << 12), 20, 32)}, "class", 0});
  }
  b.AddTable(std::move(classes));
  TableDecl service =
      Table("service", {{"tcp.dport", MatchKind::kExact, 16}}, 4,
            Named(flexnet::dataplane::MakeNopAction(), "svc"));
  for (const std::uint64_t port : {80ULL, 443ULL}) {
    service.entries.push_back({{MatchValue::Exact(port)}, "svc", 0});
  }
  b.AddTable(std::move(service));
  b.AddMap("acct", 256, {"pkts", "bytes"});
  using flexnet::flexbpf::BinOpKind;
  auto fn = FunctionBuilder("account")
                .FlowKey(1)
                .OpImm(BinOpKind::kAnd, 2, 1, 255)
                .Const(3, 1)
                .MapAdd("acct", 2, "pkts", 3)
                .Const(6, 512)
                .MapLoad(5, "acct", 2, "bytes")  // load-add-store: kMapRmw
                .Op(BinOpKind::kAdd, 5, 5, 6)
                .MapStore("acct", 2, "bytes", 5)
                .Return()
                .Build();
  b.AddFunction(std::move(fn).value());
  return b.Build();
}

ProgramIR UniqueFlowProgram() {
  ProgramBuilder b("uniqueflow");
  b.AddTable(ExactRoute());
  TableDecl lpm = Table("route_lpm", {{"ipv4.dst", MatchKind::kLpm, 32}}, 1024,
                        Named(flexnet::dataplane::MakeForwardAction(2), "fwd"));
  for (std::uint64_t i = 0; i < 1024; ++i) {
    const std::uint32_t plen = 16 + static_cast<std::uint32_t>(i % 9);
    const std::uint64_t net = (kDstBase + (i << 8)) & (~0ULL << (32 - plen));
    lpm.entries.push_back({{MatchValue::Lpm(net, plen, 32)}, "fwd", 0});
  }
  b.AddTable(std::move(lpm));
  TableDecl acl = Table("acl",
                        {{"ipv4.src", MatchKind::kTernary, 32},
                         {"tcp.dport", MatchKind::kRange, 16}},
                        64, Named(flexnet::dataplane::MakeNopAction(), "permit"));
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t lo = (i * 97) % 1024;
    acl.entries.push_back({{MatchValue::Ternary(kUniqueSrcBase + i * 4099,
                                                0xffffffff),
                            MatchValue::Range(lo, lo + 63)},
                           "permit", static_cast<std::int32_t>(i % 8)});
  }
  b.AddTable(std::move(acl));
  return b.Build();
}

namespace {

TableDecl FleetAcl(std::string name, std::vector<std::uint64_t> denied) {
  TableDecl t = Table(std::move(name), {{"ipv4.src", MatchKind::kExact, 32}},
                      64, Named(flexnet::dataplane::MakeDropAction(), "deny"));
  // Denied sources are outside every address the traffic uses.
  for (const std::uint64_t src : denied) {
    t.entries.push_back({{MatchValue::Exact(src)}, "deny", 0});
  }
  return t;
}

ProgramIR FleetVersion(std::vector<std::uint64_t> denied, bool second_table,
                       std::uint64_t increment) {
  ProgramBuilder b("fleet");
  b.AddTable(FleetAcl("fleet.acl", std::move(denied)));
  if (second_table) b.AddTable(FleetAcl("fleet.acl2", {}));
  b.AddMap("fleet.stats", 128, {"pkts"});
  auto fn = FunctionBuilder("fleet.count")
                .FlowKey(0)
                .Const(1, increment)
                .MapAdd("fleet.stats", 0, "pkts", 1)
                .Return()
                .Build();
  b.AddFunction(std::move(fn).value());
  return b.Build();
}

}  // namespace

std::vector<ProgramIR> FleetVersions() {
  std::vector<ProgramIR> v;
  v.push_back(FleetVersion({}, false, 1));
  v.push_back(FleetVersion({0xdead0001, 0xdead0002}, true, 2));
  v.push_back(FleetVersion({0xdead0002, 0xdead0003}, false, 3));
  return v;
}

ProgramIR TenantExtension() {
  ProgramBuilder b("ext");
  b.AddMap("m", 64, {"v"});
  auto fn = FunctionBuilder("count")
                .FlowKey(0)
                .Const(1, 1)
                .MapAdd("m", 0, "v", 1)
                .Return()
                .Build();
  b.AddFunction(std::move(fn).value());
  return b.Build();
}

}  // namespace perfbench
