#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexbpf/builder.h"
#include "flexbpf/interp.h"
#include "flexbpf/ir.h"
#include "flexbpf/verifier.h"
#include "packet/packet.h"

namespace flexnet::flexbpf {
namespace {

std::vector<MapDecl> OneMap(const std::string& name = "m") {
  MapDecl m;
  m.name = name;
  m.size = 64;
  m.cells = {"v"};
  return {m};
}

packet::Packet TcpPkt(std::uint64_t src = 1, std::uint64_t dst = 2) {
  return packet::MakeTcpPacket(1, packet::Ipv4Spec{src, dst},
                               packet::TcpSpec{1000, 80});
}

// --- FunctionBuilder ---

TEST(BuilderTest, ResolvesForwardLabels) {
  auto fn = FunctionBuilder("f")
                .Const(0, 1)
                .Const(1, 2)
                .BranchIf(CmpKind::kLt, 0, 1, "end")
                .Drop()
                .Label("end")
                .Return()
                .Build();
  ASSERT_TRUE(fn.ok());
  const auto* branch = std::get_if<InstrBranch>(&fn->instrs[2]);
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->target, 4u);
}

TEST(BuilderTest, UnknownLabelFails) {
  auto fn = FunctionBuilder("f").Jump("nowhere").Return().Build();
  EXPECT_FALSE(fn.ok());
}

TEST(BuilderTest, BackwardLabelFails) {
  auto fn = FunctionBuilder("f")
                .Label("top")
                .Const(0, 1)
                .Jump("top")
                .Build();
  EXPECT_FALSE(fn.ok());
}

// --- Verifier ---

TEST(VerifierTest, AcceptsStraightLine) {
  Verifier v;
  auto built = FunctionBuilder("ok")
                   .Const(0, 5)
                   .StoreField("meta.x", 0)
                   .Return()
                   .Build();
  FunctionDecl fn = std::move(built).value();
  EXPECT_TRUE(v.VerifyFunction(fn, {}).ok());
}

TEST(VerifierTest, RejectsEmptyFunction) {
  Verifier v;
  FunctionDecl fn;
  fn.name = "empty";
  EXPECT_FALSE(v.VerifyFunction(fn, {}).ok());
}

TEST(VerifierTest, RejectsUseBeforeDef) {
  Verifier v;
  FunctionDecl fn;
  fn.name = "ubd";
  fn.instrs.push_back(InstrStoreField{"meta.x", 3});  // r3 never defined
  fn.instrs.push_back(InstrReturn{});
  const Status s = v.VerifyFunction(fn, {});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kVerificationFailed);
}

TEST(VerifierTest, RejectsBackwardBranch) {
  Verifier v;
  FunctionDecl fn;
  fn.name = "loop";
  fn.instrs.push_back(InstrLoadConst{0, 1});
  fn.instrs.push_back(InstrBranch{CmpKind::kEq, 0, 0, 1});  // target == own pc
  fn.instrs.push_back(InstrReturn{});
  EXPECT_FALSE(v.VerifyFunction(fn, {}).ok());
}

TEST(VerifierTest, RejectsRegisterOutOfRange) {
  Verifier v;
  FunctionDecl fn;
  fn.name = "bigreg";
  fn.instrs.push_back(InstrLoadConst{kNumRegisters, 1});
  fn.instrs.push_back(InstrReturn{});
  EXPECT_FALSE(v.VerifyFunction(fn, {}).ok());
}

TEST(VerifierTest, RejectsUndeclaredMap) {
  Verifier v;
  auto built = FunctionBuilder("maps")
                   .Const(0, 1)
                   .MapLoad(1, "ghost", 0, "v")
                   .Return()
                   .Build();
  FunctionDecl fn = std::move(built).value();
  EXPECT_FALSE(v.VerifyFunction(fn, {}).ok());
  EXPECT_TRUE(v.VerifyFunction(fn, OneMap("ghost")).ok());
}

TEST(VerifierTest, RejectsUnknownCell) {
  Verifier v;
  auto built = FunctionBuilder("cells")
                   .Const(0, 1)
                   .MapLoad(1, "m", 0, "nocell")
                   .Return()
                   .Build();
  FunctionDecl fn = std::move(built).value();
  EXPECT_FALSE(v.VerifyFunction(fn, OneMap()).ok());
}

TEST(VerifierTest, AnnotatesMapsUsed) {
  Verifier v;
  auto built = FunctionBuilder("annot")
                   .Const(0, 1)
                   .MapAdd("m", 0, "v", 0)
                   .Return()
                   .Build();
  FunctionDecl fn = std::move(built).value();
  ASSERT_TRUE(v.VerifyFunction(fn, OneMap()).ok());
  ASSERT_EQ(fn.maps_used.size(), 1u);
  EXPECT_EQ(fn.maps_used[0], "m");
}

TEST(VerifierTest, RejectsFallOffEnd) {
  Verifier v;
  FunctionDecl fn;
  fn.name = "fall";
  fn.instrs.push_back(InstrLoadConst{0, 1});  // no terminator after
  EXPECT_FALSE(v.VerifyFunction(fn, {}).ok());
}

TEST(VerifierTest, BranchJoinMeetsDefinedSets) {
  // r1 defined on only one path; use after join must fail.
  Verifier v;
  FunctionDecl fn;
  fn.name = "join";
  fn.instrs.push_back(InstrLoadConst{0, 1});                 // 0
  fn.instrs.push_back(InstrBranch{CmpKind::kEq, 0, 0, 3});   // 1 -> 3
  fn.instrs.push_back(InstrLoadConst{1, 7});                 // 2 (skipped path)
  fn.instrs.push_back(InstrStoreField{"meta.x", 1});         // 3: r1 maybe undef
  fn.instrs.push_back(InstrReturn{});                        // 4
  EXPECT_FALSE(v.VerifyFunction(fn, {}).ok());
}

TEST(VerifierTest, RejectsNonDottedField) {
  Verifier v;
  FunctionDecl fn;
  fn.name = "field";
  fn.instrs.push_back(InstrLoadField{0, "nodot"});
  fn.instrs.push_back(InstrReturn{});
  EXPECT_FALSE(v.VerifyFunction(fn, {}).ok());
}

TEST(VerifierTest, RejectsOversizedFunction) {
  Verifier v;
  FunctionDecl fn;
  fn.name = "huge";
  for (std::size_t i = 0; i <= kMaxInstructions; ++i) {
    fn.instrs.push_back(InstrLoadConst{0, i});
  }
  fn.instrs.push_back(InstrReturn{});
  EXPECT_FALSE(v.VerifyFunction(fn, {}).ok());
}

TEST(VerifierTest, ProgramLevelDuplicateNames) {
  Verifier v;
  ProgramIR program;
  program.name = "dup";
  MapDecl m;
  m.name = "x";
  m.cells = {"v"};
  program.maps.push_back(m);
  program.maps.push_back(m);
  EXPECT_FALSE(v.Verify(program).ok());
}

TEST(VerifierTest, ProgramLevelEntryValidation) {
  Verifier v;
  ProgramIR program;
  program.name = "entries";
  TableDecl t;
  t.name = "t";
  t.key = {{"ipv4.src", dataplane::MatchKind::kExact, 32}};
  InitialEntry e;
  e.match = {dataplane::MatchValue::Exact(1)};
  e.action_name = "ghost_action";
  t.entries.push_back(e);
  program.tables.push_back(t);
  EXPECT_FALSE(v.Verify(program).ok());
}

TEST(VerifierTest, ProgramStatsReported) {
  Verifier v;
  ProgramIR program;
  program.name = "stats";
  program.maps = OneMap();
  auto f1 = FunctionBuilder("f1").Const(0, 1).Return().Build();
  auto f2 = FunctionBuilder("f2").Const(0, 1).Const(1, 2).Return().Build();
  program.functions.push_back(std::move(f1).value());
  program.functions.push_back(std::move(f2).value());
  const auto stats = v.Verify(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->functions_checked, 2u);
  EXPECT_EQ(stats->max_function_length, 3u);
}

// --- Interpreter ---

TEST(InterpTest, ArithmeticAndFieldOps) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("math")
                   .Field(0, "ipv4.src")        // 1
                   .OpImm(BinOpKind::kMul, 1, 0, 10)
                   .OpImm(BinOpKind::kAdd, 1, 1, 5)
                   .StoreField("meta.out", 1)   // 15
                   .Return()
                   .Build();
  packet::Packet p = TcpPkt(1, 2);
  interp.Run(built.value(), p);
  EXPECT_EQ(p.GetMeta("out"), 15u);
}

TEST(InterpTest, BranchTaken) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("br")
                   .Field(0, "tcp.dport")
                   .Const(1, 80)
                   .BranchIf(CmpKind::kEq, 0, 1, "web")
                   .Const(2, 0)
                   .StoreField("meta.web", 2)
                   .Return()
                   .Label("web")
                   .Const(2, 1)
                   .StoreField("meta.web", 2)
                   .Return()
                   .Build();
  packet::Packet web = TcpPkt();
  interp.Run(built.value(), web);
  EXPECT_EQ(web.GetMeta("web"), 1u);
}

TEST(InterpTest, DropStopsExecution) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("drop")
                   .Drop("bad")
                   .Const(0, 1)
                   .StoreField("meta.after", 0)
                   .Return()
                   .Build();
  packet::Packet p = TcpPkt();
  const InterpResult r = interp.Run(built.value(), p);
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(r.drop_reason, "bad");
  EXPECT_TRUE(p.dropped());
  EXPECT_FALSE(p.GetMeta("after").has_value());
}

TEST(InterpTest, MapRoundTrip) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("maps")
                   .Const(0, 42)   // key
                   .Const(1, 7)
                   .MapStore("m", 0, "v", 1)
                   .MapLoad(2, "m", 0, "v")
                   .MapAdd("m", 0, "v", 2)     // v = 14
                   .MapLoad(3, "m", 0, "v")
                   .StoreField("meta.v", 3)
                   .Return()
                   .Build();
  packet::Packet p = TcpPkt();
  interp.Run(built.value(), p);
  EXPECT_EQ(p.GetMeta("v"), 14u);
  EXPECT_EQ(maps.Load("m", 42, "v"), 14u);
}

TEST(InterpTest, FlowKeyDeterministicPerFlow) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("fk")
                   .FlowKey(0)
                   .StoreField("meta.key", 0)
                   .Return()
                   .Build();
  packet::Packet a1 = TcpPkt(1, 2);
  packet::Packet a2 = TcpPkt(1, 2);
  packet::Packet b = TcpPkt(3, 4);
  interp.Run(built.value(), a1);
  interp.Run(built.value(), a2);
  interp.Run(built.value(), b);
  EXPECT_EQ(a1.GetMeta("key"), a2.GetMeta("key"));
  EXPECT_NE(a1.GetMeta("key"), b.GetMeta("key"));
}

TEST(InterpTest, ForwardSetsEgress) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("fwd").Const(0, 9).Forward(0).Return().Build();
  packet::Packet p = TcpPkt();
  const InterpResult r = interp.Run(built.value(), p);
  EXPECT_TRUE(r.forwarded);
  EXPECT_EQ(r.egress_port, 9u);
  EXPECT_EQ(p.egress_port, 9u);
}

TEST(InterpTest, ExecutionBoundedByProgramLength) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("bounded")
                   .Const(0, 1)
                   .Const(1, 2)
                   .Const(2, 3)
                   .Return()
                   .Build();
  packet::Packet p = TcpPkt();
  const InterpResult r = interp.Run(built.value(), p);
  EXPECT_LE(r.steps, built.value().instrs.size());
}

TEST(InterpTest, MissingFieldReadsZero) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("miss")
                   .Field(0, "vlan.id")  // absent header
                   .StoreField("meta.v", 0)
                   .Return()
                   .Build();
  packet::Packet p = TcpPkt();
  interp.Run(built.value(), p);
  EXPECT_EQ(p.GetMeta("v"), 0u);
}

// Shift semantics guard (shl/shr >= 64 returns 0, not UB).
TEST(InterpTest, OversizedShiftsAreZero) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("shift")
                   .Const(0, 0xff)
                   .OpImm(BinOpKind::kShl, 1, 0, 64)
                   .OpImm(BinOpKind::kShr, 2, 0, 70)
                   .StoreField("meta.l", 1)
                   .StoreField("meta.r", 2)
                   .Return()
                   .Build();
  packet::Packet p = TcpPkt();
  interp.Run(built.value(), p);
  EXPECT_EQ(p.GetMeta("l"), 0u);
  EXPECT_EQ(p.GetMeta("r"), 0u);
}

// Regression: a hand-built (unverified) program with register indices
// outside [0, kNumRegisters) — including negative ones — must not touch
// memory outside the register file.  Out-of-range reads yield 0, writes
// are dropped; under ASan this test also proves no stack smash.
TEST(InterpTest, OutOfRangeRegistersReadZeroAndDropWrites) {
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  FunctionDecl fn;
  fn.name = "hostile";
  fn.instrs = {
      InstrLoadConst{20, 7},                       // write past the file
      InstrLoadConst{-1, 9},                       // negative index
      InstrLoadConst{0, 5},                        // in range
      InstrBinOp{BinOpKind::kAdd, 3, 20, -1},      // r3 = 0 + 0
      InstrStoreField{"meta.sum", 3},
      InstrStoreField{"meta.big", 20},             // reads 0
      InstrBinOpImm{BinOpKind::kAdd, 100, 0, 1},   // dropped write
      InstrMapAdd{"m", 16, "v", 0},                // out-of-range key reg
      InstrBranch{CmpKind::kEq, 50, -3, 10},       // 0 == 0: taken
      InstrDrop{"unreached"},
      InstrForward{99},                            // port reads 0
      InstrReturn{},
  };
  packet::Packet p = TcpPkt();
  const InterpResult r = interp.Run(fn, p);
  EXPECT_FALSE(r.dropped);
  EXPECT_TRUE(r.forwarded);
  EXPECT_EQ(r.egress_port, 0u);
  EXPECT_EQ(p.GetMeta("sum"), 0u);
  EXPECT_EQ(p.GetMeta("big"), 0u);
  // The out-of-range key register read as 0, so the add landed on key 0
  // with r0's value — no wild addressing.
  EXPECT_EQ(maps.Load("m", 0, "v"), 5u);
}

// Parameterized: all binops compute the expected value.
struct BinOpCase {
  BinOpKind op;
  std::uint64_t a, b, expected;
};

// gtest names the case by its printed value; print the fields, never the
// struct's raw bytes (padding would make the name change per build).
void PrintTo(const BinOpCase& c, std::ostream* os) {
  *os << ToString(c.op) << '_' << c.a << '_' << c.b << '_' << c.expected;
}

class BinOpParamTest : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(BinOpParamTest, Computes) {
  const BinOpCase& c = GetParam();
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("binop")
                   .Const(0, c.a)
                   .Const(1, c.b)
                   .Op(c.op, 2, 0, 1)
                   .StoreField("meta.out", 2)
                   .Return()
                   .Build();
  packet::Packet p = TcpPkt();
  interp.Run(built.value(), p);
  EXPECT_EQ(p.GetMeta("out"), c.expected) << ToString(c.op);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, BinOpParamTest,
    ::testing::Values(BinOpCase{BinOpKind::kAdd, 7, 3, 10},
                      BinOpCase{BinOpKind::kSub, 7, 3, 4},
                      BinOpCase{BinOpKind::kMul, 7, 3, 21},
                      BinOpCase{BinOpKind::kAnd, 0b1100, 0b1010, 0b1000},
                      BinOpCase{BinOpKind::kOr, 0b1100, 0b1010, 0b1110},
                      BinOpCase{BinOpKind::kXor, 0b1100, 0b1010, 0b0110},
                      BinOpCase{BinOpKind::kShl, 1, 4, 16},
                      BinOpCase{BinOpKind::kShr, 16, 4, 1},
                      BinOpCase{BinOpKind::kMin, 7, 3, 3},
                      BinOpCase{BinOpKind::kMax, 7, 3, 7}));

// Parameterized: all comparisons behave.
struct CmpCase {
  CmpKind cmp;
  std::uint64_t a, b;
  bool taken;
};

void PrintTo(const CmpCase& c, std::ostream* os) {
  *os << ToString(c.cmp) << '_' << c.a << '_' << c.b << '_'
      << (c.taken ? "taken" : "not_taken");
}

class CmpParamTest : public ::testing::TestWithParam<CmpCase> {};

TEST_P(CmpParamTest, BranchDecision) {
  const CmpCase& c = GetParam();
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  auto built = FunctionBuilder("cmp")
                   .Const(0, c.a)
                   .Const(1, c.b)
                   .BranchIf(c.cmp, 0, 1, "taken")
                   .Const(2, 0)
                   .StoreField("meta.taken", 2)
                   .Return()
                   .Label("taken")
                   .Const(2, 1)
                   .StoreField("meta.taken", 2)
                   .Return()
                   .Build();
  packet::Packet p = TcpPkt();
  interp.Run(built.value(), p);
  EXPECT_EQ(p.GetMeta("taken"), c.taken ? 1u : 0u) << ToString(c.cmp);
}

INSTANTIATE_TEST_SUITE_P(
    AllCmps, CmpParamTest,
    ::testing::Values(CmpCase{CmpKind::kEq, 5, 5, true},
                      CmpCase{CmpKind::kEq, 5, 6, false},
                      CmpCase{CmpKind::kNe, 5, 6, true},
                      CmpCase{CmpKind::kNe, 5, 5, false},
                      CmpCase{CmpKind::kLt, 4, 5, true},
                      CmpCase{CmpKind::kLt, 5, 5, false},
                      CmpCase{CmpKind::kLe, 5, 5, true},
                      CmpCase{CmpKind::kLe, 6, 5, false},
                      CmpCase{CmpKind::kGt, 6, 5, true},
                      CmpCase{CmpKind::kGt, 5, 5, false},
                      CmpCase{CmpKind::kGe, 5, 5, true},
                      CmpCase{CmpKind::kGe, 4, 5, false}));

// Property: any verified builder-produced program terminates within
// instruction-count steps on arbitrary packets.
class TerminationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TerminationPropertyTest, VerifiedProgramsTerminate) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  // Generate a random straight-line + forward-branch program.
  FunctionBuilder fb("rand");
  const int body = 10 + static_cast<int>(rng.NextBounded(20));
  fb.Const(0, rng.NextU64());
  fb.Const(1, rng.NextU64());
  for (int i = 0; i < body; ++i) {
    switch (rng.NextBounded(4)) {
      case 0:
        fb.OpImm(BinOpKind::kAdd, 0, 0, rng.NextBounded(100));
        break;
      case 1:
        fb.Op(BinOpKind::kXor, 1, 0, 1);
        break;
      case 2:
        fb.Field(2, "ipv4.src");
        break;
      default:
        fb.StoreField("meta.x", 0);
        break;
    }
  }
  fb.Return();
  auto built = fb.Build();
  ASSERT_TRUE(built.ok());
  FunctionDecl fn = std::move(built).value();
  Verifier v;
  ASSERT_TRUE(v.VerifyFunction(fn, {}).ok());
  InMemoryMapBackend maps;
  Interpreter interp(&maps);
  packet::Packet p = TcpPkt(rng.NextU64(), rng.NextU64());
  const InterpResult r = interp.Run(fn, p);
  EXPECT_LE(r.steps, fn.instrs.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TerminationPropertyTest,
                         ::testing::Range(0, 20));

// Richer property: random programs with maps and forward branches either
// fail verification or run bounded with all map accesses legal.
class RandomProgramPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramPropertyTest, VerifyThenRunSafely) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  std::vector<MapDecl> maps = OneMap("m");
  FunctionBuilder fb("rand");
  fb.FlowKey(0).Const(1, rng.NextBounded(1000));
  const int blocks = 2 + static_cast<int>(rng.NextBounded(4));
  for (int b = 0; b < blocks; ++b) {
    const std::string label = "b" + std::to_string(b);
    fb.BranchIf(static_cast<CmpKind>(rng.NextBounded(6)), 0, 1, label);
    switch (rng.NextBounded(3)) {
      case 0:
        fb.MapAdd("m", 0, "v", 1);
        break;
      case 1:
        fb.MapLoad(2, "m", 0, "v").StoreField("meta.x", 2);
        break;
      default:
        fb.OpImm(BinOpKind::kXor, 1, 1, rng.NextU64());
        break;
    }
    fb.Label(label);
  }
  fb.Return();
  auto built = fb.Build();
  ASSERT_TRUE(built.ok());
  FunctionDecl fn = std::move(built).value();
  Verifier v;
  ASSERT_TRUE(v.VerifyFunction(fn, maps).ok());
  InMemoryMapBackend backend;
  Interpreter interp(&backend);
  for (int i = 0; i < 10; ++i) {
    packet::Packet p = TcpPkt(rng.NextU64() % 256, rng.NextU64() % 256);
    const InterpResult r = interp.Run(fn, p);
    EXPECT_LE(r.steps, fn.instrs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramPropertyTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace flexnet::flexbpf
