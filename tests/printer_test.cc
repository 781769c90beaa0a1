#include <gtest/gtest.h>

#include "apps/congestion.h"
#include "apps/firewall.h"
#include "apps/heavy_hitter.h"
#include "apps/infra.h"
#include "apps/kvcache.h"
#include "apps/load_balancer.h"
#include "apps/nat.h"
#include "apps/synflood.h"
#include "apps/telemetry.h"
#include "common/rng.h"
#include "flexbpf/builder.h"
#include "flexbpf/printer.h"
#include "flexbpf/random_program.h"
#include "flexbpf/text_parser.h"
#include "flexbpf/verifier.h"

namespace flexnet::flexbpf {
namespace {

TEST(PrinterTest, PrintsMap) {
  MapDecl m;
  m.name = "counts";
  m.size = 64;
  m.cells = {"pkts", "bytes"};
  m.encoding = MapEncoding::kStatefulTable;
  EXPECT_EQ(PrintMap(m),
            "map counts size 64 cells pkts,bytes encoding stateful_table");
}

TEST(PrinterTest, PrintsHeaderRequirement) {
  HeaderRequirement req{"int", "ipv4", 0xFD};
  EXPECT_EQ(PrintHeaderRequirement(req), "header int after ipv4 value 253");
}

TEST(PrinterTest, FunctionLabelsEmittedAtTargets) {
  auto fn = FunctionBuilder("f")
                .Const(0, 1)
                .Const(1, 2)
                .BranchIf(CmpKind::kLt, 0, 1, "end")
                .Drop("x")
                .Label("end")
                .Return()
                .Build();
  const auto text = PrintFunction(fn.value());
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("goto L0"), std::string::npos);
  EXPECT_NE(text->find("label L0"), std::string::npos);
}

// The flagship property: every app program in the library round-trips
// through print -> parse with identical semantics-relevant structure.
struct RoundTripCase {
  std::string name;
  ProgramIR program;
};

// gtest prints the parameter into the test listing; print the name, never
// the struct's raw bytes (they hold heap pointers that change per run).
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

std::vector<RoundTripCase> RoundTripPrograms() {
  std::vector<RoundTripCase> cases;
  cases.push_back({"firewall", apps::MakeFirewallProgram()});
  cases.push_back({"syn_guard", apps::MakeSynGuardProgram(100)});
  cases.push_back({"syn_monitor", apps::MakeSynMonitorProgram()});
  cases.push_back({"heavy_hitter", apps::MakeHeavyHitterProgram()});
  cases.push_back({"lb", apps::MakeLoadBalancerProgram(9, {1, 2})});
  cases.push_back({"telemetry", apps::MakeTelemetryProgram()});
  cases.push_back({"kvcache", apps::MakeKvCacheProgram()});
  cases.push_back({"nat", apps::MakeNatProgram({{10, 99}})});
  cases.push_back({"infra", apps::MakeInfrastructureProgram()});
  return cases;
}

class RoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTripTest, PrintParseRoundTrip) {
  const ProgramIR& original = GetParam().program;
  const auto text = PrintProgramText(original);
  ASSERT_TRUE(text.ok()) << text.error().ToText();
  auto reparsed = ParseProgramText(*text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToText() << "\n" << *text;
  const ProgramIR& round = reparsed.value();

  EXPECT_EQ(round.name, original.name);
  ASSERT_EQ(round.maps.size(), original.maps.size());
  for (std::size_t i = 0; i < original.maps.size(); ++i) {
    EXPECT_EQ(round.maps[i], original.maps[i]) << "map " << i;
  }
  ASSERT_EQ(round.headers.size(), original.headers.size());
  for (std::size_t i = 0; i < original.headers.size(); ++i) {
    EXPECT_EQ(round.headers[i], original.headers[i]) << "header " << i;
  }
  ASSERT_EQ(round.tables.size(), original.tables.size());
  for (std::size_t i = 0; i < original.tables.size(); ++i) {
    const TableDecl& a = original.tables[i];
    const TableDecl& b = round.tables[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.key, a.key) << a.name;
    EXPECT_EQ(b.capacity, a.capacity);
    EXPECT_EQ(b.actions, a.actions) << a.name;
    EXPECT_EQ(b.entries, a.entries) << a.name;
    // Defaults: drop reasons are normalized by the DSL; compare the
    // drop/nop/named classification instead of exact ops.
    EXPECT_EQ(b.default_action.ops.empty(), a.default_action.ops.empty())
        << a.name;
  }
  ASSERT_EQ(round.functions.size(), original.functions.size());
  for (std::size_t i = 0; i < original.functions.size(); ++i) {
    EXPECT_EQ(round.functions[i], original.functions[i])
        << original.functions[i].name;
  }

  // And the reparsed program still verifies.
  Verifier v;
  ProgramIR verifiable = round;
  EXPECT_TRUE(v.Verify(verifiable).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, RoundTripTest, ::testing::ValuesIn(RoundTripPrograms()),
    [](const auto& info) { return info.param.name; });

// Property: fuzz-generator output round-trips through the text DSL
// structurally intact — every instruction kind, branch-lattice shape, and
// map declaration the generator can emit must print to something the
// parser reproduces exactly (and that still verifies).  This is what makes
// text-DSL fixtures from the differential fuzzer trustworthy repros.
TEST(PrinterRoundTrip, GeneratedProgramsRoundTripExactly) {
  Verifier verifier;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(0x9000 + seed);
    const ProgramIR original = RandomVerifiedProgramIR(rng);
    const auto text = PrintProgramText(original);
    ASSERT_TRUE(text.ok()) << "seed " << seed;
    auto reparsed = ParseProgramText(*text);
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.error().ToText() << "\n"
        << *text;
    const ProgramIR& round = reparsed.value();
    EXPECT_EQ(round.name, original.name) << "seed " << seed;
    ASSERT_EQ(round.maps.size(), original.maps.size()) << "seed " << seed;
    for (std::size_t i = 0; i < original.maps.size(); ++i) {
      EXPECT_EQ(round.maps[i], original.maps[i])
          << "seed " << seed << " map " << i;
    }
    ASSERT_EQ(round.functions.size(), original.functions.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < original.functions.size(); ++i) {
      EXPECT_EQ(round.functions[i], original.functions[i])
          << "seed " << seed << "\n" << *text;
    }
    ProgramIR verifiable = round;
    EXPECT_TRUE(verifier.Verify(verifiable).ok()) << "seed " << seed;
  }
}

TEST(PrinterTest, DoublePrintIsStable) {
  const ProgramIR program = apps::MakeFirewallProgram();
  const auto once = PrintProgramText(program);
  ASSERT_TRUE(once.ok());
  auto reparsed = ParseProgramText(*once);
  ASSERT_TRUE(reparsed.ok());
  const auto twice = PrintProgramText(reparsed.value());
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(*once, *twice);
}

}  // namespace
}  // namespace flexnet::flexbpf
