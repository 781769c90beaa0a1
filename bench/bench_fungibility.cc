// E3: resource fungibility per architecture (paper section 3.3).
//
// Workload: random program churn — programs of 1-4 tables with mixed
// exact/ternary keys and random capacities arrive; every third arrival an
// installed program is removed (fragmentation pressure).  Churn continues
// until the first placement failure.  We report programs placed and the
// utilization at failure per architecture: RMT (stage-bounded), RMT with
// live defrag, Tile (type+quantum bounded), dRMT (pooled), NIC (fully
// fungible bytes).
#include <benchmark/benchmark.h>

#include "arch/drmt.h"
#include "arch/endpoint.h"
#include "arch/rmt.h"
#include "arch/tile.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "compiler/compile.h"
#include "compiler/incremental.h"

using namespace flexnet;

namespace {

std::unique_ptr<arch::Device> MakeDevice(const std::string& kind) {
  // Capacities normalized to ~48k SRAM / 12k TCAM entries everywhere so
  // the comparison isolates *structure*, not size.
  if (kind == "rmt" || kind == "rmt+defrag") {
    arch::RmtConfig config;
    config.stages = 12;
    config.sram_per_stage = 4096;
    config.tcam_per_stage = 1024;
    config.actions_per_stage = 16;
    config.runtime_capable = kind == "rmt+defrag";
    return std::make_unique<arch::RmtDevice>(DeviceId(1), kind, config);
  }
  if (kind == "tile") {
    arch::TileConfig config;
    config.hash_tiles = 48;              // finer quanta, same totals
    config.entries_per_hash_tile = 1024;
    config.tcam_tiles = 24;
    config.entries_per_tcam_tile = 512;
    config.pem_elements = 192;
    return std::make_unique<arch::TileDevice>(DeviceId(1), kind, config);
  }
  if (kind == "drmt") {
    arch::DrmtConfig config;
    config.sram_pool = 12 * 4096;
    config.tcam_pool = 12 * 1024;
    config.action_pool = 192;
    return std::make_unique<arch::DrmtDevice>(DeviceId(1), kind, config);
  }
  arch::EndpointConfig config;
  config.memory_bytes = (12 * 4096) * 32 + (12 * 1024) * 64;
  return std::make_unique<arch::NicDevice>(DeviceId(1), kind, config);
}

flexbpf::ProgramIR RandomProgram(Rng& rng, int index) {
  flexbpf::ProgramIR p;
  p.name = "app" + std::to_string(index);
  const int tables = 1 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < tables; ++i) {
    flexbpf::TableDecl t;
    t.name = p.name + ".t" + std::to_string(i);
    const bool ternary = rng.NextBool(0.25);
    t.key = {{ternary ? "ipv4.src" : "eth.dst",
              ternary ? dataplane::MatchKind::kTernary
                      : dataplane::MatchKind::kExact,
              32}};
    t.capacity = ternary ? 128 + rng.NextBounded(512)
                         : 256 + rng.NextBounded(3072);
    p.tables.push_back(std::move(t));
  }
  return p;
}

struct ChurnOutcome {
  int programs_placed = 0;
  double utilization_at_failure = 0.0;
  int defrags = 0;
};

ChurnOutcome RunChurn(const std::string& kind, std::uint64_t seed) {
  Rng rng(seed);
  runtime::ManagedDevice device(MakeDevice(kind));
  std::vector<runtime::ManagedDevice*> slice = {&device};

  compiler::CompileOptions options;
  options.strategy = kind == "rmt+defrag"
                         ? compiler::PlacementStrategy::kFungibleGc
                         : compiler::PlacementStrategy::kFirstFit;
  compiler::Compiler compiler(options);

  struct Installed {
    flexbpf::ProgramIR program;
    compiler::CompiledProgram compiled;
  };
  std::vector<Installed> installed;
  ChurnOutcome outcome;
  for (int i = 0; i < 400; ++i) {
    // Departure pressure: every third step one random program leaves.
    if (i % 3 == 2 && !installed.empty()) {
      const std::size_t victim = rng.NextBounded(installed.size());
      const auto plans = compiler::ComputeDevicePlans(
          installed[victim].program, installed[victim].compiled, {}, {},
          slice);
      for (const auto& [_, plan] : plans.value()) (void)device.ApplyAll(plan);
      installed.erase(installed.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    }
    flexbpf::ProgramIR program = RandomProgram(rng, i);
    auto compiled = compiler.Compile(program, slice);
    if (!compiled.ok()) {
      outcome.utilization_at_failure = device.device().Utilization();
      return outcome;
    }
    for (const auto& [_, plan] : compiled->plans) {
      if (!device.ApplyAll(plan).ok()) {
        outcome.utilization_at_failure = device.device().Utilization();
        return outcome;
      }
    }
    if (compiled->iterations_used > 1) ++outcome.defrags;
    installed.push_back(Installed{std::move(program),
                                  std::move(compiled).value()});
    ++outcome.programs_placed;
  }
  outcome.utilization_at_failure = device.device().Utilization();
  return outcome;
}

void PrintExperiment() {
  bench::BenchRun run("fungibility");
  telemetry::MetricsRegistry& metrics = run.metrics();
  bench::PrintHeader(
      "E3 (bench_fungibility): achievable utilization under churn per "
      "architecture",
      "fungibility ordering: rmt (stage-bound) < tile (type+quantum) < "
      "drmt (pool) <= nic (bytes); live defrag lifts rmt");
  bench::PrintRow("%-12s %-16s %-22s %-8s", "arch", "programs_placed",
                  "utilization_at_fail", "defrags");
  for (const std::string kind : {"rmt", "rmt+defrag", "tile", "drmt", "nic"}) {
    RunningStats placed, util, defrags;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const ChurnOutcome outcome = RunChurn(kind, seed);
      placed.Add(outcome.programs_placed);
      util.Add(outcome.utilization_at_failure);
      defrags.Add(outcome.defrags);
    }
    const std::string prefix = "bench." + kind;
    metrics.Set(prefix + ".programs_placed_mean", placed.mean());
    metrics.Set(prefix + ".utilization_at_fail_mean", util.mean());
    metrics.Set(prefix + ".defrags_mean", defrags.mean());
    bench::PrintRow("%-12s %-16.1f %-22.2f %-8.1f", kind.c_str(),
                    placed.mean(), util.mean(), defrags.mean());
  }
  run.Finish();
}

void BM_ChurnDrmt(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunChurn("drmt", seed++).programs_placed);
  }
}
BENCHMARK(BM_ChurnDrmt)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
