// perfbench: measures one workload and prints its raw measurements as one
// JSON object on stdout; perfbench/run.py turns them into the benchmark's
// metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0: sets the workload up repeatedly (timing each) and measures
// the last set-up for --seconds.  --trace 1: measures an untraced run for
// part of the budget, then replays exactly as many steps on a fresh traced
// set-up of the same seed, so both phases do the same program work.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up is repeated for at least kSetupSeconds (at least kMinSetups and
// at most kMaxSetups times) and its median reported: one set-up of a
// fabric takes milliseconds, so a single sample would only show the
// host's momentary speed, and the set-ups move between CPUs (RotateCpu)
// so their median is not one CPU's.
constexpr double kSetupSeconds = 3.0;
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 2000;
// Share of the budget the untraced phase of a traced run gets; the
// traced replay of the same steps takes several times longer.
constexpr double kTracedUntracedShare = 0.3;

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void PrintString(const std::string& s) {
  std::putchar('"');
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      std::putchar('\\');
      std::putchar(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      std::printf("\\u%04x", ch);
    } else {
      std::putchar(ch);
    }
  }
  std::putchar('"');
}

void PrintArray(const std::vector<double>& v) {
  std::putchar('[');
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) std::putchar(',');
    PrintNumber(v[i]);
  }
  std::putchar(']');
}

void PrintMap(const std::map<std::string, double>& m) {
  std::putchar('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) std::putchar(',');
    first = false;
    PrintString(k);
    std::putchar(':');
    PrintNumber(v);
  }
  std::putchar('}');
}

void PrintPhase(const Phase& ph) {
  std::printf("{\"steps\":%zu,\"wall_s\":", ph.steps);
  PrintNumber(ph.wall_s);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"step_ms\":",
              static_cast<unsigned long long>(ph.attempted),
              static_cast<unsigned long long>(ph.failed));
  PrintArray(ph.step_ms);
  std::printf(",\"rollout_ms\":");
  PrintArray(ph.rollout_ms);
  std::printf(",\"counts\":");
  PrintMap(ph.counts);
  std::printf(",\"layers\":");
  PrintMap(ph.layers);
  std::printf(",\"errors\":[");
  for (std::size_t i = 0; i < ph.errors.size(); ++i) {
    if (i > 0) std::putchar(',');
    PrintString(ph.errors[i]);
  }
  std::printf("]}");
}

std::unique_ptr<Workload> Make(const std::string& name, std::uint64_t seed,
                               bool traced) {
  if (name == "heavytail_fabric") return MakeFabric(FabricKind::kHeavyTail, seed, traced);
  if (name == "unique_flow_fabric") return MakeFabric(FabricKind::kUniqueFlow, seed, traced);
  if (name == "fleet_rollout") return MakeFleet(seed, traced);
  return nullptr;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!(seconds > 0) || (workload != "heavytail_fabric" &&
                         workload != "unique_flow_fabric" &&
                         workload != "fleet_rollout")) {
    std::fprintf(stderr, "perfbench: bad --workload or --seconds\n");
    return 2;
  }

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  const auto setups_start = Clock::now();
  do {
    w.reset();  // at most one set-up alive, so peak RSS is one set-up's
    RotateCpu();
    const auto t0 = Clock::now();
    w = Make(workload, seed, false);
    setup_s.push_back(NanosBetween(t0, Clock::now()) / 1e9);
  } while (!trace && static_cast<int>(setup_s.size()) < kMaxSetups &&
           (static_cast<int>(setup_s.size()) < kMinSetups ||
            NanosBetween(setups_start, Clock::now()) < kSetupSeconds * 1e9));
  const Phase untraced = w->Run(trace ? seconds * kTracedUntracedShare : seconds, 0);
  w.reset();

  std::printf("{\"workload\":");
  PrintString(workload);
  std::printf(",\"seed\":%llu,\"setup_s\":", static_cast<unsigned long long>(seed));
  PrintArray(setup_s);
  std::printf(",\"peak_rss_mb\":");
  PrintNumber(untraced.peak_rss_mb);
  std::printf(",\"untraced\":");
  PrintPhase(untraced);
  if (trace) {
    w = Make(workload, seed, true);
    const Phase traced = w->Run(0, untraced.steps);
    std::printf(",\"traced\":");
    PrintPhase(traced);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
