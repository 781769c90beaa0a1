#include <sched.h>
#include <sys/resource.h>

#include <algorithm>

#include "bench.h"
#include "runtime/managed_device.h"

namespace perfbench {

double Median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

namespace {

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  return cpus;
}

}  // namespace

void RotateCpu() {
  static const std::vector<int> cpus = AllowedCpus();
  static std::size_t next = 0;
  static Clock::time_point moved;  // the clock's epoch: the first call moves
  if (cpus.size() < 2 || NanosBetween(moved, Clock::now()) < kCpuDwellMs * 1e6) return;
  moved = Clock::now();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next], &one);
  next = (next + 1) % cpus.size();
  (void)sched_setaffinity(0, sizeof(one), &one);  // on failure, stay put
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void CountDataplane(const std::vector<flexnet::runtime::ManagedDevice*>& devices,
                    std::map<std::string, double>& counts) {
  double micro_h = 0, micro_m = 0, mega_h = 0, mega_m = 0, evictions = 0;
  double scanned = 0, indexed = 0, epochs = 0, runs = 0;
  for (const flexnet::runtime::ManagedDevice* d : devices) {
    const flexnet::dataplane::Pipeline& p = d->device().pipeline();
    micro_h += static_cast<double>(p.flow_cache_hits());
    micro_m += static_cast<double>(p.flow_cache_misses());
    mega_h += static_cast<double>(p.megaflow_hits());
    mega_m += static_cast<double>(p.megaflow_misses());
    evictions += static_cast<double>(p.flow_cache_evictions() + p.megaflow_evictions());
    for (const std::string& name : p.TableNames()) {
      scanned += static_cast<double>(p.FindTable(name)->lookups_scanned());
      indexed += static_cast<double>(p.FindTable(name)->lookups_indexed());
    }
    epochs += static_cast<double>(p.epoch());
    runs += static_cast<double>(d->compiled_runs() + d->interp_runs());
  }
  counts["dataplane.micro_hits"] = micro_h;
  counts["dataplane.micro_misses"] = micro_m;
  counts["dataplane.mega_hits"] = mega_h;
  counts["dataplane.mega_misses"] = mega_m;
  counts["dataplane.evictions"] = evictions;
  counts["dataplane.lookups_scanned"] = scanned;
  counts["dataplane.lookups_indexed"] = indexed;
  counts["dataplane.epochs"] = epochs;
  counts["flexbpf.runs"] = runs;
}

}  // namespace perfbench
