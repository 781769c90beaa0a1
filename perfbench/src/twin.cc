#include "twin.h"

#include <algorithm>
#include <utility>

#include "arch/drmt.h"
#include "arch/endpoint.h"
#include "compiler/incremental.h"
#include "compiler/plan_cache.h"
#include "flexbpf/verifier.h"

namespace perfbench {

using flexnet::arch::ArchKind;
using flexnet::runtime::ManagedDevice;

void LayerTimes::Export(std::map<std::string, double>& out) {
  const auto put = [&out](const std::string& name, const Acc& a) {
    out[name + ".ns"] = a.ns;
    out[name + ".n"] = static_cast<double>(a.n);
  };
  put("build", build);
  put("burst_event", burst_event);
  static const char* kKinds[] = {"rmt", "drmt", "tile", "nic", "host"};
  for (std::size_t k = 0; k < device.size(); ++k) {
    put(std::string("device.") + kKinds[k], device[k]);
  }
  put("pipeline", pipeline);
  put("parse", parse);
  put("match", match);
  put("fn_run", fn_run);
  put("program_fp", program_fp);
  put("device_fp", device_fp);
  put("plan_key", plan_key);
  put("verify", verify);
  put("diff", diff);
  put("class_plan", class_plan);
  put("apply_step", apply_step);
  put("twin_reconfig", twin_reconfig);
  out["add_function_steps"] = static_cast<double>(add_function_steps);
  out["micro.p50_ns"] = Median(micro_ns);
  out["mega.p50_ns"] = Median(mega_ns);
  out["slow.p50_ns"] = Median(slow_ns);
}

std::unique_ptr<flexnet::arch::Device> TwinOf(const flexnet::arch::Device& d) {
  switch (d.arch()) {
    case ArchKind::kHost:
      return std::make_unique<flexnet::arch::HostDevice>(d.id(), "twin");
    case ArchKind::kNic:
      return std::make_unique<flexnet::arch::NicDevice>(d.id(), "twin");
    default:
      return std::make_unique<flexnet::arch::DrmtDevice>(d.id(), "twin");
  }
}

namespace {

std::unique_ptr<ManagedDevice> SwitchTwin(flexnet::DeviceId id) {
  return std::make_unique<ManagedDevice>(
      std::make_unique<flexnet::arch::DrmtDevice>(id, "twin"));
}

}  // namespace

TwinPath::TwinPath(std::vector<std::unique_ptr<flexnet::arch::Device>> hops,
                   std::size_t switch_hop)
    : switch_hop_(switch_hop) {
  for (auto& d : hops) hops_.push_back(std::make_unique<ManagedDevice>(std::move(d)));
  const flexnet::DeviceId id = hops_.at(switch_hop_)->id();
  pipe_ = SwitchTwin(id);
  tier_ = SwitchTwin(id);
  fn_ = SwitchTwin(id);
}

void TwinPath::ApplyPlan(ManagedDevice& dev,
                         const flexnet::runtime::ReconfigPlan& plan) {
  for (const flexnet::runtime::ReconfigStep& step : plan.steps) {
    const auto t0 = Clock::now();
    const flexnet::Status status = dev.ApplyStep(step);
    times_.apply_step.Add(NanosBetween(t0, Clock::now()));
    if (status.ok() &&
        std::holds_alternative<flexnet::runtime::StepAddFunction>(step)) {
      ++times_.add_function_steps;
    }
  }
}

void TwinPath::Reconfigure(const flexnet::flexbpf::ProgramIR& before,
                           const flexnet::flexbpf::ProgramIR& after,
                           ArchKind kind) {
  ManagedDevice* first = nullptr;
  for (auto& h : hops_) {
    if (h->device().arch() == kind) {
      first = h.get();
      break;
    }
  }
  if (first == nullptr) return;

  auto t0 = Clock::now();
  (void)flexnet::compiler::FingerprintProgram(before);
  times_.program_fp.Add(NanosBetween(t0, Clock::now()));
  t0 = Clock::now();
  (void)flexnet::compiler::FingerprintProgram(after);
  times_.program_fp.Add(NanosBetween(t0, Clock::now()));
  t0 = Clock::now();
  (void)flexnet::compiler::FingerprintDevice(*first);
  times_.device_fp.Add(NanosBetween(t0, Clock::now()));
  t0 = Clock::now();
  (void)flexnet::compiler::MakePlanKey(before, after, *first);
  times_.plan_key.Add(NanosBetween(t0, Clock::now()));
  flexnet::flexbpf::ProgramIR verified = after;
  t0 = Clock::now();
  (void)flexnet::flexbpf::Verifier().Verify(verified);
  times_.verify.Add(NanosBetween(t0, Clock::now()));
  t0 = Clock::now();
  (void)flexnet::compiler::DiffPrograms(before, verified);
  times_.diff.Add(NanosBetween(t0, Clock::now()));
  t0 = Clock::now();
  auto plan = flexnet::compiler::ComputeClassPlan(before, after, kind);
  times_.class_plan.Add(NanosBetween(t0, Clock::now()));
  if (!plan.ok()) return;

  for (auto& h : hops_) {
    if (h->device().arch() == kind) ApplyPlan(*h, plan->plan);
  }
  if (kind == hops_[switch_hop_]->device().arch()) {
    for (ManagedDevice* d : {pipe_.get(), tier_.get(), fn_.get()}) {
      ApplyPlan(*d, plan->plan);
    }
    Rebind();
  }
}

void TwinPath::Export(std::map<std::string, double>& out) {
  times_.Export(out);
  double compile_ns = 0;
  for (const auto& h : hops_) compile_ns += static_cast<double>(h->compile_ns_total());
  for (const ManagedDevice* d : {pipe_.get(), tier_.get(), fn_.get()}) {
    compile_ns += static_cast<double>(d->compile_ns_total());
  }
  out["compile_ns_total"] = compile_ns;
}

void TwinPath::Rebind() {
  tables_.clear();
  flexnet::dataplane::Pipeline& pl = pipe_->device().pipeline();
  for (const std::string& name : pl.TableNames()) {
    tables_.push_back(pl.FindTable(name));
  }
  fns_.clear();
  for (const flexnet::flexbpf::FunctionDecl& decl : fn_->functions()) {
    auto compiled = flexnet::flexbpf::CompiledFunction::Compile(decl);
    if (!compiled.ok()) continue;
    fns_.push_back(std::move(compiled.value()));
    fns_.back().Bind(&fn_->maps());
  }
}

void TwinPath::Replay(std::span<const flexnet::packet::Packet> burst,
                      flexnet::SimTime now) {
  path_pkts_.assign(burst.begin(), burst.end());
  outcomes_.resize(path_pkts_.size());
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (i == switch_hop_) ReplaySwitchLayers(path_pkts_, now);
    ManagedDevice& dev = *hops_[i];
    const auto t0 = Clock::now();
    dev.ProcessBatch(path_pkts_, now, outcomes_);
    const double dt = NanosBetween(t0, Clock::now());
    Acc& acc = times_.device[static_cast<std::size_t>(dev.device().arch())];
    acc.ns += dt;
    acc.n += path_pkts_.size();
  }
}

void TwinPath::ReplaySwitchLayers(std::span<const flexnet::packet::Packet> pkts,
                                  flexnet::SimTime now) {
  pipe_pkts_.assign(pkts.begin(), pkts.end());
  tier_pkts_.assign(pkts.begin(), pkts.end());
  const std::size_t n = pkts.size();

  // Per-packet pipeline time by the tier that answered.
  flexnet::dataplane::Pipeline& tier_pl = tier_->device().pipeline();
  slow_.assign(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto t0 = Clock::now();
    const flexnet::dataplane::PipelineResult r = tier_pl.Process(tier_pkts_[j], now);
    const double dt = NanosBetween(t0, Clock::now());
    if (r.flow_cache_hit) {
      times_.micro_ns.push_back(dt);
    } else if (r.megaflow_hit) {
      times_.mega_ns.push_back(dt);
    } else {
      times_.slow_ns.push_back(dt);
      slow_[j] = 1;
    }
  }

  // What the slow path spends parsing and matching, on pristine copies.
  const flexnet::dataplane::ParseGraph& parser = pipe_->device().pipeline().parser();
  for (std::size_t j = 0; j < n; ++j) {
    if (slow_[j] == 0) continue;
    parser_reads_.clear();
    auto t0 = Clock::now();
    (void)parser.Parse(pipe_pkts_[j], &parser_reads_);
    times_.parse.Add(NanosBetween(t0, Clock::now()));
    t0 = Clock::now();
    for (const flexnet::dataplane::MatchActionTable* t : tables_) {
      (void)t->MatchEntry(pipe_pkts_[j]);
    }
    times_.match.Add(NanosBetween(t0, Clock::now()));
  }

  results_.resize(n);
  const auto t0 = Clock::now();
  pipe_->device().pipeline().ProcessBatch(pipe_pkts_, now, results_);
  times_.pipeline.ns += NanosBetween(t0, Clock::now());
  times_.pipeline.n += n;

  for (std::size_t j = 0; j < n; ++j) {
    if (results_[j].dropped) continue;
    for (const flexnet::flexbpf::CompiledFunction& fn : fns_) {
      const auto f0 = Clock::now();
      (void)fn.Run(pipe_pkts_[j], &fn_->maps());
      times_.fn_run.Add(NanosBetween(f0, Clock::now()));
    }
  }
}

}  // namespace perfbench
