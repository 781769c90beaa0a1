#include "fault/chaos.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "controller/raft.h"
#include "drpc/drpc.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "runtime/engine.h"
#include "state/logical_map.h"
#include "state/migration.h"

namespace flexnet::fault {

namespace {

// --- Injection-point catalogue for random plans ---
//
// Each entry is one fault the driver knows how to survive; delays are
// drawn uniformly from [delay_lo, delay_hi].  kForever never appears
// here (it would starve the bounded retry loops); only explicit
// partitions (ArmPartition) use it.
struct CatalogEntry {
  const char* point;
  FaultAction action;
  SimDuration delay_lo = 0;
  SimDuration delay_hi = 0;
};

constexpr CatalogEntry kCatalog[] = {
    {"drpc.invoke", FaultAction::kDrop},
    {"drpc.invoke", FaultAction::kDelay, 10 * kMicrosecond, 500 * kMicrosecond},
    {"drpc.invoke", FaultAction::kDuplicate, 20 * kMicrosecond,
     200 * kMicrosecond},
    {"drpc.invoke", FaultAction::kReorder, 10 * kMicrosecond,
     200 * kMicrosecond},
    {"runtime.step", FaultAction::kCrash},
    {"runtime.step", FaultAction::kStall, 100 * kMicrosecond,
     10 * kMillisecond},
    {"runtime.reflash", FaultAction::kStall, 1 * kMillisecond,
     100 * kMillisecond},
    {"runtime.reflash", FaultAction::kCrash},
    {"migration.chunk", FaultAction::kDrop},
    {"migration.chunk", FaultAction::kDuplicate, 0, 80 * kMicrosecond},
    {"migration.chunk", FaultAction::kAbort},
    {"migration.chunk", FaultAction::kDelay, 20 * kMicrosecond,
     200 * kMicrosecond},
    {"raft.send", FaultAction::kDrop},
    {"raft.send", FaultAction::kDelay, 1 * kMillisecond, 20 * kMillisecond},
    {"raft.propose", FaultAction::kCrash},
};

net::SwitchKind SwitchKindFor(arch::ArchKind kind) noexcept {
  switch (kind) {
    case arch::ArchKind::kRmt:
      return net::SwitchKind::kRmt;
    case arch::ArchKind::kTile:
      return net::SwitchKind::kTile;
    default:
      // NIC/host schedules reconfigure the endpoint itself; the fabric
      // behind it is ordinary dRMT.
      return net::SwitchKind::kDrmt;
  }
}

// The reconfiguration the schedule applies hitlessly while traffic runs.
// Every action is a nop: only Drop ops can blackhole a packet, so any
// loss observed during the window is the pipeline's fault, not the
// plan's.  The wildcard ternary entry makes live traffic actually
// traverse the new tables before one of them is retired.
runtime::ReconfigPlan MakeChaosReconfigPlan() {
  flexbpf::TableDecl a;
  a.name = "chaos_acl_a";
  a.key = {dataplane::KeySpec{"ipv4.src", dataplane::MatchKind::kExact, 32}};
  a.capacity = 64;

  flexbpf::TableDecl b;
  b.name = "chaos_acl_b";
  b.key = {dataplane::KeySpec{"ipv4.src", dataplane::MatchKind::kTernary, 32}};
  b.capacity = 32;

  runtime::ReconfigPlan plan;
  plan.description = "chaos hitless reconfig";
  plan.steps.push_back(runtime::StepAddTable{a});
  plan.steps.push_back(runtime::StepAddTable{b});
  plan.steps.push_back(runtime::StepAddEntry{
      "chaos_acl_a",
      dataplane::TableEntry{{dataplane::MatchValue::Exact(0xdead0001)},
                            dataplane::MakeNopAction(), 0}});
  plan.steps.push_back(runtime::StepAddEntry{
      "chaos_acl_a",
      dataplane::TableEntry{{dataplane::MatchValue::Exact(0xdead0002)},
                            dataplane::MakeNopAction(), 0}});
  plan.steps.push_back(runtime::StepAddEntry{
      "chaos_acl_b",
      dataplane::TableEntry{{dataplane::MatchValue::Ternary(0, 0)},
                            dataplane::MakeNopAction(), 1}});
  plan.steps.push_back(runtime::StepRemoveTable{"chaos_acl_b"});
  return plan;
}

}  // namespace

std::array<arch::ArchKind, 5> AllArchKinds() noexcept {
  return {arch::ArchKind::kRmt, arch::ArchKind::kDrmt, arch::ArchKind::kTile,
          arch::ArchKind::kNic, arch::ArchKind::kHost};
}

const char* ArchFlag(arch::ArchKind kind) noexcept {
  return arch::ToString(kind);
}

std::optional<arch::ArchKind> ParseArchFlag(const std::string& flag) noexcept {
  for (const arch::ArchKind kind : AllArchKinds()) {
    if (flag == arch::ToString(kind)) return kind;
  }
  return std::nullopt;
}

FaultPlan RandomFaultPlan(std::uint64_t seed, std::size_t rules) {
  constexpr std::size_t kCatalogSize = std::size(kCatalog);
  Rng rng(seed);
  FaultPlan plan;
  plan.seed = seed;
  plan.rules.reserve(rules);
  for (std::size_t i = 0; i < rules; ++i) {
    const CatalogEntry& entry = kCatalog[rng.NextBounded(kCatalogSize)];
    FaultRule rule;
    rule.point = entry.point;
    rule.action = entry.action;
    rule.after = rng.NextBounded(4);
    // Crashes and aborts are heavyweight (each costs the harness a full
    // retry/restart); keep them single-shot so bounded retry budgets
    // always win.  Message-level faults may burst.
    rule.count = (entry.action == FaultAction::kCrash ||
                  entry.action == FaultAction::kAbort)
                     ? 1
                     : 1 + rng.NextBounded(3);
    if (entry.delay_hi > entry.delay_lo) {
      rule.delay = entry.delay_lo +
                   static_cast<SimDuration>(rng.NextBounded(
                       static_cast<std::uint64_t>(entry.delay_hi -
                                                  entry.delay_lo + 1)));
    } else {
      rule.delay = entry.delay_lo;
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

ChaosReport RunChaosSchedule(const ChaosConfig& config) {
  return RunChaosSchedule(config, RandomFaultPlan(config.seed, config.rules));
}

ChaosReport RunChaosSchedule(const ChaosConfig& config, FaultPlan plan) {
  ChaosReport report;
  report.arch = config.arch;
  report.seed = config.seed;
  report.plan = plan;

  sim::Simulator sim;
  telemetry::MetricsRegistry metrics;
  net::Network network(&sim);
  const net::LinearTopology topo =
      net::BuildLinear(network, 3, SwitchKindFor(config.arch));
  FaultInjector injector(std::move(plan), &sim);

  runtime::ManagedDevice* target = nullptr;
  switch (config.arch) {
    case arch::ArchKind::kNic:
      target = network.Find(topo.client.nic);
      break;
    case arch::ArchKind::kHost:
      target = network.Find(topo.server.host);
      break;
    default:
      target = network.Find(topo.switches[1]);
      break;
  }

  runtime::RuntimeEngine engine(&sim, &metrics);
  engine.set_fault_injector(&injector);

  net::TrafficGenerator traffic(&network, config.seed ^ 0x7ea7f1c5ULL);
  net::FlowSpec flow;
  flow.from = topo.client.host;
  flow.src_ip = topo.client.address;
  flow.dst_ip = topo.server.address;
  // Traffic runs in two phases: scalar-shaped bursts of 1 for the first
  // half of the window, then batched injection (bursts ride one simulator
  // event per hop) for the second half — chaos faults land on both
  // transport shapes under the same seed.
  const SimDuration half_window = config.traffic_window / 2;
  traffic.StartCbr(flow, config.traffic_pps, half_window);
  sim.Schedule(half_window, [&traffic, &config, flow, half_window]() {
    traffic.set_burst(config.traffic_burst);
    traffic.StartCbr(flow, config.traffic_pps,
                     config.traffic_window - half_window);
  });

  // Postcards give the checker per-packet evidence alongside the aggregate
  // counters.  Chaos traffic is a single CBR flow, so flow-level 1-in-N
  // sampling would be all-or-nothing; sample every flow for dense coverage.
  telemetry::PostcardRecorder recorder(
      telemetry::PostcardRecorder::Config{/*sample_every_n=*/1,
                                          /*capacity=*/16384,
                                          /*seed=*/config.seed});
  network.set_postcard_recorder(&recorder);

  InvariantChecker checker(&network);
  checker.AttachPostcards(&recorder);
  checker.Begin();

  // --- Phase A: hitless reconfiguration under fire ---
  //
  // The operator model: a crashed reconfig agent is restarted and
  // re-applies the *unfinished suffix* of the plan (applied steps are
  // committed device state; re-applying them would fail).  recovery_ns
  // spans first crash -> plan fully applied.
  {
    const runtime::ReconfigPlan full = MakeChaosReconfigPlan();
    std::size_t applied = 0;
    bool failed_once = false;
    bool succeeded = false;
    SimTime first_failure = 0;
    for (int attempt = 0; attempt < 25 && applied < full.steps.size();
         ++attempt) {
      runtime::ReconfigPlan suffix;
      suffix.description = full.description + " (resume at step " +
                           std::to_string(applied) + ")";
      suffix.steps.assign(full.steps.begin() + static_cast<std::ptrdiff_t>(
                                                   applied),
                          full.steps.end());
      auto done = std::make_shared<std::optional<runtime::ApplyReport>>();
      engine.ApplyRuntime(*target, std::move(suffix),
                          [done](const runtime::ApplyReport& r) { *done = r; });
      while (!done->has_value() && sim.Step()) {
      }
      if (!done->has_value()) break;  // queue drained without a report
      applied += (*done)->steps_applied;
      if ((*done)->ok()) {
        succeeded = true;
        break;
      }
      if (!failed_once) {
        failed_once = true;
        first_failure = sim.now();
      }
    }
    if (!succeeded) {
      checker.AddViolation("reconfig_recovery",
                           "plan not fully applied after retries (" +
                               std::to_string(applied) + "/" +
                               std::to_string(full.steps.size()) + " steps)");
    } else if (failed_once) {
      report.recovery_ns = sim.now() - first_failure;
    }
  }

  // --- Phase B: in-data-plane state migration vs the shadow oracle ---
  {
    flexbpf::MapDecl decl;
    decl.name = "chaos_state";
    decl.size = 512;
    decl.cells = {"v"};
    auto src = state::CreateEncodedMap(decl, flexbpf::MapEncoding::kStatefulTable);
    auto dst = state::CreateEncodedMap(decl, flexbpf::MapEncoding::kStatefulTable);
    if (src.ok() && dst.ok()) {
      // Pre-existing state: the shadow oracle covers value mass that was
      // in the map before migration started, not just live updates — and
      // it makes duplicate/abort faults bite deterministically (a stale
      // re-applied chunk always carries real mass).
      for (std::uint64_t key = 0; key < decl.size; ++key) {
        src.value()->Store(key, "v", 1 + (key & 3));
      }
      state::MigrationConfig mcfg;
      mcfg.update_rate_pps = 100000.0;
      mcfg.key_space = decl.size;
      mcfg.chunk_keys = 64;
      mcfg.seed = config.seed;
      mcfg.idempotent_chunks = config.idempotent_migration;
      state::MigrationRunner runner(&sim, src.value().get(), dst.value().get(),
                                    mcfg, &metrics);
      runner.set_fault_injector(&injector);
      const state::MigrationReport mreport = runner.RunDataplane();
      checker.CheckMigration(mreport, "chaos dataplane migration");
      report.migration_chunks = mreport.chunks_copied;
    } else {
      checker.AddViolation("migration_oracle", "could not materialize maps");
    }
  }

  // --- Phase C: in-band dRPC with exactly-once completion ---
  {
    drpc::Registry registry(&network, topo.switches.front());
    const Status echo = drpc::RegisterEchoService(registry, topo.server.nic);
    if (!echo.ok()) {
      checker.AddViolation("drpc_exactly_once",
                           "could not register the echo service: " +
                               echo.error().ToText());
    } else {
      drpc::Client client(&network, &registry, topo.client.host, &metrics);
      client.set_fault_injector(&injector);

      struct InvokeState {
        int completions = 0;
        bool ok = false;
      };
      std::vector<std::shared_ptr<InvokeState>> issued;
      const auto invoke_once = [&]() {
        auto st = std::make_shared<InvokeState>();
        issued.push_back(st);
        drpc::Message request;
        request.fields["ping"] = issued.size();
        client.Invoke("drpc://infra/echo", std::move(request),
                      [st](const drpc::InvokeOutcome& outcome) {
                        ++st->completions;
                        st->ok = outcome.ok;
                      });
        while (st->completions == 0 && sim.Step()) {
        }
        return st->ok;
      };
      for (int call = 0; call < 5; ++call) {
        // A dropped request fails its outcome; the caller retries once (a
        // failed RPC is allowed under faults — a *double-completed* one
        // never is).
        if (invoke_once() || invoke_once()) ++report.drpc_invokes;
      }

      // Drain everything in flight — trailing traffic, delayed duplicates —
      // then hold the exactly-once line per issued invocation.
      sim.Run();
      for (std::size_t i = 0; i < issued.size(); ++i) {
        if (issued[i]->completions != 1) {
          checker.AddViolation(
              "drpc_exactly_once",
              "invocation " + std::to_string(i) + " completed " +
                  std::to_string(issued[i]->completions) + " times");
        }
      }
    }
  }

  checker.Finish();

  // --- Phase D: drain/reflash baseline (after the traffic window: on a
  // linear fabric a drained device blackholes by construction, which is
  // the E2 contrast, not a chaos violation) ---
  {
    runtime::ReconfigPlan drain_plan;
    drain_plan.description = "chaos drain baseline";
    drain_plan.steps.push_back(runtime::StepAddEntry{
        "chaos_acl_a",
        dataplane::TableEntry{{dataplane::MatchValue::Exact(0xdead0003)},
                              dataplane::MakeNopAction(), 0}});
    auto done = std::make_shared<bool>(false);
    engine.ApplyDrain(*target, std::move(drain_plan),
                      [done](const runtime::ApplyReport&) { *done = true; });
    while (!*done && sim.Step()) {
    }
  }

  // --- Phase E: replicated controller under message loss and leader
  // crashes.  Runs last: heartbeats self-reschedule forever, so the
  // schedule drives bounded RunUntil windows from here on. ---
  {
    controller::RaftCluster raft(&sim, controller::RaftConfig{}, config.seed);
    raft.set_fault_injector(&injector);
    raft.Start();

    const auto revive_all = [&raft]() {
      for (std::size_t i = 0; i < raft.size(); ++i) {
        if (!raft.alive(i)) raft.Revive(i);
      }
    };
    const auto wait_for_leader = [&](SimDuration budget) {
      const SimTime deadline = sim.now() + budget;
      while (raft.leader() < 0 && sim.now() < deadline) {
        sim.RunUntil(sim.now() + 50 * kMillisecond);
      }
      return raft.leader() >= 0;
    };

    if (!wait_for_leader(3 * kSecond)) {
      // Operator model again: crashed replicas are restarted when the
      // cluster loses availability.
      revive_all();
      wait_for_leader(3 * kSecond);
    }

    struct ProposeState {
      int fired = 0;
      bool committed = false;
    };
    std::vector<std::shared_ptr<ProposeState>> proposals;
    for (int op = 0; op < 3; ++op) {
      bool committed = false;
      for (int attempt = 0; attempt < 5 && !committed; ++attempt) {
        if (raft.leader() < 0) {
          revive_all();
          if (!wait_for_leader(3 * kSecond)) break;
        }
        auto st = std::make_shared<ProposeState>();
        proposals.push_back(st);
        const bool submitted = raft.Propose(
            "chaos-op-" + std::to_string(op),
            [st](bool ok, std::uint64_t) {
              ++st->fired;
              st->committed = ok;
            });
        if (!submitted) {
          // No leader, or the leader crash-stopped at propose; let an
          // election run and try again.
          sim.RunUntil(sim.now() + 200 * kMillisecond);
          continue;
        }
        const SimTime deadline = sim.now() + 2 * kSecond;
        while (st->fired == 0 && sim.now() < deadline) {
          sim.RunUntil(sim.now() + 20 * kMillisecond);
        }
        committed = st->fired > 0 && st->committed;
      }
      if (committed) ++report.raft_commits;
    }
    if (report.raft_commits < 3) {
      checker.AddViolation("raft_commit_progress",
                           "only " + std::to_string(report.raft_commits) +
                               "/3 controller ops committed despite retries");
    }

    // Settle: restart any still-dead replica and give followers a few
    // heartbeats to converge before the consistency/availability checks.
    revive_all();
    sim.RunUntil(sim.now() + 1 * kSecond);
    checker.CheckRaft(raft, /*expect_leader=*/true);
  }

  checker.CheckReconfigLatency(metrics, config.reconfig_latency_bound);

  const net::NetworkStats& stats = network.stats();
  report.packets_injected = stats.injected;
  report.packets_delivered = stats.delivered;
  report.packets_dropped = stats.dropped;
  report.packets_checked = checker.packets_checked();
  report.postcards_checked = checker.postcards_checked();
  report.faults_injected = injector.injected();
  report.violations = checker.violations();

  if (config.metrics != nullptr) {
    telemetry::MetricsRegistry& agg = *config.metrics;
    agg.Count("chaos.schedules");
    agg.Count(std::string("chaos.arch.") + ArchFlag(config.arch) +
              ".schedules");
    agg.Count("chaos.faults_injected", report.faults_injected);
    agg.Count("chaos.invariant_violations", report.violations.size());
    agg.Count("chaos.packets_checked", report.packets_checked);
    agg.Count("chaos.postcards_checked", report.postcards_checked);
    agg.Count("chaos.drpc_invokes_ok", report.drpc_invokes);
    agg.Count("chaos.migration_chunks", report.migration_chunks);
    agg.Count("chaos.raft_commits", report.raft_commits);
    if (report.recovery_ns > 0) {
      agg.Observe("chaos.recovery_ns",
                  static_cast<double>(report.recovery_ns));
    }
    agg.Observe("chaos.schedule_sim_ns", static_cast<double>(sim.now()));
  }
  return report;
}

FaultPlan ShrinkFailingPlan(const ChaosConfig& config, FaultPlan plan) {
  // Greedy delta-debugging at rule granularity: drop any one rule whose
  // removal keeps the schedule failing, to fixpoint.  Shrink replays must
  // not pollute the caller's aggregate metrics.
  ChaosConfig quiet = config;
  quiet.metrics = nullptr;
  bool shrunk = true;
  while (shrunk && plan.rules.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < plan.rules.size(); ++i) {
      FaultPlan candidate = plan;
      candidate.rules.erase(candidate.rules.begin() +
                            static_cast<std::ptrdiff_t>(i));
      if (!RunChaosSchedule(quiet, candidate).ok()) {
        plan = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return plan;
}

std::string ReproCommand(const ChaosConfig& config) {
  std::string cmd = std::string("FLEXNET_CHAOS_ARCH=") + ArchFlag(config.arch) +
                    " FLEXNET_CHAOS_SEED=" + std::to_string(config.seed);
  if (!config.idempotent_migration) cmd += " FLEXNET_CHAOS_LEGACY_MIGRATION=1";
  cmd += " ./tests/flexnet_tests --gtest_filter='ChaosReplay.*'";
  return cmd;
}

std::string ToText(const ChaosReport& report) {
  std::string text = std::string("chaos[") + ArchFlag(report.arch) +
                     " seed=" + std::to_string(report.seed) + "]: " +
                     std::to_string(report.faults_injected) + " faults, " +
                     std::to_string(report.packets_checked) +
                     " packets checked, " +
                     std::to_string(report.violations.size()) + " violations";
  for (const Violation& v : report.violations) {
    text += "\n  " + ToText(v);
  }
  if (!report.ok()) {
    text += "\n  plan:";
    for (const FaultRule& rule : report.plan.rules) {
      text += "\n    " + ToText(rule);
    }
  }
  return text;
}

}  // namespace flexnet::fault
