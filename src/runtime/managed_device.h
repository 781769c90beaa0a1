// ManagedDevice: a physical device plus its hosted FlexNet program state.
//
// The arch::Device owns the match/action pipeline and placement; this
// wrapper adds what a *runtime-programmable* node needs on top:
//   * the logical map set (state/ encodings chosen by the compiler),
//   * installed FlexBPF functions executed after the table pipeline,
//   * the ApplyStep() mutation surface the RuntimeEngine drives.
//
// Each ApplyStep is atomic with respect to packets: the simulator fires it
// as one event, so a packet is processed entirely before or entirely after
// the step — the per-change consistency the paper's section 2 describes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "arch/device.h"
#include "flexbpf/compile.h"
#include "flexbpf/interp.h"
#include "runtime/plan.h"
#include "state/logical_map.h"
#include "telemetry/telemetry.h"

namespace flexnet::runtime {

class ManagedDevice {
 public:
  explicit ManagedDevice(std::unique_ptr<arch::Device> device);
  ManagedDevice(const ManagedDevice&) = delete;
  ManagedDevice& operator=(const ManagedDevice&) = delete;

  arch::Device& device() noexcept { return *device_; }
  const arch::Device& device() const noexcept { return *device_; }
  state::MapSet& maps() noexcept { return maps_; }
  const state::MapSet& maps() const noexcept { return maps_; }

  DeviceId id() const noexcept { return device_->id(); }
  const std::string& name() const noexcept { return device_->name(); }
  // Version stamp postcards record per hop: the program/config generation
  // the underlying device is currently running.
  std::uint64_t program_version() const noexcept {
    return device_->program_version();
  }

  // --- Program mutation surface (used by RuntimeEngine and the compiler's
  // full-install path).  Each call is one atomic program change. ---
  //
  // `owner` names the app (its URI) a parser-state step acts for; apps
  // that share a header share its state.  The first owner installs the
  // state, and an identically wired state that already exists just gains
  // the owner (a differently wired one is an error).  The last owner to
  // leave unwires and removes it; a state no owner installed (the
  // standard graph) stays.  Without an owner a parser-state step adds or
  // removes the state outright.
  Status ApplyStep(const ReconfigStep& step, std::string_view owner = {});
  Status ApplyAll(const ReconfigPlan& plan);  // immediate, no timing model

  // The apps (sorted) that require a parser state, and whether one of them
  // installed it: the last owner to leave removes only an installed state.
  struct ParserStateOwners {
    std::set<std::string> apps;
    bool installed = false;
  };
  // nullptr when no owner holds `state`.
  const ParserStateOwners* FindParserStateOwners(
      const std::string& state) const noexcept;

  const std::vector<flexbpf::FunctionDecl>& functions() const noexcept {
    return functions_;
  }
  bool HasFunction(const std::string& name) const noexcept;

  // --- Compiled FlexBPF execution (flexbpf/compile.h).  Functions are
  // compiled once inside AddFunction — within the same atomic step as the
  // install itself, so packets only ever see a (decl, compiled) pair that
  // agrees.  Disabling falls back to the reference interpreter; the
  // differential fuzzer uses exactly this switch to pin the two executors
  // against each other. ---
  void set_compiled_exec_enabled(bool on) noexcept {
    compiled_exec_enabled_ = on;
  }
  bool compiled_exec_enabled() const noexcept { return compiled_exec_enabled_; }

  // How many installed functions have a compiled form (== functions_.size()
  // for any program the verifier admitted; compile failures fall back to
  // the interpreter per-function rather than failing the install).
  std::size_t compiled_function_count() const noexcept;
  std::uint64_t compiled_runs() const noexcept { return compiled_runs_; }
  std::uint64_t interp_runs() const noexcept { return interp_runs_; }
  std::uint64_t compile_ns_total() const noexcept { return compile_ns_total_; }

  // flexbpf_exec_* counters and flexbpf_compile_* gauges (EXPERIMENTS E18).
  void PublishMetrics(telemetry::MetricsRegistry& registry) const;
  bool HasTable(const std::string& name) const noexcept {
    return device_->pipeline().FindTable(name) != nullptr;
  }

  // --- Packet path: parse -> tables -> functions. ---
  arch::ProcessOutcome Process(packet::Packet& p, SimTime now);

  // Burst overload: per-member outcomes identical to Process called in
  // order.  The table pipeline and the FlexBPF stage each run member-major
  // (pipeline state and the map set are disjoint, so the stage split is
  // unobservable), amortizing interpreter setup across the burst.
  // Reconfiguration interacts correctly with in-flight bursts because each
  // burst is one simulator event: an ApplyStep/reflash lands entirely
  // before or entirely after it, exactly as with scalar packets.
  void ProcessBatch(std::span<packet::Packet> pkts, SimTime now,
                    std::span<arch::ProcessOutcome> outcomes);

 private:
  // Runs every installed FlexBPF function against one packet, folding the
  // modeled marginal cost into `outcome` — the single cost-accounting site
  // shared by the scalar and batch paths.
  void RunFunctions(flexbpf::Interpreter& interp, packet::Packet& p,
                    arch::ProcessOutcome& outcome);
  Status AddTable(const StepAddTable& step);
  Status RemoveTable(const StepRemoveTable& step);
  Status AddFunction(const StepAddFunction& step);
  Status RemoveFunction(const StepRemoveFunction& step);
  Status AddParserState(const StepAddParserState& step, std::string_view owner);
  Status RemoveParserState(const StepRemoveParserState& step,
                           std::string_view owner);

  std::unique_ptr<arch::Device> device_;
  state::MapSet maps_;
  std::vector<flexbpf::FunctionDecl> functions_;
  // Parallel to functions_: the pre-decoded form RunFunctions dispatches
  // on.  nullopt = compile refused (interpreter fallback for that entry).
  std::vector<std::optional<flexbpf::CompiledFunction>> compiled_;
  bool compiled_exec_enabled_ = true;
  std::uint64_t compiled_runs_ = 0;
  std::uint64_t interp_runs_ = 0;
  std::uint64_t compile_ns_total_ = 0;  // wall ns, mutated under ApplyStep
  // Last, so the members the packet path reads keep their offsets.
  std::unordered_map<std::string, ParserStateOwners> parser_owners_;
};

}  // namespace flexnet::runtime
