// The switch programs and fleet program versions the workloads deploy.
#pragma once

#include <cstdint>
#include <vector>

#include "flexbpf/ir.h"

namespace perfbench {

// Address plan shared by the programs and the traffic that exercises them.
inline constexpr std::uint64_t kDstBase = 0x0a000000;  // routed /8
inline constexpr std::uint64_t kHeavySrcBase = 0x0b000000;
inline constexpr std::uint64_t kUniqueSrcBase = 0x0c000000;
inline constexpr std::size_t kHeavyFlows = 1 << 20;

// heavytail_fabric: exact dst route, /20 LPM source classes over the
// heavy-tailed source span, exact dport service table, and one map
// read-modify-write accounting function.
flexnet::flexbpf::ProgramIR HeavyTailProgram();

// unique_flow_fabric: exact dst route, mixed-length dst LPM, and a
// 64-entry ternary+range ACL on full-width source addresses (so the
// megaflow tier cannot widen its keys).  No FlexBPF functions.
flexnet::flexbpf::ProgramIR UniqueFlowProgram();

// fleet_rollout: three program versions the rollouts cycle through
// (table added/removed, ACL entries rotated, function swapped), plus the
// per-tenant extension admitted between waves.
std::vector<flexnet::flexbpf::ProgramIR> FleetVersions();
flexnet::flexbpf::ProgramIR TenantExtension();

}  // namespace perfbench
