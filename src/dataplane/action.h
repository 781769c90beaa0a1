// Data-plane actions: a closed sum of primitive operations.
//
// A table entry binds an Action — an ordered list of primitive ops executed
// when the entry matches.  Primitives cover the P4-ish surface FlexNet
// needs: header/field edits, forwarding decisions, and accesses to the
// stateful objects registered on the device.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "packet/intern.h"

namespace flexnet::dataplane {

// Where an op's operand value comes from.  Field paths are packet::FieldPath
// so the (header, field) pair is resolved once at action-build time and the
// executor never re-parses dotted strings per packet.
struct OperandConst {
  std::uint64_t value = 0;
  friend bool operator==(const OperandConst&, const OperandConst&) = default;
};
struct OperandField {  // read another packet field, e.g. "ipv4.src"
  packet::FieldPath field;
  friend bool operator==(const OperandField&, const OperandField&) = default;
};
using Operand = std::variant<OperandConst, OperandField>;

struct OpSetField {          // field := operand
  packet::FieldPath field;   // dotted, e.g. "ipv4.ttl" or "meta.mark"
  Operand value;
  friend bool operator==(const OpSetField&, const OpSetField&) = default;
};
struct OpAddField {   // field := field + operand (wrapping)
  packet::FieldPath field;
  Operand delta;
  friend bool operator==(const OpAddField&, const OpAddField&) = default;
};
struct OpPushHeader {
  packet::InternedName header;
  friend bool operator==(const OpPushHeader&, const OpPushHeader&) = default;
};
struct OpPopHeader {
  packet::InternedName header;
  friend bool operator==(const OpPopHeader&, const OpPopHeader&) = default;
};
struct OpDrop {
  std::string reason;
  friend bool operator==(const OpDrop&, const OpDrop&) = default;
};
struct OpForward {    // set egress port
  Operand port;
  friend bool operator==(const OpForward&, const OpForward&) = default;
};
struct OpRegisterWrite {  // registers[index] := operand
  std::string register_name;
  Operand index;
  Operand value;
  friend bool operator==(const OpRegisterWrite&, const OpRegisterWrite&) = default;
};
struct OpRegisterAdd {    // registers[index] += operand
  std::string register_name;
  Operand index;
  Operand delta;
  friend bool operator==(const OpRegisterAdd&, const OpRegisterAdd&) = default;
};
struct OpCounterInc {
  std::string counter_name;
  friend bool operator==(const OpCounterInc&, const OpCounterInc&) = default;
};
struct OpMeterExec {      // meta[result_meta] := color (0 green, 1 yellow, 2 red)
  std::string meter_name;
  packet::InternedName result_meta;
  friend bool operator==(const OpMeterExec&, const OpMeterExec&) = default;
};
struct OpFlowStateUpdate {  // Mellanox-style stateful table op keyed by 5-tuple
  std::string table_name;
  std::string field;        // which per-flow cell
  Operand delta;            // added to cell (insert-on-miss)
  friend bool operator==(const OpFlowStateUpdate&, const OpFlowStateUpdate&) = default;
};

using ActionOp =
    std::variant<OpSetField, OpAddField, OpPushHeader, OpPopHeader, OpDrop,
                 OpForward, OpRegisterWrite, OpRegisterAdd, OpCounterInc,
                 OpMeterExec, OpFlowStateUpdate>;

struct Action {
  std::string name;  // For the patch DSL's name matching ("fw_deny", ...).
  std::vector<ActionOp> ops;
  friend bool operator==(const Action&, const Action&) = default;
};

// Commonly used canned actions.
Action MakeDropAction(std::string reason = "policy");
Action MakeForwardAction(std::uint32_t port);
Action MakeNopAction();

}  // namespace flexnet::dataplane
