#include "flexbpf/printer.h"

#include <map>
#include <sstream>

namespace flexnet::flexbpf {

namespace {

std::string Hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

Result<std::string> PrintOperand(const dataplane::Operand& operand) {
  if (const auto* c = std::get_if<dataplane::OperandConst>(&operand)) {
    return std::to_string(c->value);
  }
  const auto& f = std::get<dataplane::OperandField>(operand);
  return "$" + f.field.text();
}

Result<std::string> PrintActionOp(const dataplane::ActionOp& op) {
  using namespace dataplane;
  if (const auto* d = std::get_if<OpDrop>(&op)) {
    return "drop " + d->reason;
  }
  if (const auto* f = std::get_if<OpForward>(&op)) {
    FLEXNET_ASSIGN_OR_RETURN(const std::string port, PrintOperand(f->port));
    return "forward " + port;
  }
  if (const auto* s = std::get_if<OpSetField>(&op)) {
    FLEXNET_ASSIGN_OR_RETURN(const std::string v, PrintOperand(s->value));
    return "set " + s->field.text() + " " + v;
  }
  if (const auto* a = std::get_if<OpAddField>(&op)) {
    FLEXNET_ASSIGN_OR_RETURN(const std::string v, PrintOperand(a->delta));
    return "add " + a->field.text() + " " + v;
  }
  if (const auto* p = std::get_if<OpPushHeader>(&op)) {
    return "push " + p->header.text();
  }
  if (const auto* p = std::get_if<OpPopHeader>(&op)) {
    return "pop " + p->header.text();
  }
  if (const auto* c = std::get_if<OpCounterInc>(&op)) {
    return "count " + c->counter_name;
  }
  if (const auto* m = std::get_if<OpMeterExec>(&op)) {
    return "meter " + m->meter_name + " " + m->result_meta.text();
  }
  if (const auto* r = std::get_if<OpRegisterWrite>(&op)) {
    FLEXNET_ASSIGN_OR_RETURN(const std::string idx, PrintOperand(r->index));
    FLEXNET_ASSIGN_OR_RETURN(const std::string val, PrintOperand(r->value));
    return "regwrite " + r->register_name + " " + idx + " " + val;
  }
  if (const auto* r = std::get_if<OpRegisterAdd>(&op)) {
    FLEXNET_ASSIGN_OR_RETURN(const std::string idx, PrintOperand(r->index));
    FLEXNET_ASSIGN_OR_RETURN(const std::string val, PrintOperand(r->delta));
    return "regadd " + r->register_name + " " + idx + " " + val;
  }
  if (const auto* f = std::get_if<OpFlowStateUpdate>(&op)) {
    FLEXNET_ASSIGN_OR_RETURN(const std::string delta, PrintOperand(f->delta));
    return "flowupd " + f->table_name + " " + f->field + " " + delta;
  }
  return Internal("unprintable action op");
}

std::string PrintKeySpec(const dataplane::KeySpec& spec) {
  return spec.field + ":" + std::string(dataplane::ToString(spec.kind)) +
         ":" + std::to_string(spec.width_bits);
}

Result<std::string> PrintMatchValue(const dataplane::MatchValue& m,
                                    const dataplane::KeySpec& spec) {
  switch (spec.kind) {
    case dataplane::MatchKind::kExact:
      return std::to_string(m.value);
    case dataplane::MatchKind::kLpm:
      return std::to_string(m.value) + "/" + std::to_string(m.prefix_len);
    case dataplane::MatchKind::kTernary:
      if (m.mask == 0) return std::string("*");
      return Hex(m.value) + "&" + Hex(m.mask);
    case dataplane::MatchKind::kRange:
      return std::to_string(m.value) + "-" + std::to_string(m.range_hi);
  }
  return Internal("unknown match kind");
}

}  // namespace

std::string PrintMap(const MapDecl& map) {
  std::ostringstream out;
  out << "map " << map.name << " size " << map.size << " cells ";
  for (std::size_t i = 0; i < map.cells.size(); ++i) {
    if (i > 0) out << ',';
    out << map.cells[i];
  }
  out << " encoding " << ToString(map.encoding);
  return out.str();
}

std::string PrintHeaderRequirement(const HeaderRequirement& req) {
  std::ostringstream out;
  out << "header " << req.header << " after " << req.after << " value "
      << req.select_value;
  return out.str();
}

Result<std::string> PrintTable(const TableDecl& table) {
  std::ostringstream out;
  out << "table " << table.name << " key ";
  for (std::size_t i = 0; i < table.key.size(); ++i) {
    if (i > 0) out << ',';
    out << PrintKeySpec(table.key[i]);
  }
  out << " capacity " << table.capacity << '\n';
  for (const dataplane::Action& action : table.actions) {
    out << "  action " << action.name;
    for (std::size_t i = 0; i < action.ops.size(); ++i) {
      FLEXNET_ASSIGN_OR_RETURN(const std::string op,
                               PrintActionOp(action.ops[i]));
      out << (i == 0 ? " " : " ; ") << op;
    }
    out << '\n';
  }
  // Default action: only drop/nop/named defaults are expressible.
  if (table.default_action.ops.empty()) {
    out << "  default nop\n";
  } else if (table.FindAction(table.default_action.name) != nullptr) {
    out << "  default " << table.default_action.name << '\n';
  } else {
    out << "  default drop\n";
  }
  for (const InitialEntry& entry : table.entries) {
    out << "  entry ";
    for (std::size_t i = 0; i < entry.match.size(); ++i) {
      if (i > 0) out << ',';
      FLEXNET_ASSIGN_OR_RETURN(
          const std::string m,
          PrintMatchValue(entry.match[i], table.key[i]));
      out << m;
    }
    out << " -> " << entry.action_name;
    if (entry.priority != 0) out << " priority " << entry.priority;
    out << '\n';
  }
  out << "end";
  return out.str();
}

Result<std::string> PrintFunction(const FunctionDecl& fn) {
  // Collect branch targets so labels are emitted where needed.
  std::map<std::size_t, std::string> labels;
  for (const Instr& instr : fn.instrs) {
    std::size_t target = SIZE_MAX;
    if (const auto* b = std::get_if<InstrBranch>(&instr)) target = b->target;
    if (const auto* j = std::get_if<InstrJump>(&instr)) target = j->target;
    if (target != SIZE_MAX && !labels.contains(target)) {
      labels[target] = "L" + std::to_string(labels.size());
    }
  }
  std::ostringstream out;
  out << "func " << fn.name << " domain " << ToString(fn.domain) << '\n';
  const auto reg = [](int r) { return "r" + std::to_string(r); };
  for (std::size_t pc = 0; pc <= fn.instrs.size(); ++pc) {
    if (const auto it = labels.find(pc); it != labels.end()) {
      out << "  label " << it->second << '\n';
    }
    if (pc == fn.instrs.size()) break;
    const Instr& instr = fn.instrs[pc];
    out << "  ";
    if (const auto* i = std::get_if<InstrLoadConst>(&instr)) {
      out << reg(i->dst) << " = const " << i->value;
    } else if (const auto* i = std::get_if<InstrLoadField>(&instr)) {
      out << reg(i->dst) << " = field " << i->field.text();
    } else if (const auto* i = std::get_if<InstrStoreField>(&instr)) {
      out << "store " << i->field.text() << ' ' << reg(i->src);
    } else if (const auto* i = std::get_if<InstrLoadFlowKey>(&instr)) {
      out << reg(i->dst) << " = flowkey";
    } else if (const auto* i = std::get_if<InstrBinOp>(&instr)) {
      out << reg(i->dst) << " = " << ToString(i->op) << ' ' << reg(i->lhs)
          << ' ' << reg(i->rhs);
    } else if (const auto* i = std::get_if<InstrBinOpImm>(&instr)) {
      out << reg(i->dst) << " = " << ToString(i->op) << "i " << reg(i->lhs)
          << ' ' << i->imm;
    } else if (const auto* i = std::get_if<InstrMapLoad>(&instr)) {
      out << reg(i->dst) << " = mapload " << i->map << ' ' << reg(i->key)
          << ' ' << i->cell;
    } else if (const auto* i = std::get_if<InstrMapStore>(&instr)) {
      out << "mapstore " << i->map << ' ' << reg(i->key) << ' ' << i->cell
          << ' ' << reg(i->src);
    } else if (const auto* i = std::get_if<InstrMapAdd>(&instr)) {
      out << "mapadd " << i->map << ' ' << reg(i->key) << ' ' << i->cell
          << ' ' << reg(i->src);
    } else if (const auto* i = std::get_if<InstrBranch>(&instr)) {
      const char* cmp = "==";
      switch (i->cmp) {
        case CmpKind::kEq: cmp = "=="; break;
        case CmpKind::kNe: cmp = "!="; break;
        case CmpKind::kLt: cmp = "<"; break;
        case CmpKind::kLe: cmp = "<="; break;
        case CmpKind::kGt: cmp = ">"; break;
        case CmpKind::kGe: cmp = ">="; break;
      }
      out << "if " << reg(i->lhs) << ' ' << cmp << ' ' << reg(i->rhs)
          << " goto " << labels.at(i->target);
    } else if (const auto* i = std::get_if<InstrJump>(&instr)) {
      out << "goto " << labels.at(i->target);
    } else if (const auto* i = std::get_if<InstrDrop>(&instr)) {
      out << "drop " << i->reason;
    } else if (const auto* i = std::get_if<InstrForward>(&instr)) {
      out << "forward " << reg(i->port_reg);
    } else if (std::holds_alternative<InstrReturn>(instr)) {
      out << "return";
    } else {
      return Internal("unprintable instruction");
    }
    out << '\n';
  }
  out << "end";
  return out.str();
}

Result<std::string> PrintProgramText(const ProgramIR& program) {
  std::ostringstream out;
  out << "program " << program.name << '\n';
  for (const MapDecl& map : program.maps) out << PrintMap(map) << '\n';
  for (const HeaderRequirement& req : program.headers) {
    out << PrintHeaderRequirement(req) << '\n';
  }
  for (const TableDecl& table : program.tables) {
    FLEXNET_ASSIGN_OR_RETURN(const std::string text, PrintTable(table));
    out << text << '\n';
  }
  for (const FunctionDecl& fn : program.functions) {
    FLEXNET_ASSIGN_OR_RETURN(const std::string text, PrintFunction(fn));
    out << text << '\n';
  }
  return out.str();
}

}  // namespace flexnet::flexbpf
