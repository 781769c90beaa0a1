#include "dataplane/executor.h"

#include "packet/flow.h"

namespace flexnet::dataplane {

std::uint64_t ActionExecutor::Resolve(const Operand& operand,
                                      const packet::Packet& p) const {
  if (const auto* c = std::get_if<OperandConst>(&operand)) return c->value;
  const auto& f = std::get<OperandField>(operand);
  return p.GetField(f.field.ref()).value_or(0);
}

ExecResult ActionExecutor::Execute(const Action& action, packet::Packet& p,
                                   SimTime now) {
  ExecResult result;
  for (const ActionOp& op : action.ops) {
    ++result.ops_executed;
    if (const auto* set = std::get_if<OpSetField>(&op)) {
      p.SetField(set->field.ref(), Resolve(set->value, p));
    } else if (const auto* add = std::get_if<OpAddField>(&op)) {
      const auto current = p.GetField(add->field.ref()).value_or(0);
      p.SetField(add->field.ref(), current + Resolve(add->delta, p));
    } else if (const auto* push = std::get_if<OpPushHeader>(&op)) {
      p.PushHeader(push->header.sym());
    } else if (const auto* pop = std::get_if<OpPopHeader>(&op)) {
      p.PopHeader(pop->header.sym());
    } else if (const auto* drop = std::get_if<OpDrop>(&op)) {
      p.MarkDropped(drop->reason);
      result.dropped = true;
      return result;  // drop terminates the action
    } else if (const auto* fwd = std::get_if<OpForward>(&op)) {
      p.egress_port = static_cast<std::uint32_t>(Resolve(fwd->port, p));
    } else if (const auto* rw = std::get_if<OpRegisterWrite>(&op)) {
      if (state_ != nullptr) {
        if (RegisterArray* reg = state_->FindRegisterArray(rw->register_name)) {
          reg->Write(static_cast<std::size_t>(Resolve(rw->index, p)),
                     Resolve(rw->value, p));
        }
      }
    } else if (const auto* ra = std::get_if<OpRegisterAdd>(&op)) {
      if (state_ != nullptr) {
        if (RegisterArray* reg = state_->FindRegisterArray(ra->register_name)) {
          reg->Add(static_cast<std::size_t>(Resolve(ra->index, p)),
                   Resolve(ra->delta, p));
        }
      }
    } else if (const auto* ci = std::get_if<OpCounterInc>(&op)) {
      if (state_ != nullptr) {
        if (Counter* counter = state_->FindCounter(ci->counter_name)) {
          counter->Inc(p.size_bytes());
        }
      }
    } else if (const auto* me = std::get_if<OpMeterExec>(&op)) {
      MeterColor color = MeterColor::kGreen;
      if (state_ != nullptr) {
        if (Meter* meter = state_->FindMeter(me->meter_name)) {
          color = meter->Execute(now);
        }
      }
      p.SetMeta(me->result_meta.sym(), static_cast<std::uint64_t>(color));
    } else if (const auto* fs = std::get_if<OpFlowStateUpdate>(&op)) {
      if (state_ != nullptr) {
        if (StatefulFlowTable* ft = state_->FindFlowTable(fs->table_name)) {
          if (const auto key = packet::ExtractFlowKey(p)) {
            ft->Update(*key, fs->field, Resolve(fs->delta, p), now);
          }
        }
      }
    }
  }
  return result;
}

}  // namespace flexnet::dataplane
