#include "sim/simulator.h"

#include <algorithm>
#include <cassert>

namespace flexnet::sim {

std::uint64_t Simulator::Schedule(SimDuration delay, EventFn fn) {
  return ScheduleAt(now_ + std::max<SimDuration>(delay, 0), std::move(fn));
}

std::uint64_t Simulator::ScheduleAt(SimTime when, EventFn fn) {
  assert(fn);
  const std::uint64_t id = next_id_++;
  queue_.push_back(Event{std::max(when, now_), next_seq_++, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
  return id;
}

bool Simulator::Cancel(std::uint64_t event_id) {
  // Lazy cancellation: remember the id, skip it when popped.  The cancelled
  // list stays small because events are short-lived.
  if (event_id == 0 || event_id >= next_id_) return false;
  if (std::find(cancelled_.begin(), cancelled_.end(), event_id) !=
      cancelled_.end()) {
    return false;
  }
  cancelled_.push_back(event_id);
  ++cancelled_live_;
  return true;
}

bool Simulator::PopAndRun() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    const auto it = std::find(cancelled_.begin(), cancelled_.end(), ev.id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      --cancelled_live_;
      continue;
    }
    now_ = ev.when;
    ++executed_;
    ev.fn();
    return true;
  }
  return false;
}

void Simulator::Run() {
  while (PopAndRun()) {
  }
}

void Simulator::RunUntil(SimTime until) {
  while (!queue_.empty() && queue_.front().when <= until) {
    if (!PopAndRun()) break;
  }
  now_ = std::max(now_, until);
}

bool Simulator::Step() { return PopAndRun(); }

}  // namespace flexnet::sim
