// Discrete-event simulation engine.
//
// Everything time-dependent in FlexNet — link transmission, pipeline
// latency, reconfiguration windows, controller timeouts, Raft elections —
// runs as events on one Simulator.  The engine is single-threaded and
// deterministic: two events at the same timestamp fire in scheduling order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace flexnet::sim {

using EventFn = std::function<void()>;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  // Schedule `fn` to run at now() + delay.  Negative delays clamp to now.
  // Returns an id usable with Cancel().
  std::uint64_t Schedule(SimDuration delay, EventFn fn);
  std::uint64_t ScheduleAt(SimTime when, EventFn fn);

  // Cancel a pending event.  Returns false if it already ran or was cancelled.
  bool Cancel(std::uint64_t event_id);

  // Run until the queue drains or `until` (inclusive) is reached.
  void Run();
  void RunUntil(SimTime until);
  // Execute at most one event; returns false when the queue is empty.
  bool Step();

  std::size_t pending_events() const noexcept {
    return queue_.size() - cancelled_live_;
  }
  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // Tie-break: FIFO among same-time events.
    std::uint64_t id;
    EventFn fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool PopAndRun();

  // Binary heap under EventLater (push_heap/pop_heap), so the next event
  // can be moved out rather than copied out of a priority_queue's top().
  std::vector<Event> queue_;
  std::vector<std::uint64_t> cancelled_;  // Ids cancelled but still queued.
  std::size_t cancelled_live_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace flexnet::sim
