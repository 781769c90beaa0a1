// Causal span tracing — the flight recorder under the reconfiguration
// pipeline.
//
// PR 1's counters/histograms say *that* a reconfig took 800 µs; spans say
// *where* the time went.  A Span is a named [begin, end] interval of sim
// time with a parent link, so one reconfiguration request becomes a tree:
//
//   controller.deploy                        (root, one per request)
//   ├─ compiler.compile                      (placement decisions)
//   └─ controller.apply_plans
//      └─ runtime.apply_plan  [per device]
//         └─ runtime.step     [per reconfig op]
//
// The Tracer records spans into a bounded ring arena (the EventTrace
// discipline: fixed capacity reserved up front, oldest spans overwritten,
// no ring reallocation on hot paths after warmup).  Two export formats:
//
//  * ExportChromeTrace — Chrome trace-event JSON ("X" complete events),
//    loadable in chrome://tracing or Perfetto, written as TRACE_<name>.json
//    next to the BENCH_*.json blobs;
//  * a per-span-name latency rollup (count/p50/p99/total) merged into
//    telemetry::ExportJson's output, so benches report sub-second
//    reconfiguration as a per-phase budget instead of one opaque number.
//
// The simulator is single-threaded, so there is no locking and the scope
// stack (ScopedSpan) is a plain vector.  Span taxonomy: docs/TRACING.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace flexnet::telemetry {

using SpanId = std::uint64_t;  // 0 = "no span" (absent parent / failed start)

inline constexpr SpanId kNoSpan = 0;

struct SpanAnnotation {
  std::string key;
  std::string value;
};

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;  // kNoSpan for roots
  std::string name;         // taxonomy name, e.g. "runtime.apply_plan"
  std::string detail;       // free-form label (uri, device, chunk range)
  SimTime begin = 0;
  SimTime end = 0;          // meaningful once !open
  bool open = true;
  std::vector<SpanAnnotation> annotations;

  SimDuration duration() const noexcept { return open ? 0 : end - begin; }
};

// Fixed-capacity span arena.  Span ids are allocated sequentially and map
// to ring slots; a span that has been overwritten by a newer one silently
// ignores EndSpan/Annotate (the flight recorder keeps the newest window,
// exactly like EventTrace).
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096);

  // Optional sim-time source used by ScopedSpan and the no-timestamp
  // overloads.  Components owning a simulator install it; without a clock
  // now() is 0.  The callable must outlive its use, so components that
  // share a registry re-install their own clock on construction, tagged
  // with themselves as `owner`, and withdraw it with ReleaseClock(owner)
  // before the state it reads dies.
  void set_clock(std::function<SimTime()> clock, const void* owner = nullptr) {
    clock_ = std::move(clock);
    clock_owner_ = owner;
  }
  // Clears the clock if `owner` installed the current one; a clock some
  // later component installed stays.
  void ReleaseClock(const void* owner) noexcept {
    if (owner != nullptr && clock_owner_ == owner) set_clock(nullptr);
  }
  bool has_clock() const noexcept { return static_cast<bool>(clock_); }
  SimTime now() const { return clock_ ? clock_() : 0; }

  // Starts a span.  `parent` defaults to the innermost open ScopedSpan
  // (the scope stack); pass an explicit id to link asynchronous work (a
  // scheduled apply, a dRPC completion) to the operation that caused it.
  SpanId StartSpan(SimTime at, std::string name, std::string detail = "");
  SpanId StartSpan(SimTime at, std::string name, std::string detail,
                   SpanId parent);
  void EndSpan(SpanId id, SimTime at);
  void Annotate(SpanId id, std::string key, std::string value);

  // Records an already-finished interval in one call (for work whose
  // begin/end are both known when the event fires, e.g. a reconfig step).
  SpanId RecordSpan(SimTime begin, SimTime end, std::string name,
                    std::string detail = "", SpanId parent = kNoSpan);

  // Innermost open scoped span, kNoSpan when the stack is empty.
  SpanId current() const noexcept {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return ring_.size(); }
  std::uint64_t total_started() const noexcept { return next_id_ - 1; }
  std::uint64_t dropped() const noexcept { return total_started() - size(); }

  // Survivors in id (= begin-causal) order, oldest first.
  std::vector<Span> Spans() const;
  const Span* Find(SpanId id) const noexcept;

  void Clear();

 private:
  friend class ScopedSpan;

  Span* Slot(SpanId id) noexcept;

  std::vector<Span> ring_;
  std::size_t capacity_;
  SpanId next_id_ = 1;  // ring_[(id - 1) % capacity_] is id's slot
  std::vector<SpanId> stack_;
  std::function<SimTime()> clock_;
  const void* clock_owner_ = nullptr;
};

// RAII span: begins at construction (tracer clock unless an explicit time
// is given), parents under the current scope, and ends at destruction —
// including unwinding through an exception, so a failing pipeline phase
// still closes its span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string detail = "");
  ScopedSpan(Tracer* tracer, SimTime at, std::string name,
             std::string detail = "");
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  SpanId id() const noexcept { return id_; }
  void Annotate(std::string key, std::string value);
  // Ends the span early (idempotent; the destructor then does nothing).
  void End();
  void EndAt(SimTime at);

 private:
  Tracer* tracer_;
  SpanId id_ = kNoSpan;
  bool ended_ = false;
};

// Per-span-name latency rollup over the tracer's finished spans.
struct SpanRollup {
  std::string name;
  std::int64_t count = 0;
  double total_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
};

std::vector<SpanRollup> RollupSpans(const Tracer& tracer);

// Attribution quality: the fraction of root-span time accounted for by
// direct children, aggregated over every finished root span (per-root
// child time clamps at the root's duration, so concurrent children cannot
// push coverage past 1).  1.0 when there are no roots with duration.
// The reconfig pipeline targets >= 0.9 (see EXPERIMENTS.md).
double ChildCoverage(const Tracer& tracer);

class PostcardRecorder;

// Chrome trace-event JSON: {"traceEvents": [...], "displayTimeUnit": "ns"}.
// Finished spans become "X" (complete) events with microsecond ts/dur and
// span/parent ids in args; open spans are skipped (counted in metadata).
// When `postcards` is given, each sampled packet's hops are emitted as "X"
// events too, in a second process (pid 2, one tid per postcard), so packet
// journeys line up beside the control-plane spans on the same timeline.
// Loadable in chrome://tracing and Perfetto.
std::string ExportChromeTrace(const Tracer& tracer,
                              const std::string& process_name,
                              const PostcardRecorder* postcards = nullptr);

// Writes ExportChromeTrace() to <dir>/TRACE_<name>.json (the BENCH_*.json
// sibling convention).
Status WriteChromeTrace(const Tracer& tracer, const std::string& name,
                        const std::string& dir = ".",
                        const PostcardRecorder* postcards = nullptr);

}  // namespace flexnet::telemetry
