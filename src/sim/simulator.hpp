// The discrete-event simulator.
//
// A Simulator owns the virtual clock and the event queue. Components
// schedule closures at absolute times or after delays; run() drains events
// in time order. The clock only moves forward — scheduling in the past is a
// contract violation, which catches latency-model bugs early.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace cdnsim::sim {

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule at an absolute time >= now(). Scheduling in the past (or at a
  /// NaN time) throws cdnsim::Error — it would reorder history and corrupt
  /// the run's determinism, so it fails loudly instead.
  EventHandle at(SimTime time, EventAction action) {
    return at(time, kUntaggedEvent, std::move(action));
  }
  EventHandle at(SimTime time, EventTag tag, EventAction action);

  /// Schedule after a non-negative delay.
  EventHandle after(SimTime delay, EventAction action) {
    return after(delay, kUntaggedEvent, std::move(action));
  }
  EventHandle after(SimTime delay, EventTag tag, EventAction action);

  /// Attaches a dispatch profiler (borrowed; may be null to detach).
  /// `tag_slots[tag]` is the pre-interned scope label for each EventTag the
  /// caller schedules with; tags past the table's end fall back to slot 0
  /// (the untagged label). Slots resolve to a table index in step(), so the
  /// enabled cost is one branch + one indexed load per event, and the
  /// disabled cost is the branch alone.
  void attach_profiler(obs::Profiler* profiler,
                       std::vector<obs::ProfileSlot> tag_slots);

  /// Run until the queue drains or the optional horizon is reached.
  /// Events at exactly the horizon still fire.
  void run(SimTime until = std::numeric_limits<SimTime>::infinity());

  /// Run every event strictly before `horizon`, leaving now() at the last
  /// processed event rather than forcing it to the horizon. The engine's
  /// time-series sampler runs to each grid point this way: after
  /// run_before(B) every event before B has fired, none at or after it has,
  /// and now() stays the time of the last real event, not a synthetic tick.
  void run_before(SimTime horizon) {
    while (!queue_.empty() && queue_.next_time() < horizon) step();
  }

  /// Process a single event if one exists; returns false when drained.
  bool step();

  std::uint64_t events_processed() const { return events_processed_; }
  bool drained() const { return queue_.empty(); }

  /// Queue lifetime statistics (events scheduled/cancelled, compactions,
  /// peak depth) — the sim layer stays observability-agnostic; callers
  /// publish these through obs::MetricsRegistry if they want them.
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  obs::Profiler* profiler_ = nullptr;
  std::vector<obs::ProfileSlot> tag_slots_;
};

}  // namespace cdnsim::sim
