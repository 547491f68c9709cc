// Per-server user-visit streams, generated on demand from per-user phases.
//
// The engine's end users poll on fixed-period timers with a uniformly random
// start phase. For the pinned attachment every visit is a pure read of the
// home server's state, so a server's whole arrival stream is fully described
// by one phase per user and can be walked in bulk
// (consistency::UpdateEngine's batched visit path) instead of paying one
// simulator event per visit. A VisitStream keeps one head per user in a
// small min-heap; its state is O(users per server), independent of the
// horizon.
//
// Determinism contract (pinned down by visit_batch_stress_test):
//  * phases are drawn in user-id order from the caller's RNG — exactly the
//    draws the legacy per-user PeriodicTimer setup made, so building the
//    streams consumes the same stream prefix;
//  * successive visit times accumulate t += period (repeated addition, the
//    arithmetic PeriodicTimer::fire() performs), never phase + k * period —
//    the two differ in floating point and the engine pins the timer's bits;
//  * visits strictly before `end_time_s` are kept (a visit at exactly the
//    horizon is dropped, matching the engine's `now >= end_time` stop);
//  * a stream yields its server's visits in (time, user) order —
//    simultaneous visits (measure-zero for generic phases) order by user id.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace cdnsim::trace {

/// One visit, and a position in a server's visit order: visits are totally
/// ordered by (time, user). `user` is the server-local user index (global
/// id = server * users_per_server + user).
struct VisitPos {
  sim::SimTime time;
  std::uint32_t user;

  friend bool operator<(const VisitPos& a, const VisitPos& b) {
    return a.time < b.time || (a.time == b.time && a.user < b.user);
  }
  friend bool operator==(const VisitPos&, const VisitPos&) = default;
};

class VisitStream {
 public:
  /// An exhausted stream (no users).
  VisitStream() = default;
  /// Local user k's first visit is at phases[k]; later ones follow every
  /// `period_s` while strictly before `end_time_s`.
  VisitStream(std::vector<sim::SimTime> phases, sim::SimTime period_s,
              sim::SimTime end_time_s);

  /// The next unconsumed visit (the heap top, cached); time is +inf once
  /// the stream is exhausted.
  const VisitPos& next() const { return next_; }
  bool exhausted() const {
    return next_.time == std::numeric_limits<sim::SimTime>::infinity();
  }

  /// Consumes and returns the next visit. Precondition: !exhausted().
  VisitPos pop();
  /// Consumes every visit with time < `upto`; returns how many. Each user
  /// is taken off the heap top at most once and advanced by repeated
  /// addition, so the cost is O(visits + touched users * log users) with
  /// no per-visit memory.
  std::uint64_t advance_until(sim::SimTime upto);

  /// Local user k visits at phase(k), then at repeated `t += period()`
  /// while t < end_time() — callers that regenerate a user's visits (the
  /// engine's user-metric fold) use exactly this arithmetic.
  sim::SimTime phase(std::uint32_t user) const { return phases_[user]; }
  sim::SimTime period() const { return period_; }
  sim::SimTime end_time() const { return end_time_; }

 private:
  void sift_root();

  std::vector<sim::SimTime> phases_;
  // One head per user, a binary min-heap by (time, user); a user past the
  // horizon keeps a head at +inf, which sinks below every live one.
  std::vector<VisitPos> heap_;
  sim::SimTime period_ = 0;
  sim::SimTime end_time_ = 0;
  VisitPos next_{std::numeric_limits<sim::SimTime>::infinity(), 0};
};

/// Builds the visit streams of `server_count` servers with
/// `users_per_server` users each (user i is pinned to server
/// i / users_per_server). Draws one uniform phase in [0, start_window_s)
/// per user, in user-id order, from `rng`. Global user ids must fit in
/// 32 bits.
std::vector<VisitStream> make_visit_streams(std::size_t server_count,
                                            std::size_t users_per_server,
                                            sim::SimTime period_s,
                                            sim::SimTime start_window_s,
                                            sim::SimTime end_time_s,
                                            util::Rng& rng);

}  // namespace cdnsim::trace
