// Section 3.1's inconsistency-length algebra.
//
// The paper's crawler cannot see origin update times; it infers them from
// the polls themselves: alpha(Ci) is the first time snapshot Ci appears
// anywhere in the trace ("since we poll a very large number of servers, the
// first time an update is observed should be close to the time of this
// update"); beta_s(Ci) is the last time server s served Ci. The
// inconsistency length of Ci on s is beta_s(Ci) - alpha(C_{i+1}) (how long s
// kept serving Ci after its successor existed), and a single request that
// observes Ci at time t is outdated by t - alpha(C_{i+1}) when positive.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "trace/poll_log.hpp"
#include "trace/update_trace.hpp"

namespace cdnsim::analysis {

/// One version's first-appearance time.
struct VersionTime {
  trace::Version version = 0;
  sim::SimTime time = 0;
};

/// First-appearance times alpha(Ci) inferred from a poll log, stored flat:
/// the distinct versions in ascending order, their alpha, and the suffix
/// minimum of alpha, so superseded_at is one binary search.
class SnapshotTimeline {
 public:
  /// alpha(v) = the earliest answered observation of v (on equal times, the
  /// first in log order). One pass keeps a per-version minimum; only the
  /// distinct versions are sorted.
  explicit SnapshotTimeline(const trace::PollLog& log);

  /// Construct from ground truth instead of inference (for validation).
  SnapshotTimeline(const trace::UpdateTrace& updates, sim::SimTime offset);

  /// Construct from per-version minima already computed elsewhere (each
  /// version at most once, in any order); the times are alpha as given.
  explicit SnapshotTimeline(std::vector<VersionTime> minima);

  /// alpha of version v; nullopt when v never appeared.
  std::optional<sim::SimTime> first_appearance(trace::Version v) const;

  /// alpha of the earliest version strictly greater than v (the moment
  /// content v became outdated); nullopt if v is never superseded.
  std::optional<sim::SimTime> superseded_at(trace::Version v) const;

  trace::Version max_version() const;

 private:
  std::vector<trace::Version> versions_;  // ascending, distinct
  std::vector<sim::SimTime> alpha_;       // alpha_[i] = alpha(versions_[i])
  std::vector<sim::SimTime> later_min_;   // min(alpha_[i..]), the suffix minimum
};

/// First-appearance times per (cluster, version), from one pass over a poll
/// log: the cluster-local timelines of Fig. 5 and Fig. 9 and the Fig. 9
/// complement ("every other cluster") timelines, without copying the log
/// once per cluster. local(c) equals SnapshotTimeline of the rows whose
/// server lies in cluster c, and complement(c) that of all other rows,
/// exactly: each alpha is the same row's time the log-built timeline picks.
class ClusterTimelines {
 public:
  /// `cluster_of[server]` is the server's cluster, < cluster_count; every
  /// server id in the log must index it.
  ClusterTimelines(const trace::PollLog& log,
                   const std::vector<std::size_t>& cluster_of,
                   std::size_t cluster_count);

  SnapshotTimeline local(std::size_t cluster) const;
  SnapshotTimeline complement(std::size_t cluster) const;

 private:
  /// The earliest answered row of one version within one cluster; row is
  /// the log position, kAbsent when the cluster never served the version.
  struct Earliest {
    sim::SimTime time = 0;
    std::size_t row = kAbsent;
  };
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  std::size_t cluster_count_;
  std::vector<trace::Version> versions_;  // slot -> version, first-seen order
  std::vector<Earliest> earliest_;        // [slot * cluster_count_ + cluster]
  std::vector<std::size_t> best_;         // per slot: cluster of the overall min
  std::vector<std::size_t> second_;       // per slot: best other cluster
};

/// Per-request inconsistency lengths: for every answered observation, how
/// long its content had been outdated at observation time (>= 0). Requests
/// serving content that was still current contribute 0. (Fig. 3 / Fig. 5 /
/// Fig. 7 CDFs.)
std::vector<double> request_inconsistency_lengths(const trace::PollLog& log,
                                                  const SnapshotTimeline& timeline);

/// Per-snapshot inconsistency lengths of one server:
/// beta_s(Ci) - alpha(C_{i+1}) for every snapshot the server served past its
/// supersession.
std::vector<double> server_inconsistency_lengths(
    std::span<const trace::Observation> server_observations,
    const SnapshotTimeline& timeline);

/// Section 3.4.3's consistency ratio:
/// 1 - sum(inconsistency lengths) / total trace time.
double consistency_ratio(std::span<const trace::Observation> server_observations,
                         const SnapshotTimeline& timeline, sim::SimTime total_time);

/// A half-open time interval [start, end); empty when end <= start.
struct Interval {
  sim::SimTime start = 0;
  sim::SimTime end = 0;
};

/// One server's per-snapshot inconsistency *intervals*:
/// [alpha(C_{i+1}), beta_s(Ci)) for every snapshot served past its
/// supersession. The per-snapshot lengths of server_inconsistency_lengths
/// are exactly these intervals' lengths; unlike the summed lengths the
/// intervals can be merged into a union, which bounds true stale time (a
/// laggard that skips versions double-counts overlapping supersessions in
/// the sum, never in the union).
std::vector<Interval> server_inconsistency_intervals(
    std::span<const trace::Observation> server_observations,
    const SnapshotTimeline& timeline);

/// Total measure of the union of (possibly overlapping, unordered)
/// intervals. Order-independent by construction; empty intervals count 0.
double merged_total(std::vector<Interval> intervals);

/// Fraction of servers serving outdated content at time t (Fig. 4b is its
/// average over all polling rounds of a day). A server's state at t is its
/// latest answered observation in (t - poll_window, t] (on equal times, the
/// first in log order); it is outdated when superseded_at(version) <= t.
/// Servers with no such observation do not count; no server at all reads 0.
double inconsistent_server_fraction(const trace::PollLog& log,
                                    const SnapshotTimeline& timeline, sim::SimTime t,
                                    sim::SimTime poll_window);

/// The mean of inconsistent_server_fraction(log, timeline, t_k, round_s)
/// over the rounds t_k = start + round_s, then t_k + round_s (repeated
/// addition) while t_k <= end, summed in round order. Bit-identical to that
/// loop, but computed in one sweep per server over its answered rows:
/// O(rows log rows-per-server + servers x rounds).
double average_inconsistent_server_fraction(const trace::PollLog& log,
                                            const SnapshotTimeline& timeline,
                                            sim::SimTime start, sim::SimTime end,
                                            sim::SimTime round_s);
double average_inconsistent_server_fraction(const trace::ServerIndex& index,
                                            const SnapshotTimeline& timeline,
                                            sim::SimTime start, sim::SimTime end,
                                            sim::SimTime round_s);

/// Server absences extracted from a poll log (gap between consecutive
/// answered polls minus the poll period), paired with the inconsistency of
/// the first content served after return. (Fig. 10b/10c.)
struct AbsenceEvent {
  net::NodeId server;
  sim::SimTime return_time;
  double absence_length;
  double inconsistency_after_return;  // -1 when not computable
};
/// Events come server by server in ascending id, each server's in log order.
std::vector<AbsenceEvent> extract_absences(const trace::PollLog& log,
                                           const SnapshotTimeline& timeline,
                                           sim::SimTime poll_period);
std::vector<AbsenceEvent> extract_absences(const trace::ServerIndex& index,
                                           const SnapshotTimeline& timeline,
                                           sim::SimTime poll_period);

}  // namespace cdnsim::analysis
