// Multicast-tree existence tests (Section 3.5, Figs. 11-12).
//
// The paper rules out a multicast update tree in the measured CDN with three
// statistical arguments, all implemented here:
//  1. cluster-level: if clusters sat at fixed tree layers, the relative
//     order of per-cluster average inconsistency would be stable across
//     days; the paper finds large day-to-day variation (Fig. 11a/11b);
//  2. server-level: within a cluster, per-server inconsistency *ranks*
//     would be stable across days under a static tree; they churn
//     (Fig. 11c/11d);
//  3. bound-level: under a tree, second-layer servers are bounded by one
//     TTL but deeper layers are not, and deeper layers hold more servers —
//     so most servers would exceed TTL; the paper instead finds most
//     servers' *maximum* inconsistency below TTL (Fig. 12).
#pragma once

#include <vector>

#include "analysis/inconsistency.hpp"
#include "trace/poll_log.hpp"

namespace cdnsim::analysis {

/// Per-cluster average inconsistency for one day's poll log.
/// `cluster_members[c]` lists the server ids of cluster c.
std::vector<double> cluster_average_inconsistency(
    const trace::PollLog& day_log, const SnapshotTimeline& timeline,
    const std::vector<std::vector<net::NodeId>>& cluster_members);

/// Day-by-cluster matrix of average inconsistency.
/// result[day][cluster]; days are given as [start, end) windows.
struct DayWindow {
  sim::SimTime start;
  sim::SimTime end;
};
std::vector<std::vector<double>> daily_cluster_inconsistency(
    const trace::PollLog& log,
    const std::vector<std::vector<net::NodeId>>& cluster_members,
    const std::vector<DayWindow>& days);

/// Ranks (1 = lowest value) of each entry of `values`; ties broken by index.
std::vector<std::size_t> rank_of(const std::vector<double>& values);

/// Average absolute day-to-day rank change per item, normalised by the item
/// count: ~0 for a static hierarchy, large under churn. `per_day[d][i]` is
/// item i's metric on day d.
double rank_instability(const std::vector<std::vector<double>>& per_day);

/// Spearman rank correlation between two days' values (a static tree keeps
/// it near 1 across all day pairs).
double spearman(const std::vector<double>& a, const std::vector<double>& b);

/// Per-server maximum inconsistency within one day's log (Fig. 12's CDF),
/// in ascending server id.
std::vector<double> per_server_max_inconsistency(const trace::PollLog& day_log,
                                                 const SnapshotTimeline& timeline);

/// Fraction of servers whose max inconsistency is below `ttl`. Under a
/// multicast tree most servers sit below the second layer and would exceed
/// one TTL; a large fraction below TTL contradicts tree existence.
double fraction_below_ttl(const std::vector<double>& max_inconsistencies, double ttl);

}  // namespace cdnsim::analysis
