#include "analysis/tree_existence.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace cdnsim::analysis {

std::vector<double> cluster_average_inconsistency(
    const trace::PollLog& day_log, const SnapshotTimeline& timeline,
    const std::vector<std::vector<net::NodeId>>& cluster_members) {
  const trace::ServerIndex by_server(day_log);
  std::vector<double> out;
  out.reserve(cluster_members.size());
  for (const auto& members : cluster_members) {
    double sum = 0;
    std::size_t n = 0;
    for (net::NodeId s : members) {
      for (double len : server_inconsistency_lengths(by_server.find(s), timeline)) {
        sum += len;
        ++n;
      }
    }
    out.push_back(n == 0 ? 0.0 : sum / static_cast<double>(n));
  }
  return out;
}

std::vector<std::vector<double>> daily_cluster_inconsistency(
    const trace::PollLog& log,
    const std::vector<std::vector<net::NodeId>>& cluster_members,
    const std::vector<DayWindow>& days) {
  std::vector<std::vector<double>> out;
  out.reserve(days.size());
  for (const auto& day : days) {
    const auto day_log = log.window(day.start, day.end);
    const SnapshotTimeline timeline(day_log);
    out.push_back(cluster_average_inconsistency(day_log, timeline, cluster_members));
  }
  return out;
}

std::vector<std::size_t> rank_of(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  std::vector<std::size_t> ranks(values.size());
  for (std::size_t r = 0; r < order.size(); ++r) ranks[order[r]] = r + 1;
  return ranks;
}

double rank_instability(const std::vector<std::vector<double>>& per_day) {
  CDNSIM_EXPECTS(per_day.size() >= 2, "need at least two days");
  const std::size_t n = per_day.front().size();
  CDNSIM_EXPECTS(n >= 2, "need at least two items to rank");
  for (const auto& day : per_day) {
    CDNSIM_EXPECTS(day.size() == n, "ragged per-day matrix");
  }
  double total_change = 0;
  std::size_t comparisons = 0;
  auto prev_ranks = rank_of(per_day[0]);
  for (std::size_t d = 1; d < per_day.size(); ++d) {
    const auto ranks = rank_of(per_day[d]);
    for (std::size_t i = 0; i < n; ++i) {
      total_change += std::abs(static_cast<double>(ranks[i]) -
                               static_cast<double>(prev_ranks[i]));
      ++comparisons;
    }
    prev_ranks = ranks;
  }
  // Normalise by item count so the value is a fraction of the rank range.
  return total_change / static_cast<double>(comparisons) / static_cast<double>(n);
}

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  CDNSIM_EXPECTS(a.size() == b.size() && a.size() >= 2,
                 "spearman needs two equally sized series");
  const auto ra = rank_of(a);
  const auto rb = rank_of(b);
  std::vector<double> da(ra.begin(), ra.end());
  std::vector<double> db(rb.begin(), rb.end());
  return util::pearson(da, db);
}

std::vector<double> per_server_max_inconsistency(const trace::PollLog& day_log,
                                                 const SnapshotTimeline& timeline) {
  const trace::ServerIndex by_server(day_log);
  std::vector<double> out;
  out.reserve(by_server.servers().size());
  for (std::size_t s = 0; s < by_server.servers().size(); ++s) {
    const auto lengths = server_inconsistency_lengths(by_server.rows(s), timeline);
    double best = 0;
    for (double len : lengths) best = std::max(best, len);
    out.push_back(best);
  }
  return out;
}

double fraction_below_ttl(const std::vector<double>& max_inconsistencies,
                          double ttl) {
  CDNSIM_EXPECTS(ttl > 0, "ttl must be positive");
  if (max_inconsistencies.empty()) return 0.0;
  std::size_t below = 0;
  for (double x : max_inconsistencies) {
    if (x < ttl) ++below;
  }
  return static_cast<double>(below) / static_cast<double>(max_inconsistencies.size());
}

}  // namespace cdnsim::analysis
