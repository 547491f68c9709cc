#include "analysis/inconsistency.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/error.hpp"

namespace cdnsim::analysis {

namespace {

/// Per-version minimum in one pass; a strict < keeps the first row in log
/// order among equal times.
std::vector<VersionTime> first_appearances(const trace::PollLog& log) {
  std::unordered_map<trace::Version, std::size_t> slot_of;
  std::vector<VersionTime> minima;
  for (const auto& obs : log.observations()) {
    if (!obs.answered) continue;
    const auto [it, inserted] = slot_of.try_emplace(obs.version, minima.size());
    if (inserted) {
      minima.push_back({obs.version, obs.time});
    } else if (obs.time < minima[it->second].time) {
      minima[it->second].time = obs.time;
    }
  }
  return minima;
}

std::vector<VersionTime> update_times(const trace::UpdateTrace& updates,
                                      sim::SimTime offset) {
  std::vector<VersionTime> minima;
  minima.push_back({0, 0});
  for (trace::Version v = 1; v <= updates.update_count(); ++v) {
    minima.push_back({v, updates.update_time(v) + offset});
  }
  return minima;
}

/// beta_s(v), the last time the server served version v, for every version
/// it answered with, in ascending version order. Each maximum starts from
/// 0.0 (a negative corrected time yields 0). The pairs are collected into a
/// per-thread buffer reused across calls; the study calls this four times
/// per server per day.
std::span<const VersionTime> last_served(
    std::span<const trace::Observation> server_observations) {
  thread_local std::vector<VersionTime> buffer;
  buffer.clear();
  for (const auto& obs : server_observations) {
    if (obs.answered) buffer.push_back({obs.version, obs.time});
  }
  std::sort(buffer.begin(), buffer.end(),
            [](const VersionTime& a, const VersionTime& b) {
              return a.version < b.version;
            });
  // Reduce each run of one version to its maximum, in place. A max fold
  // from +0.0 never adopts -0.0 or NaN, so the order within a run does not
  // matter.
  std::size_t out = 0;
  for (std::size_t i = 0; i < buffer.size();) {
    const trace::Version v = buffer[i].version;
    sim::SimTime t = 0.0;
    for (; i < buffer.size() && buffer[i].version == v; ++i) {
      t = std::max(t, buffer[i].time);
    }
    buffer[out++] = {v, t};
  }
  return {buffer.data(), out};
}

}  // namespace

SnapshotTimeline::SnapshotTimeline(const trace::PollLog& log)
    : SnapshotTimeline(first_appearances(log)) {}

SnapshotTimeline::SnapshotTimeline(const trace::UpdateTrace& updates,
                                   sim::SimTime offset)
    : SnapshotTimeline(update_times(updates, offset)) {}

SnapshotTimeline::SnapshotTimeline(std::vector<VersionTime> minima) {
  std::sort(minima.begin(), minima.end(),
            [](const VersionTime& a, const VersionTime& b) {
              return a.version < b.version;
            });
  CDNSIM_EXPECTS(std::adjacent_find(minima.begin(), minima.end(),
                                    [](const VersionTime& a, const VersionTime& b) {
                                      return a.version == b.version;
                                    }) == minima.end(),
                 "each version needs exactly one first-appearance time");
  const std::size_t n = minima.size();
  versions_.resize(n);
  alpha_.resize(n);
  later_min_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    versions_[i] = minima[i].version;
    alpha_[i] = minima[i].time;
  }
  // Appearance times are not necessarily monotone in version (a laggard
  // server can "reveal" an old snapshot late), so superseded_at needs the
  // minimum over all later versions. std::min keeps its first argument on
  // ties, so each entry is the lowest version's alpha among the minimal ones.
  for (std::size_t i = n; i-- > 0;) {
    later_min_[i] = i + 1 == n ? alpha_[i] : std::min(alpha_[i], later_min_[i + 1]);
  }
}

std::optional<sim::SimTime> SnapshotTimeline::first_appearance(
    trace::Version v) const {
  const auto it = std::lower_bound(versions_.begin(), versions_.end(), v);
  if (it == versions_.end() || *it != v) return std::nullopt;
  return alpha_[static_cast<std::size_t>(it - versions_.begin())];
}

std::optional<sim::SimTime> SnapshotTimeline::superseded_at(trace::Version v) const {
  // The earliest appearance time among versions > v.
  const auto it = std::upper_bound(versions_.begin(), versions_.end(), v);
  if (it == versions_.end()) return std::nullopt;
  return later_min_[static_cast<std::size_t>(it - versions_.begin())];
}

trace::Version SnapshotTimeline::max_version() const {
  return versions_.empty() ? 0 : versions_.back();
}

ClusterTimelines::ClusterTimelines(const trace::PollLog& log,
                                   const std::vector<std::size_t>& cluster_of,
                                   std::size_t cluster_count)
    : cluster_count_(cluster_count) {
  std::unordered_map<trace::Version, std::size_t> slot_of;
  const auto& observations = log.observations();
  for (std::size_t row = 0; row < observations.size(); ++row) {
    const auto& obs = observations[row];
    if (!obs.answered) continue;
    const auto server = static_cast<std::size_t>(obs.server);
    CDNSIM_EXPECTS(obs.server >= 0 && server < cluster_of.size() &&
                       cluster_of[server] < cluster_count,
                   "poll-log server outside the clustering");
    const auto [it, inserted] = slot_of.try_emplace(obs.version, versions_.size());
    if (inserted) {
      versions_.push_back(obs.version);
      earliest_.resize(earliest_.size() + cluster_count);
    }
    Earliest& e = earliest_[it->second * cluster_count + cluster_of[server]];
    // Rows arrive in log order, so a strict < keeps the first minimal row.
    if (e.row == kAbsent || obs.time < e.time) e = {obs.time, row};
  }
  // Per version, the cluster holding the overall earliest row and the best
  // other one, ordered by (time, log position) as a log scan would pick.
  const auto before = [](const Earliest& a, const Earliest& b) {
    return a.time < b.time || (!(b.time < a.time) && a.row < b.row);
  };
  best_.assign(versions_.size(), kAbsent);
  second_.assign(versions_.size(), kAbsent);
  for (std::size_t slot = 0; slot < versions_.size(); ++slot) {
    const Earliest* row = &earliest_[slot * cluster_count];
    for (std::size_t c = 0; c < cluster_count; ++c) {
      if (row[c].row == kAbsent) continue;
      if (best_[slot] == kAbsent || before(row[c], row[best_[slot]])) {
        second_[slot] = best_[slot];
        best_[slot] = c;
      } else if (second_[slot] == kAbsent || before(row[c], row[second_[slot]])) {
        second_[slot] = c;
      }
    }
  }
}

SnapshotTimeline ClusterTimelines::local(std::size_t cluster) const {
  CDNSIM_EXPECTS(cluster < cluster_count_, "cluster index out of range");
  std::vector<VersionTime> minima;
  for (std::size_t slot = 0; slot < versions_.size(); ++slot) {
    const Earliest& e = earliest_[slot * cluster_count_ + cluster];
    if (e.row != kAbsent) minima.push_back({versions_[slot], e.time});
  }
  return SnapshotTimeline(std::move(minima));
}

SnapshotTimeline ClusterTimelines::complement(std::size_t cluster) const {
  CDNSIM_EXPECTS(cluster < cluster_count_, "cluster index out of range");
  std::vector<VersionTime> minima;
  for (std::size_t slot = 0; slot < versions_.size(); ++slot) {
    const std::size_t pick = best_[slot] != cluster ? best_[slot] : second_[slot];
    if (pick == kAbsent) continue;
    minima.push_back({versions_[slot], earliest_[slot * cluster_count_ + pick].time});
  }
  return SnapshotTimeline(std::move(minima));
}

std::vector<double> request_inconsistency_lengths(const trace::PollLog& log,
                                                  const SnapshotTimeline& timeline) {
  std::vector<double> out;
  out.reserve(log.size());
  for (const auto& obs : log.observations()) {
    if (!obs.answered) continue;
    const auto superseded = timeline.superseded_at(obs.version);
    if (!superseded) {
      out.push_back(0.0);
      continue;
    }
    out.push_back(std::max(0.0, obs.time - *superseded));
  }
  return out;
}

std::vector<double> server_inconsistency_lengths(
    std::span<const trace::Observation> server_observations,
    const SnapshotTimeline& timeline) {
  const std::span<const VersionTime> beta = last_served(server_observations);
  std::vector<double> out;
  out.reserve(beta.size());
  for (const auto& [v, last_seen] : beta) {
    const auto superseded = timeline.superseded_at(v);
    if (!superseded) continue;
    const double len = last_seen - *superseded;
    if (len > 0) out.push_back(len);
  }
  return out;
}

std::vector<Interval> server_inconsistency_intervals(
    std::span<const trace::Observation> server_observations,
    const SnapshotTimeline& timeline) {
  const std::span<const VersionTime> beta = last_served(server_observations);
  std::vector<Interval> out;
  out.reserve(beta.size());
  for (const auto& [v, last_seen] : beta) {
    const auto superseded = timeline.superseded_at(v);
    if (!superseded) continue;
    if (last_seen > *superseded) out.push_back({*superseded, last_seen});
  }
  return out;
}

double merged_total(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start || (a.start == b.start && a.end < b.end);
            });
  double total = 0;
  sim::SimTime covered_until = 0;
  bool open = false;
  for (const auto& iv : intervals) {
    if (iv.end <= iv.start) continue;  // empty
    if (!open || iv.start > covered_until) {
      total += iv.end - iv.start;
      covered_until = iv.end;
      open = true;
    } else if (iv.end > covered_until) {
      total += iv.end - covered_until;
      covered_until = iv.end;
    }
  }
  return total;
}

double consistency_ratio(std::span<const trace::Observation> server_observations,
                         const SnapshotTimeline& timeline, sim::SimTime total_time) {
  CDNSIM_EXPECTS(total_time > 0, "total trace time must be positive");
  const auto lengths = server_inconsistency_lengths(server_observations, timeline);
  double sum = 0;
  for (double x : lengths) sum += x;
  return 1.0 - std::min(1.0, sum / total_time);
}

double inconsistent_server_fraction(const trace::PollLog& log,
                                    const SnapshotTimeline& timeline, sim::SimTime t,
                                    sim::SimTime poll_window) {
  // A server's state at time t is its last observation in (t - window, t].
  std::unordered_map<net::NodeId, const trace::Observation*> latest;
  for (const auto& obs : log.observations()) {
    if (!obs.answered || obs.time > t || obs.time <= t - poll_window) continue;
    auto& slot = latest[obs.server];
    if (slot == nullptr || obs.time > slot->time) slot = &obs;
  }
  if (latest.empty()) return 0.0;
  std::size_t stale = 0;
  for (const auto& [server, obs] : latest) {
    const auto superseded = timeline.superseded_at(obs->version);
    if (superseded && *superseded <= t) ++stale;
  }
  return static_cast<double>(stale) / static_cast<double>(latest.size());
}

double average_inconsistent_server_fraction(const trace::PollLog& log,
                                            const SnapshotTimeline& timeline,
                                            sim::SimTime start, sim::SimTime end,
                                            sim::SimTime round_s) {
  return average_inconsistent_server_fraction(trace::ServerIndex(log), timeline,
                                              start, end, round_s);
}

double average_inconsistent_server_fraction(const trace::ServerIndex& index,
                                            const SnapshotTimeline& timeline,
                                            sim::SimTime start, sim::SimTime end,
                                            sim::SimTime round_s) {
  CDNSIM_EXPECTS(round_s > 0 && end > start, "invalid averaging window");
  // The round instants, stepped exactly as the per-round loop steps them
  // (non-decreasing, so both window bounds only move forward).
  std::vector<sim::SimTime> instants;
  for (sim::SimTime t = start + round_s; t <= end; t += round_s) {
    instants.push_back(t);
  }
  std::vector<std::size_t> stale(instants.size(), 0);
  std::vector<std::size_t> present(instants.size(), 0);

  struct Answered {
    sim::SimTime time;
    std::size_t pos;             // position in the server's log-order rows
    sim::SimTime superseded_at;  // +inf: never superseded
  };
  constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::infinity();
  std::vector<Answered> answered;
  for (std::size_t s = 0; s < index.servers().size(); ++s) {
    const auto rows = index.rows(s);
    answered.clear();
    for (std::size_t pos = 0; pos < rows.size(); ++pos) {
      if (!rows[pos].answered) continue;
      answered.push_back({rows[pos].time, pos,
                          timeline.superseded_at(rows[pos].version).value_or(kNever)});
    }
    // Time order; on equal times the first row in log order sorts last, so
    // the last row at or before an instant is the one the definition keeps.
    std::sort(answered.begin(), answered.end(),
              [](const Answered& a, const Answered& b) {
                return a.time < b.time || (!(b.time < a.time) && a.pos > b.pos);
              });
    std::size_t next = 0;  // rows [0, next) are at or before the instant
    for (std::size_t k = 0; k < instants.size(); ++k) {
      const sim::SimTime t = instants[k];
      while (next < answered.size() && answered[next].time <= t) ++next;
      if (next == 0) continue;
      const Answered& latest = answered[next - 1];
      if (latest.time <= t - round_s) continue;  // window is (t - round_s, t]
      ++present[k];
      if (latest.superseded_at <= t) ++stale[k];
    }
  }
  double sum = 0;
  for (std::size_t k = 0; k < instants.size(); ++k) {
    sum += present[k] == 0 ? 0.0
                           : static_cast<double>(stale[k]) /
                                 static_cast<double>(present[k]);
  }
  return instants.empty() ? 0.0 : sum / static_cast<double>(instants.size());
}

std::vector<AbsenceEvent> extract_absences(const trace::PollLog& log,
                                           const SnapshotTimeline& timeline,
                                           sim::SimTime poll_period) {
  return extract_absences(trace::ServerIndex(log), timeline, poll_period);
}

std::vector<AbsenceEvent> extract_absences(const trace::ServerIndex& index,
                                           const SnapshotTimeline& timeline,
                                           sim::SimTime poll_period) {
  CDNSIM_EXPECTS(poll_period > 0, "poll period must be positive");
  std::vector<AbsenceEvent> out;
  for (std::size_t s = 0; s < index.servers().size(); ++s) {
    const net::NodeId server = index.servers()[s];
    const trace::Observation* prev_answered = nullptr;
    for (const auto& obs : index.rows(s)) {
      if (!obs.answered) continue;
      if (prev_answered != nullptr) {
        const double gap = obs.time - prev_answered->time - poll_period;
        // Tolerate scheduling jitter of half a period before calling it an
        // absence (the paper computes t_{i+1} - t_i - 10 s).
        if (gap > poll_period / 2) {
          AbsenceEvent ev;
          ev.server = server;
          ev.return_time = obs.time;
          ev.absence_length = gap;
          const auto superseded = timeline.superseded_at(obs.version);
          ev.inconsistency_after_return =
              superseded ? std::max(0.0, obs.time - *superseded) : -1.0;
          out.push_back(ev);
        }
      }
      prev_answered = &obs;
    }
  }
  return out;
}

}  // namespace cdnsim::analysis
