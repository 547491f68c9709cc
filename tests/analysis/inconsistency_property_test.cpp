// Property tests for Section 3's inconsistency-length algebra.
//
// Rather than pinning single examples, these generate randomized poll logs
// (servers with random staleness lags against a random update trace) and
// assert the invariants the algebra must satisfy for *every* input:
//  - the union of a server's inconsistency intervals never exceeds the
//    observation window, even when the summed per-snapshot lengths do (a
//    laggard skipping versions double-counts overlapping supersessions);
//  - merged_total is independent of interval order;
//  - the whole pipeline is independent of poll-log observation order;
//  - zero updates means zero inconsistency and a perfect consistency ratio;
//  - the one-pass Fig. 4b sweep equals the per-round definition bit for bit,
//    and the server index and cluster timelines equal their log-scan
//    definitions, on adversarial logs (shuffled, tied, on window edges).
#include "analysis/inconsistency.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace cdnsim::analysis {
namespace {

constexpr sim::SimTime kWindow = 600.0;
constexpr sim::SimTime kPollPeriod = 10.0;

/// A random update trace within [0, kWindow): version v appears at
/// update_time(v); version 0 exists from time 0.
trace::UpdateTrace random_updates(util::Rng& rng) {
  std::vector<sim::SimTime> times;
  sim::SimTime t = 0;
  while (true) {
    t += rng.exponential(40.0);
    if (t >= kWindow) break;
    times.push_back(t);
  }
  return trace::UpdateTrace(std::move(times));
}

/// Poll log for `server_count` servers polling every kPollPeriod: each
/// server serves the newest version older than its own random lag, so slow
/// servers naturally skip versions.
trace::PollLog random_log(const trace::UpdateTrace& updates, util::Rng& rng,
                          std::size_t server_count) {
  trace::PollLog log;
  for (std::size_t s = 0; s < server_count; ++s) {
    const double lag = rng.uniform(0.0, 120.0);
    for (sim::SimTime t = kPollPeriod; t < kWindow; t += kPollPeriod) {
      if (rng.chance(0.05)) {  // occasional unanswered poll
        log.add({static_cast<net::NodeId>(s), t, 0, false});
        continue;
      }
      trace::Version v = 0;
      for (trace::Version cand = updates.update_count(); cand >= 1; --cand) {
        if (updates.update_time(cand) <= t - lag) {
          v = cand;
          break;
        }
      }
      log.add({static_cast<net::NodeId>(s), t, v, true});
    }
  }
  return log;
}

TEST(InconsistencyProperty, MergedTotalNeverExceedsObservationWindow) {
  util::Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    const auto updates = random_updates(rng);
    const SnapshotTimeline timeline(updates, 0.0);
    const auto log = random_log(updates, rng, 6);
    for (net::NodeId server : log.servers()) {
      const auto obs = log.for_server(server);
      const auto intervals = server_inconsistency_intervals(obs, timeline);
      const double merged = merged_total(intervals);
      EXPECT_LE(merged, kWindow) << "trial " << trial << " server " << server;
      // ... and the union can never exceed the per-snapshot sum.
      const auto lengths = server_inconsistency_lengths(obs, timeline);
      double sum = 0;
      for (double x : lengths) sum += x;
      EXPECT_LE(merged, sum + 1e-9);
      // The intervals' lengths ARE the per-snapshot lengths.
      double interval_sum = 0;
      for (const auto& iv : intervals) interval_sum += iv.end - iv.start;
      EXPECT_NEAR(interval_sum, sum, 1e-9);
    }
  }
}

TEST(InconsistencyProperty, SummedLengthsCanExceedWindowButUnionCannot) {
  // Construct the pathological laggard explicitly: versions 1..9 appear one
  // second apart, the server serves version 0 the whole window and "reveals"
  // it at the end. Each supersession interval overlaps the others almost
  // entirely, so the sum blows past the window while the union stays inside.
  std::vector<sim::SimTime> times;
  std::vector<trace::Observation> obs;
  for (int v = 1; v <= 9; ++v) times.push_back(static_cast<double>(v));
  const trace::UpdateTrace updates(std::move(times));
  const SnapshotTimeline timeline(updates, 0.0);
  trace::PollLog log;
  for (int v = 0; v <= 9; ++v) {
    // The server lingers on every version until t=100: beta_s(v) = 100.
    obs.push_back({0, 100.0, static_cast<trace::Version>(v), true});
  }
  const auto lengths = server_inconsistency_lengths(obs, timeline);
  double sum = 0;
  for (double x : lengths) sum += x;
  EXPECT_GT(sum, 100.0);  // the paper clamps the ratio for exactly this case
  EXPECT_LE(merged_total(server_inconsistency_intervals(obs, timeline)),
            100.0);
  // consistency_ratio survives the blow-up thanks to its clamp.
  const double ratio = consistency_ratio(obs, timeline, 100.0);
  EXPECT_GE(ratio, 0.0);
  EXPECT_LE(ratio, 1.0);
}

TEST(InconsistencyProperty, MergedTotalIsOrderIndependent) {
  util::Rng rng(72);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Interval> intervals;
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < n; ++i) {
      const double a = rng.uniform(0.0, 100.0);
      const double b = rng.uniform(-5.0, 30.0);
      intervals.push_back({a, a + b});  // some intentionally empty
    }
    const double reference = merged_total(intervals);
    for (int shuffle = 0; shuffle < 5; ++shuffle) {
      rng.shuffle(intervals);
      EXPECT_DOUBLE_EQ(merged_total(intervals), reference) << "trial " << trial;
    }
  }
}

TEST(InconsistencyProperty, PipelineIsPollOrderIndependent) {
  util::Rng rng(73);
  const auto updates = random_updates(rng);
  const auto ordered_log = random_log(updates, rng, 5);

  // Re-insert the same observations in shuffled order.
  std::vector<trace::Observation> shuffled = ordered_log.observations();
  rng.shuffle(shuffled);
  trace::PollLog shuffled_log;
  for (const auto& o : shuffled) shuffled_log.add(o);

  // Inferred timelines agree on every version's first appearance...
  const SnapshotTimeline a(ordered_log), b(shuffled_log);
  ASSERT_EQ(a.max_version(), b.max_version());
  for (trace::Version v = 0; v <= a.max_version(); ++v) {
    EXPECT_EQ(a.first_appearance(v), b.first_appearance(v)) << "version " << v;
    EXPECT_EQ(a.superseded_at(v), b.superseded_at(v)) << "version " << v;
  }
  // ...and the per-server aggregates are identical (for_server() re-sorts
  // is NOT promised — the beta-map and interval union are order-free).
  for (net::NodeId server : ordered_log.servers()) {
    const auto obs_a = ordered_log.for_server(server);
    auto obs_b = shuffled_log.for_server(server);
    std::sort(obs_b.begin(), obs_b.end(),
              [](const trace::Observation& x, const trace::Observation& y) {
                return x.time < y.time;
              });
    const auto len_a = server_inconsistency_lengths(obs_a, a);
    const auto len_b = server_inconsistency_lengths(obs_b, b);
    EXPECT_EQ(len_a, len_b);
    EXPECT_DOUBLE_EQ(
        merged_total(server_inconsistency_intervals(obs_a, a)),
        merged_total(server_inconsistency_intervals(obs_b, b)));
    EXPECT_DOUBLE_EQ(consistency_ratio(obs_a, a, kWindow),
                     consistency_ratio(obs_b, b, kWindow));
  }
}

TEST(InconsistencyProperty, ZeroUpdatesMeansZeroInconsistency) {
  util::Rng rng(74);
  const trace::UpdateTrace updates(std::vector<sim::SimTime>{});
  const SnapshotTimeline timeline(updates, 0.0);
  const auto log = random_log(updates, rng, 4);
  const auto lengths = request_inconsistency_lengths(log, timeline);
  EXPECT_TRUE(lengths.empty() ||
              std::all_of(lengths.begin(), lengths.end(),
                          [](double x) { return x == 0.0; }));
  for (net::NodeId server : log.servers()) {
    const auto obs = log.for_server(server);
    EXPECT_TRUE(server_inconsistency_lengths(obs, timeline).empty());
    EXPECT_TRUE(server_inconsistency_intervals(obs, timeline).empty());
    EXPECT_DOUBLE_EQ(consistency_ratio(obs, timeline, kWindow), 1.0);
  }
}

TEST(InconsistencyProperty, ConsistencyRatioStaysInUnitInterval) {
  util::Rng rng(75);
  for (int trial = 0; trial < 20; ++trial) {
    const auto updates = random_updates(rng);
    const SnapshotTimeline timeline(updates, 0.0);
    const auto log = random_log(updates, rng, 4);
    for (net::NodeId server : log.servers()) {
      const double ratio =
          consistency_ratio(log.for_server(server), timeline, kWindow);
      EXPECT_GE(ratio, 0.0);
      EXPECT_LE(ratio, 1.0);
    }
  }
}

/// The rounds average_inconsistent_server_fraction averages over, stepped
/// the same way (repeated addition).
std::vector<sim::SimTime> round_instants(sim::SimTime start, sim::SimTime end,
                                         sim::SimTime round_s) {
  std::vector<sim::SimTime> out;
  for (sim::SimTime t = start + round_s; t <= end; t += round_s) out.push_back(t);
  return out;
}

/// A poll log built to trip a sweep: rows exactly at a round instant t_k or
/// at its excluded window edge t_k - round_s, random versions (so first
/// appearances are not monotone in version), unanswered rows, server 0 with
/// equal timestamps carrying different versions, every server silent for a
/// run of whole rounds, and the rows in shuffled order.
trace::PollLog adversarial_log(util::Rng& rng, const std::vector<sim::SimTime>& instants,
                               sim::SimTime round_s, std::size_t server_count) {
  std::vector<trace::Observation> rows;
  const std::size_t k_count = instants.size();
  for (std::size_t s = 0; s < server_count; ++s) {
    const auto server = static_cast<net::NodeId>(s);
    const std::size_t silent_from = rng.index(k_count);
    const std::size_t silent_to = silent_from + rng.index(k_count / 3 + 1);
    const int n = static_cast<int>(rng.uniform_int(20, 90));
    for (int i = 0; i < n; ++i) {
      const std::size_t k = rng.index(k_count);
      if (k >= silent_from && k <= silent_to) continue;
      sim::SimTime t = 0;
      const double pick = rng.uniform(0.0, 1.0);
      if (pick < 0.3) {
        t = instants[k];
      } else if (pick < 0.5) {
        t = instants[k] - round_s;
      } else {
        t = instants[k] - rng.uniform(0.0, round_s);
      }
      const auto version = static_cast<trace::Version>(rng.uniform_int(0, 12));
      const bool answered = !rng.chance(0.1);
      rows.push_back({server, t, version, answered});
      if (s == 0) {  // the same instant again with another version
        rows.push_back({server, t, static_cast<trace::Version>(rng.uniform_int(0, 12)),
                        true});
      }
    }
  }
  rng.shuffle(rows);
  trace::PollLog log;
  for (const auto& row : rows) log.add(row);
  return log;
}

TEST(InconsistencyProperty, FractionSweepEqualsPerRoundDefinition) {
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const sim::SimTime start = rng.uniform(0.0, 50.0);
    const sim::SimTime round_s = rng.uniform(3.0, 12.0);
    const sim::SimTime end = start + rng.uniform(100.0, 400.0);
    const auto instants = round_instants(start, end, round_s);
    ASSERT_FALSE(instants.empty());
    const auto log = adversarial_log(rng, instants, round_s, 7);
    const SnapshotTimeline timeline(log);

    double sum = 0;
    for (sim::SimTime t : instants) {
      sum += inconsistent_server_fraction(log, timeline, t, round_s);
    }
    const double expected = sum / static_cast<double>(instants.size());
    EXPECT_EQ(average_inconsistent_server_fraction(log, timeline, start, end, round_s),
              expected)
        << "trial " << trial;
    EXPECT_EQ(average_inconsistent_server_fraction(trace::ServerIndex(log), timeline,
                                                   start, end, round_s),
              expected)
        << "trial " << trial;
  }
}

TEST(InconsistencyProperty, ServerIndexEqualsPerServerScan) {
  util::Rng rng(78);
  const auto instants = round_instants(0.0, kWindow, kPollPeriod);
  const auto log = adversarial_log(rng, instants, kPollPeriod, 9);
  const trace::ServerIndex index(log);
  ASSERT_EQ(index.servers(), log.servers());
  const auto same = [](const trace::Observation& a, const trace::Observation& b) {
    return a.server == b.server && a.time == b.time && a.version == b.version &&
           a.answered == b.answered;
  };
  for (std::size_t i = 0; i < index.servers().size(); ++i) {
    const auto expected = log.for_server(index.servers()[i]);
    const auto rows = index.rows(i);
    ASSERT_EQ(rows.size(), expected.size());
    EXPECT_TRUE(std::equal(rows.begin(), rows.end(), expected.begin(), same));
    const auto found = index.find(index.servers()[i]);
    EXPECT_EQ(found.data(), rows.data());
    EXPECT_EQ(found.size(), rows.size());
  }
  EXPECT_TRUE(index.find(-1).empty());
  EXPECT_TRUE(index.find(1000).empty());
  EXPECT_TRUE(trace::ServerIndex(trace::PollLog{}).servers().empty());
}

void expect_same_timeline(const SnapshotTimeline& got, const SnapshotTimeline& want,
                          const std::string& what) {
  ASSERT_EQ(got.max_version(), want.max_version()) << what;
  for (trace::Version v = -1; v <= want.max_version() + 1; ++v) {
    EXPECT_EQ(got.first_appearance(v), want.first_appearance(v))
        << what << " version " << v;
    EXPECT_EQ(got.superseded_at(v), want.superseded_at(v)) << what << " version " << v;
  }
}

/// alpha(v) and superseded_at(v) straight from the rows: the minimum time of
/// the answered rows serving v, and of those serving any later version.
void expect_timeline_of_rows(const trace::PollLog& log, const SnapshotTimeline& tl) {
  trace::Version max_version = 0;
  for (const auto& obs : log.observations()) {
    if (obs.answered) max_version = std::max(max_version, obs.version);
  }
  EXPECT_EQ(tl.max_version(), max_version);
  for (trace::Version v = -1; v <= max_version + 1; ++v) {
    std::optional<sim::SimTime> alpha;
    std::optional<sim::SimTime> superseded;
    for (const auto& obs : log.observations()) {
      if (!obs.answered) continue;
      if (obs.version == v) alpha = std::min(alpha.value_or(obs.time), obs.time);
      if (obs.version > v) {
        superseded = std::min(superseded.value_or(obs.time), obs.time);
      }
    }
    EXPECT_EQ(tl.first_appearance(v), alpha) << "version " << v;
    EXPECT_EQ(tl.superseded_at(v), superseded) << "version " << v;
  }
}

TEST(InconsistencyProperty, LogTimelineEqualsRowMinima) {
  util::Rng rng(80);
  const auto instants = round_instants(0.0, kWindow, kPollPeriod);
  for (int trial = 0; trial < 10; ++trial) {
    const auto log = adversarial_log(rng, instants, kPollPeriod, 6);
    expect_timeline_of_rows(log, SnapshotTimeline(log));
  }
}

TEST(InconsistencyProperty, ClusterTimelinesEqualPerClusterLogs) {
  util::Rng rng(79);
  const auto instants = round_instants(0.0, kWindow, kPollPeriod);
  for (int trial = 0; trial < 10; ++trial) {
    constexpr std::size_t kServers = 12;
    const auto log = adversarial_log(rng, instants, kPollPeriod, kServers);
    // Five clusters; cluster 4 never gets a server, so its local timeline is
    // empty and its complement is the whole log.
    constexpr std::size_t kClusters = 5;
    std::vector<std::size_t> cluster_of(kServers);
    for (auto& c : cluster_of) c = rng.index(kClusters - 1);
    const ClusterTimelines clusters(log, cluster_of, kClusters);
    for (std::size_t c = 0; c < kClusters; ++c) {
      trace::PollLog inside;
      trace::PollLog outside;
      for (const auto& obs : log.observations()) {
        (cluster_of[static_cast<std::size_t>(obs.server)] == c ? inside : outside)
            .add(obs);
      }
      const std::string tag = "trial " + std::to_string(trial) + " cluster " +
                              std::to_string(c);
      expect_same_timeline(clusters.local(c), SnapshotTimeline(inside), tag + " local");
      expect_same_timeline(clusters.complement(c), SnapshotTimeline(outside),
                           tag + " complement");
    }
  }
}

TEST(InconsistencyProperty, RequestLengthsAreNonNegative) {
  util::Rng rng(76);
  const auto updates = random_updates(rng);
  const SnapshotTimeline timeline(updates, 0.0);
  const auto log = random_log(updates, rng, 5);
  for (double x : request_inconsistency_lengths(log, timeline)) {
    EXPECT_GE(x, 0.0);
  }
}

}  // namespace
}  // namespace cdnsim::analysis
