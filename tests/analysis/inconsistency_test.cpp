#include "analysis/inconsistency.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace cdnsim::analysis {
namespace {

using trace::Observation;
using trace::PollLog;

// Two servers polling every 10 s; updates become visible at 100 (v1) and
// 200 (v2). Server 0 is prompt, server 1 lags.
PollLog two_server_log() {
  PollLog log;
  for (double t = 80; t <= 260; t += 10) {
    Observation a{0, t, 0, true};
    if (t >= 100) a.version = 1;
    if (t >= 200) a.version = 2;
    log.add(a);
    Observation b{1, t + 1, 0, true};
    if (t + 1 >= 130) b.version = 1;   // 30 s late on v1
    if (t + 1 >= 215) b.version = 2;   // 15 s late on v2
    log.add(b);
  }
  return log;
}

TEST(SnapshotTimelineTest, FirstAppearanceFromLog) {
  const SnapshotTimeline tl(two_server_log());
  EXPECT_DOUBLE_EQ(*tl.first_appearance(0), 80.0);
  EXPECT_DOUBLE_EQ(*tl.first_appearance(1), 100.0);
  EXPECT_DOUBLE_EQ(*tl.first_appearance(2), 200.0);
  EXPECT_FALSE(tl.first_appearance(3).has_value());
  EXPECT_EQ(tl.max_version(), 2);
}

TEST(SnapshotTimelineTest, SupersededAt) {
  const SnapshotTimeline tl(two_server_log());
  EXPECT_DOUBLE_EQ(*tl.superseded_at(0), 100.0);
  EXPECT_DOUBLE_EQ(*tl.superseded_at(1), 200.0);
  EXPECT_FALSE(tl.superseded_at(2).has_value());
}

TEST(SnapshotTimelineTest, FromGroundTruth) {
  const trace::UpdateTrace updates({10, 20});
  const SnapshotTimeline tl(updates, 60.0);
  EXPECT_DOUBLE_EQ(*tl.first_appearance(1), 70.0);
  EXPECT_DOUBLE_EQ(*tl.superseded_at(1), 80.0);
}

TEST(SnapshotTimelineTest, UnansweredObservationsIgnored) {
  PollLog log;
  log.add({0, 5.0, 7, false});
  log.add({0, 9.0, 1, true});
  const SnapshotTimeline tl(log);
  EXPECT_FALSE(tl.first_appearance(7).has_value());
  EXPECT_TRUE(tl.first_appearance(1).has_value());
}

TEST(RequestInconsistencyTest, MeasuresAgeOfOutdatedContent) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  const auto lengths = request_inconsistency_lengths(log, tl);
  ASSERT_EQ(lengths.size(), log.size());
  // Server 1 shows v0 until t=121 while v1 appeared at 100: its last stale
  // observation of v0 is 21 s outdated, the overall maximum in this log.
  double max_len = 0;
  for (double x : lengths) {
    EXPECT_GE(x, 0.0);
    max_len = std::max(max_len, x);
  }
  EXPECT_NEAR(max_len, 21.0, 1e-9);
}

TEST(ServerInconsistencyTest, PerSnapshotLengths) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  const auto s1 = log.for_server(1);
  const auto lengths = server_inconsistency_lengths(s1, tl);
  // Server 1 served v0 last at 121 (v1 appeared 100): length 21.
  // Served v1 last at 211 (v2 appeared 200): length 11.
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_DOUBLE_EQ(lengths[0], 21.0);
  EXPECT_DOUBLE_EQ(lengths[1], 11.0);
}

TEST(ServerInconsistencyTest, PromptServerHasSmallLengths) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  const auto s0 = log.for_server(0);
  const auto lengths = server_inconsistency_lengths(s0, tl);
  // Server 0 last served v0 at t=90, before v1 appeared: no positive length.
  for (double x : lengths) EXPECT_LE(x, 0.0 + 1e-9);
}

// beta_s(v) is the largest time the server served v, folded from 0.0: a
// version served only at negative (clock-corrected) times counts as last
// served at 0. Rows arrive out of version order, and the outputs come in
// ascending version order.
TEST(ServerInconsistencyTest, LastServedIsThePerVersionMaximumFromZero) {
  // v0 superseded at -20, v1 at 10, v2 at 40; v3 never.
  const SnapshotTimeline tl({{0, -50.0}, {1, -20.0}, {2, 10.0}, {3, 40.0}});
  const std::vector<Observation> rows = {
      {0, 30.0, 2, true},  {0, -40.0, 0, true}, {0, 5.0, 1, true},
      {0, -25.0, 0, true}, {0, 45.0, 2, true},  {0, -5.0, 1, true},
      {0, 100.0, 3, false}, {0, 50.0, 3, true}};
  // beta: v0 0.0 (not -25), v1 5, v2 45, v3 50.
  const auto lengths = server_inconsistency_lengths(rows, tl);
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 20.0);  // v0: 0 - (-20)
  EXPECT_EQ(lengths[1], 5.0);   // v2: 45 - 40; v1 (5 - 10) is not positive
  const auto intervals = server_inconsistency_intervals(rows, tl);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].start, -20.0);
  EXPECT_EQ(intervals[0].end, 0.0);
  EXPECT_EQ(intervals[1].start, 40.0);
  EXPECT_EQ(intervals[1].end, 45.0);
}

TEST(ConsistencyRatioTest, PerfectServerIsOne) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  EXPECT_NEAR(consistency_ratio(log.for_server(0), tl, 180.0), 1.0, 1e-9);
  EXPECT_NEAR(consistency_ratio(log.for_server(1), tl, 180.0),
              1.0 - 32.0 / 180.0, 1e-9);
}

TEST(InconsistentFractionTest, CountsStaleServers) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  // At t=115: server 0 shows v1 (fresh), server 1 shows v0 (stale).
  EXPECT_DOUBLE_EQ(inconsistent_server_fraction(log, tl, 115.0, 20.0), 0.5);
  // At t=95 both show v0, still current.
  EXPECT_DOUBLE_EQ(inconsistent_server_fraction(log, tl, 95.0, 20.0), 0.0);
}

TEST(InconsistentFractionTest, AverageOverWindow) {
  const auto log = two_server_log();
  const SnapshotTimeline tl(log);
  const double avg =
      average_inconsistent_server_fraction(log, tl, 80.0, 260.0, 10.0);
  EXPECT_GT(avg, 0.0);
  EXPECT_LT(avg, 0.5);
}

TEST(ExtractAbsencesTest, FindsGapsAndPostReturnInconsistency) {
  PollLog log;
  // Server polls at 10 s period with a gap from 50 to 120 (absence ~60 s).
  for (double t = 10; t <= 50; t += 10) log.add({0, t, 1, true});
  for (double t = 120; t <= 160; t += 10) log.add({0, t, 1, true});
  // Another server reveals v2 at t=100 so post-return content is stale.
  log.add({1, 100.0, 2, true});
  const SnapshotTimeline tl(log);
  const auto events = extract_absences(log, tl, 10.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].server, 0);
  EXPECT_DOUBLE_EQ(events[0].absence_length, 60.0);
  EXPECT_DOUBLE_EQ(events[0].return_time, 120.0);
  EXPECT_DOUBLE_EQ(events[0].inconsistency_after_return, 20.0);
}

TEST(ExtractAbsencesTest, UnansweredPollsCreateGaps) {
  PollLog log;
  for (double t = 10; t <= 100; t += 10) {
    const bool up = t < 40 || t > 80;
    log.add({0, t, 1, up});
  }
  log.add({1, 5.0, 1, true});
  const SnapshotTimeline tl(log);
  const auto events = extract_absences(log, tl, 10.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].absence_length, 50.0);
}

TEST(ExtractAbsencesTest, JitterDoesNotTriggerFalsePositives) {
  PollLog log;
  for (double t = 10; t <= 200; t += 10) log.add({0, t + 0.4, 1, true});
  const SnapshotTimeline tl(log);
  EXPECT_TRUE(extract_absences(log, tl, 10.0).empty());
}

}  // namespace
}  // namespace cdnsim::analysis
