#include "core/measurement_study.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/ttl_inference.hpp"
#include "util/cdf.hpp"
#include "util/stats.hpp"

namespace cdnsim::core {
namespace {

// A scaled-down study configuration that keeps the test fast (~seconds).
MeasurementConfig small_config() {
  MeasurementConfig cfg;
  cfg.scenario.server_count = 120;
  cfg.days = 3;
  cfg.game.pre_game_s = 20;
  cfg.game.period_s = 700;
  cfg.game.break_s = 200;
  cfg.game.post_game_s = 40;
  cfg.game.in_play_event_gap_s = 60;  // denser events: more samples per day
  cfg.seed = 5;
  return cfg;
}

class MeasurementStudyTest : public ::testing::Test {
 protected:
  static const MeasurementResults& results() {
    static const MeasurementResults r = run_measurement_study(small_config());
    return r;
  }
};

TEST_F(MeasurementStudyTest, ProducesRequestInconsistencySamples) {
  EXPECT_GT(results().total_requests, 1000u);
  // With TTL = 60 s polling, average per-snapshot staleness ~ TTL/2 plus
  // other causes (Section 3.4.1 derives >= 30 s).
  EXPECT_GT(results().overall_avg_request_inconsistency, 15.0);
  EXPECT_LT(results().overall_avg_request_inconsistency, 60.0);
}

TEST_F(MeasurementStudyTest, InconsistentServerFractionPerDayIsPositive) {
  ASSERT_EQ(results().daily_inconsistent_server_fraction.size(), 3u);
  for (double f : results().daily_inconsistent_server_fraction) {
    EXPECT_GT(f, 0.02);
    EXPECT_LT(f, 0.95);
  }
}

TEST_F(MeasurementStudyTest, TtlInferenceRecoversServerTtl) {
  // The headline Section 3.4.1 result: the inferred TTL is the configured
  // 60 s (the study's own polling TTL), recovered from lengths alone.
  const auto& lengths = results().inner_cluster_inconsistency;
  ASSERT_GT(lengths.size(), 500u);
  const double inferred = analysis::infer_ttl(lengths);
  EXPECT_GT(inferred, 35.0);
  EXPECT_LT(inferred, 80.0);
}

TEST_F(MeasurementStudyTest, ProviderFarMoreConsistentThanCdn) {
  const auto& provider = results().provider_request_inconsistency;
  ASSERT_FALSE(provider.empty());
  // Fig. 7 plots requests observing outdated content.
  std::vector<double> positive;
  for (double x : provider) {
    if (x > 0) positive.push_back(x);
  }
  ASSERT_FALSE(positive.empty());
  const double provider_avg = util::mean(positive);
  EXPECT_LT(provider_avg, 0.5 * results().overall_avg_request_inconsistency);
  EXPECT_NEAR(provider_avg, 3.4, 2.5);
  // 90% of provider requests under 10 s (Fig. 7).
  const util::Cdf cdf(positive);
  EXPECT_GT(cdf.fraction_at_or_below(10.0), 0.80);
}

TEST_F(MeasurementStudyTest, DistanceBarelyCorrelatesWithConsistency) {
  const auto& rings = results().distance_consistency;
  ASSERT_GT(rings.size(), 3u);
  std::vector<double> dist, ratio;
  for (const auto& r : rings) {
    dist.push_back(r.distance_km);
    ratio.push_back(r.avg_consistency_ratio);
    // The ratio level depends on update burstiness relative to TTL; the
    // figure's finding is flatness vs distance, checked below.
    EXPECT_GT(r.avg_consistency_ratio, 0.15);
    EXPECT_LE(r.avg_consistency_ratio, 1.0);
  }
  EXPECT_LT(std::abs(util::pearson(dist, ratio)), 0.6);
}

TEST_F(MeasurementStudyTest, InterIspExceedsIntraIsp) {
  const auto& intra = results().intra_isp_by_cluster;
  const auto& inter = results().inter_isp_by_cluster;
  ASSERT_EQ(intra.size(), inter.size());
  double intra_mean = 0, inter_mean = 0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < intra.size(); ++c) {
    if (intra[c].samples < 20 || inter[c].samples < 20) continue;
    intra_mean += intra[c].mean;
    inter_mean += inter[c].mean;
    ++n;
  }
  ASSERT_GT(n, 0u);
  EXPECT_GT(inter_mean / n, intra_mean / n);
}

TEST_F(MeasurementStudyTest, ResponseTimesInPaperRange) {
  const util::Cdf cdf(results().provider_response_times);
  EXPECT_GT(cdf.min(), 0.3);
  EXPECT_LT(cdf.max(), 3.5);
  EXPECT_GT(cdf.fraction_at_or_below(1.5), 0.7);
}

TEST_F(MeasurementStudyTest, AbsenceEventsExtracted) {
  EXPECT_GT(results().absence_events.size(), 10u);
  for (const auto& ev : results().absence_events) {
    EXPECT_GT(ev.absence_length, 0.0);
  }
}

TEST_F(MeasurementStudyTest, DailyMatricesHaveExpectedShape) {
  ASSERT_EQ(results().daily_server_avg.size(), 3u);
  ASSERT_EQ(results().daily_server_max.size(), 3u);
  EXPECT_EQ(results().daily_server_avg[0].size(), 120u);
  ASSERT_EQ(results().daily_cluster_avg.size(), 3u);
  EXPECT_EQ(results().daily_cluster_avg[0].size(),
            results().geo_clusters.cluster_count());
}

TEST_F(MeasurementStudyTest, NoStaticTreeSignature) {
  // Rank instability across days must be far from a static hierarchy.
  EXPECT_GT(analysis::rank_instability(results().daily_server_avg), 0.08);
}

TEST_F(MeasurementStudyTest, MostServersBelowTtlBound) {
  // Fig. 12: the majority of per-server max inconsistencies sit below TTL,
  // contradicting a multicast tree.
  for (const auto& day : results().daily_server_max) {
    EXPECT_GT(analysis::fraction_below_ttl(day, 60.0), 0.5);
  }
}

double sum_of(const std::vector<double>& xs) {
  double sum = 0;
  for (double x : xs) sum += x;
  return sum;
}

TEST_F(MeasurementStudyTest, GoldenAnalysisValues) {
  // Exact values recorded from the multi-scan analysis pipeline this study
  // used before the one-pass rewrite (server index, flat timelines, the
  // fraction sweep). Every output of the rewrite must match them bit for
  // bit: the same doubles, the same min() choices, the same summation order.
  const auto& r = results();
  EXPECT_EQ(r.daily_inconsistent_server_fraction,
            (std::vector<double>{0.34233073437138656, 0.41397038322262658,
                                 0.36255456687581361}));
  EXPECT_EQ(r.request_inconsistency.size(), 5272u);
  EXPECT_EQ(sum_of(r.request_inconsistency), 172593.41454059965);
  EXPECT_EQ(r.inner_cluster_inconsistency.size(), 915u);
  EXPECT_EQ(sum_of(r.inner_cluster_inconsistency), 23460.853547404015);
  EXPECT_EQ(r.intra_isp_inconsistency.size(), 4149u);
  EXPECT_EQ(sum_of(r.intra_isp_inconsistency), 106177.58271606502);
  const std::vector<double> inter_means{
      33.233316696056654, 32.913575084371992, 32.887204324674912,
      32.790334644592754, 33.244147309335219, 31.287189844444381,
      32.479635821798745, 33.226633508726835, 31.307004107561827,
      33.149880459912694, 31.613376868245101, 33.738038496084066,
      32.44740661974739, 33.135649285662069, 31.657171849269485,
      30.687087926907544, 33.19736828899638, 32.281655638524789,
      31.558904990789483, 33.748248658705528, 33.106684611811588,
      33.970060504903529, 35.603078383113122, 33.081934082926004,
      36.661844370620003, 29.869916689489248, 28.979415679905191,
  };
  ASSERT_EQ(r.inter_isp_by_cluster.size(), inter_means.size());
  for (std::size_t c = 0; c < inter_means.size(); ++c) {
    EXPECT_EQ(r.inter_isp_by_cluster[c].mean, inter_means[c]) << "cluster " << c;
  }
  EXPECT_EQ(r.absence_events.size(), 91u);
  double after_return = 0;
  for (const auto& ev : r.absence_events) {
    after_return += ev.inconsistency_after_return;
  }
  EXPECT_EQ(after_return, 1600.1777523048936);

  UserPerspectiveConfig cfg;
  cfg.base = small_config();
  cfg.base.days = 1;
  cfg.user_count = 40;
  EXPECT_EQ(run_user_perspective_study(cfg).avg_inconsistent_server_fraction,
            0.33031272324210031);
}

TEST(MeasurementStudyThreads, ParallelStudyIsByteIdenticalToSerial) {
  // MeasurementConfig::threads promises identical results for every value:
  // day inputs derive serially, days simulate in isolation, outputs merge in
  // day order. Compare a serial run against a 4-thread run exactly.
  MeasurementConfig cfg = small_config();
  cfg.scenario.server_count = 60;  // keep the double-run cheap
  cfg.days = 2;
  cfg.threads = 1;
  const auto serial = run_measurement_study(cfg);
  cfg.threads = 4;
  const auto parallel = run_measurement_study(cfg);

  EXPECT_EQ(serial.request_inconsistency, parallel.request_inconsistency);
  EXPECT_EQ(serial.daily_inconsistent_server_fraction,
            parallel.daily_inconsistent_server_fraction);
  EXPECT_EQ(serial.inner_cluster_inconsistency,
            parallel.inner_cluster_inconsistency);
  EXPECT_EQ(serial.provider_request_inconsistency,
            parallel.provider_request_inconsistency);
  EXPECT_EQ(serial.intra_isp_inconsistency, parallel.intra_isp_inconsistency);
  EXPECT_EQ(serial.daily_cluster_avg, parallel.daily_cluster_avg);
  EXPECT_EQ(serial.daily_server_avg, parallel.daily_server_avg);
  EXPECT_EQ(serial.daily_server_max, parallel.daily_server_max);
  EXPECT_EQ(serial.provider_response_times, parallel.provider_response_times);
  EXPECT_EQ(serial.overall_avg_request_inconsistency,
            parallel.overall_avg_request_inconsistency);
  EXPECT_EQ(serial.total_requests, parallel.total_requests);
  ASSERT_EQ(serial.absence_events.size(), parallel.absence_events.size());
  for (std::size_t i = 0; i < serial.absence_events.size(); ++i) {
    EXPECT_EQ(serial.absence_events[i].server,
              parallel.absence_events[i].server);
    EXPECT_EQ(serial.absence_events[i].return_time,
              parallel.absence_events[i].return_time);
    EXPECT_EQ(serial.absence_events[i].absence_length,
              parallel.absence_events[i].absence_length);
  }
}

TEST(UserPerspectiveTest, RedirectionAndContinuousTimes) {
  UserPerspectiveConfig cfg;
  cfg.base = small_config();
  cfg.base.days = 1;
  cfg.user_count = 40;
  const auto r = run_user_perspective_study(cfg);
  ASSERT_GT(r.redirection_fractions.size(), 20u);
  const double avg_redirect = util::mean(r.redirection_fractions);
  EXPECT_GT(avg_redirect, 0.05);
  EXPECT_LT(avg_redirect, 0.35);
  EXPECT_FALSE(r.continuous_consistency.empty());
  EXPECT_FALSE(r.continuous_inconsistency.empty());
  EXPECT_GT(r.avg_inconsistent_server_fraction, 0.0);
}

}  // namespace
}  // namespace cdnsim::core
