// Sampler semantics for obs::TimeSeries: delta vs gauge columns, the
// (rows+1)*sample_s grid, propagation-span rollups (including fold-order
// invariance), report merging for catalog aggregation, and the canonical
// serialisation.
#include <gtest/gtest.h>

#include <string>

#include "obs/timeseries.hpp"

namespace cdnsim::obs {
namespace {

TEST(TimeSeriesTest, DeltaEmitsIntervalDifferencesGaugeEmitsStagedValue) {
  TimeSeries ts(10.0);
  const SeriesId d = ts.add_delta("d");
  const SeriesId g = ts.add_gauge("g");
  EXPECT_EQ(ts.column_count(), 2u);
  EXPECT_DOUBLE_EQ(ts.next_sample_time(), 10.0);

  ts.stage(d, 3.0);  // cumulative total
  ts.stage(g, 7.0);
  ts.take_sample();
  EXPECT_DOUBLE_EQ(ts.next_sample_time(), 20.0);
  ts.stage(d, 5.0);
  ts.stage(g, 2.0);
  ts.take_sample();

  const TimeSeriesReport r = ts.report();
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0][0], 10.0);
  EXPECT_DOUBLE_EQ(r.rows[0][1], 3.0);  // delta: 3 - 0
  EXPECT_DOUBLE_EQ(r.rows[0][2], 7.0);  // gauge: staged
  EXPECT_DOUBLE_EQ(r.rows[1][0], 20.0);
  EXPECT_DOUBLE_EQ(r.rows[1][1], 2.0);  // delta: 5 - 3
  EXPECT_DOUBLE_EQ(r.rows[1][2], 2.0);
  // Totals: the delta column's interval values telescope to its final
  // staged total; the gauge total is its final staged value.
  ASSERT_EQ(r.totals.size(), 2u);
  EXPECT_DOUBLE_EQ(r.totals[0], 5.0);
  EXPECT_DOUBLE_EQ(r.totals[1], 2.0);
}

TEST(TimeSeriesTest, UnstagedColumnsSampleAsZero) {
  TimeSeries ts(1.0);
  ts.add_delta("d");
  ts.add_gauge("g");
  ts.take_sample();
  const TimeSeriesReport r = ts.report();
  EXPECT_FALSE(r.empty());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][1], 0.0);
  EXPECT_DOUBLE_EQ(r.rows[0][2], 0.0);
}

TEST(TimeSeriesTest, GridIsMultiplicativeNotAccumulated) {
  // 0.1 is not exactly representable; an accumulated grid would drift off
  // k * sample_s after enough rows. The contract is multiplication.
  TimeSeries ts(0.1);
  ts.add_gauge("g");
  for (int k = 1; k <= 1000; ++k) {
    EXPECT_DOUBLE_EQ(ts.next_sample_time(), static_cast<double>(k) * 0.1);
    ts.take_sample();
  }
  const TimeSeriesReport r = ts.report();
  EXPECT_DOUBLE_EQ(r.rows[999][0], 1000.0 * 0.1);
}

TEST(TimeSeriesTest, SpanRollupPerPublishBucket) {
  TimeSeries ts(10.0);
  ts.add_gauge("g");
  ts.take_sample();
  ts.take_sample();
  ts.set_replica_count(2);
  ts.span_publish(1, 3.0);
  ts.span_publish(2, 7.0);
  ts.span_publish(3, 12.0);
  SpanBuffer lane;
  lane.record(1, 1.0);
  lane.record(1, 2.0);
  lane.record(2, 5.0);
  ts.fold_spans(lane);

  const TimeSeriesReport r = ts.report();
  ASSERT_EQ(r.spans.size(), 2u);
  const auto& b0 = r.spans[0];
  EXPECT_DOUBLE_EQ(b0.t, 10.0);  // bucket of publishes in [0, 10)
  EXPECT_EQ(b0.published, 2u);
  EXPECT_EQ(b0.applied_versions, 2u);
  EXPECT_EQ(b0.applies, 3u);
  EXPECT_EQ(b0.reached_all, 1u);  // only v1 reached both replicas
  EXPECT_DOUBLE_EQ(b0.first_sum_s, 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(b0.median_sum_s, 1.0 + 5.0);  // lower median of {1,2}; {5}
  EXPECT_DOUBLE_EQ(b0.last_sum_s, 2.0 + 5.0);
  EXPECT_DOUBLE_EQ(b0.last_max_s, 5.0);
  const auto& b1 = r.spans[1];
  EXPECT_DOUBLE_EQ(b1.t, 20.0);
  EXPECT_EQ(b1.published, 1u);  // v3: published, never applied
  EXPECT_EQ(b1.applied_versions, 0u);
  EXPECT_EQ(b1.applies, 0u);
}

TEST(TimeSeriesTest, SpanFoldOrderAcrossLanesIsIrrelevant) {
  SpanBuffer lane_a;
  lane_a.record(1, 2.0);
  lane_a.record(2, 0.5);
  SpanBuffer lane_b;
  lane_b.record(1, 1.0);
  lane_b.record(2, 3.0);

  const auto build = [&](bool a_first) {
    TimeSeries ts(5.0);
    ts.add_gauge("g");
    ts.take_sample();
    ts.set_replica_count(2);
    ts.span_publish(1, 1.0);
    ts.span_publish(2, 2.0);
    if (a_first) {
      ts.fold_spans(lane_a);
      ts.fold_spans(lane_b);
    } else {
      ts.fold_spans(lane_b);
      ts.fold_spans(lane_a);
    }
    return ts.report().deterministic_json();
  };
  EXPECT_EQ(build(true), build(false));
}

TimeSeriesReport two_row_report() {
  TimeSeries ts(10.0);
  const SeriesId d = ts.add_delta("d");
  const SeriesId g = ts.add_gauge("g");
  ts.stage(d, 1.0);
  ts.take_sample();
  ts.stage(d, 3.0);
  ts.stage(g, 7.0);
  ts.take_sample();
  ts.set_replica_count(3);
  ts.span_publish(1, 4.0);
  SpanBuffer lane;
  lane.record(1, 1.5);
  ts.fold_spans(lane);
  return ts.report();
}

TimeSeriesReport one_row_report() {
  TimeSeries ts(10.0);
  const SeriesId d = ts.add_delta("d");
  const SeriesId g = ts.add_gauge("g");
  ts.stage(d, 10.0);
  ts.stage(g, 5.0);
  ts.take_sample();
  ts.set_replica_count(2);
  ts.span_publish(1, 12.0);  // note: publish after this report's horizon
  SpanBuffer lane;
  lane.record(1, 0.25);
  ts.fold_spans(lane);
  return ts.report();
}

TEST(TimeSeriesTest, MergePadsDeltasWithZeroAndCarriesGaugesForward) {
  TimeSeriesReport merged = two_row_report();
  merged.merge_from(one_row_report());
  ASSERT_EQ(merged.rows.size(), 2u);
  // Row t=10: both contribute their first samples.
  EXPECT_DOUBLE_EQ(merged.rows[0][1], 1.0 + 10.0);
  EXPECT_DOUBLE_EQ(merged.rows[0][2], 0.0 + 5.0);
  // Row t=20: the one-row report is past its horizon — its delta column
  // contributes 0 (nothing new happened), its gauge carries its final 5.
  EXPECT_DOUBLE_EQ(merged.rows[1][1], 2.0 + 0.0);
  EXPECT_DOUBLE_EQ(merged.rows[1][2], 7.0 + 5.0);
  ASSERT_EQ(merged.totals.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.totals[0], 3.0 + 10.0);
  EXPECT_DOUBLE_EQ(merged.totals[1], 7.0 + 5.0);
  EXPECT_EQ(merged.replica_count, 5u);
  // Span buckets merge by timestamp: t=10 from the first report, t=20 from
  // the second.
  ASSERT_EQ(merged.spans.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.spans[0].t, 10.0);
  EXPECT_DOUBLE_EQ(merged.spans[0].first_sum_s, 1.5);
  EXPECT_DOUBLE_EQ(merged.spans[1].t, 20.0);
  EXPECT_DOUBLE_EQ(merged.spans[1].first_sum_s, 0.25);
}

TEST(TimeSeriesTest, MergeIsSymmetricInRowValues) {
  TimeSeriesReport ab = two_row_report();
  ab.merge_from(one_row_report());
  TimeSeriesReport ba = one_row_report();
  ba.merge_from(two_row_report());
  EXPECT_EQ(ab.deterministic_json(), ba.deterministic_json());
}

TEST(TimeSeriesTest, EqualSeriesSerialiseToEqualBytes) {
  EXPECT_EQ(two_row_report().deterministic_json(),
            two_row_report().deterministic_json());
}

TEST(TimeSeriesTest, DeterministicJsonHasTheDocumentedShape) {
  const std::string json = two_row_report().deterministic_json();
  EXPECT_NE(json.find("\"sample_s\":10"), std::string::npos);
  EXPECT_NE(json.find("\"replicas\":3"), std::string::npos);
  EXPECT_NE(json.find("{\"kind\":\"delta\",\"name\":\"d\"}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"kind\":\"gauge\",\"name\":\"g\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"totals\":{\"d\":3,\"g\":7}"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single-line canonical
}

}  // namespace
}  // namespace cdnsim::obs
