// Time-series sampling on the engine's driver: sampling observes a run
// without changing it, the sample grid has strictly-before semantics, and
// the sampled series reconcile with the end-of-run counters.
//
// 1. A run with the sampler (and the profiler and trace events) attached
//    must produce byte-identical metrics to the same run without them —
//    the contract the tier-1 observe-vs-plain fig20 cmp pins on the
//    artifact files.
// 2. Sample k covers events strictly before k * sample_s, including the
//    edge grids (sample interval beyond the horizon, publishes landing
//    exactly on sample points).
// 3. Delta-column interval sums must telescope to the final MetricsRegistry
//    counters, and the closing sample must reproduce the end-of-run
//    converged_server_fraction exactly — the contract check_obs.py
//    --timeseries and the ext_convergence_curves shape checks ride on.
// 4. The visit columns match the closed form of the users' fixed-period
//    polling, so they count visits, not the engine's visit walks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "consistency/engine.hpp"
#include "consistency/engine_test_util.hpp"
#include "core/simulation.hpp"
#include "obs/profiler.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
using testutil::regular_trace;
using testutil::short_game;
using testutil::small_scenario;

fault::FaultPlan nonzero_fault_plan() {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.loss_probability = 0.05;
  plan.duplicate_probability = 0.02;
  plan.extra_delay_max_s = 0.4;
  return plan;
}

TEST(TimeSeriesSamplingTest, ObservingDoesNotChangeResults) {
  const auto scenario = small_scenario();
  const auto updates = short_game();
  for (const auto method :
       {UpdateMethod::kSelfAdaptive, UpdateMethod::kPush, UpdateMethod::kTtl}) {
    SCOPED_TRACE(std::string(to_string(method)));
    EngineConfig plain =
        base_config(method, InfrastructureKind::kMulticastTree);
    plain.fault = nonzero_fault_plan();
    plain.reliable.enabled = true;
    const core::SimulationResult a =
        core::run_simulation(*scenario.nodes, updates, plain);

    EngineConfig observed = plain;
    observed.timeseries_sample_s = 25.0;
    observed.record_trace_events = true;
    obs::Profiler profiler;
    observed.profiler = &profiler;
    const core::SimulationResult b =
        core::run_simulation(*scenario.nodes, updates, observed);

    EXPECT_FALSE(b.timeseries.empty());
    EXPECT_GT(b.trace.size(), 0u);
    EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
    EXPECT_EQ(a.server_inconsistency_s, b.server_inconsistency_s);
    EXPECT_EQ(a.user_inconsistency_s, b.user_inconsistency_s);
    EXPECT_EQ(a.events_processed, b.events_processed);
  }
}

TEST(TimeSeriesSamplingTest, IntervalBeyondHorizonYieldsOneClosingRow) {
  // One sample interval longer than the whole run: the only row is the
  // closing sample.
  EngineConfig config = base_config(UpdateMethod::kPush);
  config.timeseries_sample_s = 1e6;
  const auto scenario = small_scenario();
  const core::SimulationResult r =
      core::run_simulation(*scenario.nodes, short_game(), config);
  ASSERT_EQ(r.timeseries.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.timeseries.rows[0][0], 1e6);
}

TEST(TimeSeriesSamplingTest, EventsExactlyOnTheSampleGrid) {
  // Updates published exactly at t = k * sample_s: sample k covers events
  // strictly before its timestamp, so a grid-aligned publish lands in the
  // *next* interval.
  EngineConfig config = base_config(UpdateMethod::kTtl);
  config.timeseries_sample_s = 10.0;
  const auto scenario = small_scenario();
  const auto updates = regular_trace(10.0, 20);
  const core::SimulationResult r =
      core::run_simulation(*scenario.nodes, updates, config);
  const obs::TimeSeriesReport& ts = r.timeseries;
  std::size_t col = ts.names.size();
  for (std::size_t c = 0; c < ts.names.size(); ++c) {
    if (ts.names[c] == "consistency.updates_published") col = c;
  }
  ASSERT_LT(col, ts.names.size());
  double published = 0;
  for (const auto& row : ts.rows) {
    published += row[col + 1];
    double expected = 0;
    for (const sim::SimTime t : updates.times()) {
      if (t + config.trace_offset_s < row[0]) ++expected;
    }
    EXPECT_DOUBLE_EQ(published, expected) << "t=" << row[0];
  }
  EXPECT_DOUBLE_EQ(published, static_cast<double>(updates.update_count()));
}

TEST(TimeSeriesSamplingTest, ZeroUpdateRunStillSamples) {
  EngineConfig config = base_config(UpdateMethod::kInvalidation);
  config.timeseries_sample_s = 50.0;
  const auto scenario = small_scenario();
  const trace::UpdateTrace updates((std::vector<sim::SimTime>{}));
  const core::SimulationResult r =
      core::run_simulation(*scenario.nodes, updates, config);
  ASSERT_FALSE(r.timeseries.empty());
  EXPECT_TRUE(r.timeseries.spans.empty());
  for (std::size_t c = 0; c < r.timeseries.names.size(); ++c) {
    if (r.timeseries.names[c] == "consistency.updates_published") {
      EXPECT_DOUBLE_EQ(r.timeseries.totals[c], 0.0);
    }
  }
}

TEST(TimeSeriesSamplingTest, DeltaTotalsReconcileWithFinalCounters) {
  EngineConfig config = base_config(UpdateMethod::kPush);
  config.fault = nonzero_fault_plan();
  config.reliable.enabled = true;
  config.timeseries_sample_s = 30.0;
  const auto scenario = small_scenario();
  const core::SimulationResult r =
      core::run_simulation(*scenario.nodes, short_game(), config);
  const obs::TimeSeriesReport& ts = r.timeseries;

  // Property over every delta column: the per-interval values telescope to
  // the reported total.
  ASSERT_EQ(ts.totals.size(), ts.names.size());
  for (std::size_t c = 0; c < ts.names.size(); ++c) {
    double sum = 0;
    for (const auto& row : ts.rows) sum += row[c + 1];
    if (ts.kinds[c] == obs::SeriesKind::kDelta) {
      EXPECT_DOUBLE_EQ(sum, ts.totals[c]) << ts.names[c];
    } else {
      EXPECT_DOUBLE_EQ(ts.rows.back()[c + 1], ts.totals[c]) << ts.names[c];
    }
  }

  // Spot-check against the final registry: delta columns are named exactly
  // like their counter slots.
  obs::MetricsRegistry m = r.metrics;
  const auto total_of = [&](const std::string& name) {
    for (std::size_t c = 0; c < ts.names.size(); ++c) {
      if (ts.names[c] == name) return ts.totals[c];
    }
    ADD_FAILURE() << "column missing: " << name;
    return -1.0;
  };
  for (const char* name :
       {"engine.user_visits", "fault.messages_dropped", "reliable.retries"}) {
    EXPECT_DOUBLE_EQ(total_of(name),
                     static_cast<double>(m.counter(name).value))
        << name;
  }
}

TEST(TimeSeriesSamplingTest, VisitColumnsMatchClosedForm) {
  // Every user visits once per period, so once all users have started each
  // full sample interval holds servers x users x sample_s / period visits,
  // whatever the method. Every server is absent during [300, 600), on the
  // sample grid: those intervals' visits all go unanswered, no others do.
  constexpr std::size_t kServers = 20;
  constexpr double kSample = 30.0;
  constexpr double kAbsentFrom = 300.0;
  constexpr double kAbsentTo = 600.0;
  const auto scenario = small_scenario(kServers);
  const auto updates = short_game();
  std::vector<trace::AbsenceSchedule> absences(kServers);
  for (auto& a : absences) a.add(kAbsentFrom, kAbsentTo);
  for (const auto method :
       {UpdateMethod::kTtl, UpdateMethod::kPush, UpdateMethod::kInvalidation,
        UpdateMethod::kSelfAdaptive}) {
    SCOPED_TRACE(std::string(to_string(method)));
    EngineConfig config = base_config(method);
    config.timeseries_sample_s = kSample;
    const core::SimulationResult r =
        core::run_simulation(*scenario.nodes, updates, config, absences);
    const obs::TimeSeriesReport& ts = r.timeseries;
    std::size_t visits = ts.names.size();
    std::size_t unanswered = ts.names.size();
    for (std::size_t c = 0; c < ts.names.size(); ++c) {
      if (ts.names[c] == "engine.user_visits") visits = c;
      if (ts.names[c] == "engine.user_visits_unanswered") unanswered = c;
    }
    ASSERT_LT(visits, ts.names.size());
    ASSERT_LT(unanswered, ts.names.size());

    const double per_interval = static_cast<double>(
        kServers * config.users_per_server) * kSample /
        config.user_poll_period_s;
    const double horizon =
        updates.duration() + config.trace_offset_s + config.tail_s;
    std::size_t checked = 0;
    for (const auto& row : ts.rows) {
      const double end = row[0];
      const double start = end - kSample;
      if (start < config.user_start_window_s || end > horizon) continue;
      const bool absent = start >= kAbsentFrom && end <= kAbsentTo;
      EXPECT_EQ(row[visits + 1], per_interval) << "t=" << end;
      EXPECT_EQ(row[unanswered + 1], absent ? per_interval : 0.0)
          << "t=" << end;
      ++checked;
    }
    EXPECT_GT(checked, 30u);
  }
}

TEST(TimeSeriesSamplingTest, ClosingSampleMatchesConvergedFraction) {
  for (const auto method : {UpdateMethod::kTtl, UpdateMethod::kPush,
                            UpdateMethod::kInvalidation}) {
    EngineConfig config = base_config(method);
    config.fault = nonzero_fault_plan();
    config.timeseries_sample_s = 40.0;
    const auto scenario = small_scenario();
    const core::SimulationResult r =
        core::run_simulation(*scenario.nodes, short_game(), config);
    const obs::TimeSeriesReport& ts = r.timeseries;
    double stale = -1;
    for (std::size_t c = 0; c < ts.names.size(); ++c) {
      if (ts.names[c] == "consistency.stale_replicas") {
        stale = ts.rows.back()[c + 1];
      }
    }
    ASSERT_GE(stale, 0.0);
    // The closing sample lands strictly after the last event, where the
    // latest-published cursor has caught up: the fraction is exact, not
    // approximate.
    EXPECT_DOUBLE_EQ(1.0 - stale / static_cast<double>(ts.replica_count),
                     r.converged_server_fraction);
  }
}

TEST(TimeSeriesSamplingTest, SpansAccountForEveryPublishedVersion) {
  EngineConfig config = base_config(UpdateMethod::kPush);
  config.timeseries_sample_s = 25.0;
  const auto scenario = small_scenario();
  const auto updates = short_game();
  const core::SimulationResult r =
      core::run_simulation(*scenario.nodes, updates, config);
  std::uint64_t published = 0;
  std::uint64_t reached_all = 0;
  for (const auto& s : r.timeseries.spans) {
    EXPECT_LE(s.reached_all, s.applied_versions);
    EXPECT_LE(s.applied_versions, s.published);
    published += s.published;
    reached_all += s.reached_all;
  }
  EXPECT_EQ(published, static_cast<std::uint64_t>(updates.update_count()));
  // Lossless push delivers every version to every replica.
  EXPECT_EQ(reached_all, static_cast<std::uint64_t>(updates.update_count()));
}

}  // namespace
}  // namespace cdnsim::consistency
