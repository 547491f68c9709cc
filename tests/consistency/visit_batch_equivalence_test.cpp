// Equivalence battery for batched user-visit processing.
//
// Batched visits (the default) must be observationally byte-identical to
// the legacy one-event-per-visit path: same recorder contents, same
// inconsistency vectors and CDFs, same user-log rows, same traffic meter,
// same counters and histograms. The only sanctioned difference is the sim.*
// gauge family, which reports the (far fewer) events the batched run
// actually fires. Checked across all five paper systems, with reliable
// delivery off and on, under a nonzero fault plan. Two engine-level checks
// of the visit streams ride along: a pump visit and a bulk walk splitting
// one tied instant, and per-server visit state that does not grow with the
// horizon.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "consistency/engine.hpp"
#include "consistency/engine_test_util.hpp"
#include "support/alloc_counter.hpp"
#include "util/cdf.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
using testutil::run;
using testutil::short_game;
using testutil::small_scenario;

struct System {
  const char* name;
  UpdateMethod method;
  InfrastructureKind infra;
};

const System kSystems[] = {
    {"Ttl", UpdateMethod::kTtl, InfrastructureKind::kUnicast},
    {"Push", UpdateMethod::kPush, InfrastructureKind::kUnicast},
    {"Invalidation", UpdateMethod::kInvalidation, InfrastructureKind::kUnicast},
    {"SelfAdaptive", UpdateMethod::kSelfAdaptive, InfrastructureKind::kUnicast},
    {"Hat", UpdateMethod::kSelfAdaptive, InfrastructureKind::kHybridSupernode},
};

fault::FaultPlan nonzero_fault_plan() {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.loss_probability = 0.05;
  plan.duplicate_probability = 0.02;
  plan.extra_delay_max_s = 0.4;
  return plan;
}

// Everything a run exposes to callers, as comparable strings/vectors.
struct Fingerprint {
  std::vector<double> server_avg;
  std::vector<double> user_avg;
  std::vector<double> per_server_max_user;
  double observed_fraction = 0.0;
  std::vector<double> cdf_quantiles;
  std::vector<std::vector<cdn::UserObservation>> user_rows;
  std::string metrics_json;
};

// Removes the "sim.NAME":VALUE gauge entries (and one adjoining comma) from
// a metrics JSON string. Gauge values are flat numbers, so scanning to the
// next ',' or '}' is exact.
std::string strip_sim_gauges(std::string json) {
  const std::string needle = "\"sim.";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    std::size_t end = json.find_first_of(",}", pos);
    std::size_t begin = pos;
    if (json[end] == ',') {
      ++end;  // eat the trailing comma
    } else if (begin > 0 && json[begin - 1] == ',') {
      --begin;  // last entry: eat the leading comma instead
    }
    json.erase(begin, end - begin);
  }
  return json;
}

Fingerprint fingerprint(const UpdateEngine& engine) {
  Fingerprint fp;
  fp.server_avg = engine.server_avg_inconsistency();
  fp.user_avg = engine.user_avg_inconsistency();
  fp.per_server_max_user = engine.per_server_max_user_inconsistency();
  fp.observed_fraction = engine.user_observed_inconsistency_fraction();
  util::Cdf cdf(std::vector<double>(fp.server_avg));
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    fp.cdf_quantiles.push_back(cdf.value_at_quantile(q));
  }
  const cdn::UserPopulationLog& logs = engine.user_logs();
  for (std::size_t u = 0; u < logs.user_count(); ++u) {
    fp.user_rows.push_back(logs.log(static_cast<cdn::UserId>(u)).observations());
  }
  fp.metrics_json = engine.metrics().to_json();
  return fp;
}

// operator== on doubles is bit-exact here (no NaNs in these outputs), which
// is the equivalence the batched path promises. The sim.* gauges count the
// events actually fired, which batching changes by design.
void expect_identical(const Fingerprint& a, const Fingerprint& b) {
  EXPECT_EQ(a.server_avg, b.server_avg);
  EXPECT_EQ(a.user_avg, b.user_avg);
  EXPECT_EQ(a.per_server_max_user, b.per_server_max_user);
  EXPECT_EQ(a.observed_fraction, b.observed_fraction);
  EXPECT_EQ(a.cdf_quantiles, b.cdf_quantiles);
  const auto key = [](const cdn::UserObservation& o) {
    return std::tuple(o.request_time, o.serve_time, o.server, o.version,
                      o.redirected, o.answered);
  };
  ASSERT_EQ(a.user_rows.size(), b.user_rows.size());
  for (std::size_t u = 0; u < a.user_rows.size(); ++u) {
    const auto& ra = a.user_rows[u];
    const auto& rb = b.user_rows[u];
    ASSERT_EQ(ra.size(), rb.size()) << "user " << u;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(key(ra[i]), key(rb[i])) << "user " << u << " row " << i;
    }
  }
  EXPECT_EQ(strip_sim_gauges(a.metrics_json),
            strip_sim_gauges(b.metrics_json));
}

class VisitBatchEquivalenceTest
    : public ::testing::TestWithParam<System> {};

TEST_P(VisitBatchEquivalenceTest, BatchedMatchesLegacyPerVisitPath) {
  const System& sys = GetParam();
  const auto scenario = small_scenario();
  const auto updates = short_game();
  for (const bool reliable : {false, true}) {
    EngineConfig batched = base_config(sys.method, sys.infra);
    batched.fault = nonzero_fault_plan();
    batched.reliable.enabled = reliable;
    batched.visit_batching = true;
    EngineConfig legacy = batched;
    legacy.visit_batching = false;

    const auto batched_run = run(*scenario.nodes, updates, batched);
    const auto legacy_run = run(*scenario.nodes, updates, legacy);
    SCOPED_TRACE(std::string(sys.name) +
                 (reliable ? " reliable" : " best-effort"));
    expect_identical(fingerprint(*batched_run->engine),
                     fingerprint(*legacy_run->engine));
    // Batching must actually batch: fewer events than one per visit.
    EXPECT_LT(batched_run->engine->events_processed(),
              legacy_run->engine->events_processed());
  }
}

INSTANTIATE_TEST_SUITE_P(FiveSystems, VisitBatchEquivalenceTest,
                         ::testing::ValuesIn(kSystems),
                         [](const auto& info) { return info.param.name; });

TEST(VisitBatchTieTest, PumpVisitAndBulkWalkSplitOneInstant) {
  // One server whose two users have equal phases (start window 0), so
  // they visit together every second. Every delay is an exact binary
  // fraction — 0.25 s of serialization per message and a 0.25 s one-way
  // floor (propagation rounds away against the huge signal speed) — so the
  // update at t = 65 blocks the server at 65.5, the pump visit of user 0 at
  // 66 starts a fetch, and its response lands at exactly 67.0: after user
  // 0's pump visit at 67 (armed at 66) and before user 1's (armed at 67
  // itself). The server unblocks between the two tied visits, so user 1's
  // visit at 67 opens the next bulk walk: the walk's run must start at
  // (67, user 1), and user 0's pumped visit at 67 must not be counted again.
  const auto scenario = small_scenario(1);
  const trace::UpdateTrace updates(std::vector<sim::SimTime>{5.0});
  EngineConfig batched = base_config(UpdateMethod::kInvalidation);
  batched.users_per_server = 2;
  batched.user_poll_period_s = 1.0;
  batched.user_start_window_s = 0.0;
  batched.update_packet_kb = 1.0;
  batched.light_packet_kb = 1.0;
  batched.provider_uplink_kbps = 4.0;
  batched.server_uplink_kbps = 4.0;
  batched.latency.base_delay_s = 0.25;
  batched.latency.signal_speed_km_per_s = 1e300;
  batched.tail_s = 20.0;
  batched.visit_batching = true;
  EngineConfig legacy = batched;
  legacy.visit_batching = false;

  const auto batched_run = run(*scenario.nodes, updates, batched);
  const auto legacy_run = run(*scenario.nodes, updates, legacy);
  expect_identical(fingerprint(*batched_run->engine),
                   fingerprint(*legacy_run->engine));

  // Each visit (every second from 0 to the 85 s horizon) is exactly one
  // row, and the tied instant went through the blocked path: both users'
  // visits at 66 waited for the fetch that answered at 67.
  const cdn::UserPopulationLog& logs = batched_run->engine->user_logs();
  ASSERT_EQ(logs.user_count(), 2u);
  for (std::size_t u = 0; u < logs.user_count(); ++u) {
    const auto& rows = logs.log(static_cast<cdn::UserId>(u)).observations();
    ASSERT_EQ(rows.size(), 85u) << "user " << u;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].request_time, static_cast<double>(i)) << "user " << u;
    }
    EXPECT_EQ(rows[66].serve_time, 67.0) << "user " << u;
    EXPECT_EQ(rows[67].serve_time, 67.0) << "user " << u;
    EXPECT_EQ(rows[67].version, 1) << "user " << u;
  }
  obs::MetricsRegistry metrics = batched_run->engine->metrics();
  EXPECT_EQ(metrics.counter("engine.user_visits").value, 2u * 85u);
}

// Per-server visit state is O(users), not O(visits): the bytes allocated
// by constructing and preparing an engine must not depend on how long the
// run lasts. (A stored schedule costs ~12 B per visit, ~18 MB here.)
TEST(VisitBatchMemoryTest, PreparedVisitStateDoesNotGrowWithHorizon) {
#if CDNSIM_ALLOC_COUNTING
  const auto scenario = small_scenario();
  const auto updates = short_game();
  const auto prepared_bytes = [&](sim::SimTime tail_s) {
    EngineConfig ec = base_config(UpdateMethod::kTtl);
    ec.tail_s = tail_s;
    sim::Simulator simulator;
    const std::uint64_t before = testsupport::allocated_bytes();
    UpdateEngine engine(simulator, *scenario.nodes, updates, ec);
    engine.prepare();
    return testsupport::allocated_bytes() - before;
  };
  prepared_bytes(120.0);  // warm any lazily grown pools
  const std::uint64_t short_run = prepared_bytes(120.0);
  const std::uint64_t long_run = prepared_bytes(100000.0);
  EXPECT_GT(short_run, 0u);
  EXPECT_EQ(long_run, short_run);
#else
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#endif
}

}  // namespace
}  // namespace cdnsim::consistency
