// Equivalence battery for batched user-visit processing.
//
// Batched visits (the default) must be observationally byte-identical to
// the legacy one-event-per-visit path: same recorder contents, same
// inconsistency vectors and CDFs, same user-log rows, same traffic meter,
// same counters and histograms. The only sanctioned difference is the sim.*
// gauge family, which reports the (far fewer) events the batched run
// actually fires. Checked across all five paper systems, with reliable
// delivery off and on, under a nonzero fault plan.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "consistency/engine.hpp"
#include "consistency/engine_test_util.hpp"
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

}  // namespace
}  // namespace cdnsim::consistency
