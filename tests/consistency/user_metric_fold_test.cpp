// Cross-check of the folded user metrics against the rows they summarize.
//
// publish_run_stats() folds user_avg_inconsistency() and
// user_observed_inconsistency_fraction() straight from the batched walk's
// run-length visit records; user_logs() builds the rows from the same
// records only on demand. The fold must agree with a reference fold over
// those rows bit for bit, the Fig. 24 fraction must equal the analysis
// module's, and the order in which a caller reads rows and metrics must
// not matter. Covered for the five paper systems under absences, churn and
// 15% loss with reliable delivery — the regimes that add rows outside the
// bulk walk (pump visits, waiting users served or abandoned) — and on the
// per-visit path with users switching servers every visit (Fig. 24), the
// only attachment under which a user can see older content than before.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/user_metrics.hpp"
#include "consistency/engine.hpp"
#include "consistency/engine_test_util.hpp"
#include "trace/absence.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
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

enum class Regime { kAbsences, kChurn, kLossReliable, kSwitchEveryVisit };

const char* name_of(Regime r) {
  switch (r) {
    case Regime::kAbsences: return "absences";
    case Regime::kChurn: return "churn";
    case Regime::kLossReliable: return "loss15_reliable";
    case Regime::kSwitchEveryVisit: return "switch_every_visit";
  }
  return "?";
}

struct Run {
  sim::Simulator simulator;
  std::unique_ptr<UpdateEngine> engine;
};

std::unique_ptr<Run> run_regime(const System& sys, Regime regime) {
  static const auto scenario = small_scenario();
  static const auto updates = short_game();
  EngineConfig config = base_config(sys.method, sys.infra);
  std::vector<trace::AbsenceSchedule> absences;
  switch (regime) {
    case Regime::kAbsences: {
      trace::AbsenceConfig ac;
      ac.absences_per_hour = 6.0;
      util::Rng rng(11);
      for (std::size_t s = 0; s < scenario.nodes->server_count(); ++s) {
        absences.push_back(trace::generate_absences(ac, 2000.0, rng));
      }
      break;
    }
    case Regime::kChurn:
      config.churn.failures_per_hour = 40.0;
      config.churn.downtime_mean_s = 60.0;
      break;
    case Regime::kLossReliable:
      config.fault.enabled = true;
      config.fault.loss_probability = 0.15;
      config.reliable.enabled = true;
      break;
    case Regime::kSwitchEveryVisit:
      // A server TTL above the user period lets a switching user meet an
      // older replica than the last one (the Fig. 24 mechanism).
      config.user_attachment = UserAttachment::kSwitchEveryVisit;
      config.method.server_ttl_s = 60.0;
      break;
  }
  auto out = std::make_unique<Run>();
  out->engine = std::make_unique<UpdateEngine>(
      out->simulator, *scenario.nodes, updates, config, std::move(absences));
  out->engine->run();
  return out;
}

// The row fold the engine replaced: per user, the mean over versions of the
// first serve time at which the user held that version or newer, minus the
// version's publish time (the trace is shifted by trace_offset_s).
std::vector<double> reference_user_avg(const cdn::UserPopulationLog& logs,
                                       const trace::UpdateTrace& updates,
                                       sim::SimTime offset) {
  std::vector<double> out;
  const trace::Version final_version = updates.update_count();
  for (std::size_t u = 0; u < logs.user_count(); ++u) {
    double sum = 0;
    std::size_t count = 0;
    trace::Version next_needed = 1;
    for (const auto& obs : logs.log(static_cast<cdn::UserId>(u)).observations()) {
      if (!obs.answered) continue;
      while (next_needed <= obs.version && next_needed <= final_version) {
        sum += obs.serve_time - (updates.update_time(next_needed) + offset);
        ++next_needed;
        ++count;
      }
    }
    out.push_back(count == 0 ? 0.0 : sum / static_cast<double>(count));
  }
  return out;
}

class UserMetricFoldTest : public ::testing::TestWithParam<System> {};

TEST_P(UserMetricFoldTest, FoldMatchesMaterializedRows) {
  const System& sys = GetParam();
  const auto updates = short_game();
  const EngineConfig defaults;
  for (const Regime regime : {Regime::kAbsences, Regime::kChurn,
                              Regime::kLossReliable,
                              Regime::kSwitchEveryVisit}) {
    SCOPED_TRACE(std::string(sys.name) + " " + name_of(regime));
    // Metrics first, rows second.
    const auto a = run_regime(sys, regime);
    const std::vector<double> avg = a->engine->user_avg_inconsistency();
    const double fraction = a->engine->user_observed_inconsistency_fraction();
    const cdn::UserPopulationLog& logs = a->engine->user_logs();
    ASSERT_EQ(logs.user_count(), avg.size());
    std::size_t rows = 0;
    for (std::size_t u = 0; u < logs.user_count(); ++u) {
      rows += logs.log(static_cast<cdn::UserId>(u)).size();
    }
    EXPECT_GT(rows, 0u);

    EXPECT_EQ(avg, reference_user_avg(logs, updates, defaults.trace_offset_s));
    EXPECT_EQ(fraction, analysis::self_inconsistency_fraction(logs));
    if (regime == Regime::kSwitchEveryVisit &&
        sys.method == UpdateMethod::kTtl) {
      EXPECT_GT(fraction, 0.0);  // the stale-visit count is exercised
    }
    // Reading the rows changed no folded value.
    EXPECT_EQ(a->engine->user_avg_inconsistency(), avg);
    EXPECT_EQ(a->engine->user_observed_inconsistency_fraction(), fraction);

    // Rows first, metrics second, on an identical run.
    const auto b = run_regime(sys, regime);
    const cdn::UserPopulationLog& logs_b = b->engine->user_logs();
    ASSERT_EQ(logs_b.user_count(), logs.user_count());
    for (std::size_t u = 0; u < logs.user_count(); ++u) {
      const auto user = static_cast<cdn::UserId>(u);
      EXPECT_EQ(logs_b.log(user).size(), logs.log(user).size()) << "user " << u;
    }
    EXPECT_EQ(b->engine->user_avg_inconsistency(), avg);
    EXPECT_EQ(b->engine->user_observed_inconsistency_fraction(), fraction);
  }
}

INSTANTIATE_TEST_SUITE_P(FiveSystems, UserMetricFoldTest,
                         ::testing::ValuesIn(kSystems),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace cdnsim::consistency
