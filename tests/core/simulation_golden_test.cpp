// Golden pins for the five reference systems.
//
// Each test runs a fixed 20-server scenario against a fixed game trace
// (derived through the batch runner's substream rule, so these values also
// freeze the substream_seed contract) and compares against values recorded
// from the reference toolchain (GCC/libstdc++, IEEE-754 doubles). Any change
// to event ordering, RNG consumption, traffic accounting or the seed
// derivation rule shows up here as an exact-value diff — if a change is
// intentional, regenerate the constants and say so in the commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/batch_runner.hpp"

namespace cdnsim::core {
namespace {

using consistency::InfrastructureKind;
using consistency::UpdateMethod;

constexpr std::uint64_t kGoldenSeed = 424242;

struct Golden {
  const char* name;
  UpdateMethod method;
  InfrastructureKind infra;
  double avg_server_inconsistency_s;
  double avg_user_inconsistency_s;
  double traffic_cost_km_kb;
  std::uint64_t update_messages;
  std::uint64_t light_messages;
  std::size_t events_processed;
};

// gtest appends "# GetParam() = <raw bytes of Golden>" to each case ID, and
// those bytes open with the `name` pointer. With plain string literals the
// IDs shift whenever unrelated code, or the checkout path baked into
// __FILE__, moves the literals around in the binary. Serving the names from
// one 256-byte-aligned table pins each pointer's low byte to its slot
// offset, which is the only part of the pointer that leads the ID. The slots
// keep Ttl at 0x6_ and Hat at 0x7_, as the IDs have always read.
struct alignas(256) GoldenNames {
  char slot[8][16];
};
constexpr GoldenNames kNames = {
    {"Push", "Invalidation", "SelfAdaptive", "", "", "", "Ttl", "Hat"}};

// Recorded 2026-08 from the reference build; %.17g round-trips doubles
// exactly, so the comparisons below are bit-exact. events_processed was
// re-pinned when batched visit processing replaced per-visit events, and
// again when unblocked servers stopped firing periodic visit flush events
// (all doubles and message counts stayed bit-identical across both
// changes).
const Golden kGoldens[] = {
    {kNames.slot[6], UpdateMethod::kTtl, InfrastructureKind::kUnicast,
     7.6584398462394789, 13.657092600881546, 18570071.204144694, 2069, 2069,
     6264},
    {kNames.slot[0], UpdateMethod::kPush, InfrastructureKind::kUnicast,
     0.039825174294060003, 6.147392575374715, 5021359.3613106804, 1120, 0,
     1177},
    {kNames.slot[1], UpdateMethod::kInvalidation, InfrastructureKind::kUnicast,
     3.364820363159454, 6.15472453414288, 13391967.212470967, 946, 2066,
     4044},
    {kNames.slot[2], UpdateMethod::kSelfAdaptive, InfrastructureKind::kUnicast,
     5.8508709133204295, 10.507243533261128, 15473283.326287987, 1306, 2184,
     4853},
    // HAT: the paper's hybrid — self-adaptive switching on the supernode
    // infrastructure.
    {kNames.slot[7], UpdateMethod::kSelfAdaptive,
     InfrastructureKind::kHybridSupernode,
     4.4947092624907565, 9.6993203854935413, 11306881.763750417, 1262, 1643,
     3944},
};

BatchJob golden_job(const Golden& g) {
  BatchJob job;
  ScenarioConfig sc;
  sc.server_count = 20;
  sc.seed = 7;
  job.scenario = sc;
  trace::GameTraceConfig game;
  game.bursty = false;
  game.pre_game_s = 60;
  game.period_s = 600;
  game.break_s = 120;
  game.post_game_s = 60;
  job.game = game;
  job.engine.method.method = g.method;
  job.engine.method.server_ttl_s = 15.0;
  job.engine.infrastructure.kind = g.infra;
  job.engine.infrastructure.cluster_count = 5;
  job.engine.users_per_server = 3;
  job.engine.user_poll_period_s = 12.0;
  job.label = g.name;
  return job;
}

class SimulationGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(SimulationGoldenTest, MatchesRecordedReferenceValues) {
  const Golden& g = GetParam();
  const auto r = BatchRunner::run_job(golden_job(g), kGoldenSeed, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& s = r.sim;
  EXPECT_DOUBLE_EQ(s.avg_server_inconsistency_s, g.avg_server_inconsistency_s);
  EXPECT_DOUBLE_EQ(s.avg_user_inconsistency_s, g.avg_user_inconsistency_s);
  EXPECT_DOUBLE_EQ(s.traffic.cost_km_kb, g.traffic_cost_km_kb);
  EXPECT_EQ(s.traffic.update_messages, g.update_messages);
  EXPECT_EQ(s.traffic.light_messages, g.light_messages);
  EXPECT_EQ(s.events_processed, g.events_processed);
  // No churn configured in the golden scenario.
  EXPECT_EQ(s.failures_injected, 0u);
}

// Observability must be a pure observer: metrics are always collected (the
// pins above already run with them), and switching trace recording on must
// reproduce the exact same pinned values while actually recording events.
TEST_P(SimulationGoldenTest, TraceRecordingDoesNotPerturbPinnedValues) {
  const Golden& g = GetParam();
  BatchJob job = golden_job(g);
  job.engine.record_trace_events = true;
  const auto r = BatchRunner::run_job(job, kGoldenSeed, 0);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_DOUBLE_EQ(r.sim.avg_server_inconsistency_s,
                   g.avg_server_inconsistency_s);
  EXPECT_DOUBLE_EQ(r.sim.traffic.cost_km_kb, g.traffic_cost_km_kb);
  EXPECT_EQ(r.sim.events_processed, g.events_processed);
  EXPECT_FALSE(r.sim.trace.empty());
  EXPECT_FALSE(r.sim.metrics.empty());
  // Cross-check: every acquisition span in the trace has a counted update.
  const std::size_t spans =
      static_cast<std::size_t>(std::count_if(r.sim.trace.events().begin(),
                                             r.sim.trace.events().end(),
                                             [](const obs::TraceEvent& e) {
                                               return e.ph == 'X';
                                             }));
  // Sum over all methods: e.g. HAT servers count as SelfAdaptive while
  // their supernodes acquire as Push.
  auto metrics = r.sim.metrics;  // counter() is non-const (registers)
  std::uint64_t acquired = 0;
  for (const UpdateMethod m :
       {UpdateMethod::kTtl, UpdateMethod::kAdaptiveTtl, UpdateMethod::kPush,
        UpdateMethod::kInvalidation, UpdateMethod::kSelfAdaptive,
        UpdateMethod::kRateAdaptive}) {
    acquired += metrics
                    .counter("engine.updates_acquired." +
                             std::string(to_string(m)))
                    .value;
  }
  EXPECT_EQ(acquired, spans);
}

INSTANTIATE_TEST_SUITE_P(FiveSystems, SimulationGoldenTest,
                         ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.name);
                         });

// The goldens double as a cross-method ordering check: the paper's Fig. 16
// ranking (push freshest, TTL stalest, HAT cheaper than plain unicast
// self-adaptive) must hold on the pinned values themselves.
TEST(SimulationGoldenTest, PinnedValuesPreserveThePapersOrdering) {
  const auto& ttl = kGoldens[0];
  const auto& push = kGoldens[1];
  const auto& inval = kGoldens[2];
  const auto& self_adaptive = kGoldens[3];
  const auto& hat = kGoldens[4];
  EXPECT_LT(push.avg_server_inconsistency_s, inval.avg_server_inconsistency_s);
  EXPECT_LT(inval.avg_server_inconsistency_s, ttl.avg_server_inconsistency_s);
  EXPECT_LT(hat.traffic_cost_km_kb, self_adaptive.traffic_cost_km_kb);
  EXPECT_LT(hat.avg_server_inconsistency_s,
            self_adaptive.avg_server_inconsistency_s);
}

}  // namespace
}  // namespace cdnsim::core
