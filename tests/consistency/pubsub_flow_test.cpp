// Engine-level pub/sub flow-control behaviour:
//  * flow_window == 0 (the default) walks every topic without credits:
//    nothing is suppressed or tailed (the golden and transport pins anchor
//    the send sequence itself);
//  * flow_window is inert on unicast;
//  * flow_window > 0 bounds per-subscriber in-flight deliveries, converts
//    suppressed pushes into log catch-ups, and still converges;
//  * flow-on runs stay byte-identical across batch thread counts (the
//    tier-1 determinism contract).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/simulation.hpp"
#include "engine_test_util.hpp"
#include "obs/metrics.hpp"

namespace cdnsim::consistency {
namespace {

using testutil::base_config;
using testutil::regular_trace;
using testutil::run;
using testutil::small_scenario;

std::uint64_t counter(const UpdateEngine& e, const std::string& name) {
  obs::MetricsRegistry m = e.metrics();
  return m.counter(name).value;
}

// Fraction of servers holding the final trace version at end of run.
double converged_fraction(const UpdateEngine& e, std::size_t servers,
                          const trace::UpdateTrace& updates) {
  std::size_t converged = 0;
  for (topology::NodeId s = 0; s < static_cast<topology::NodeId>(servers);
       ++s) {
    if (e.recorder(s).current_version() == updates.update_count()) ++converged;
  }
  return static_cast<double>(converged) / static_cast<double>(servers);
}

// Wide fan-out cap: the tree still attaches each server to its nearest
// member, so relays end up with a handful of children each. Suppression in
// the tests below comes from packet sizing (big packets back up the relay
// uplinks), not from topology.
EngineConfig windowed(UpdateMethod method, std::uint32_t window) {
  auto cfg = base_config(method, InfrastructureKind::kMulticastTree);
  cfg.infrastructure.tree_fanout = 64;
  cfg.pubsub.flow_window = window;
  return cfg;
}

TEST(PubsubFlowTest, FlowOffDoesNoSuppressionOrCatchUp) {
  const auto scenario = small_scenario(40);
  const auto updates = regular_trace(5.0, 20);
  const struct {
    UpdateMethod method;
    InfrastructureKind infra;
  } systems[] = {
      {UpdateMethod::kPush, InfrastructureKind::kUnicast},
      {UpdateMethod::kPush, InfrastructureKind::kMulticastTree},
      {UpdateMethod::kInvalidation, InfrastructureKind::kMulticastTree},
      {UpdateMethod::kPush, InfrastructureKind::kHybridSupernode},
      {UpdateMethod::kSelfAdaptive, InfrastructureKind::kHybridSupernode},
  };
  for (const auto& sys : systems) {
    EngineConfig cfg = base_config(sys.method, sys.infra);
    cfg.pubsub.flow_window = 0;
    const auto r = run(*scenario.nodes, updates, cfg);
    SCOPED_TRACE(std::string(to_string(sys.method)) + "/" +
                 std::string(to_string(sys.infra)));
    // The walker delivers (and counts) every live send but does no flow
    // bookkeeping: nothing is ever suppressed or tailed.
    EXPECT_GT(counter(*r->engine, "pubsub.live_deliveries"), 0u);
    EXPECT_EQ(counter(*r->engine, "pubsub.suppressed_deliveries"), 0u);
    EXPECT_EQ(counter(*r->engine, "pubsub.catch_up_messages"), 0u);
    EXPECT_EQ(counter(*r->engine, "pubsub.lagging_enter"), 0u);
  }
}

TEST(PubsubFlowTest, WindowSuppressesAndCatchUpConverges) {
  const auto scenario = small_scenario(40);
  // Updates arrive faster than a window-1 subscriber can confirm, so live
  // deliveries are suppressed and replaced by head catch-ups.
  const auto updates = regular_trace(0.5, 40);
  auto cfg = windowed(UpdateMethod::kPush, 1);
  // 1 MB pushes serialize at 400 ms each on the 2500 KB/s uplinks; even a
  // relay with just a few children backs its uplink up past the 0.5 s update
  // gap, so in-flight settles lag the publish cadence.
  cfg.update_packet_kb = 1000.0;
  cfg.tail_s = 200.0;
  const auto r = run(*scenario.nodes, updates, cfg);

  EXPECT_GT(counter(*r->engine, "pubsub.live_deliveries"), 0u);
  EXPECT_GT(counter(*r->engine, "pubsub.suppressed_deliveries"), 0u);
  EXPECT_GT(counter(*r->engine, "pubsub.catch_up_messages"), 0u);
  EXPECT_GT(counter(*r->engine, "pubsub.catch_up_reads"), 0u);
  // Every suppression eventually settles: the lagging gauge drains to zero
  // and all replicas reach the final version.
  obs::MetricsRegistry m = r->engine->metrics();
  EXPECT_EQ(m.gauge("pubsub.lagging_subscribers").value, 0.0);
  EXPECT_EQ(m.counter("pubsub.lagging_enter").value,
            m.counter("pubsub.lagging_exit").value);
  EXPECT_DOUBLE_EQ(converged_fraction(*r->engine, 40, updates), 1.0);
}

TEST(PubsubFlowTest, WindowBoundsAckImplosionUnderReliableDelivery) {
  const auto scenario = small_scenario(40);
  const auto updates = regular_trace(0.5, 40);

  auto flow_off = windowed(UpdateMethod::kPush, 0);
  flow_off.reliable.enabled = true;
  flow_off.update_packet_kb = 1000.0;
  flow_off.tail_s = 200.0;
  auto flow_on = flow_off;
  flow_on.pubsub.flow_window = 1;

  const auto off = run(*scenario.nodes, updates, flow_off);
  const auto on = run(*scenario.nodes, updates, flow_on);
  // The credit window caps how many copies (and acks) each update can put
  // in flight, so total message traffic drops.
  const auto total = [](const UpdateEngine& e) {
    return e.meter().totals().update_messages +
           e.meter().totals().light_messages;
  };
  EXPECT_LT(total(*on->engine), total(*off->engine));
  EXPECT_GT(counter(*on->engine, "pubsub.suppressed_deliveries"), 0u);
  EXPECT_DOUBLE_EQ(converged_fraction(*on->engine, 40, updates), 1.0);
}

TEST(PubsubFlowTest, FlowOnBatchesAreByteIdenticalAcrossJobCounts) {
  std::vector<core::BatchJob> jobs;
  for (const auto method : {UpdateMethod::kPush, UpdateMethod::kInvalidation}) {
    core::BatchJob job;
    core::ScenarioConfig sc;
    sc.server_count = 30;
    sc.seed = 17;
    job.scenario = sc;
    trace::GameTraceConfig game;
    game.bursty = false;
    game.pre_game_s = 10;
    game.periods = 1;
    game.period_s = 120;
    game.break_s = 0;
    game.post_game_s = 30;
    game.in_play_mean_gap_s = 1;
    job.game = game;
    job.engine = windowed(method, 1);
    job.engine.update_packet_kb = 1000.0;
    job.engine.light_packet_kb = 500.0;
    job.engine.reliable.enabled = method == UpdateMethod::kPush;
    job.label = std::string(to_string(method)) + "/flow-on";
    jobs.push_back(std::move(job));
  }
  const core::BatchRunner serial({.threads = 1, .master_seed = 5});
  const core::BatchRunner parallel({.threads = 8, .master_seed = 5});
  const auto a = serial.run(jobs);
  const auto b = parallel.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << a[i].error;
    ASSERT_TRUE(b[i].ok()) << b[i].error;
    SCOPED_TRACE(jobs[i].label);
    EXPECT_EQ(a[i].sim.server_inconsistency_s, b[i].sim.server_inconsistency_s);
    EXPECT_EQ(a[i].sim.metrics.to_json(), b[i].sim.metrics.to_json());
    obs::MetricsRegistry m = a[i].sim.metrics;
    EXPECT_GT(m.counter("pubsub.suppressed_deliveries").value, 0u);
  }
}

TEST(PubsubFlowTest, ConfigValidation) {
  const auto scenario = small_scenario(5);
  const auto updates = regular_trace(10.0, 2);
  auto cfg = windowed(UpdateMethod::kPush, 1);
  cfg.pubsub.log_capacity = 0;
  EXPECT_THROW(run(*scenario.nodes, updates, cfg), PreconditionError);
  cfg = windowed(UpdateMethod::kPush, 1);
  cfg.pubsub.catchup_retry_s = 0.0;
  EXPECT_THROW(run(*scenario.nodes, updates, cfg), PreconditionError);
}

TEST(PubsubFlowTest, UnicastIgnoresFlowWindow) {
  // Unicast fans out through the provider's topic without credits; a
  // nonzero window must change nothing.
  const auto scenario = small_scenario(20);
  const auto updates = regular_trace(5.0, 10);
  auto plain = base_config(UpdateMethod::kPush);
  auto windowed = base_config(UpdateMethod::kPush);
  windowed.pubsub.flow_window = 1;
  const auto a = run(*scenario.nodes, updates, plain);
  const auto b = run(*scenario.nodes, updates, windowed);
  EXPECT_EQ(a->engine->server_avg_inconsistency(),
            b->engine->server_avg_inconsistency());
  EXPECT_EQ(a->engine->metrics().to_json(), b->engine->metrics().to_json());
  // Every push is one live walker delivery (no retries without reliable
  // delivery), and the window never suppresses or tails.
  EXPECT_EQ(counter(*b->engine, "pubsub.live_deliveries"),
            b->engine->meter().totals().update_messages);
  EXPECT_GT(counter(*b->engine, "pubsub.live_deliveries"), 0u);
  EXPECT_EQ(counter(*b->engine, "pubsub.suppressed_deliveries"), 0u);
  EXPECT_EQ(counter(*b->engine, "pubsub.catch_up_messages"), 0u);
}

}  // namespace
}  // namespace cdnsim::consistency
