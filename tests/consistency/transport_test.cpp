// The send path's hidden state:
//  * EdgeDistance: the meter's edge-distance caches return exactly
//    NodeRegistry::distance_km for every provider and tree-parent edge, in
//    both directions, at paper sizes and after churn has re-parented nodes;
//  * ReliableLifetime: the reliable layer's slab entries all die with the
//    events that reference them (transport pins, give-ups, churn), a run's
//    cancelled retry deadlines leave the number of scheduled events alone,
//    and an engine destroyed before its Simulator drains hands the slab
//    to the queued events;
//  * FaultInjectionDuplicate: an injected duplicate runs the receiver's
//    handler a second time, at the duplicate's own arrival instant.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/simulation.hpp"
#include "fault/injector.hpp"
#include "trace/game_generator.hpp"
#include "util/rng.hpp"

#include "engine_test_util.hpp"

namespace cdnsim::consistency {
namespace {

using topology::kProviderNode;
using topology::NodeId;

// Every cached edge of the engine's current topology, both directions.
void expect_edges_exact(const UpdateEngine& engine,
                        const topology::NodeRegistry& nodes,
                        const std::string& label) {
  const Infrastructure& infra = engine.infrastructure();
  const auto n = static_cast<NodeId>(nodes.server_count());
  for (NodeId s = 0; s < n; ++s) {
    EXPECT_EQ(engine.edge_distance_km(kProviderNode, s),
              nodes.distance_km(kProviderNode, s))
        << label << " provider->" << s;
    EXPECT_EQ(engine.edge_distance_km(s, kProviderNode),
              nodes.distance_km(s, kProviderNode))
        << label << " " << s << "->provider";
    const NodeId parent = infra.parent_of(s);
    if (parent < 0) continue;  // the provider, or detached
    EXPECT_EQ(engine.edge_distance_km(parent, s), nodes.distance_km(parent, s))
        << label << " " << parent << "->" << s;
    EXPECT_EQ(engine.edge_distance_km(s, parent), nodes.distance_km(s, parent))
        << label << " " << s << "->" << parent;
  }
}

TEST(EdgeDistance, CachedEdgesEqualHaversineAtPaperSizes) {
  const auto trace = testutil::regular_trace(10.0, 2);
  for (const std::size_t servers : {170u, 850u}) {
    const auto scenario = testutil::small_scenario(servers, 7);
    for (const InfrastructureKind kind :
         {InfrastructureKind::kUnicast, InfrastructureKind::kMulticastTree,
          InfrastructureKind::kHybridSupernode}) {
      sim::Simulator simulator;
      const UpdateEngine engine(simulator, *scenario.nodes, trace,
                                testutil::base_config(UpdateMethod::kPush, kind));
      expect_edges_exact(engine, *scenario.nodes,
                         std::string(to_string(kind)) + "/" +
                             std::to_string(servers));
    }
  }
}

TEST(EdgeDistance, CachedEdgesFollowChurnRepairs) {
  const auto scenario = testutil::small_scenario(170, 7);
  const auto trace = testutil::short_game();
  for (const InfrastructureKind kind : {InfrastructureKind::kMulticastTree,
                                        InfrastructureKind::kHybridSupernode}) {
    EngineConfig cfg = testutil::base_config(UpdateMethod::kPush, kind);
    cfg.churn.failures_per_hour = 120.0;
    cfg.churn.downtime_mean_s = 30.0;
    const auto run = testutil::run(*scenario.nodes, trace, cfg);
    obs::MetricsRegistry m = run->engine->metrics();
    // Repairs happened and re-parented children (kTreeMaintenance is metered
    // once per new edge).
    ASSERT_GT(run->engine->failures_injected(), 0u);
    ASSERT_GT(m.gauge("net.messages.tree-maintenance").value, 0.0);
    expect_edges_exact(*run->engine, *scenario.nodes,
                       std::string(to_string(kind)) + "/churn");
  }
}

// The golden scenario of simulation_golden_test, built the way
// BatchRunner::run_job builds it, so the engine itself is at hand.
struct PinScenario {
  core::Scenario scenario;
  trace::UpdateTrace trace;
};

PinScenario pin_scenario() {
  core::ScenarioConfig sc;
  sc.server_count = 20;
  sc.seed = 7;
  trace::GameTraceConfig game;
  game.bursty = false;
  game.pre_game_s = 60;
  game.period_s = 600;
  game.break_s = 120;
  game.post_game_s = 60;
  util::Rng trace_rng(util::substream_seed(424242, 0));
  return {core::build_scenario(sc), trace::generate_game_trace(game, trace_rng)};
}

EngineConfig pin_config(UpdateMethod method, InfrastructureKind infra,
                        std::uint32_t flow_window) {
  EngineConfig ec;
  ec.method.method = method;
  ec.method.server_ttl_s = 15.0;
  ec.infrastructure.kind = infra;
  ec.infrastructure.cluster_count = 5;
  ec.users_per_server = 3;
  ec.user_poll_period_s = 12.0;
  ec.fault.enabled = true;
  ec.fault.loss_probability = 0.15;
  ec.fault.duplicate_probability = 0.15;
  ec.fault.extra_delay_max_s = 0.15;
  ec.reliable.enabled = true;
  ec.pubsub.flow_window = flow_window;
  return ec;
}

double gauge(const UpdateEngine& engine, const char* name) {
  obs::MetricsRegistry m = engine.metrics();  // gauge() registers
  return m.gauge(name).value;
}

TEST(ReliableLifetime, TransportPinRunsLeaveNoLiveState) {
  const PinScenario pin = pin_scenario();
  struct Cell {
    UpdateMethod method;
    InfrastructureKind infra;
    std::uint32_t flow_window;
  };
  const Cell cells[] = {
      {UpdateMethod::kPush, InfrastructureKind::kUnicast, 0},
      {UpdateMethod::kInvalidation, InfrastructureKind::kUnicast, 0},
      {UpdateMethod::kPush, InfrastructureKind::kMulticastTree, 0},
      {UpdateMethod::kInvalidation, InfrastructureKind::kMulticastTree, 0},
      {UpdateMethod::kPush, InfrastructureKind::kHybridSupernode, 0},
      {UpdateMethod::kInvalidation, InfrastructureKind::kHybridSupernode, 0},
      {UpdateMethod::kSelfAdaptive, InfrastructureKind::kHybridSupernode, 0},
      {UpdateMethod::kInvalidation, InfrastructureKind::kMulticastTree, 2},
  };
  for (const Cell& c : cells) {
    const std::string label = std::string(to_string(c.method)) + "/" +
                              std::string(to_string(c.infra)) + "/w" +
                              std::to_string(c.flow_window);
    SCOPED_TRACE(label);
    const EngineConfig cfg = pin_config(c.method, c.infra, c.flow_window);
    const auto run = testutil::run(*pin.scenario.nodes, pin.trace, cfg);
    EXPECT_EQ(run->engine->reliable_states_live(), 0u);
    // Every scheduled event either fired or was cancelled; acked messages
    // cancelled their retry deadlines.
    const double scheduled = gauge(*run->engine, "sim.events_scheduled");
    const double fired = gauge(*run->engine, "sim.events_fired");
    const double cancelled = gauge(*run->engine, "sim.events_cancelled");
    EXPECT_EQ(fired + cancelled, scheduled);
    EXPECT_GT(cancelled, 0.0);
  }
}

// Cancelling a dead deadline only tombstones its queue entry: the number of
// events pushed stays what it was when every deadline fired as a no-op
// (recorded from the build before deadlines were cancelled, on the
// Invalidation/MulticastTree transport pin). That build fired 18652 events
// and cancelled 798; cancelling the dead deadlines and guards moves 4769
// of them from fired to cancelled.
constexpr double kPinnedScheduled = 19450;
constexpr double kPinnedFired = 13883;
constexpr double kPinnedCancelled = 5567;

TEST(ReliableLifetime, CancelledDeadlinesKeepTheScheduledCount) {
  const PinScenario pin = pin_scenario();
  const EngineConfig cfg = pin_config(
      UpdateMethod::kInvalidation, InfrastructureKind::kMulticastTree, 0);
  const auto run = testutil::run(*pin.scenario.nodes, pin.trace, cfg);
  EXPECT_EQ(gauge(*run->engine, "sim.events_scheduled"), kPinnedScheduled);
  EXPECT_EQ(gauge(*run->engine, "sim.events_fired"), kPinnedFired);
  EXPECT_EQ(gauge(*run->engine, "sim.events_cancelled"), kPinnedCancelled);
  EXPECT_EQ(static_cast<double>(run->engine->events_processed()),
            kPinnedFired);
}

TEST(ReliableLifetime, GiveUpsAndChurnLeaveNoLiveState) {
  {
    // Server 1 is partitioned away for the whole run: every transmission
    // to it spends its retry budget and gives up.
    topology::NodeRegistry nodes({net::GeoPoint{0, 0}, 0});
    nodes.add_server({net::GeoPoint{1, 1}, 0});
    nodes.add_server({net::GeoPoint{2, 2}, 1});
    const auto trace = testutil::regular_trace(10.0, 5);
    EngineConfig cfg = testutil::base_config(UpdateMethod::kPush);
    cfg.fault.enabled = true;
    cfg.fault.partitions.push_back({0, 1, 0.0, 1e9});
    cfg.reliable.enabled = true;
    cfg.reliable.ack_timeout_s = 1.0;
    cfg.reliable.max_retries = 2;
    const auto run = testutil::run(nodes, trace, cfg);
    obs::MetricsRegistry m = run->engine->metrics();
    ASSERT_GE(m.counter("reliable.give_ups").value, 5u);
    EXPECT_EQ(run->engine->reliable_states_live(), 0u);
  }
  {
    // Churn: deliveries dropped at departed servers and deadlines of
    // crashed senders release their references too.
    const auto scenario = testutil::small_scenario(40, 7);
    const auto trace = testutil::short_game();
    for (const UpdateMethod method :
         {UpdateMethod::kPush, UpdateMethod::kInvalidation}) {
      EngineConfig cfg =
          testutil::base_config(method, InfrastructureKind::kMulticastTree);
      cfg.churn.failures_per_hour = 60.0;
      cfg.churn.downtime_mean_s = 60.0;
      cfg.fault.enabled = true;
      cfg.fault.loss_probability = 0.2;
      cfg.fault.duplicate_probability = 0.1;
      cfg.reliable.enabled = true;
      const auto run = testutil::run(*scenario.nodes, trace, cfg);
      ASSERT_GT(run->engine->failures_injected(), 0u);
      EXPECT_EQ(run->engine->reliable_states_live(), 0u)
          << to_string(method);
    }
  }
}

TEST(ReliableLifetime, EngineDestroyedBeforeItsSimulatorDrains) {
  const auto scenario = testutil::small_scenario(20);
  const auto trace = testutil::regular_trace(10.0, 10);
  EngineConfig cfg = testutil::base_config(UpdateMethod::kPush);
  cfg.fault.enabled = true;
  cfg.fault.loss_probability = 0.3;
  cfg.reliable.enabled = true;
  auto simulator = std::make_unique<sim::Simulator>();
  auto engine = std::make_unique<UpdateEngine>(*simulator, *scenario.nodes,
                                               trace, cfg);
  engine->prepare();
  simulator->run(75.0);  // mid-run: pushes, acks and deadlines queued
  ASSERT_GT(engine->reliable_states_live(), 0u);
  // The queued events outlive the engine; the last one frees the slab
  // (AddressSanitizer checks the order).
  engine.reset();
  simulator.reset();
}

// With every message duplicated and reliable delivery off, the handler of
// each poll request runs twice: at the copy's arrival and at the
// duplicate's, which the injector offsets by its own draw. A twin injector
// (same plan, nodes and seed) replays those draws in send order.
TEST(FaultInjectionDuplicate, EveryCopyRunsTheHandlerAtItsOwnArrival) {
  topology::NodeRegistry nodes({net::GeoPoint{0, 0}, 0});
  nodes.add_server({net::GeoPoint{10, 10}, 1});
  const auto trace = testutil::regular_trace(25.0, 4);
  EngineConfig cfg = testutil::base_config(UpdateMethod::kTtl);
  cfg.fault.enabled = true;
  cfg.fault.duplicate_probability = 1.0;

  sim::Simulator simulator;
  UpdateEngine engine(simulator, nodes, trace, cfg);
  engine.prepare();
  const auto count = [&](net::MessageKind k) {
    return engine.meter().kind_counts()[static_cast<std::size_t>(k)];
  };
  const auto responses = [&] {
    return count(net::MessageKind::kPollResponseFresh) +
           count(net::MessageKind::kPollResponseNoop);
  };
  // One poll request in flight at a time (TTL 10 s >> latency), so the
  // sends alternate: request, response, response, request, ...
  std::vector<sim::SimTime> request_sent;
  std::vector<sim::SimTime> handled;  // instants the request handler ran
  std::uint64_t requests = 0;
  std::uint64_t answered = 0;
  while (simulator.step()) {
    for (; requests < count(net::MessageKind::kPollRequest); ++requests) {
      request_sent.push_back(simulator.now());
    }
    for (; answered < responses(); ++answered) {
      handled.push_back(simulator.now());
    }
  }
  ASSERT_GT(requests, 5u);
  ASSERT_EQ(handled.size(), 2 * requests);

  fault::Injector twin(cfg.fault, nodes, cfg.seed);
  for (std::size_t i = 0; i < requests; ++i) {
    SCOPED_TRACE(i);
    const fault::Injector::Decision request = twin.decide(0, kProviderNode, 0);
    ASSERT_TRUE(request.duplicate);
    for (int copy = 0; copy < 2; ++copy) {  // the two responses it caused
      ASSERT_TRUE(twin.decide(kProviderNode, 0, 0).duplicate);
    }
    const sim::SimTime first = handled[2 * i];
    const sim::SimTime second = handled[2 * i + 1];
    EXPECT_GT(first, request_sent[i]);
    // The duplicate lands exactly its injected offset after the original.
    EXPECT_EQ(second, first + request.duplicate_extra_delay_s);
  }
}

}  // namespace
}  // namespace cdnsim::consistency
