// Exact transport-timing tests on hand-built miniature topologies.
//
// With jitter disabled the engine is fully deterministic, so acquisition
// times are computable by hand from the three transport terms:
//   departure  = max(uplink busy, now) + size/bandwidth
//   arrival    = departure + base_delay + km * stretch / signal_speed
// These tests pin the engine's composition of uplink reservation, latency,
// and event ordering to those formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "consistency/engine.hpp"
#include "net/geo.hpp"
#include "sim/simulator.hpp"

namespace cdnsim::consistency {
namespace {

// Provider at (0,0); servers due east on the equator: 1 degree of longitude
// is ~111.2 km.
topology::NodeRegistry line_registry(int servers, double degrees_apart) {
  topology::NodeInfo provider;
  provider.location = {0.0, 0.0};
  topology::NodeRegistry reg(provider);
  for (int i = 1; i <= servers; ++i) {
    topology::NodeInfo info;
    info.location = {0.0, i * degrees_apart};
    reg.add_server(info);
  }
  return reg;
}

EngineConfig exact_config(UpdateMethod method) {
  EngineConfig ec;
  ec.method.method = method;
  ec.method.server_ttl_s = 10.0;
  ec.latency = net::LatencyConfig{};  // no jitter, no ISP penalty
  ec.update_packet_kb = 100.0;
  ec.light_packet_kb = 1.0;
  ec.provider_uplink_kbps = 1000.0;  // 0.1 s per update packet
  ec.server_uplink_kbps = 1000.0;
  ec.users_per_server = 0;
  ec.trace_offset_s = 0.0;
  ec.tail_s = 50.0;
  ec.seed = 3;
  return ec;
}

double one_way_s(const topology::NodeRegistry& reg, topology::NodeId a,
                 topology::NodeId b) {
  const net::LatencyConfig cfg;
  return cfg.base_delay_s +
         reg.distance_km(a, b) * cfg.route_stretch / cfg.signal_speed_km_per_s;
}

TEST(EngineTimingTest, SinglePushArrivalIsTransmissionPlusPropagation) {
  const auto reg = line_registry(1, 10.0);
  const trace::UpdateTrace updates({100.0});
  sim::Simulator simulator;
  UpdateEngine engine(simulator, reg, updates, exact_config(UpdateMethod::kPush));
  engine.run();
  const double expected = 100.0 + 100.0 / 1000.0 + one_way_s(reg, -1, 0);
  EXPECT_NEAR(engine.recorder(0).acquire_time(1), expected, 1e-9);
}

// Spacing that keeps even the largest line inside one hemisphere.
double spacing_for(int servers) { return std::min(10.0, 170.0 / servers); }

TEST(EngineTimingTest, UnicastPushSerializesAtProviderUplink) {
  // Copies leave the provider uplink back to back, 0.1 s apart, in
  // schedule order (the provider's topic walks servers in id order), so
  // server s acquires at t + (s+1)*size/bw + one_way(provider, s).
  for (const int servers : {3, 50, 850}) {
    SCOPED_TRACE(servers);
    const auto reg = line_registry(servers, spacing_for(servers));
    const trace::UpdateTrace updates({100.0});
    sim::Simulator simulator;
    UpdateEngine engine(simulator, reg, updates,
                        exact_config(UpdateMethod::kPush));
    engine.run();
    for (topology::NodeId s = 0; s < servers; ++s) {
      const double expected =
          100.0 + (s + 1) * 0.1 + one_way_s(reg, topology::kProviderNode, s);
      EXPECT_NEAR(engine.recorder(s).acquire_time(1), expected, 1e-9)
          << "server " << s;
    }
  }
}

TEST(EngineTimingTest, UnicastInvalidationNoticeSerializesAtProviderUplink) {
  // The notice counterpart: light packets, 1 ms apart on the provider
  // uplink. Reliable delivery makes each server ack its notice the instant
  // it arrives, and with no users the ack is the only message a server
  // sends, so stepping the simulator reads each notice's arrival time off
  // the server's first metered message.
  for (const int servers : {3, 50, 850}) {
    SCOPED_TRACE(servers);
    const auto reg = line_registry(servers, spacing_for(servers));
    const trace::UpdateTrace updates({100.0});
    sim::Simulator simulator;
    auto cfg = exact_config(UpdateMethod::kInvalidation);
    cfg.reliable.enabled = true;
    UpdateEngine engine(simulator, reg, updates, cfg);
    engine.prepare();
    const auto ack = static_cast<std::size_t>(net::MessageKind::kAck);
    std::vector<double> noticed(static_cast<std::size_t>(servers), -1.0);
    std::uint64_t acks = 0;
    while (simulator.step()) {
      if (engine.meter().kind_counts()[ack] == acks) continue;
      acks = engine.meter().kind_counts()[ack];
      for (topology::NodeId s = 0; s < servers; ++s) {
        double& t = noticed[static_cast<std::size_t>(s)];
        if (t < 0 && engine.meter().sender_totals(s).light_messages > 0) {
          t = simulator.now();
        }
      }
    }
    for (topology::NodeId s = 0; s < servers; ++s) {
      const double expected =
          100.0 + (s + 1) * 0.001 + one_way_s(reg, topology::kProviderNode, s);
      EXPECT_NEAR(noticed[static_cast<std::size_t>(s)], expected, 1e-9)
          << "server " << s;
    }
  }
}

TEST(EngineTimingTest, FartherServersWaitLongerUnderEqualQueueing) {
  // Same serialization slot ordering, so acquisition order follows
  // departure + distance; the farthest server acquires last.
  const auto reg = line_registry(4, 15.0);
  const trace::UpdateTrace updates({50.0});
  sim::Simulator simulator;
  UpdateEngine engine(simulator, reg, updates, exact_config(UpdateMethod::kPush));
  engine.run();
  for (topology::NodeId s = 1; s < 4; ++s) {
    EXPECT_GT(engine.recorder(s).acquire_time(1),
              engine.recorder(s - 1).acquire_time(1));
  }
}

TEST(EngineTimingTest, TtlAcquisitionLandsOnPollGrid) {
  // One server, no users. Its poll phase is random in [0, 10); every
  // acquisition must occur a round-trip after some poll tick.
  const auto reg = line_registry(1, 5.0);
  const trace::UpdateTrace updates({40.0, 77.0});
  sim::Simulator simulator;
  auto cfg = exact_config(UpdateMethod::kTtl);
  UpdateEngine engine(simulator, reg, updates, cfg);
  engine.run();
  const double rtt_light = 2 * one_way_s(reg, -1, 0);
  // Acquire = poll tick + request (1KB, 1ms) transmission + propagation +
  // response (100KB, 0.1s) + propagation.
  const double response_path = 0.001 + 0.1 + rtt_light;
  for (trace::Version v = 1; v <= 2; ++v) {
    const double acquired = engine.recorder(0).acquire_time(v);
    const double poll_time = acquired - response_path;
    // The poll tick lies on phase + k*TTL for some integer k.
    const double phase = std::fmod(poll_time, 10.0);
    // All ticks share one phase: check the acquisition is consistent with
    // the update time (within one TTL after it).
    EXPECT_GE(poll_time, updates.update_time(v));
    EXPECT_LE(poll_time, updates.update_time(v) + 10.0 + 1e-9);
    (void)phase;
  }
}

TEST(EngineTimingTest, InvalidationFetchTakesNoticePlusVisitPlusRoundTrip) {
  // One server, one user with a known visit grid. The fetch starts at the
  // first visit after the notice arrives; content lands one light request +
  // one content response later.
  const auto reg = line_registry(1, 10.0);
  const trace::UpdateTrace updates({100.0});
  sim::Simulator simulator;
  auto cfg = exact_config(UpdateMethod::kInvalidation);
  cfg.users_per_server = 1;
  cfg.user_poll_period_s = 10.0;
  cfg.user_start_window_s = 0.0;  // user visits at exactly 0, 10, 20, ...
  UpdateEngine engine(simulator, reg, updates, cfg);
  engine.run();
  const double one_way = one_way_s(reg, -1, 0);
  const double notice_at = 100.0 + 0.001 + one_way;  // light, 1 ms serialize
  const double first_visit_after = std::ceil(notice_at / 10.0) * 10.0;
  const double fetched =
      first_visit_after + (0.001 + one_way) + (0.1 + one_way);
  EXPECT_NEAR(engine.recorder(0).acquire_time(1), fetched, 1e-9);
}

TEST(EngineTimingTest, MulticastChainAccumulatesPerHopDelays)  {
  // Fanout 1 forces a chain; each hop adds serialization + propagation.
  const auto reg = line_registry(3, 10.0);
  const trace::UpdateTrace updates({100.0});
  sim::Simulator simulator;
  auto cfg = exact_config(UpdateMethod::kPush);
  cfg.infrastructure.kind = InfrastructureKind::kMulticastTree;
  cfg.infrastructure.tree_fanout = 1;
  UpdateEngine engine(simulator, reg, updates, cfg);
  engine.run();
  const auto& infra = engine.infrastructure();
  // Identify the chain order by depth.
  std::vector<topology::NodeId> by_depth(3);
  for (topology::NodeId s = 0; s < 3; ++s) {
    by_depth[infra.depth_of(s) - 1] = s;
  }
  double expected = 100.0;
  topology::NodeId hop_from = topology::kProviderNode;
  for (topology::NodeId s : by_depth) {
    expected += 0.1 + one_way_s(reg, hop_from, s);
    EXPECT_NEAR(engine.recorder(s).acquire_time(1), expected, 1e-9)
        << "depth " << infra.depth_of(s);
    hop_from = s;
  }
}

}  // namespace
}  // namespace cdnsim::consistency
