// Figure 20: scalability vs network size (170 - 850 servers).
//  (a) unicast: inconsistency grows with server count at rate
//      Push > Invalidation, while TTL stays flat (polls spread over the
//      TTL window keep the provider unloaded);
//  (b) multicast: TTL now grows fastest — more servers deepen the tree and
//      inconsistency is proportional to depth with an amplification factor
//      in [0, TTL].
//
// The sweep is the repo's heaviest grid (10 scenario sizes x methods), so it
// submits through core::BatchRunner: pass --jobs N (0 = all cores) to run
// the grid in parallel; the numbers are identical for every N.
#include "bench_evaluation.hpp"
#include "bench_obs.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace cdnsim;
  using consistency::InfrastructureKind;
  using consistency::UpdateMethod;
  const bench::Flags flags(argc, argv);
  bench::banner("Figure 20: content-server inconsistency vs network size");

  std::vector<std::size_t> sizes{170, 340, 510, 680, 850};
  if (flags.small()) sizes = {60, 120, 240};
  if (flags.large()) {
    // Scalability stress: 10 sizes up to 10x the paper's largest network.
    sizes.clear();
    for (std::size_t k = 1; k <= 10; ++k) sizes.push_back(k * 850);
  }
  // Larger content packets make provider fanout the binding resource, as on
  // the paper's bandwidth-constrained PlanetLab nodes. The 100 Mbit/s uplink
  // still covers TTL's worst-case sustained load at 850 servers, so TTL
  // stays flat while the push-at-once methods queue.
  const double packet_kb = flags.get("packet", 100.0);
  const double uplink_kbps = flags.get("uplink", 12500.0);

  const UpdateMethod methods[3] = {UpdateMethod::kPush, UpdateMethod::kInvalidation,
                                   UpdateMethod::kTtl};
  const InfrastructureKind infras[2] = {InfrastructureKind::kUnicast,
                                        InfrastructureKind::kMulticastTree};

  // --seed varies the game trace (the tier-1 obs stage diffs two seeds to
  // check obs_diff.py flags real metric deltas). Scenario seeds stay fixed.
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 7));
  util::Rng trace_rng(seed);
  trace::GameTraceConfig game_cfg;
  game_cfg.bursty = false;  // Section 4's individually-delivered updates
  const auto game = trace::generate_game_trace(game_cfg, trace_rng);

  // Scenarios are built once per size and shared read-only across the grid.
  std::vector<core::Scenario> scenarios;
  scenarios.reserve(sizes.size());
  for (std::size_t n : sizes) {
    core::ScenarioConfig sc;
    sc.server_count = n;
    sc.seed = 42;
    scenarios.push_back(core::build_scenario(sc));
  }

  // One job per (infrastructure, size, method) grid point.
  std::vector<core::BatchJob> jobs;
  jobs.reserve(2 * sizes.size() * 3);
  for (auto infra : infras) {
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      for (int m = 0; m < 3; ++m) {
        core::BatchJob job;
        job.shared_nodes = scenarios[si].nodes.get();
        job.shared_trace = &game;
        job.engine = bench::section4_config(methods[m], infra);
        job.engine.update_packet_kb = packet_kb;
        job.engine.provider_uplink_kbps = uplink_kbps;
        job.engine.server_uplink_kbps = uplink_kbps;
        job.label = std::string(infra == InfrastructureKind::kUnicast
                                    ? "unicast/"
                                    : "multicast/") +
                    std::to_string(sizes[si]) + "/" +
                    std::string(to_string(methods[m]));
        jobs.push_back(std::move(job));
      }
    }
  }

  bench::ObsSession obs(argc, argv, flags, seed);
  obs.apply(jobs);

  const core::BatchRunner runner(
      {.threads = flags.jobs(), .heartbeat_period_s = flags.heartbeat()});
  const bench::WallTimer grid_timer;
  core::BatchRunStats batch_stats;
  const auto results =
      bench::run_batch_reported(runner, jobs, true, &batch_stats);
  obs.write(results, batch_stats);
  if (const std::string bench_json = flags.bench_json(); !bench_json.empty()) {
    const double wall_s = grid_timer.seconds();
    const std::string config =
        std::string(flags.small() ? "small" : (flags.large() ? "large" : "full")) +
        "/jobs=" + std::to_string(runner.threads());
    // --small runs record under their own bench name: the perf gate
    // (check_bench_regression.py) tracks the smoke separately.
    const std::string bench_name =
        flags.small() ? "fig20_small" : "fig20_network_size/grid";
    bench::append_bench_record(bench_json, bench_name, config, wall_s,
                               static_cast<double>(jobs.size()) / wall_s);
  }

  double grow[2][3];
  std::size_t job_index = 0;
  for (int infra_idx = 0; infra_idx < 2; ++infra_idx) {
    std::cout << "\n--- ("
              << (infra_idx == 0 ? "a) unicast" : "b) multicast") << " ---\n";
    util::TextTable table({"servers", "Push_s", "Invalidation_s", "TTL_s"});
    std::vector<std::vector<double>> by_method(3);
    for (std::size_t n : sizes) {
      std::vector<double> row{static_cast<double>(n)};
      for (int m = 0; m < 3; ++m) {
        const auto& r = results[job_index++].sim;
        row.push_back(r.avg_server_inconsistency_s);
        by_method[m].push_back(r.avg_server_inconsistency_s);
      }
      table.add_row(row, 3);
    }
    table.print(std::cout);
    for (int m = 0; m < 3; ++m) {
      grow[infra_idx][m] = by_method[m].back() - by_method[m].front();
    }
  }

  util::ShapeCheck check("fig20");
  check.expect_greater(grow[0][0], grow[0][1],
                       "(a) Push degrades fastest with network size (unicast)");
  check.expect_greater(grow[0][1], grow[0][2],
                       "(a) Invalidation degrades faster than TTL (unicast)");
  check.expect_in_range(grow[0][2], -1.0, 1.0,
                        "(a) TTL stays essentially flat (high scalability)");
  check.expect_greater(grow[1][2], grow[1][0],
                       "(b) in multicast, TTL grows fastest (depth amplification)");
  return bench::finish(check);
}
