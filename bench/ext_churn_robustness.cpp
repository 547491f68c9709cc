// Extension experiment: infrastructure robustness under server churn.
//
// Section 1 of the paper argues that multicast trees trade message economy
// for fragility: "node failures break the structure connectivity and lead
// to unsuccessful update propagation. Aside from node failures, the
// structure maintenance will incur high overhead". This bench quantifies
// that trade-off, which the paper discusses but does not measure:
//
//  * unicast is immune to peer failures (only the crashed node suffers);
//  * multicast without repair starves whole subtrees while an interior node
//    is down;
//  * multicast and HAT with the Section 5.2 repair rule stay consistent but
//    pay tree-maintenance traffic that grows with the churn rate.
#include "bench_evaluation.hpp"
#include "bench_obs.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace cdnsim;
  using consistency::InfrastructureKind;
  using consistency::UpdateMethod;
  const bench::Flags flags(argc, argv);
  bench::banner("Extension: robustness under infrastructure churn");

  auto eval = bench::evaluation_setup(flags);
  const double downtime = flags.get("downtime", 180.0);

  struct SystemRow {
    const char* name;
    UpdateMethod method;
    InfrastructureKind infra;
    bool repair;
  };
  const std::vector<SystemRow> systems{
      {"Push+Unicast", UpdateMethod::kPush, InfrastructureKind::kUnicast, true},
      {"Push+Multicast(no repair)", UpdateMethod::kPush,
       InfrastructureKind::kMulticastTree, false},
      {"Push+Multicast(repair)", UpdateMethod::kPush,
       InfrastructureKind::kMulticastTree, true},
      {"HAT(repair)", UpdateMethod::kSelfAdaptive,
       InfrastructureKind::kHybridSupernode, true},
  };

  std::vector<double> churn_rates{0.0, 60.0, 240.0, 960.0};
  if (flags.small()) churn_rates = {0.0, 240.0};

  // One job per (rate, system) grid point, all sharing the scenario and the
  // trace read-only; the batch runner spreads them over --jobs threads.
  std::vector<core::BatchJob> jobs;
  jobs.reserve(churn_rates.size() * systems.size());
  for (double rate : churn_rates) {
    for (const auto& system : systems) {
      core::BatchJob job;
      job.shared_nodes = eval.scenario.nodes.get();
      job.shared_trace = &eval.game;
      job.engine = bench::section4_config(system.method, system.infra);
      job.engine.churn.failures_per_hour = rate;
      job.engine.churn.downtime_mean_s = downtime;
      job.engine.churn.repair_enabled = system.repair;
      job.engine.tail_s = 600.0;
      job.label = std::string(system.name) + "@" + std::to_string(rate);
      jobs.push_back(std::move(job));
    }
  }
  bench::ObsSession obs(argc, argv, flags,
                        static_cast<std::uint64_t>(flags.get_int("seed", 42)));
  obs.apply(jobs);
  const core::BatchRunner runner(
      {.threads = flags.jobs(), .heartbeat_period_s = flags.heartbeat()});
  core::BatchRunStats batch_stats;
  const auto results =
      bench::run_batch_reported(runner, jobs, false, &batch_stats);
  obs.write(results, batch_stats);

  // inconsistency[system][rate]
  std::vector<std::vector<double>> inconsistency(systems.size());
  std::vector<std::vector<double>> maintenance(systems.size());

  std::size_t job_index = 0;
  for (double rate : churn_rates) {
    std::cout << "\n--- churn rate " << rate << " failures/hour (downtime ~"
              << downtime << " s) ---\n";
    util::TextTable table({"system", "avg_inconsistency_s", "failures",
                           "light_msgs", "converged_frac"});
    for (std::size_t i = 0; i < systems.size(); ++i) {
      const auto& r = results[job_index++].sim;
      inconsistency[i].push_back(r.avg_server_inconsistency_s);
      maintenance[i].push_back(static_cast<double>(r.traffic.light_messages));
      table.add_row(std::vector<std::string>{
          systems[i].name, util::format_double(r.avg_server_inconsistency_s, 3),
          std::to_string(r.failures_injected),
          std::to_string(r.traffic.light_messages),
          util::format_double(r.converged_server_fraction, 3)});
    }
    table.print(std::cout);
  }

  // Indices: 0 unicast, 1 multicast-no-repair, 2 multicast-repair, 3 HAT.
  // Every system pays each node's *own* downtime (a crashed replica is stale
  // until it returns and resyncs); the structural question is how much a
  // failure hurts *other* nodes. Unicast is the immune baseline.
  util::ShapeCheck check("ext-churn");
  const std::size_t last = churn_rates.size() - 1;
  check.expect_greater(inconsistency[1][last], 3.0 * inconsistency[2][last],
                       "unrepaired multicast starves subtrees; repair fixes it");
  check.expect_near(inconsistency[2][last], inconsistency[0][last], 0.25,
                    "repaired multicast matches the unicast (own-downtime) floor");
  check.expect_less(inconsistency[3][last], 1.5 * inconsistency[0][last],
                    "HAT with supernode failover stays near the unicast floor");
  check.expect_greater(maintenance[2][last], maintenance[2][0],
                       "repair costs maintenance traffic that grows with churn");
  check.expect_less(inconsistency[3][last], inconsistency[1][last],
                    "HAT with failover beats unrepaired multicast");
  return bench::finish(check);
}
