// Extension experiment: consistency methods under network faults.
//
// Section 1 of the paper argues that soft-state TTL survives real networks
// where hard-state methods (Push, Invalidation) break: "node failures break
// the structure connectivity and lead to unsuccessful update propagation".
// The churn bench measures the *node*-failure half of that claim; this one
// measures the *network* half with src/fault: sweep per-message loss rate
// and watch
//
//  * TTL stay ~flat — every lost poll or response is retried by the next
//    poll tick, so loss only adds one-TTL bumps;
//  * fire-and-forget Push and Invalidation degrade monotonically — a lost
//    push strands the replica until the next update, a lost invalidation
//    until the next user-triggered fetch;
//  * Push/Invalidation over the reliable-delivery layer (ack/timeout/retry
//    with exponential backoff) recover to near their lossless baseline, at a
//    measurable cost in extra update messages and acks.
#include "bench_evaluation.hpp"
#include "bench_obs.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace cdnsim;
  using consistency::InfrastructureKind;
  using consistency::UpdateMethod;
  const bench::Flags flags(argc, argv);
  bench::banner("Extension: fault tolerance under message loss");

  auto eval = bench::evaluation_setup(flags);

  struct SystemRow {
    const char* name;
    UpdateMethod method;
    bool reliable;
  };
  const std::vector<SystemRow> systems{
      {"TTL", UpdateMethod::kTtl, false},
      {"Push", UpdateMethod::kPush, false},
      {"Invalidation", UpdateMethod::kInvalidation, false},
      {"Push+retry", UpdateMethod::kPush, true},
      {"Invalidation+retry", UpdateMethod::kInvalidation, true},
  };

  std::vector<double> loss_rates{0.0, 0.05, 0.15, 0.3};
  if (flags.small()) loss_rates = {0.0, 0.15, 0.3};

  std::vector<core::BatchJob> jobs;
  jobs.reserve(loss_rates.size() * systems.size());
  for (double loss : loss_rates) {
    for (const auto& system : systems) {
      core::BatchJob job;
      job.shared_nodes = eval.scenario.nodes.get();
      job.shared_trace = &eval.game;
      job.engine = bench::section4_config(system.method,
                                          InfrastructureKind::kUnicast);
      job.engine.fault.enabled = true;
      job.engine.fault.loss_probability = loss;
      job.engine.fault.duplicate_probability = flags.get("dup", 0.0);
      job.engine.fault.extra_delay_max_s = flags.get("jitter", 0.0);
      job.engine.reliable.enabled = system.reliable;
      job.engine.reliable.ack_timeout_s = flags.get("ack-timeout", 2.0);
      job.engine.reliable.max_retries =
          static_cast<int>(flags.get_int("max-retries", 4));
      job.label = std::string(system.name) + "@" + std::to_string(loss);
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

  // Per-system series over the loss sweep.
  std::vector<std::vector<double>> inconsistency(systems.size());
  std::vector<std::vector<double>> update_msgs(systems.size());
  std::vector<std::vector<double>> retries(systems.size());
  std::vector<std::vector<double>> give_ups(systems.size());
  std::vector<std::vector<double>> converged(systems.size());

  std::size_t job_index = 0;
  for (double loss : loss_rates) {
    std::cout << "\n--- loss rate " << loss << " ---\n";
    util::TextTable table({"system", "avg_inconsistency_s", "update_msgs",
                           "dropped", "retries", "give_ups",
                           "converged_frac"});
    for (std::size_t i = 0; i < systems.size(); ++i) {
      const auto& r = results[job_index++].sim;
      obs::MetricsRegistry m = r.metrics;
      inconsistency[i].push_back(r.avg_server_inconsistency_s);
      update_msgs[i].push_back(static_cast<double>(r.traffic.update_messages));
      retries[i].push_back(
          static_cast<double>(m.counter("reliable.retries").value));
      give_ups[i].push_back(
          static_cast<double>(m.counter("reliable.give_ups").value));
      converged[i].push_back(r.converged_server_fraction);
      table.add_row(std::vector<std::string>{
          systems[i].name, util::format_double(r.avg_server_inconsistency_s, 3),
          std::to_string(r.traffic.update_messages),
          std::to_string(m.counter("fault.messages_dropped").value),
          std::to_string(m.counter("reliable.retries").value),
          std::to_string(m.counter("reliable.give_ups").value),
          util::format_double(r.converged_server_fraction, 3)});
    }
    table.print(std::cout);
  }

  // Indices: 0 TTL, 1 Push, 2 Invalidation, 3 Push+retry, 4 Inv+retry.
  util::ShapeCheck check("ext-fault");
  const std::size_t last = loss_rates.size() - 1;
  // Hard-state methods without retries degrade monotonically with loss.
  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    for (std::size_t k = 0; k + 1 <= last; ++k) {
      check.expect_greater(
          inconsistency[i][k + 1], inconsistency[i][k],
          std::string(systems[i].name) + " degrades from loss " +
              util::format_double(loss_rates[k], 2) + " to " +
              util::format_double(loss_rates[k + 1], 2));
    }
  }
  // Soft-state TTL self-heals: a lost poll round trip costs one extra poll
  // period, so the curve stays bounded by a few TTLs regardless of horizon…
  check.expect_less(inconsistency[0][last], inconsistency[0][0] + 30.0,
                    "TTL stays near-flat: loss adds at most a few poll periods");
  // …and in *relative* terms it barely moves while fire-and-forget Push
  // collapses (a stranded replica stays stale until the next update).
  check.expect_less(inconsistency[0][last] / inconsistency[0][0],
                    0.5 * inconsistency[1][last] / inconsistency[1][0],
                    "TTL's relative degradation is tiny next to Push's");
  check.expect_near(converged[0][last], 1.0, 0.01,
                    "every TTL replica converges: the next poll always heals");
  check.expect_less(converged[1][last], 1.0,
                    "fire-and-forget Push strands replicas permanently");
  // The reliable layer restores the hard-state methods: full convergence and
  // near-baseline inconsistency (Invalidation keeps a demand-driven tail —
  // retried notices and lost user visits each cost ack-timeout-scale delays).
  check.expect_less(inconsistency[3][last], inconsistency[3][0] + 2.0,
                    "Push+retry recovers to near its lossless baseline");
  check.expect_less(inconsistency[4][last], inconsistency[4][0] + 8.0,
                    "Invalidation+retry recovers to within a few ack timeouts");
  check.expect_near(converged[3][last], 1.0, 0.01,
                    "Push+retry converges every replica");
  check.expect_near(converged[4][last], 1.0, 0.01,
                    "Invalidation+retry converges every replica");
  check.expect_less(inconsistency[3][last], inconsistency[1][last],
                    "retries beat fire-and-forget Push under loss");
  // …and pays for it in retransmissions.
  check.expect_greater(update_msgs[3][last], update_msgs[1][last],
                       "recovery costs extra update messages");
  check.expect_greater(retries[3][last], 0.0, "Push+retry retransmitted");
  check.expect_greater(retries[4][last], 0.0,
                       "Invalidation+retry retransmitted");
  check.expect_near(retries[0][last], 0.0, 0.5,
                    "TTL never touches the reliable layer");
  check.expect_near(give_ups[3][0], 0.0, 0.5,
                    "no give-ups without loss");
  return bench::finish(check);
}
