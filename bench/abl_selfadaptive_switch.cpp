// Ablation (DESIGN.md choice #2): the self-adaptive method's switch-back
// trigger.
//
// Section 5.1 argues for switching back to TTL at the *first visited fetch*
// after an invalidation: the first visits on different servers land at
// different times, so the resumed poll phases are spread out and the
// provider avoids the Incast problem. The ablated alternative — every
// server resuming TTL immediately when the invalidation notice arrives —
// synchronises all poll timers on the notice time.
//
// We quantify the difference by the burstiness of provider load: the peak
// number of poll arrivals at the provider within any 1-second window after
// the first post-silence update.
#include <algorithm>
#include <map>

#include "bench_evaluation.hpp"
#include "bench_obs.hpp"
#include "consistency/engine.hpp"
#include "util/stats.hpp"

namespace {

using namespace cdnsim;

// Simplified phase model driven by the same visit process the engine uses:
// servers sit in invalidation mode through a silence; an update arrives at
// t=0; each server has `users` users polling with period `user_ttl` and
// random phase. Under the paper's rule a server's TTL clock restarts at its
// first visit after 0; under the ablation it restarts at the notice arrival
// (~0 for everyone). We then count poll arrivals at the provider per second
// over the following TTL window.
struct BurstStats {
  double peak_per_second;
  double mean_per_second;
};

BurstStats measure(bool paper_rule, std::size_t servers, double server_ttl,
                   double user_ttl, std::size_t users, util::Rng& rng) {
  std::map<long, int> arrivals;
  for (std::size_t s = 0; s < servers; ++s) {
    double resume;
    if (paper_rule) {
      // First visit after the update: minimum of `users` uniform phases.
      double first_visit = user_ttl;
      for (std::size_t u = 0; u < users; ++u) {
        first_visit = std::min(first_visit, rng.uniform(0.0, user_ttl));
      }
      resume = first_visit;
    } else {
      resume = rng.uniform(0.0, 0.2);  // notice arrival jitter only
    }
    // First TTL poll lands one TTL after resumption.
    const double poll = resume + server_ttl;
    arrivals[static_cast<long>(poll)] += 1;
  }
  BurstStats out{0, 0};
  double sum = 0;
  for (const auto& [sec, n] : arrivals) {
    out.peak_per_second = std::max(out.peak_per_second, static_cast<double>(n));
    sum += n;
  }
  out.mean_per_second = arrivals.empty() ? 0 : sum / static_cast<double>(arrivals.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdnsim;
  const bench::Flags flags(argc, argv);
  bench::banner(
      "Ablation: self-adaptive switch-back trigger (Incast avoidance, Sec 5.1)");

  const std::size_t servers =
      static_cast<std::size_t>(flags.get_int("servers", 850));
  util::Rng rng(11);

  util::TextTable table({"rule", "peak_polls_per_s", "mean_polls_per_s"});
  // One active viewer per server: during the silences that precede a
  // switch-back, audiences are thin, which is exactly when the resumption
  // spreading matters.
  const auto paper = measure(true, servers, 60.0, 10.0, 1, rng);
  const auto ablated = measure(false, servers, 60.0, 10.0, 1, rng);
  table.add_row(std::vector<std::string>{
      "switch-at-first-visited-fetch (paper)",
      util::format_double(paper.peak_per_second, 0),
      util::format_double(paper.mean_per_second, 1)});
  table.add_row(std::vector<std::string>{
      "switch-at-notice (ablated)", util::format_double(ablated.peak_per_second, 0),
      util::format_double(ablated.mean_per_second, 1)});
  table.print(std::cout);

  std::cout << "\nIncast ratio (ablated peak / paper peak): "
            << ablated.peak_per_second / paper.peak_per_second << "\n";

  // Also confirm the end-to-end engine with the paper rule stays consistent
  // (regression guard for the mechanism under ablation) — one self-adaptive
  // run per Section 5 infrastructure, batched over --jobs threads.
  auto eval = bench::evaluation_setup(flags, 120);
  std::vector<core::BatchJob> jobs;
  for (auto infra : {consistency::InfrastructureKind::kUnicast,
                     consistency::InfrastructureKind::kHybridSupernode}) {
    core::BatchJob job;
    job.shared_nodes = eval.scenario.nodes.get();
    job.shared_trace = &eval.game;
    job.engine =
        bench::section5_config(consistency::UpdateMethod::kSelfAdaptive, infra);
    job.label = infra == consistency::InfrastructureKind::kUnicast
                    ? "self-adaptive/unicast"
                    : "HAT/supernode";
    jobs.push_back(std::move(job));
  }
  bench::ObsSession obs(argc, argv, flags,
                        static_cast<std::uint64_t>(flags.get_int("seed", 42)));
  obs.apply(jobs);
  const core::BatchRunner runner(
      {.threads = flags.jobs(), .heartbeat_period_s = flags.heartbeat()});
  core::BatchRunStats batch_stats;
  const auto batch =
      bench::run_batch_reported(runner, jobs, false, &batch_stats);
  obs.write(batch, batch_stats);
  const auto& r = batch[0].sim;
  const auto& hat = batch[1].sim;

  util::ShapeCheck check("abl-selfadaptive-switch");
  check.expect_greater(ablated.peak_per_second, 3.0 * paper.peak_per_second,
                       "notice-synchronised resumption causes Incast bursts");
  check.expect_less(paper.peak_per_second,
                    static_cast<double>(servers) / 4.0,
                    "visit-spread resumption keeps per-second arrivals low");
  check.expect_less(r.avg_server_inconsistency_s, 60.0,
                    "engine's self-adaptive servers stay within one TTL");
  check.expect_less(hat.avg_server_inconsistency_s, 60.0,
                    "HAT servers stay within one TTL too");
  return bench::finish(check);
}
