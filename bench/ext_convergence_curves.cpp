// Extension experiment: time-resolved convergence curves per update method.
//
// The end-of-run metrics (converged_server_fraction, avg inconsistency)
// compress a whole run into one number. This bench demonstrates the
// obs::TimeSeries sampler by plotting the *trajectory* instead: for each
// method, the fraction of replicas holding the latest published version at
// every sample instant, under a lossy network (the ext_fault_tolerance plan)
// and under a lossless baseline.
//
// The curves make the methods' time structure visible where the final
// metric cannot:
//  * Push converges within delivery latency of every update, so its
//    lossless curve hugs 1.0 between updates;
//  * TTL dips after every update (replicas stay stale up to one TTL) but
//    always recovers — its curve oscillates yet ends at 1.0 even with loss;
//  * fire-and-forget Push under loss strands replicas permanently: the
//    curve steps *down* over the run and never recovers, while Push+retry
//    tracks the lossless shape.
//
// The final point of every curve must equal the end-of-run
// converged_server_fraction exactly (the closing sample lands strictly
// after the last event) — pinned by the shape checks below, and the span
// rollups must account for every published version.
#include "bench_evaluation.hpp"
#include "bench_obs.hpp"
#include "util/stats.hpp"

namespace {

std::size_t column_index(const cdnsim::obs::TimeSeriesReport& ts,
                         const std::string& name) {
  for (std::size_t i = 0; i < ts.names.size(); ++i) {
    if (ts.names[i] == name) return i;
  }
  throw cdnsim::Error("timeseries column missing: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdnsim;
  using consistency::InfrastructureKind;
  using consistency::UpdateMethod;
  const bench::Flags flags(argc, argv);
  bench::banner("Extension: time-resolved convergence curves under faults");

  auto eval = bench::evaluation_setup(flags);
  const double loss = flags.get("loss", 0.15);
  const double sample_s = flags.sample_s(10.0);

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
  };
  const std::vector<double> loss_rates{0.0, loss};

  std::vector<core::BatchJob> jobs;
  jobs.reserve(loss_rates.size() * systems.size());
  for (double rate : loss_rates) {
    for (const auto& system : systems) {
      core::BatchJob job;
      job.shared_nodes = eval.scenario.nodes.get();
      job.shared_trace = &eval.game;
      job.engine = bench::section4_config(system.method,
                                          InfrastructureKind::kUnicast);
      job.engine.fault.enabled = rate > 0;
      job.engine.fault.loss_probability = rate;
      job.engine.reliable.enabled = system.reliable;
      // This bench *is* the sampler demo: time series are always on here,
      // --timeseries-out merely adds the artifact files.
      job.engine.timeseries_sample_s = sample_s;
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

  // Extract per-(rate, system) convergence curves from the sampled series:
  // converged(t) = 1 - stale_replicas(t) / replicas.
  const std::size_t n = systems.size();
  std::vector<std::vector<double>> curves(loss_rates.size() * n);
  std::vector<double> final_point(curves.size());
  std::vector<double> curve_min(curves.size(), 1.0);
  std::vector<double> curve_avg(curves.size());
  std::vector<double> span_published(curves.size());
  std::vector<double> span_reached_all(curves.size());
  std::vector<double> span_last_mean_s(curves.size());
  util::ShapeCheck check("ext-convergence");
  for (std::size_t j = 0; j < curves.size(); ++j) {
    const auto& r = results[j].sim;
    const obs::TimeSeriesReport& ts = r.timeseries;
    const std::size_t stale = column_index(ts, "consistency.stale_replicas");
    const std::size_t published =
        column_index(ts, "consistency.updates_published");
    const auto replicas = static_cast<double>(ts.replica_count);
    double sum = 0;
    double published_total = 0;
    for (const auto& row : ts.rows) {
      const double converged = 1.0 - row[stale + 1] / replicas;
      curves[j].push_back(converged);
      curve_min[j] = std::min(curve_min[j], converged);
      sum += converged;
      published_total += row[published + 1];
    }
    final_point[j] = curves[j].back();
    curve_avg[j] = sum / static_cast<double>(curves[j].size());
    // The delta column telescopes to its total — and both must equal the
    // number of versions the span rollups account for.
    check.expect_near(published_total, ts.totals[published], 1e-9,
                      results[j].label + ": published deltas telescope");
    double applied = 0;
    double last_sum = 0;
    for (const auto& s : ts.spans) {
      span_published[j] += static_cast<double>(s.published);
      span_reached_all[j] += static_cast<double>(s.reached_all);
      applied += static_cast<double>(s.applied_versions);
      last_sum += s.last_sum_s;
    }
    span_last_mean_s[j] = applied > 0 ? last_sum / applied : 0;
    check.expect_near(span_published[j], ts.totals[published], 1e-9,
                      results[j].label + ": spans cover every version");
    // Acceptance anchor: the closing sample lands strictly after the last
    // event, so the curve's final point *is* the end-of-run metric.
    check.expect_near(final_point[j], r.converged_server_fraction, 1e-9,
                      results[j].label +
                          ": final curve point == converged_server_fraction");
  }

  // Print the lossy curves on their shared sample grid (12 sampled rows).
  std::size_t min_rows = curves[n].size();
  for (std::size_t i = 0; i < n; ++i) {
    min_rows = std::min(min_rows, curves[n + i].size());
  }
  std::cout << "\n--- converged replica fraction over time (loss " << loss
            << ") ---\n";
  std::vector<std::string> header{"t_s"};
  for (const auto& s : systems) header.push_back(s.name);
  util::TextTable table(header);
  const std::size_t print_rows = std::min<std::size_t>(12, min_rows);
  for (std::size_t r = 0; r < print_rows; ++r) {
    const std::size_t idx =
        print_rows > 1 ? r * (min_rows - 1) / (print_rows - 1) : 0;
    std::vector<double> row{static_cast<double>(idx + 1) * sample_s};
    for (std::size_t i = 0; i < n; ++i) row.push_back(curves[n + i][idx]);
    table.add_row(row, 3);
  }
  table.print(std::cout);

  std::cout << "\n--- propagation spans (loss " << loss << ") ---\n";
  util::TextTable spans({"system", "versions", "reached_all",
                         "mean_last_replica_s", "final_converged",
                         "curve_min", "curve_avg"});
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = n + i;
    spans.add_row(std::vector<std::string>{
        systems[i].name, util::format_double(span_published[j], 0),
        util::format_double(span_reached_all[j], 0),
        util::format_double(span_last_mean_s[j], 3),
        util::format_double(final_point[j], 3),
        util::format_double(curve_min[j], 3),
        util::format_double(curve_avg[j], 3)});
  }
  spans.print(std::cout);

  // Indices: [rate * n + system], systems 0 TTL, 1 Push, 2 Inv, 3 Push+retry.
  // Lossless: Push converges per update within delivery latency, TTL waits
  // out expiry — Push's trajectory dominates TTL's on average.
  check.expect_greater(curve_avg[1], curve_avg[0] - 1e-9,
                       "lossless Push trajectory dominates TTL's");
  check.expect_near(final_point[1], 1.0, 1e-9, "lossless Push ends converged");
  // Every curve must actually *dip*: the time-resolved view shows transient
  // staleness the final metric erases.
  for (std::size_t i = 0; i < n; ++i) {
    check.expect_less(curve_min[n + i], 1.0,
                      std::string(systems[i].name) +
                          " shows transient staleness under loss");
  }
  // Under loss: TTL heals every stranded replica by the next poll, so its
  // curve recovers to 1.0; fire-and-forget Push steps down and stays down.
  check.expect_near(final_point[n + 0], 1.0, 0.01,
                    "TTL recovers fully despite loss");
  check.expect_less(final_point[n + 1], 1.0,
                    "fire-and-forget Push strands replicas under loss");
  // Loss pulls fire-and-forget Push's whole trajectory down (strands
  // accumulate over the run), and by more than it costs TTL, whose every
  // dip heals within a poll period.
  check.expect_less(curve_avg[n + 1], curve_avg[1],
                    "loss degrades Push's whole trajectory");
  check.expect_less(curve_avg[0] - curve_avg[n + 0],
                    curve_avg[1] - curve_avg[n + 1],
                    "TTL's average degradation is smaller than Push's");
  check.expect_near(final_point[n + 3], 1.0, 0.01,
                    "Push+retry restores full convergence");
  check.expect_greater(curve_avg[n + 3], curve_avg[n + 1],
                       "retries lift the whole trajectory, not just the end");
  return bench::finish(check);
}
