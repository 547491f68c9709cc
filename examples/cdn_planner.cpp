// CDN consistency planner: interactive-style "what should I deploy?" tool.
//
// Feeds a portfolio of realistic content types through the workload advisor
// (the paper's Section 4.6 guidance as code) and verifies each
// recommendation by simulation: the recommended configuration must meet the
// staleness target, and we report how much traffic it spends doing so
// compared with the cheapest configuration.
// The verification runs are independent, so they go through the parallel
// batch runner: `cdn_planner --jobs N` (default: all cores). The
// recommendations and simulated numbers are identical for every N.
#include <iostream>
#include <string>
#include <vector>

#include "core/advisor.hpp"
#include "core/batch_runner.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "trace/game_generator.hpp"
#include "util/table.hpp"

namespace {

using namespace cdnsim;

struct ContentType {
  std::string name;
  core::WorkloadProfile profile;
  double mean_update_gap_s;  // for the synthetic trace
};

trace::UpdateTrace make_trace(double mean_gap, util::Rng& rng) {
  std::vector<sim::SimTime> times;
  sim::SimTime t = 0;
  while (t < 3000.0) {
    t += std::max(0.5, rng.exponential(mean_gap));
    if (t < 3000.0) times.push_back(t);
  }
  return trace::UpdateTrace(std::move(times));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdnsim;

  constexpr const char* kUsage =
      "usage: cdn_planner [--jobs N]\n"
      "  --jobs N      worker threads (N >= 0; 0 = all cores)\n";
  std::size_t jobs = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // std::stoul accepts a leading '-' by wrapping, so reject it explicitly.
    if (arg != "--jobs" || i + 1 >= argc || argv[i + 1][0] == '-') {
      std::cerr << kUsage;
      return 2;
    }
    try {
      jobs = std::stoul(argv[++i]);
    } catch (const std::exception&) {
      std::cerr << kUsage;
      return 2;
    }
  }

  std::vector<ContentType> portfolio;
  {
    ContentType stock{"stock ticker", {}, 3.0};
    stock.profile.updates_per_minute = 20;
    stock.profile.visits_per_server_per_minute = 60;
    stock.profile.tolerable_staleness_s = 1.0;
    stock.profile.server_count = 170;
    portfolio.push_back(stock);

    ContentType game{"live game stats", {}, 25.0};
    game.profile.updates_per_minute = 2.4;
    game.profile.visits_per_server_per_minute = 30;
    game.profile.tolerable_staleness_s = 15.0;
    game.profile.bursty_updates = true;
    game.profile.traffic_sensitive = true;
    game.profile.server_count = 170;
    portfolio.push_back(game);

    ContentType news{"news front page", {}, 240.0};
    news.profile.updates_per_minute = 0.25;
    news.profile.visits_per_server_per_minute = 100;
    news.profile.tolerable_staleness_s = 60.0;
    news.profile.server_count = 170;
    portfolio.push_back(news);

    ContentType telemetry{"dashboard telemetry", {}, 4.0};
    telemetry.profile.updates_per_minute = 15;
    telemetry.profile.visits_per_server_per_minute = 2;  // rarely watched
    telemetry.profile.tolerable_staleness_s = 30.0;
    telemetry.profile.server_count = 170;
    portfolio.push_back(telemetry);
  }

  core::ScenarioConfig scenario_cfg;
  scenario_cfg.server_count = 170;
  const auto scenario = core::build_scenario(scenario_cfg);
  util::Rng rng(123);

  // Recommendations and traces derive serially (fork() consumes generator
  // state, so the trace each content sees is part of the example's fixed
  // seed); the expensive verification sims then run as one parallel batch.
  std::vector<core::Recommendation> recommendations;
  std::vector<trace::UpdateTrace> traces;
  traces.reserve(portfolio.size());
  for (const auto& content : portfolio) {
    recommendations.push_back(core::recommend(content.profile));
    util::Rng trace_rng = rng.fork(std::hash<std::string>{}(content.name));
    traces.push_back(make_trace(content.mean_update_gap_s, trace_rng));
  }

  std::vector<core::BatchJob> batch;
  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    const auto& content = portfolio[i];
    core::BatchJob job;
    job.shared_nodes = scenario.nodes.get();
    job.shared_trace = &traces[i];
    job.engine.method.method = recommendations[i].method;
    job.engine.infrastructure.kind = recommendations[i].infrastructure;
    job.engine.infrastructure.cluster_count = 20;
    // Bind the TTL to the tolerance, the paper's TTL guidance.
    job.engine.method.server_ttl_s =
        std::max(2.0, content.profile.tolerable_staleness_s);
    job.engine.user_poll_period_s =
        60.0 / std::max(0.5, content.profile.visits_per_server_per_minute);
    job.label = content.name;
    batch.push_back(std::move(job));
  }
  const core::BatchRunner runner({.threads = jobs});
  const auto results = runner.run(batch);

  util::TextTable table({"content", "recommendation", "avg_staleness_s",
                         "target_s", "met", "traffic_km_kb"});
  for (std::size_t i = 0; i < portfolio.size(); ++i) {
    const auto& content = portfolio[i];
    const auto& rec = recommendations[i];
    if (!results[i].ok()) {
      std::cerr << content.name << ": simulation failed: " << results[i].error
                << "\n";
      return 2;
    }
    const auto& r = results[i].sim;
    const bool met =
        r.avg_server_inconsistency_s <= content.profile.tolerable_staleness_s;
    table.add_row(std::vector<std::string>{
        content.name,
        std::string(to_string(rec.method)) + "+" +
            std::string(to_string(rec.infrastructure)),
        util::format_double(r.avg_server_inconsistency_s, 2),
        util::format_double(content.profile.tolerable_staleness_s, 0),
        met ? "yes" : "NO", util::format_double(r.traffic.cost_km_kb, 0)});
    std::cout << content.name << ": " << rec.rationale << "\n\n";
  }
  table.print(std::cout);
  return 0;
}
