// Extension experiment: the object catalog at scale (ROADMAP item 1).
//
// The paper measures one live page replicated to every server. This sweep
// generalizes it: a Zipf catalog placed by the consistent-hash ring, with
// per-object replica counts set by an adaptive policy (Leconte et al.,
// "Adaptive Replication in Distributed CDNs" — PAPERS.md), each update
// method propagating per object to that object's replica set only. The
// grid is replica budget x policy x method; the curves show how each
// method's inconsistency and traffic respond to replication degree:
//
//  * traffic grows with the replica budget for every method (more copies =
//    more maintenance messages, the adaptive policies' fundamental cost);
//  * Push pays for replicas in freshness too — more copies deepen the
//    provider's fanout queue, so its inconsistency climbs with the budget
//    (fig20's network-size effect, now per object);
//  * TTL stays essentially flat — polls spread over the TTL window, so
//    replication degree barely moves staleness;
//  * the paper's Fig. 16 ordering (Push fresher than Invalidation fresher
//    than TTL) survives the generalization at every budget.
//
// Determinism: output is byte-identical across --jobs (worker threads) and
// --lanes (object lanes, split by ring position) — tier1.sh cmp's the
// --small artifacts across both axes.
#include <string>
#include <vector>

#include "bench_evaluation.hpp"
#include "bench_obs.hpp"
#include "core/catalog_run.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace cdnsim;
  using consistency::InfrastructureKind;
  using consistency::UpdateMethod;
  const bench::Flags flags(argc, argv);
  bench::banner(
      "Extension: catalog scale — replica policy x budget x method");

  // Catalog shape: --objects and --zipf-s set the popularity law,
  // --replicas pins a single replica budget (average copies per object)
  // instead of sweeping the default grid.
  const std::size_t objects =
      static_cast<std::size_t>(flags.get_int("objects", flags.small() ? 12 : 24));
  const double zipf_s = flags.get("zipf-s", 0.9);
  std::vector<double> budgets{1.0, 2.0, 4.0, 8.0};
  if (flags.small()) budgets = {1.0, 4.0};
  if (const double pinned = flags.get("replicas", 0.0); pinned > 0) {
    budgets = {pinned};
  }

  const std::size_t servers = static_cast<std::size_t>(
      flags.get_int("servers", flags.small() ? 40 : 120));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));

  // --lanes selects the catalog's object-lane count (objects sort by ring
  // position and split into contiguous lanes; "auto" = hardware threads),
  // --jobs the worker threads driving the lanes. Both are pure execution
  // knobs: every accepted value produces byte-identical output.
  const int lanes = flags.lanes(core::CatalogRunConfig::kAutoLanes);
  const std::size_t threads = flags.jobs();

  core::ScenarioConfig sc;
  sc.server_count = servers;
  sc.seed = 42;
  const auto scenario = core::build_scenario(sc);

  trace::GameTraceConfig game_cfg;
  game_cfg.bursty = false;
  if (flags.small()) {
    game_cfg.period_s = 800;
    game_cfg.break_s = 300;
  }
  util::Rng trace_rng(seed ^ 0x6a3e);
  const auto game = trace::generate_game_trace(game_cfg, trace_rng);

  const UpdateMethod methods[3] = {UpdateMethod::kPush,
                                   UpdateMethod::kInvalidation,
                                   UpdateMethod::kTtl};
  const char* method_names[3] = {"Push", "Invalidation", "TTL"};
  const cdn::ReplicaPolicy policies[2] = {cdn::ReplicaPolicy::kFixed,
                                          cdn::ReplicaPolicy::kProportional};

  bench::ObsSession obs(argc, argv, flags, seed);
  obs.set_lanes(lanes == core::CatalogRunConfig::kAutoLanes
                    ? "catalog-lanes:auto"
                    : "catalog-lanes:" + std::to_string(lanes));

  // weighted inconsistency / traffic per [method][policy][budget].
  std::vector<std::vector<std::vector<double>>> incon(
      3, std::vector<std::vector<double>>(2));
  auto cost = incon;

  for (int m = 0; m < 3; ++m) {
    for (int p = 0; p < 2; ++p) {
      std::cout << "\n--- " << method_names[m] << " / "
                << to_string(policies[p]) << " replication, " << objects
                << " objects on " << servers << " servers ---\n";
      util::TextTable table({"budget", "replicas", "weighted_server_s",
                             "weighted_user_s", "cost_km_kb",
                             "update_msgs"});
      for (const double budget : budgets) {
        core::CatalogRunConfig cfg;
        cfg.catalog.object_count = objects;
        cfg.catalog.zipf_s = zipf_s;
        cfg.catalog.policy = policies[p];
        cfg.catalog.replica_budget = budget;
        // fig20's bandwidth-constrained regime: 100 KB packets on a
        // 100 Mbit/s uplink make provider fanout the binding resource, so
        // replica count has a freshness price, not just a traffic one.
        cfg.engine = bench::section4_config(methods[m],
                                            InfrastructureKind::kUnicast);
        cfg.engine.update_packet_kb = flags.get("packet", 100.0);
        cfg.engine.provider_uplink_kbps = flags.get("uplink", 12500.0);
        cfg.engine.server_uplink_kbps = cfg.engine.provider_uplink_kbps;
        cfg.engine.seed = seed;
        cfg.lanes = lanes;
        cfg.threads = threads;
        obs.configure(cfg.engine);

        const auto run = core::run_catalog(*scenario.nodes, game, cfg);

        const std::string label = std::string(method_names[m]) + "/" +
                                  std::string(to_string(policies[p])) +
                                  "/budget=" + util::format_double(budget, 0);
        // Artifact records: the hottest, a middle and the coldest object —
        // enough for the tier-1 byte-identity cmp without dumping the
        // whole catalog per grid point.
        for (const std::size_t idx :
             {std::size_t{0}, objects / 2, objects - 1}) {
          obs.add(label + "/obj" + std::to_string(idx),
                  run.objects[idx].sim);
        }

        incon[m][p].push_back(run.weighted_server_inconsistency_s);
        cost[m][p].push_back(run.traffic.cost_km_kb);
        table.add_row(
            std::vector<std::string>{
                util::format_double(budget, 0),
                std::to_string(run.total_replicas),
                util::format_double(run.weighted_server_inconsistency_s, 3),
                util::format_double(run.weighted_user_inconsistency_s, 3),
                util::format_double(run.traffic.cost_km_kb, 0),
                std::to_string(run.traffic.update_messages)});
      }
      table.print(std::cout);
    }
  }

  if (const std::string bench_json = flags.bench_json(); !bench_json.empty()) {
    // One aggregate record for the whole grid (perf provenance only; the
    // micro-benchmarks in micro_core.cpp carry the gated numbers).
    const std::string config =
        std::string(flags.small() ? "small" : "full") + "/objects=" +
        std::to_string(objects) + "/jobs=" + std::to_string(threads);
    bench::append_bench_record(bench_json, "ext_catalog_scale/grid", config,
                               0.0, 0.0);
  }

  util::ShapeCheck check("ext-catalog-scale");
  const std::size_t lo = 0;
  const std::size_t hi = budgets.size() - 1;
  if (hi > lo) {
    for (int m = 0; m < 3; ++m) {
      for (int p = 0; p < 2; ++p) {
        // Replica-count sensitivity, traffic side: every method pays for
        // copies; the curve must rise monotonically in the budget.
        bool monotone = true;
        for (std::size_t b = 0; b + 1 < budgets.size(); ++b) {
          monotone = monotone && cost[m][p][b] < cost[m][p][b + 1];
        }
        check.expect_greater(
            monotone ? 1.0 : 0.0, 0.5,
            std::string(method_names[m]) + "/" +
                std::string(to_string(policies[p])) +
                ": maintenance traffic rises with the replica budget");
      }
    }
    // Freshness side (proportional policy): Push pays for replicas in
    // staleness (provider fanout), TTL does not.
    const double push_growth = incon[0][1][hi] - incon[0][1][lo];
    const double ttl_growth = incon[2][1][hi] - incon[2][1][lo];
    check.expect_greater(push_growth, ttl_growth,
                         "Push inconsistency grows faster with replication "
                         "than TTL's");
    check.expect_in_range(ttl_growth, -1.5, 1.5,
                          "TTL stays essentially flat across budgets");
  }
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    // The paper's Fig. 16 ordering survives the catalog generalization.
    check.expect_less(incon[0][1][b], incon[2][1][b],
                      "budget " + util::format_double(budgets[b], 0) +
                          ": Push stays fresher than TTL (proportional)");
  }
  obs.write_direct();
  return bench::finish(check);
}
