#include "core/catalog_run.hpp"

#include <algorithm>
#include <atomic>

#include "cdn/ring.hpp"
#include "core/scenario.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cdnsim::core {

namespace {

struct PlacedObject {
  cdn::ObjectId id;
  std::uint64_t point;                         // ring position (lane key)
  std::vector<topology::NodeId> replica_set;   // ascending source ids
};

}  // namespace

consistency::EngineConfig catalog_engine_config(
    const consistency::EngineConfig& tmpl, const cdn::Catalog& catalog,
    cdn::ObjectId id, std::size_t replica_count) {
  consistency::EngineConfig config = tmpl;
  // Object 0 keeps the template seed verbatim so a single-object catalog
  // reproduces a direct engine run bit for bit; every other object gets its
  // own substream, keyed by id alone (never by lane or scheduling).
  if (id != 0) config.seed = util::substream_seed(tmpl.seed, id);
  config.users_per_server =
      catalog.users_per_replica(id, tmpl.users_per_server);
  config.infrastructure =
      consistency::clamp_infrastructure(tmpl.infrastructure, replica_count);
  // Borrowed observability sinks must never be shared across objects (the
  // lanes run concurrently): each run_simulation owns its sampler, driven
  // by timeseries_sample_s alone.
  config.timeseries = nullptr;
  return config;
}

CatalogRunResult run_catalog(const topology::NodeRegistry& nodes,
                             const trace::UpdateTrace& updates,
                             const CatalogRunConfig& config) {
  const cdn::Catalog catalog(config.catalog, nodes.server_count());

  // Placement: every server joins the ring; each object's replica set is
  // the ring walk from its point, re-sorted ascending so the sub-scenario's
  // server order matches the source registry (full replication then
  // reproduces it exactly).
  cdn::ConsistentHashRing ring(config.catalog.ring_vnodes);
  const auto n = static_cast<topology::NodeId>(nodes.server_count());
  for (topology::NodeId s = 0; s < n; ++s) ring.add_server(s);

  std::vector<PlacedObject> placed;
  placed.reserve(catalog.size());
  for (const auto& object : catalog.objects()) {
    PlacedObject p;
    p.id = object.id;
    p.point = cdn::object_point(object.id);
    p.replica_set = ring.replicas_for(p.point, object.replicas);
    std::sort(p.replica_set.begin(), p.replica_set.end());
    placed.push_back(std::move(p));
  }

  // Lanes: objects in ring order, split contiguously. The partition only
  // chooses *who runs what when* — every object writes its own result slot
  // from inputs keyed by object id, so the output cannot depend on it.
  std::sort(placed.begin(), placed.end(),
            [](const PlacedObject& a, const PlacedObject& b) {
              return a.point != b.point ? a.point < b.point : a.id < b.id;
            });
  const std::size_t lane_request =
      config.lanes == CatalogRunConfig::kAutoLanes
          ? util::ThreadPool::hardware_threads()
          : static_cast<std::size_t>(std::max(config.lanes, 1));
  const std::size_t lanes = std::clamp<std::size_t>(lane_request, 1, placed.size());

  CatalogRunResult result;
  result.objects.resize(catalog.size());
  result.total_replicas = catalog.total_replicas();

  std::vector<std::string> errors(lanes);
  const auto run_lane = [&](std::size_t lane) {
    const std::size_t begin = lane * placed.size() / lanes;
    const std::size_t end = (lane + 1) * placed.size() / lanes;
    try {
      for (std::size_t i = begin; i < end; ++i) {
        const PlacedObject& p = placed[i];
        const auto& object = catalog.object(p.id);
        const Scenario scenario = subset_scenario(nodes, p.replica_set);
        const consistency::EngineConfig engine_config = catalog_engine_config(
            config.engine, catalog, p.id, p.replica_set.size());
        CatalogObjectResult& slot =
            result.objects[static_cast<std::size_t>(p.id)];
        slot.id = p.id;
        slot.rank = object.rank;
        slot.weight = object.weight;
        slot.replica_set = p.replica_set;
        slot.users_per_replica = engine_config.users_per_server;
        slot.sim = run_simulation(*scenario.nodes, updates, engine_config);
      }
    } catch (const std::exception& e) {
      errors[lane] = e.what();  // pool tasks must not throw
    }
  };

  if (lanes == 1 || config.threads == 1) {
    for (std::size_t lane = 0; lane < lanes; ++lane) run_lane(lane);
  } else {
    util::ThreadPool pool(std::min(
        lanes, config.threads == 0 ? util::ThreadPool::hardware_threads()
                                   : config.threads));
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      pool.submit([&run_lane, lane] { run_lane(lane); });
    }
    pool.wait_idle();
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    if (!errors[lane].empty()) {
      throw Error("catalog lane " + std::to_string(lane) +
                  " failed: " + errors[lane]);
    }
  }

  // Aggregates fold in object-id order — a pure function of the per-object
  // results, so byte-identical however the lanes ran.
  for (const CatalogObjectResult& o : result.objects) {
    result.weighted_server_inconsistency_s +=
        o.weight * o.sim.avg_server_inconsistency_s;
    result.weighted_user_inconsistency_s +=
        o.weight * o.sim.avg_user_inconsistency_s;
    result.traffic.cost_km_kb += o.sim.traffic.cost_km_kb;
    result.traffic.load_km_update += o.sim.traffic.load_km_update;
    result.traffic.load_km_light += o.sim.traffic.load_km_light;
    result.traffic.update_messages += o.sim.traffic.update_messages;
    result.traffic.light_messages += o.sim.traffic.light_messages;
    result.events_processed += o.sim.events_processed;
    if (!o.sim.timeseries.empty()) {
      result.timeseries.merge_from(o.sim.timeseries);
    }
  }
  result.resolved_lanes = lanes;
  return result;
}

}  // namespace cdnsim::core
