// Catalog-scale simulation: place a cdn::Catalog onto a CDN with the
// consistent-hash ring and run every update method per object, over that
// object's replica set only — the generalization that turns "one page
// pushed to all servers" into "a CDN" (ROADMAP item 1).
//
// Execution model. Each object is an independent simulation: its replica
// set (the ring's first replicas_i distinct servers clockwise from the
// object's point) becomes a dense sub-scenario via core::subset_scenario,
// its engine config derives from the template via catalog_engine_config
// (popularity-scaled viewers, clamped infrastructure, per-object RNG
// substream), and run_simulation drives it to completion. Objects partition
// into contiguous *lanes by ring position* and lanes execute in parallel on
// a thread pool — but because no state crosses objects, the full result is
// byte-identical for every lane count and every worker count (pinned by
// tests/core/catalog_equivalence_test.cpp).
//
// Determinism contracts:
//  * a single-object catalog with full replication is byte-identical to a
//    direct UpdateEngine run of the template config on the source registry
//    (object 0 runs the template seed unchanged; see catalog_engine_config);
//  * per-object seeds are substreams of the template seed keyed by object
//    id alone, never by lane membership or scheduling.
//
// Deliberately NOT modeled yet: cross-object contention on the provider
// uplink (objects are independent simulations). The engine supports shared
// provider uplinks (see UpdateEngine's shared_provider_uplink), but sharing
// couples every object in a lane and breaks lane-count invariance; wiring
// that in is the pub/sub item's problem (ROADMAP item 2).
#pragma once

#include <cstdint>
#include <vector>

#include "cdn/catalog.hpp"
#include "consistency/engine.hpp"
#include "core/simulation.hpp"
#include "net/traffic_meter.hpp"
#include "topology/node.hpp"
#include "trace/update_trace.hpp"

namespace cdnsim::core {

struct CatalogRunConfig {
  cdn::CatalogConfig catalog;
  /// Template engine configuration. Per-object runs derive from it:
  /// users_per_server becomes the object's popularity-scaled viewers per
  /// replica, infrastructure is clamped to the replica-set size, and the
  /// seed is the object's substream (object 0 keeps it verbatim).
  consistency::EngineConfig engine;

  /// Object-lane partition: objects sort by ring position and split into
  /// this many contiguous lanes; lanes run in parallel on `threads`
  /// workers. kAutoLanes picks min(object count, hardware threads). Purely
  /// an execution knob — results are byte-identical for every value.
  static constexpr int kAutoLanes = -1;
  int lanes = kAutoLanes;
  /// Worker threads driving the lanes; 0 = min(lanes, hardware).
  std::size_t threads = 1;
};

struct CatalogObjectResult {
  cdn::ObjectId id = 0;
  std::size_t rank = 0;
  double weight = 0;
  /// The object's replica servers as *source-registry* ids, ascending (the
  /// sub-scenario densifies them to 0..k-1 in this order).
  std::vector<topology::NodeId> replica_set;
  std::size_t users_per_replica = 0;
  SimulationResult sim;
};

struct CatalogRunResult {
  /// One entry per object, in object-id order regardless of lanes/threads.
  std::vector<CatalogObjectResult> objects;

  // Catalog aggregates: inconsistency weighted by popularity (what a
  // viewer drawn from the catalog's demand distribution experiences),
  // traffic summed over every object's maintenance messages.
  double weighted_server_inconsistency_s = 0;
  double weighted_user_inconsistency_s = 0;
  net::TrafficTotals traffic;
  std::uint64_t events_processed = 0;
  std::size_t total_replicas = 0;

  /// Lane count that actually ran (provenance for manifests; the output
  /// does not depend on it).
  std::size_t resolved_lanes = 1;

  /// Catalog-wide time series: every object's report merged in object-id
  /// order (delta columns and span buckets sum; gauges sum with each
  /// object's final value carried past its horizon). Empty unless the
  /// template engine config enables timeseries_sample_s.
  obs::TimeSeriesReport timeseries;
};

/// The per-object config derivation, exposed for the equivalence tests:
/// identity for a single-object full-replication catalog, popularity-scaled
/// otherwise.
consistency::EngineConfig catalog_engine_config(
    const consistency::EngineConfig& tmpl, const cdn::Catalog& catalog,
    cdn::ObjectId id, std::size_t replica_count);

/// Places `config.catalog` on `nodes` and runs every object's update
/// propagation over its replica set. The trace is shared by all objects
/// (every object sees the same update schedule; per-object traces would
/// break nothing but are not needed by the current experiments).
CatalogRunResult run_catalog(const topology::NodeRegistry& nodes,
                             const trace::UpdateTrace& updates,
                             const CatalogRunConfig& config);

}  // namespace cdnsim::core
