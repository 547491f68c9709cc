// End-to-end message latency.
//
// latency = propagation (great-circle distance at ~2/3 c, the speed of light
// in fibre, plus a route-stretch factor) + transmission (handled by the
// sender's Uplink) + a base per-hop processing floor + optional inter-ISP
// penalty + optional jitter. The inter-ISP penalty models Section 3.4.3's
// finding that traffic crossing ISP boundaries competes for transit capacity
// and arrives later than intra-ISP traffic.
//
// Pairwise propagation cache: a simulation prices millions of messages
// between a *fixed* site set, so the trig-heavy haversine can be hoisted out
// of the hot path. prime(points) precomputes the symmetric node-pair
// propagation matrix (flat triangular array, O(n^2) doubles); afterwards
//  * one_way()/propagation() look both endpoints up in a point->index hash
//    and read the matrix, falling back to the live haversine for points
//    outside the primed set;
//  * one_way_between()/propagation_between() take primed indices directly —
//    the engine's fast path, a single array read;
//  * a one-entry memo short-circuits back-to-back queries for the same
//    (from, to) pair — the common shape when a component prices several
//    messages between the same endpoints in a row.
// Cached entries are produced by the same arithmetic as the live path, so
// priming can never change simulation output (enforced by latency_test).
// The memo makes const queries non-reentrant across threads: do not share
// one LatencyModel between concurrently running simulations (each engine
// owns its own, so this never happens in-repo).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/geo.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace cdnsim::net {

struct LatencyConfig {
  double signal_speed_km_per_s = 200000.0;  // ~2/3 c in fibre
  double route_stretch = 1.5;               // paths are not great circles
  sim::SimTime base_delay_s = 0.002;        // NIC/stack/last-mile floor
  sim::SimTime inter_isp_penalty_mean_s = 0.0;  // extra mean delay across ISPs
  double jitter_fraction = 0.0;             // lognormal-ish multiplicative jitter
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyConfig config);

  /// Opt-in: precompute the pairwise propagation matrix for a fixed site
  /// set (at most kMaxPrimedSites points; the matrix is n(n+1)/2 doubles).
  /// Re-priming replaces the previous set; an empty span un-primes.
  void prime(std::span<const GeoPoint> points);
  bool primed() const { return !points_.empty(); }
  std::size_t primed_count() const { return points_.size(); }

  static constexpr std::size_t kMaxPrimedSites = 8192;

  /// One-way propagation delay between two points (no jitter, no penalty).
  sim::SimTime propagation(const GeoPoint& from, const GeoPoint& to) const;

  /// Propagation between primed sites i and j (indices into the span given
  /// to prime()). Precondition: primed() and both indices in range.
  sim::SimTime propagation_between(std::size_t i, std::size_t j) const;

  /// One-way delay sample including inter-ISP penalty and jitter.
  /// `rng` may be shared; draws are only made when jitter/penalty are active.
  sim::SimTime one_way(const GeoPoint& from, const GeoPoint& to, bool crosses_isp,
                       util::Rng& rng) const;

  /// Index fast path of one_way(); same value and identical rng consumption.
  sim::SimTime one_way_between(std::size_t i, std::size_t j, bool crosses_isp,
                               util::Rng& rng) const;

  const LatencyConfig& config() const { return config_; }

 private:
  sim::SimTime propagation_uncached(const GeoPoint& from, const GeoPoint& to) const;
  sim::SimTime live_propagation(const GeoPoint& from, const GeoPoint& to) const;
  sim::SimTime sample(sim::SimTime propagation_s, bool crosses_isp,
                      util::Rng& rng) const;
  sim::SimTime pair_at(std::size_t i, std::size_t j) const;
  std::ptrdiff_t primed_index(const GeoPoint& p) const;

  LatencyConfig config_;
  std::vector<GeoPoint> points_;
  std::vector<double> pair_s_;  // lower-triangular matrix, pair_s_[i(i+1)/2+j]
  // Open-addressed point -> index map (linear probing, power-of-two size,
  // load factor <= 0.5); -1 marks an empty bucket.
  std::vector<std::int32_t> table_;
  std::size_t table_mask_ = 0;
  // One-entry (from, to) -> propagation memo. The stored value is what the
  // full lookup would return (identical bits), so hits cannot perturb
  // results; mutable because it is a pure cache behind a const query.
  mutable GeoPoint memo_from_{};
  mutable GeoPoint memo_to_{};
  mutable sim::SimTime memo_s_ = 0;
  mutable bool memo_valid_ = false;
};

}  // namespace cdnsim::net
