#include "net/latency_model.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace cdnsim::net {

namespace {

// splitmix64 finalizer: good avalanche for the double bit patterns.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t point_hash(const GeoPoint& p) {
  const auto lat = std::bit_cast<std::uint64_t>(p.lat_deg);
  const auto lon = std::bit_cast<std::uint64_t>(p.lon_deg);
  return mix64(lat ^ mix64(lon));
}

std::size_t tri_index(std::size_t i, std::size_t j) {  // requires i >= j
  return i * (i + 1) / 2 + j;
}

}  // namespace

LatencyModel::LatencyModel(LatencyConfig config) : config_(config) {
  CDNSIM_EXPECTS(config_.signal_speed_km_per_s > 0, "signal speed must be positive");
  CDNSIM_EXPECTS(config_.route_stretch >= 1.0, "route stretch must be >= 1");
  CDNSIM_EXPECTS(config_.base_delay_s >= 0, "base delay must be non-negative");
  CDNSIM_EXPECTS(config_.jitter_fraction >= 0, "jitter fraction must be non-negative");
}

void LatencyModel::prime(std::span<const GeoPoint> points) {
  CDNSIM_EXPECTS(points.size() <= kMaxPrimedSites,
                 "prime(): site set exceeds kMaxPrimedSites");
  points_.assign(points.begin(), points.end());
  pair_s_.clear();
  table_.clear();
  table_mask_ = 0;
  memo_valid_ = false;  // hygiene; memoed values are path-independent anyway
  if (points_.empty()) return;

  const std::size_t n = points_.size();
  pair_s_.resize(tri_index(n - 1, n - 1) + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      pair_s_[tri_index(i, j)] = live_propagation(points_[i], points_[j]);
    }
  }

  std::size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  table_.assign(capacity, -1);
  table_mask_ = capacity - 1;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t pos = point_hash(points_[i]) & table_mask_;
    for (;;) {
      const std::int32_t existing = table_[pos];
      if (existing < 0) {
        table_[pos] = static_cast<std::int32_t>(i);
        break;
      }
      // Duplicate sites keep the first index; any index yields the same row.
      if (points_[static_cast<std::size_t>(existing)] == points_[i]) break;
      pos = (pos + 1) & table_mask_;
    }
  }
}

std::ptrdiff_t LatencyModel::primed_index(const GeoPoint& p) const {
  std::size_t pos = point_hash(p) & table_mask_;
  for (;;) {
    const std::int32_t idx = table_[pos];
    if (idx < 0) return -1;
    if (points_[static_cast<std::size_t>(idx)] == p) return idx;
    pos = (pos + 1) & table_mask_;
  }
}

sim::SimTime LatencyModel::live_propagation(const GeoPoint& from,
                                            const GeoPoint& to) const {
  const double km = haversine_km(from, to) * config_.route_stretch;
  return config_.base_delay_s + km / config_.signal_speed_km_per_s;
}

sim::SimTime LatencyModel::pair_at(std::size_t i, std::size_t j) const {
  return i >= j ? pair_s_[tri_index(i, j)] : pair_s_[tri_index(j, i)];
}

sim::SimTime LatencyModel::propagation_uncached(const GeoPoint& from,
                                                const GeoPoint& to) const {
  if (!table_.empty()) {
    const std::ptrdiff_t i = primed_index(from);
    if (i >= 0) {
      const std::ptrdiff_t j = primed_index(to);
      if (j >= 0) {
        return pair_at(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      }
    }
  }
  return live_propagation(from, to);
}

sim::SimTime LatencyModel::propagation(const GeoPoint& from,
                                       const GeoPoint& to) const {
  if (memo_valid_ && memo_from_ == from && memo_to_ == to) return memo_s_;
  const sim::SimTime s = propagation_uncached(from, to);
  memo_from_ = from;
  memo_to_ = to;
  memo_s_ = s;
  memo_valid_ = true;
  return s;
}

sim::SimTime LatencyModel::propagation_between(std::size_t i, std::size_t j) const {
  CDNSIM_EXPECTS(i < points_.size() && j < points_.size(),
                 "propagation_between(): index outside the primed site set");
  return pair_at(i, j);
}

sim::SimTime LatencyModel::sample(sim::SimTime propagation_s, bool crosses_isp,
                                  util::Rng& rng) const {
  sim::SimTime d = propagation_s;
  if (crosses_isp && config_.inter_isp_penalty_mean_s > 0) {
    d += rng.exponential(config_.inter_isp_penalty_mean_s);
  }
  if (config_.jitter_fraction > 0) {
    // Multiplicative jitter, never negative: U[1, 1 + 2*jitter_fraction)
    // keeps the mean at (1 + jitter_fraction) * d.
    d *= rng.uniform(1.0, 1.0 + 2.0 * config_.jitter_fraction);
  }
  return d;
}

sim::SimTime LatencyModel::one_way(const GeoPoint& from, const GeoPoint& to,
                                   bool crosses_isp, util::Rng& rng) const {
  return sample(propagation(from, to), crosses_isp, rng);
}

sim::SimTime LatencyModel::one_way_between(std::size_t i, std::size_t j,
                                           bool crosses_isp, util::Rng& rng) const {
  return sample(propagation_between(i, j), crosses_isp, rng);
}

}  // namespace cdnsim::net
