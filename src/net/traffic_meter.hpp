// Traffic accounting.
//
// Three cost views, matching the paper's three cost figures:
//   * traffic cost  = sum over messages of distance_km * size_KB (Figs 16-17,
//     the km*KB metric of [41]);
//   * network load  = sum of distance_km, split into update vs light
//     messages (Fig. 23);
//   * message counts, overall and per sender (Figs 22a/22b count update
//     messages overall and from the content provider).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.hpp"

namespace cdnsim::net {

using NodeId = std::int32_t;
inline constexpr NodeId kProviderNode = -1;

struct TrafficTotals {
  double cost_km_kb = 0;         // km * KB
  double load_km_update = 0;     // km of content-carrying messages
  double load_km_light = 0;      // km of light messages
  std::uint64_t update_messages = 0;
  std::uint64_t light_messages = 0;

  std::uint64_t total_messages() const { return update_messages + light_messages; }
  double load_km_total() const { return load_km_update + load_km_light; }
};

class TrafficMeter {
 public:
  /// Record a consistency-maintenance message. End-user traffic (kUserRequest
  /// / kUserResponse) is ignored: the paper meters maintenance traffic only.
  void record(MessageKind kind, NodeId sender, double distance_km, double size_kb);

  const TrafficTotals& totals() const { return totals_; }

  /// Messages sent by one node (e.g. the content provider, Fig. 22b).
  /// Senders are node ids >= kProviderNode.
  TrafficTotals sender_totals(NodeId sender) const;

  /// Count of every record() call per message kind, *including* the
  /// non-maintenance kinds the cost totals ignore — the obs layer exports
  /// these so a figure's traffic numbers can be decomposed by kind.
  const std::array<std::uint64_t, kMessageKindCount>& kind_counts() const {
    return kind_counts_;
  }

  void reset();

 private:
  TrafficTotals totals_;
  // Dense per-sender totals, index sender + 1 (the provider at 0); grown
  // on demand by record().
  std::vector<TrafficTotals> by_sender_;
  std::array<std::uint64_t, kMessageKindCount> kind_counts_{};
};

}  // namespace cdnsim::net
