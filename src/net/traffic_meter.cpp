#include "net/traffic_meter.hpp"

#include "util/error.hpp"

namespace cdnsim::net {

namespace {
void apply(TrafficTotals& t, MessageKind kind, double distance_km, double size_kb) {
  t.cost_km_kb += distance_km * size_kb;
  if (counts_as_update(kind)) {
    t.load_km_update += distance_km;
    ++t.update_messages;
  } else {
    t.load_km_light += distance_km;
    ++t.light_messages;
  }
}
}  // namespace

void TrafficMeter::record(MessageKind kind, NodeId sender, double distance_km,
                          double size_kb) {
  CDNSIM_EXPECTS(distance_km >= 0, "distance must be non-negative");
  CDNSIM_EXPECTS(size_kb >= 0, "size must be non-negative");
  CDNSIM_EXPECTS(sender >= kProviderNode, "sender must be a node id");
  ++kind_counts_[static_cast<std::size_t>(kind)];
  if (!is_maintenance(kind)) return;
  apply(totals_, kind, distance_km, size_kb);
  const auto slot = static_cast<std::size_t>(sender + 1);
  if (slot >= by_sender_.size()) by_sender_.resize(slot + 1);
  apply(by_sender_[slot], kind, distance_km, size_kb);
}

TrafficTotals TrafficMeter::sender_totals(NodeId sender) const {
  CDNSIM_EXPECTS(sender >= kProviderNode, "sender must be a node id");
  const auto slot = static_cast<std::size_t>(sender + 1);
  return slot < by_sender_.size() ? by_sender_[slot] : TrafficTotals{};
}

void TrafficMeter::reset() {
  totals_ = {};
  by_sender_.clear();
  kind_counts_.fill(0);
}

}  // namespace cdnsim::net
