// Poll logs: what the paper's PlanetLab crawlers recorded.
//
// One Observation per poll of one content server: when it was polled, which
// content snapshot (version) it served, or that it did not answer (absence).
// The whole Section 3 analysis pipeline consumes PollLogs; the simulator's
// observers produce them, and they round-trip through CSV so analyses can be
// re-run offline.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/traffic_meter.hpp"  // NodeId
#include "sim/time.hpp"
#include "trace/update_trace.hpp"

namespace cdnsim::trace {

struct Observation {
  net::NodeId server = 0;
  sim::SimTime time = 0;   // corrected GMT time of the snapshot
  Version version = 0;     // snapshot id served
  bool answered = true;    // false: poll got no response (server absent)
};

class PollLog {
 public:
  void add(const Observation& obs) { observations_.push_back(obs); }
  void reserve(std::size_t n) { observations_.reserve(n); }

  const std::vector<Observation>& observations() const { return observations_; }
  std::size_t size() const { return observations_.size(); }
  bool empty() const { return observations_.empty(); }

  /// Observations of one server, in log order. One scan of the whole log
  /// per call; analyses that visit every server use ServerIndex instead.
  std::vector<Observation> for_server(net::NodeId server) const;

  /// Distinct server ids present in the log.
  std::vector<net::NodeId> servers() const;

  /// Restrict to a time window [start, end).
  PollLog window(sim::SimTime start, sim::SimTime end) const;

  void save_csv(const std::string& path) const;
  /// Rejects malformed cells, non-finite times and negative server ids
  /// with the cell's row and column.
  static PollLog load_csv(const std::string& path);

 private:
  std::vector<Observation> observations_;
};

/// A server-major view of a PollLog, built in one pass: the distinct server
/// ids in ascending order and, for each, its observations in log order (a
/// CSR layout: one row array plus per-server offsets). Memory is
/// O(rows + distinct servers), whatever the ids' magnitude.
class ServerIndex {
 public:
  explicit ServerIndex(const PollLog& log);

  /// Distinct server ids, ascending (PollLog::servers()).
  const std::vector<net::NodeId>& servers() const { return servers_; }

  /// Observations of the i-th server of servers(), in log order.
  std::span<const Observation> rows(std::size_t i) const {
    return {rows_.data() + offsets_[i], rows_.data() + offsets_[i + 1]};
  }

  /// Observations of server `id` in log order (PollLog::for_server(id));
  /// empty when the id is not in the log.
  std::span<const Observation> find(net::NodeId id) const;

 private:
  std::vector<net::NodeId> servers_;
  std::vector<std::size_t> offsets_;  // servers_.size() + 1 entries
  std::vector<Observation> rows_;
};

}  // namespace cdnsim::trace
