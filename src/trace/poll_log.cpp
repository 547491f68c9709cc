#include "trace/poll_log.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_map>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace cdnsim::trace {

namespace {

/// Throws the named error for one CSV cell. Data row `row` is file line
/// row + 2 (line 1 is the header); `why` is appended after the position.
[[noreturn]] void malformed_cell(const std::string& cell, const char* field,
                                 const std::string& path, std::size_t row,
                                 std::size_t column, const std::string& why) {
  throw Error("malformed " + std::string(field) + " value \"" + cell +
              "\" in " + path + " (row " + std::to_string(row + 2) +
              ", column " + std::to_string(column + 1) + ")" + why);
}

/// Parses one CSV cell as a whole: empty cells, non-numeric text and
/// trailing garbage ("12abc") are all rejected with the cell's file
/// position, instead of std::sto*'s context-free throw / silent truncation.
template <typename T>
T parse_cell(const std::string& cell, const char* field,
             const std::string& path, std::size_t row, std::size_t column) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
    malformed_cell(cell, field, path, row, column, "");
  }
  return value;
}

}  // namespace

std::vector<Observation> PollLog::for_server(net::NodeId server) const {
  std::vector<Observation> out;
  for (const auto& obs : observations_) {
    if (obs.server == server) out.push_back(obs);
  }
  return out;
}

std::vector<net::NodeId> PollLog::servers() const {
  std::set<net::NodeId> ids;
  for (const auto& obs : observations_) ids.insert(obs.server);
  return {ids.begin(), ids.end()};
}

ServerIndex::ServerIndex(const PollLog& log) {
  const auto& obs = log.observations();
  // Pass 1: dense slots in first-appearance order, with per-slot counts.
  std::unordered_map<net::NodeId, std::size_t> slot_of;
  std::vector<std::size_t> row_slot(obs.size());
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const auto [it, inserted] = slot_of.try_emplace(obs[i].server, counts.size());
    if (inserted) {
      servers_.push_back(obs[i].server);
      counts.push_back(0);
    }
    row_slot[i] = it->second;
    ++counts[it->second];
  }
  // Renumber the slots by ascending id, then lay the rows out server-major.
  std::vector<std::size_t> order(servers_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return servers_[a] < servers_[b];
  });
  std::vector<std::size_t> next(servers_.size());  // write cursor per slot
  std::vector<net::NodeId> sorted(servers_.size());
  offsets_.assign(servers_.size() + 1, 0);
  for (std::size_t r = 0; r < order.size(); ++r) {
    sorted[r] = servers_[order[r]];
    next[order[r]] = offsets_[r];
    offsets_[r + 1] = offsets_[r] + counts[order[r]];
  }
  servers_ = std::move(sorted);
  rows_.resize(obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i) rows_[next[row_slot[i]]++] = obs[i];
}

std::span<const Observation> ServerIndex::find(net::NodeId id) const {
  const auto it = std::lower_bound(servers_.begin(), servers_.end(), id);
  if (it == servers_.end() || *it != id) return {};
  return rows(static_cast<std::size_t>(it - servers_.begin()));
}

PollLog PollLog::window(sim::SimTime start, sim::SimTime end) const {
  PollLog out;
  for (const auto& obs : observations_) {
    if (obs.time >= start && obs.time < end) out.add(obs);
  }
  return out;
}

void PollLog::save_csv(const std::string& path) const {
  util::CsvTable table;
  table.header = {"server", "time_s", "version", "answered"};
  table.rows.reserve(observations_.size());
  for (const auto& obs : observations_) {
    std::ostringstream time_os;
    time_os.precision(9);
    time_os << obs.time;
    table.rows.push_back({std::to_string(obs.server), time_os.str(),
                          std::to_string(obs.version),
                          obs.answered ? "1" : "0"});
  }
  util::write_csv_file(path, table);
}

PollLog PollLog::load_csv(const std::string& path) {
  const auto table = util::read_csv_file(path);
  CDNSIM_EXPECTS(table.header.size() == 4 && table.header[0] == "server",
                 "unexpected poll-log CSV header");
  PollLog log;
  log.reserve(table.rows.size());
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    if (row.size() != 4) {
      throw Error("malformed poll-log CSV row in " + path + " (row " +
                  std::to_string(i + 2) + "): expected 4 fields, got " +
                  std::to_string(row.size()));
    }
    Observation obs;
    obs.server = parse_cell<net::NodeId>(row[0], "server", path, i, 0);
    if (obs.server < 0) {
      malformed_cell(row[0], "server", path, i, 0, ": expected a non-negative id");
    }
    // from_chars accepts "nan" and "inf"; a NaN time would break every
    // ordering the analysis sorts and sweeps by.
    obs.time = parse_cell<double>(row[1], "time_s", path, i, 1);
    if (!std::isfinite(obs.time)) {
      malformed_cell(row[1], "time_s", path, i, 1, ": expected a finite time");
    }
    obs.version = parse_cell<std::int64_t>(row[2], "version", path, i, 2);
    const int answered = parse_cell<int>(row[3], "answered", path, i, 3);
    if (answered != 0 && answered != 1) {
      malformed_cell(row[3], "answered", path, i, 3, ": expected 0 or 1");
    }
    obs.answered = answered == 1;
    log.add(obs);
  }
  return log;
}

}  // namespace cdnsim::trace
