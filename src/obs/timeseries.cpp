#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"  // json_escape
#include "util/csv.hpp"     // format_double (shortest round-trip)
#include "util/error.hpp"

namespace cdnsim::obs {

TimeSeries::TimeSeries(double sample_s) : sample_s_(sample_s) {
  CDNSIM_EXPECTS(sample_s > 0 && std::isfinite(sample_s),
                 "TimeSeries needs a positive, finite sample interval");
}

SeriesId TimeSeries::add_column(std::string name, SeriesKind kind) {
  CDNSIM_EXPECTS(rows_.empty(), "columns must be bound before sampling");
  const auto id = static_cast<SeriesId>(names_.size());
  names_.push_back(std::move(name));
  kinds_.push_back(kind);
  staged_.push_back(0);
  last_emitted_.push_back(0);
  return id;
}

void TimeSeries::take_sample() {
  std::vector<double> row;
  row.reserve(names_.size() + 1);
  row.push_back(next_sample_time());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (kinds_[i] == SeriesKind::kDelta) {
      row.push_back(staged_[i] - last_emitted_[i]);
      last_emitted_[i] = staged_[i];
    } else {
      row.push_back(staged_[i]);
    }
  }
  rows_.push_back(std::move(row));
}

void TimeSeries::span_publish(std::uint64_t version, double publish_time) {
  CDNSIM_EXPECTS(version == publish_times_.size() + 1,
                 "span_publish expects versions registered 1..N in order");
  publish_times_.push_back(publish_time);
}

void TimeSeries::fold_spans(const SpanBuffer& buffer) {
  applies_.insert(applies_.end(), buffer.applies.begin(),
                  buffer.applies.end());
}

TimeSeriesReport TimeSeries::report() const {
  TimeSeriesReport out;
  out.sample_s = sample_s_;
  out.replica_count = replica_count_;
  out.names = names_;
  out.kinds = kinds_;
  out.rows = rows_;
  out.totals.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out.totals.push_back(kinds_[i] == SeriesKind::kDelta ? last_emitted_[i]
                                                         : staged_[i]);
  }

  // Span rollup. Sorting the folded applies by (version, latency) erases
  // fold order: the per-version order statistics below depend only on the
  // multiset of observations.
  std::vector<SpanApply> applies = applies_;
  std::sort(applies.begin(), applies.end(),
            [](const SpanApply& a, const SpanApply& b) {
              if (a.version != b.version) return a.version < b.version;
              return a.latency_s < b.latency_s;
            });
  // Bucket rows keyed by publish-interval index, built in version order
  // (publish times are non-decreasing, so bucket keys emit sorted).
  std::size_t cursor = 0;
  for (std::uint64_t v = 1; v <= publish_times_.size(); ++v) {
    const double publish = publish_times_[static_cast<std::size_t>(v - 1)];
    const auto bucket =
        static_cast<std::int64_t>(std::floor(publish / sample_s_));
    const double t = static_cast<double>(bucket + 1) * sample_s_;
    if (out.spans.empty() || out.spans.back().t != t) {
      TimeSeriesReport::SpanRow row;
      row.t = t;
      out.spans.push_back(row);
    }
    TimeSeriesReport::SpanRow& row = out.spans.back();
    ++row.published;
    const std::size_t begin = cursor;
    while (cursor < applies.size() && applies[cursor].version == v) ++cursor;
    const std::size_t n = cursor - begin;
    if (n == 0) continue;
    ++row.applied_versions;
    row.applies += n;
    if (replica_count_ > 0 && n == replica_count_) ++row.reached_all;
    row.first_sum_s += applies[begin].latency_s;
    row.median_sum_s += applies[begin + (n - 1) / 2].latency_s;
    const double last = applies[begin + n - 1].latency_s;
    row.last_sum_s += last;
    row.last_max_s = std::max(row.last_max_s, last);
  }
  return out;
}

void TimeSeriesReport::merge_from(const TimeSeriesReport& other) {
  if (rows.empty() && names.empty()) {
    *this = other;
    return;
  }
  CDNSIM_EXPECTS(sample_s == other.sample_s,
                 "cannot merge time series with different sample intervals");
  CDNSIM_EXPECTS(names == other.names,
                 "cannot merge time series with different column layouts");

  const std::size_t cols = names.size();
  const std::size_t rows_a = rows.size();
  const std::size_t rows_b = other.rows.size();
  const std::size_t max_rows = std::max(rows_a, rows_b);
  // Extend this side first: past its horizon a delta column contributes 0
  // per interval and a gauge column holds its final value.
  for (std::size_t r = rows_a; r < max_rows; ++r) {
    std::vector<double> row(cols + 1, 0.0);
    row[0] = static_cast<double>(r + 1) * sample_s;
    for (std::size_t c = 0; c < cols; ++c) {
      if (kinds[c] == SeriesKind::kGauge) row[c + 1] = totals[c];
    }
    rows.push_back(std::move(row));
  }
  for (std::size_t r = 0; r < max_rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      double add = 0;
      if (r < rows_b) {
        add = other.rows[r][c + 1];
      } else if (other.kinds[c] == SeriesKind::kGauge) {
        add = other.totals[c];
      }
      rows[r][c + 1] += add;
    }
  }
  for (std::size_t c = 0; c < cols; ++c) totals[c] += other.totals[c];
  replica_count += other.replica_count;

  // Merge span buckets by timestamp (both sides sorted ascending).
  std::vector<SpanRow> merged;
  merged.reserve(spans.size() + other.spans.size());
  std::size_t i = 0, j = 0;
  while (i < spans.size() && j < other.spans.size()) {
    if (spans[i].t < other.spans[j].t) {
      merged.push_back(spans[i++]);
    } else if (other.spans[j].t < spans[i].t) {
      merged.push_back(other.spans[j++]);
    } else {
      SpanRow row = spans[i++];
      const SpanRow& o = other.spans[j++];
      row.published += o.published;
      row.applied_versions += o.applied_versions;
      row.applies += o.applies;
      row.reached_all += o.reached_all;
      row.first_sum_s += o.first_sum_s;
      row.median_sum_s += o.median_sum_s;
      row.last_sum_s += o.last_sum_s;
      row.last_max_s = std::max(row.last_max_s, o.last_max_s);
      merged.push_back(row);
    }
  }
  while (i < spans.size()) merged.push_back(spans[i++]);
  while (j < other.spans.size()) merged.push_back(other.spans[j++]);
  spans = std::move(merged);
}

namespace {

const char* kind_name(SeriesKind k) {
  return k == SeriesKind::kDelta ? "delta" : "gauge";
}

void write_double(std::ostream& out, double v) { out << util::format_double(v); }

}  // namespace

void TimeSeriesReport::write_deterministic(std::ostream& out) const {
  out << "{\"sample_s\":";
  write_double(out, sample_s);
  out << ",\"replicas\":" << replica_count << ",\"columns\":[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"kind\":\"" << kind_name(kinds[i]) << "\",\"name\":\""
        << json_escape(names[i]) << "\"}";
  }
  out << "],\"rows\":[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out << ',';
    out << '[';
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out << ',';
      write_double(out, rows[r][c]);
    }
    out << ']';
  }
  out << "],\"spans\":{\"columns\":[\"t\",\"published\",\"applied_versions\","
         "\"applies\",\"reached_all\",\"first_mean_s\",\"median_mean_s\","
         "\"last_mean_s\",\"last_max_s\"],\"rows\":[";
  for (std::size_t r = 0; r < spans.size(); ++r) {
    if (r > 0) out << ',';
    const SpanRow& s = spans[r];
    const double av = s.applied_versions > 0
                          ? static_cast<double>(s.applied_versions)
                          : 1.0;
    out << '[';
    write_double(out, s.t);
    out << ',' << s.published << ',' << s.applied_versions << ',' << s.applies
        << ',' << s.reached_all << ',';
    write_double(out, s.first_sum_s / av);
    out << ',';
    write_double(out, s.median_sum_s / av);
    out << ',';
    write_double(out, s.last_sum_s / av);
    out << ',';
    write_double(out, s.last_max_s);
    out << ']';
  }
  out << "]},\"totals\":{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << json_escape(names[i]) << "\":";
    write_double(out, totals[i]);
  }
  out << "}}";
}

std::string TimeSeriesReport::deterministic_json() const {
  std::ostringstream out;
  write_deterministic(out);
  return out.str();
}

}  // namespace cdnsim::obs
