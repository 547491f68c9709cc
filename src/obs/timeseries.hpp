// Time-resolved telemetry: fixed-interval sim-time sampling of engine
// state, per-interval counter rollups, and per-update propagation spans.
//
// The paper's results are curves over time (inconsistency windows,
// convergence after an update, churn recovery); the metrics registry only
// reports end-of-run aggregates. A TimeSeries closes the gap with the same
// zero-cost-when-off discipline as MetricsRegistry:
//  * columns are bound once per engine (add_delta/add_gauge return plain
//    indices); the disabled configuration costs one null-check per hook;
//  * sampling is driven purely by the sim-time grid t = k * sample_s —
//    never by host threads or timers. Sample k's row covers events with
//    time < k * sample_s, so the artifact is byte-identical across --jobs
//    counts;
//  * "delta" columns stage a cumulative total and emit per-interval
//    differences (their interval sums telescope back to the final
//    MetricsRegistry counters — check_obs.py --timeseries reconciles
//    them); "gauge" columns emit the staged instantaneous value;
//  * propagation spans record, per published version, the latency from
//    origin publish to each replica apply, and are rolled up per
//    publish-interval bucket (first/median/last replica, never per-message
//    rows). Apply records accumulate in a SpanBuffer and are folded and
//    sorted at report time, so the rollup depends only on the multiset of
//    observations.
//
// The obs layer deliberately does not include sim headers (the Simulator
// includes obs/profiler.hpp); times are plain doubles (seconds).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cdnsim::obs {

/// Index of a bound time-series column; cheap to store in engine tables.
using SeriesId = std::uint32_t;

enum class SeriesKind : std::uint8_t {
  kDelta,  // staged cumulative total, emitted as per-interval differences
  kGauge,  // staged instantaneous value, emitted as-is
};

/// One origin-publish -> replica-apply observation.
struct SpanApply {
  std::uint64_t version = 0;
  double latency_s = 0;
};

/// Buffer of apply records, appended during the run and folded into the
/// TimeSeries after it.
struct SpanBuffer {
  std::vector<SpanApply> applies;
  void record(std::uint64_t version, double latency_s) {
    applies.push_back(SpanApply{version, latency_s});
  }
};

/// A finished, serialisable time series: a pure function of sim time and
/// seeded RNG state.
struct TimeSeriesReport {
  double sample_s = 0;
  std::uint64_t replica_count = 0;
  std::vector<std::string> names;
  std::vector<SeriesKind> kinds;
  /// row = [t, v0, v1, ...]; t strictly increasing multiples of sample_s.
  std::vector<std::vector<double>> rows;
  /// Final cumulative value per column (delta: last staged total — equals
  /// the sum of that column's per-interval rows; gauge: last staged value).
  std::vector<double> totals;

  /// Per publish-interval rollup of propagation spans. Latency *sums* are
  /// stored (merge-friendly); means are computed at serialisation.
  struct SpanRow {
    double t = 0;                         // closing grid point of the bucket
    std::uint64_t published = 0;          // versions published in the bucket
    std::uint64_t applied_versions = 0;   // of those, versions with >= 1 apply
    std::uint64_t applies = 0;            // total apply events
    std::uint64_t reached_all = 0;        // versions applied by every replica
    double first_sum_s = 0;               // sum over versions of min latency
    double median_sum_s = 0;              // sum of (lower) median latency
    double last_sum_s = 0;                // sum of max latency
    double last_max_s = 0;                // max over versions of max latency
  };
  std::vector<SpanRow> spans;

  bool empty() const { return rows.empty(); }

  /// Folds another report into this one (catalog aggregation: per-object
  /// series summed in object-id order). Requires matching sample_s and
  /// column layout. Delta columns add row-wise (a shorter report
  /// contributes 0 past its horizon); gauge columns add row-wise with the
  /// shorter report's final value carried forward (its state persists).
  /// Span buckets merge by timestamp.
  void merge_from(const TimeSeriesReport& other);

  /// Canonical JSON of the deterministic section (no trailing newline):
  /// {"sample_s":..,"replicas":..,"columns":[{"kind":..,"name":..},...],
  ///  "rows":[[t,...],...],"spans":{"columns":[...],"rows":[...]},
  ///  "totals":{name:value,...}}. Equal series serialise to equal bytes.
  void write_deterministic(std::ostream& out) const;
  std::string deterministic_json() const;
};

/// The live sampler: one per run, bound once, never shared between jobs.
class TimeSeries {
 public:
  /// `sample_s` must be > 0.
  explicit TimeSeries(double sample_s);

  double sample_s() const { return sample_s_; }

  SeriesId add_delta(std::string name) {
    return add_column(std::move(name), SeriesKind::kDelta);
  }
  SeriesId add_gauge(std::string name) {
    return add_column(std::move(name), SeriesKind::kGauge);
  }

  /// Stages the current value of a column (cumulative total for delta
  /// columns). Hot-path safe: a plain store into a preallocated slot.
  void stage(SeriesId id, double value) {
    staged_[static_cast<std::size_t>(id)] = value;
  }

  /// The next sample's timestamp. Computed as (row_count + 1) * sample_s —
  /// a multiplication, never an accumulation, so grid points carry no
  /// accumulated rounding.
  double next_sample_time() const {
    return static_cast<double>(rows_.size() + 1) * sample_s_;
  }

  /// Records one row at next_sample_time() from the staged values.
  void take_sample();

  std::size_t row_count() const { return rows_.size(); }
  std::size_t column_count() const { return names_.size(); }

  // --- propagation spans ---
  /// Declares version `version` published at `publish_time`. Versions must
  /// be registered 1..N before report().
  void span_publish(std::uint64_t version, double publish_time);
  /// Folds a buffer of apply records; fold order is irrelevant (report()
  /// sorts by (version, latency)).
  void fold_spans(const SpanBuffer& buffer);
  void set_replica_count(std::uint64_t n) { replica_count_ = n; }

  /// Builds the finished report (rows copied, spans rolled up per
  /// publish-interval bucket).
  TimeSeriesReport report() const;

 private:
  SeriesId add_column(std::string name, SeriesKind kind);

  double sample_s_;
  std::vector<std::string> names_;
  std::vector<SeriesKind> kinds_;
  std::vector<double> staged_;
  std::vector<double> last_emitted_;  // delta columns: total at last sample
  std::vector<std::vector<double>> rows_;
  std::vector<double> publish_times_;  // index = version - 1
  std::vector<SpanApply> applies_;
  std::uint64_t replica_count_ = 0;
};

}  // namespace cdnsim::obs
