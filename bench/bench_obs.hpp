// Observability sink for the figure-reproduction binaries.
//
// An ObsSession turns the --metrics-out / --trace-out / --csv-out /
// --profile-out flags into files:
//   * metrics  — JSONL, one {"label", "metrics"} object per batch job in
//     submission order. Everything inside derives from sim time and seeded
//     RNG state, so the file is byte-identical across --jobs counts (the
//     tier-1 obs stage cmp's --jobs 1 vs --jobs 8);
//   * trace    — one Chrome trace-event JSON merging every job's recorded
//     events, pid = job submission index, tid = node id;
//   * csv      — a per-job summary table (RFC 4180 quoted, full-precision
//     doubles);
//   * profile  — <path>.profile JSON (deterministic scope counts/sim
//     coverage + host-only wall section) plus a collapsed-stack .folded
//     sibling for flamegraph.pl / speedscope. Batch binaries only;
//   * timeseries — cdnsim.timeseries.v1 JSON with a deterministic section
//     (per-run sampled series + propagation-span rollups, byte-identical
//     across --jobs), plus a long-form CSV sibling for plotting;
//   * next to each file, a <file>.manifest.json RunManifest — the one
//     deliberately non-deterministic artifact (wall clock, host, git
//     revision, steal counts).
//
// Usage in a batch bench main():
//   bench::ObsSession obs(argc, argv, flags, kSeed);
//   obs.apply(jobs);                       // per-job tracing + profiling
//   core::BatchRunStats stats;
//   auto results = bench::run_batch_reported(runner, jobs, false, &stats);
//   obs.write(results, stats);
//
// Binaries that call run_simulation directly (no BatchRunner) use the
// configure()/add()/write_direct() hook instead; measurement-study binaries
// (one merged registry for the whole study) use write_study().
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/batch_runner.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_recorder.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace cdnsim::bench {

class ObsSession {
 public:
  ObsSession(int argc, char** argv, const Flags& flags, std::uint64_t seed)
      : metrics_path_(flags.metrics_out()),
        trace_path_(flags.trace_out()),
        csv_path_(flags.csv_out()),
        profile_path_(flags.profile_out()),
        timeseries_path_(flags.timeseries_out()),
        sample_s_(flags.sample_s(10.0)) {
    if (!enabled()) return;
    manifest_ = obs::capture_manifest(argc, argv);
    manifest_.seed = seed;
    manifest_.jobs = static_cast<int>(flags.jobs());
  }

  bool enabled() const {
    return !metrics_path_.empty() || !trace_path_.empty() ||
           !csv_path_.empty() || !profile_path_.empty() ||
           !timeseries_path_.empty();
  }

  /// Records the catalog --lanes selection in every manifest written by
  /// this session.
  void set_lanes(const std::string& summary) { manifest_.lanes = summary; }
  bool trace_enabled() const { return !trace_path_.empty(); }
  bool profile_enabled() const { return !profile_path_.empty(); }
  bool timeseries_enabled() const { return !timeseries_path_.empty(); }

  /// Enables per-engine trace recording (--trace-out), per-job profiling
  /// (--profile-out) and time-resolved sampling (--timeseries-out) on every
  /// job. Call before running the batch. None of them changes a job's
  /// result.
  void apply(std::vector<core::BatchJob>& jobs) const {
    for (core::BatchJob& job : jobs) {
      if (trace_enabled()) job.engine.record_trace_events = true;
      if (profile_enabled()) job.profile = true;
      if (timeseries_enabled()) job.engine.timeseries_sample_s = sample_s_;
    }
  }

  /// Direct-run hook (binaries sweeping run_simulation in a plain loop):
  /// call configure() on each engine config before its run, add() with each
  /// result, then write_direct() once. --profile-out is a batch-only
  /// feature; a request here is warned about and skipped.
  void configure(consistency::EngineConfig& engine) const {
    if (trace_enabled()) engine.record_trace_events = true;
    if (timeseries_enabled()) engine.timeseries_sample_s = sample_s_;
  }

  void add(const std::string& label, core::SimulationResult sim) {
    if (!enabled()) return;
    core::BatchResult r;
    r.label = label;
    r.sim = std::move(sim);
    added_.push_back(std::move(r));
  }

  void write_direct() {
    if (!enabled()) return;
    warn_unsupported(profile_path_, "--profile-out",
                     "batch (BatchRunner) binaries");
    profile_path_.clear();
    core::BatchRunStats stats;
    stats.threads = 1;
    stats.wall_s = timer_.seconds();
    write(added_, stats);
  }

  /// Measurement-study hook: the study produces one merged registry (and
  /// optionally one merged trace, pid = day index) for the whole run, not
  /// per-job results. CSV and profile do not apply; requests are warned
  /// about and skipped. The trace is written as-is so the study's own pid
  /// assignment survives.
  void write_study(const std::string& label,
                   const obs::MetricsRegistry& metrics,
                   const obs::TraceRecorder* trace) {
    if (!enabled()) return;
    warn_unsupported(csv_path_, "--csv-out", "per-job batch binaries");
    csv_path_.clear();
    warn_unsupported(profile_path_, "--profile-out",
                     "batch (BatchRunner) binaries");
    profile_path_.clear();
    warn_unsupported(timeseries_path_, "--timeseries-out",
                     "per-job batch and direct-run binaries");
    timeseries_path_.clear();
    manifest_.config_digest = obs::fnv1a64_hex(label + "\n");
    manifest_.wall_s = timer_.seconds();
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) throw Error("cannot write metrics: " + metrics_path_);
      out << "{\"label\":\"" << obs::json_escape(label) << "\",\"metrics\":";
      metrics.write_json(out);
      out << "}\n";
      out.close();
      obs::write_manifest_for(metrics_path_, manifest_);
      std::cout << "metrics: 1 record(s) -> " << metrics_path_ << "\n";
    }
    if (!trace_path_.empty()) {
      if (trace == nullptr) {
        std::cerr << "warning: --trace-out requested but this study recorded "
                     "no trace\n";
      } else {
        std::ofstream out(trace_path_);
        if (!out) throw Error("cannot write trace: " + trace_path_);
        trace->write_chrome_json(out);
        out.close();
        obs::write_manifest_for(trace_path_, manifest_);
        std::cout << "trace: " << trace->size() << " event(s) -> "
                  << trace_path_ << "\n";
      }
    }
  }

  /// Writes every requested artifact plus its manifest. Call after the
  /// batch completes; all jobs in `results` must have succeeded.
  void write(const std::vector<core::BatchResult>& results,
             const core::BatchRunStats& stats) {
    if (!enabled()) return;
    // The digest covers the logical run configuration (the job labels, in
    // order) — identical across --jobs counts and hosts, unlike the
    // manifest's args/wall-clock fields.
    std::string digest_input;
    for (const auto& r : results) {
      digest_input += r.label;
      digest_input += '\n';
    }
    manifest_.config_digest = obs::fnv1a64_hex(digest_input);
    manifest_.wall_s = stats.wall_s;
    if (stats.threads > 0) {
      manifest_.jobs = static_cast<int>(stats.threads);
    }

    if (!metrics_path_.empty()) write_metrics(results);
    if (!trace_path_.empty()) write_trace(results);
    if (!csv_path_.empty()) write_csv(results);
    if (!profile_path_.empty()) write_profile(results);
    if (!timeseries_path_.empty()) write_timeseries(results);
  }

  /// Collapsed-stack sibling of a --profile-out path (.json -> .folded).
  static std::string folded_path_for(const std::string& profile_path) {
    const std::string suffix = ".json";
    if (profile_path.size() > suffix.size() &&
        profile_path.compare(profile_path.size() - suffix.size(),
                             suffix.size(), suffix) == 0) {
      return profile_path.substr(0, profile_path.size() - suffix.size()) +
             ".folded";
    }
    return profile_path + ".folded";
  }

  /// Long-form CSV sibling of a --timeseries-out path (.json -> .csv).
  static std::string timeseries_csv_path_for(const std::string& path) {
    const std::string suffix = ".json";
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return path.substr(0, path.size() - suffix.size()) + ".csv";
    }
    return path + ".csv";
  }

 private:
  static void warn_unsupported(const std::string& path, const char* flag,
                               const char* where) {
    if (path.empty()) return;
    std::cerr << "warning: " << flag << " is only supported by " << where
              << "; skipping " << path << "\n";
  }

  void write_profile(const std::vector<core::BatchResult>& results) const {
    // Submission-order merge: the deterministic sections are then a pure
    // function of the job list, independent of --jobs.
    obs::ProfileReport merged;
    for (const auto& r : results) merged.merge_from(r.sim.profile);
    std::ofstream out(profile_path_);
    if (!out) throw Error("cannot write profile: " + profile_path_);
    merged.write_json(out);
    out.close();
    obs::write_manifest_for(profile_path_, manifest_);
    const std::string folded = folded_path_for(profile_path_);
    std::ofstream fout(folded);
    if (!fout) throw Error("cannot write folded profile: " + folded);
    merged.write_folded(fout);
    fout.close();
    std::cout << "profile: " << merged.entries().size() << " scope(s) -> "
              << profile_path_ << " (+ " << folded << ")\n";
  }
  void write_metrics(const std::vector<core::BatchResult>& results) const {
    std::ofstream out(metrics_path_);
    if (!out) throw Error("cannot write metrics: " + metrics_path_);
    for (const auto& r : results) {
      out << "{\"label\":\"" << obs::json_escape(r.label) << "\",\"metrics\":";
      r.sim.metrics.write_json(out);
      out << "}\n";
    }
    out.close();
    obs::write_manifest_for(metrics_path_, manifest_);
    std::cout << "metrics: " << results.size() << " record(s) -> "
              << metrics_path_ << "\n";
  }

  void write_trace(const std::vector<core::BatchResult>& results) const {
    obs::TraceRecorder merged;
    for (std::size_t i = 0; i < results.size(); ++i) {
      merged.append(results[i].sim.trace, static_cast<std::int32_t>(i));
    }
    std::ofstream out(trace_path_);
    if (!out) throw Error("cannot write trace: " + trace_path_);
    merged.write_chrome_json(out);
    out.close();
    obs::write_manifest_for(trace_path_, manifest_);
    std::cout << "trace: " << merged.size() << " event(s) -> " << trace_path_
              << "\n";
  }

  void write_csv(const std::vector<core::BatchResult>& results) const {
    std::ofstream out(csv_path_);
    if (!out) throw Error("cannot write csv: " + csv_path_);
    util::CsvWriter w(out);
    w.header({"label", "config", "avg_server_inconsistency_s",
              "avg_user_inconsistency_s", "cost_km_kb", "update_messages",
              "events_processed"});
    for (const auto& r : results) {
      // The config column rewrites the label's '/' separators to commas —
      // a field that *requires* RFC 4180 quoting, so any regression in the
      // CSV writer breaks the tier-1 obs checker immediately.
      std::string config = r.label;
      for (char& c : config) {
        if (c == '/') c = ',';
      }
      w.row({r.label, config,
             util::format_double(r.sim.avg_server_inconsistency_s),
             util::format_double(r.sim.avg_user_inconsistency_s),
             util::format_double(r.sim.traffic.cost_km_kb),
             std::to_string(r.sim.traffic.update_messages),
             std::to_string(r.sim.events_processed)});
    }
    out.close();
    obs::write_manifest_for(csv_path_, manifest_);
    std::cout << "csv: " << results.size() << " row(s) -> " << csv_path_
              << "\n";
  }

  void write_timeseries(const std::vector<core::BatchResult>& results) const {
    // "deterministic" derives from sim time + seeded RNG only (tier-1 cmp's
    // it across --jobs), mirroring the profile artifact's section name.
    std::ofstream out(timeseries_path_);
    if (!out) throw Error("cannot write timeseries: " + timeseries_path_);
    out << "{\"schema\":\"cdnsim.timeseries.v1\",\"deterministic\":{\"runs\":[";
    bool first = true;
    std::size_t runs = 0;
    std::size_t rows = 0;
    for (const auto& r : results) {
      if (r.sim.timeseries.names.empty()) continue;
      if (!first) out << ',';
      first = false;
      ++runs;
      rows += r.sim.timeseries.rows.size();
      out << "{\"label\":\"" << obs::json_escape(r.label) << "\",\"series\":";
      r.sim.timeseries.write_deterministic(out);
      out << '}';
    }
    out << "]}}\n";
    out.close();
    obs::write_manifest_for(timeseries_path_, manifest_);

    // Long-form CSV sibling for plotting: one (label, t, series, value) row
    // per sample cell, plus span.* rollup rows. Deterministic content only.
    const std::string csv = timeseries_csv_path_for(timeseries_path_);
    std::ofstream cout_stream(csv);
    if (!cout_stream) throw Error("cannot write timeseries csv: " + csv);
    util::CsvWriter w(cout_stream);
    w.header({"label", "t", "series", "value"});
    for (const auto& r : results) {
      const obs::TimeSeriesReport& ts = r.sim.timeseries;
      if (ts.names.empty()) continue;
      for (const auto& row : ts.rows) {
        const std::string t = util::format_double(row[0]);
        for (std::size_t c = 0; c < ts.names.size(); ++c) {
          w.row({r.label, t, ts.names[c], util::format_double(row[c + 1])});
        }
      }
      for (const auto& s : ts.spans) {
        const std::string t = util::format_double(s.t);
        const double n = s.applied_versions > 0
                             ? static_cast<double>(s.applied_versions)
                             : 1.0;
        w.row({r.label, t, "span.published",
               util::format_double(static_cast<double>(s.published))});
        w.row({r.label, t, "span.applied_versions",
               util::format_double(static_cast<double>(s.applied_versions))});
        w.row({r.label, t, "span.applies",
               util::format_double(static_cast<double>(s.applies))});
        w.row({r.label, t, "span.reached_all",
               util::format_double(static_cast<double>(s.reached_all))});
        w.row({r.label, t, "span.first_mean_s",
               util::format_double(s.first_sum_s / n)});
        w.row({r.label, t, "span.median_mean_s",
               util::format_double(s.median_sum_s / n)});
        w.row({r.label, t, "span.last_mean_s",
               util::format_double(s.last_sum_s / n)});
        w.row({r.label, t, "span.last_max_s",
               util::format_double(s.last_max_s)});
      }
    }
    cout_stream.close();
    std::cout << "timeseries: " << runs << " run(s), " << rows
              << " sample row(s) -> " << timeseries_path_ << " (+ " << csv
              << ")\n";
  }

  std::string metrics_path_;
  std::string trace_path_;
  std::string csv_path_;
  std::string profile_path_;
  std::string timeseries_path_;
  double sample_s_ = 10.0;
  obs::RunManifest manifest_;
  std::vector<core::BatchResult> added_;  // direct-run hook accumulator
  WallTimer timer_;                       // session lifetime ~ run wall time
};

}  // namespace cdnsim::bench
