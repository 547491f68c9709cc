#!/usr/bin/env python3
"""Validate the observability artifacts a bench binary emits.

Usage:
    check_obs.py --metrics M.jsonl [--trace T.json] [--csv C.csv]
                 [--profile P.profile.json] [--timeseries TS.json]

Checks (stdlib only, no third-party deps):
  * metrics: parseable JSONL, one {"label", "metrics"} object per line;
    every metrics object has counters/gauges/histograms; every histogram
    has len(counts) == len(bounds) + 1, count == sum(counts), strictly
    increasing bounds, and (when present) a non-negative integer
    nan_count; lines carrying the pubsub lagging series must satisfy
    lagging_subscribers == lagging_enter - lagging_exit >= 0;
  * trace: parseable JSON with a traceEvents list; every event carries
    name/cat/ph/ts/pid/tid; "X" events carry dur; ts/dur are integers
    (sim-microseconds — wall-clock floats would break determinism);
  * csv: parseable by csv.reader, rectangular, and the "config" column
    (present in the bench summary schema) re-splits into the "/"-joined
    label parts — this exercises the RFC 4180 quoting path end to end;
  * profile: schema "cdnsim.profile.v1"; a deterministic section with
    sorted, unique ';'-joined scope paths carrying integer count >= 1 and
    sim_cover_us >= 0; a wall section over the same paths with
    self_ns <= wall_ns; and a collapsed-stack .folded sibling whose lines
    are "path weight" over exactly the same paths;
  * timeseries: schema "cdnsim.timeseries.v1"; per deterministic run a
    positive sample_s, rectangular rows on the exact (i+1)*sample_s grid
    with strictly increasing timestamps, delta columns whose interval
    values telescope to their entry in "totals" (and, when --metrics is
    also given, to the matching final registry counter/gauge for the same
    label), gauge columns whose final row equals their total, span rollups
    with reached_all <= applied_versions <= published covering every
    published version, and a long-form CSV sibling;
  * every artifact has a sibling <file>.manifest.json naming the binary,
    a config_digest and a seed.

Exit code 0 when every check passes, 1 otherwise.
"""
import argparse
import csv
import json
import os
import sys

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
    return ok


def check_manifest(artifact_path):
    path = artifact_path + ".manifest.json"
    if not check(os.path.exists(path), f"missing manifest {path}"):
        return
    with open(path) as f:
        m = json.load(f)
    for key in ("binary", "args", "seed", "config_digest", "git_describe",
                "created_utc", "hostname", "platform", "hardware_threads",
                "jobs", "wall_s"):
        check(key in m, f"{path}: missing key '{key}'")
    check(isinstance(m.get("seed"), int), f"{path}: seed must be an integer")
    digest = m.get("config_digest", "")
    check(len(digest) == 16 and all(c in "0123456789abcdef" for c in digest),
          f"{path}: config_digest '{digest}' is not 16 hex chars")


COMPARATORS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "==": lambda value, threshold: value == threshold,
}


def parse_requirement(spec):
    """Splits 'NAME', 'NAME>N', 'NAME>=N' or 'NAME==N' into
    (name, op, threshold). Two-character operators are tried first so
    'x>=1' never parses as name 'x' with op '>' and threshold '=1'."""
    for op in (">=", "==", ">"):
        name, sep, threshold = spec.partition(op)
        if sep:
            try:
                return name, op, float(threshold)
            except ValueError:
                raise SystemExit(
                    f"check_obs: bad --require-metric threshold in {spec!r}")
    return spec, None, None


def check_metrics(path, require_metrics=()):
    with open(path) as f:
        lines = f.readlines()
    check(len(lines) >= 1, f"{path}: empty metrics file")
    # --require-metric NAME[OP N] with OP in {>, >=, ==}: the named
    # counter/gauge must exist on every line, and when a comparison is
    # given, at least one line must satisfy it (proves the instrumented
    # subsystem actually ran — or, with ==, hit exactly the expected value).
    requirements = [parse_requirement(spec) for spec in require_metrics]
    satisfied = {name: False for name, _, _ in requirements}
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            check(False, f"{path}:{i + 1}: invalid JSON: {e}")
            continue
        check("label" in rec, f"{path}:{i + 1}: missing 'label'")
        metrics = rec.get("metrics", {})
        for section in ("counters", "gauges", "histograms"):
            check(section in metrics, f"{path}:{i + 1}: missing '{section}'")
        for name, h in metrics.get("histograms", {}).items():
            check(len(h["counts"]) == len(h["bounds"]) + 1,
                  f"{path}:{i + 1}: histogram '{name}' counts/bounds mismatch")
            check(h["count"] == sum(h["counts"]),
                  f"{path}:{i + 1}: histogram '{name}' count != sum(counts)")
            bounds = h["bounds"]
            check(all(a < b for a, b in zip(bounds, bounds[1:])),
                  f"{path}:{i + 1}: histogram '{name}' bounds not strictly "
                  f"increasing: {bounds}")
            # NaN observations are quarantined outside the buckets; the
            # field is omitted entirely on clean runs (byte-stability).
            if "nan_count" in h:
                check(isinstance(h["nan_count"], int) and h["nan_count"] >= 0,
                      f"{path}:{i + 1}: histogram '{name}' nan_count must be "
                      f"a non-negative integer")
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
        # Pub/sub flow-control invariant: the lagging gauge is defined as
        # lagging_enter - lagging_exit (both monotone counters), so whenever
        # all three appear they must agree and the live set can never be
        # negative.
        if ("pubsub.lagging_enter" in counters and
                "pubsub.lagging_exit" in counters and
                "pubsub.lagging_subscribers" in gauges):
            enter = counters["pubsub.lagging_enter"]
            exit_ = counters["pubsub.lagging_exit"]
            gauge = gauges["pubsub.lagging_subscribers"]
            check(exit_ <= enter,
                  f"{path}:{i + 1}: pubsub.lagging_exit {exit_} exceeds "
                  f"lagging_enter {enter}")
            check(gauge == enter - exit_,
                  f"{path}:{i + 1}: pubsub.lagging_subscribers {gauge} != "
                  f"lagging_enter - lagging_exit ({enter} - {exit_})")
        values = dict(counters)
        values.update(gauges)
        for name, op, threshold in requirements:
            if not check(name in values,
                         f"{path}:{i + 1}: required metric '{name}' missing"):
                continue
            if op is not None and COMPARATORS[op](values[name], threshold):
                satisfied[name] = True
    for name, op, threshold in requirements:
        if op is not None:
            check(satisfied[name],
                  f"{path}: metric '{name}' never satisfies "
                  f"'{op} {threshold}' on any line "
                  f"(instrumented subsystem never fired?)")
    check_manifest(path)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not check(isinstance(events, list), f"{path}: no traceEvents list"):
        return
    check(len(events) >= 1, f"{path}: empty trace")
    for i, ev in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if not check(key in ev, f"{path}: event {i} missing '{key}'"):
                return  # one malformed event is enough to report
        check(isinstance(ev["ts"], int),
              f"{path}: event {i} ts is not an integer (wall clock leak?)")
        if ev["ph"] == "X":
            check(isinstance(ev.get("dur"), int),
                  f"{path}: X event {i} missing integer dur")
    check_manifest(path)


def check_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not check(len(rows) >= 2, f"{path}: need a header plus one row"):
        return
    header = rows[0]
    for i, row in enumerate(rows[1:], start=2):
        check(len(row) == len(header),
              f"{path}:{i}: {len(row)} fields, header has {len(header)}")
    if "label" in header and "config" in header:
        li, ci = header.index("label"), header.index("config")
        for i, row in enumerate(rows[1:], start=2):
            check(row[ci].split(",") == row[li].split("/"),
                  f"{path}:{i}: config column does not round-trip the label "
                  f"(CSV quoting regression?): {row[ci]!r} vs {row[li]!r}")
    check_manifest(path)


def folded_path_for(profile_path):
    # Mirrors bench::ObsSession::folded_path_for.
    if profile_path.endswith(".json"):
        return profile_path[:-len(".json")] + ".folded"
    return profile_path + ".folded"


def check_profile(path):
    with open(path) as f:
        doc = json.load(f)
    check(doc.get("schema") == "cdnsim.profile.v1",
          f"{path}: schema is {doc.get('schema')!r}, "
          f"expected 'cdnsim.profile.v1'")
    det = doc.get("deterministic", {}).get("scopes")
    wall = doc.get("wall", {}).get("scopes")
    if not check(isinstance(det, list) and isinstance(wall, list),
                 f"{path}: missing deterministic/wall scope lists"):
        return
    check(len(det) >= 1, f"{path}: empty profile")
    det_paths = [s.get("path") for s in det]
    check(det_paths == sorted(det_paths) and len(set(det_paths)) == len(det_paths),
          f"{path}: deterministic paths must be sorted and unique")
    for s in det:
        p = s.get("path", "?")
        check(isinstance(s.get("count"), int) and s["count"] >= 1,
              f"{path}: scope '{p}' count must be a positive integer")
        check(isinstance(s.get("sim_cover_us"), int) and s["sim_cover_us"] >= 0,
              f"{path}: scope '{p}' sim_cover_us must be a non-negative "
              f"integer (sim time never runs backwards)")
    check([s.get("path") for s in wall] == det_paths,
          f"{path}: wall section must cover the deterministic paths")
    for s in wall:
        p = s.get("path", "?")
        ok = (isinstance(s.get("wall_ns"), int) and
              isinstance(s.get("self_ns"), int) and
              0 <= s["self_ns"] <= s["wall_ns"])
        check(ok, f"{path}: scope '{p}' needs 0 <= self_ns <= wall_ns")
    folded = folded_path_for(path)
    if not check(os.path.exists(folded), f"missing folded sibling {folded}"):
        check_manifest(path)
        return
    folded_paths = []
    with open(folded) as f:
        for i, line in enumerate(f):
            frames, sep, weight = line.rstrip("\n").rpartition(" ")
            if not check(sep == " " and frames and weight.isdigit(),
                         f"{folded}:{i + 1}: not a 'frames weight' line: "
                         f"{line!r}"):
                return
            folded_paths.append(frames)
    check(folded_paths == det_paths,
          f"{folded}: paths disagree with the profile JSON")
    check_manifest(path)


TS_SPAN_COLUMNS = ["t", "published", "applied_versions", "applies",
                   "reached_all", "first_mean_s", "median_mean_s",
                   "last_mean_s", "last_max_s"]


def timeseries_csv_path_for(path):
    # Mirrors bench::ObsSession::timeseries_csv_path_for.
    if path.endswith(".json"):
        return path[:-len(".json")] + ".csv"
    return path + ".csv"


def near(a, b, tol=1e-6):
    return abs(a - b) <= tol + 1e-9 * max(abs(a), abs(b))


def check_timeseries(path, metrics_path=None):
    with open(path) as f:
        doc = json.load(f)
    check(doc.get("schema") == "cdnsim.timeseries.v1",
          f"{path}: schema is {doc.get('schema')!r}, "
          f"expected 'cdnsim.timeseries.v1'")
    runs = doc.get("deterministic", {}).get("runs")
    if not check(isinstance(runs, list) and len(runs) >= 1,
                 f"{path}: no deterministic runs"):
        return
    # Final registry values per label, for interval-sum reconciliation. A
    # delta column is named exactly like its registry slot, so a sampled
    # series that disagrees with the end-of-run counter means the sampler
    # dropped or double-counted an interval.
    registry_by_label = {}
    if metrics_path:
        with open(metrics_path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                values = dict(rec.get("metrics", {}).get("counters", {}))
                values.update(rec.get("metrics", {}).get("gauges", {}))
                registry_by_label[rec.get("label")] = values
    for run in runs:
        label = run.get("label", "?")
        s = run.get("series", {})
        sample_s = s.get("sample_s", 0)
        if not check(isinstance(sample_s, (int, float)) and sample_s > 0,
                     f"{path}: run '{label}': sample_s must be positive"):
            continue
        columns = s.get("columns", [])
        check(len(columns) >= 1, f"{path}: run '{label}': no columns")
        for c in columns:
            check(c.get("kind") in ("delta", "gauge"),
                  f"{path}: run '{label}': column '{c.get('name')}' has "
                  f"kind {c.get('kind')!r}")
        rows = s.get("rows", [])
        if not check(len(rows) >= 1,
                     f"{path}: run '{label}': no sample rows"):
            continue
        prev_t = 0.0
        sums = [0.0] * len(columns)
        ok_rows = True
        for i, row in enumerate(rows):
            if not check(len(row) == len(columns) + 1,
                         f"{path}: run '{label}' row {i}: {len(row)} fields, "
                         f"expected {len(columns) + 1}"):
                ok_rows = False
                break
            t = row[0]
            check(t > prev_t,
                  f"{path}: run '{label}' row {i}: timestamps not strictly "
                  f"increasing ({t} after {prev_t})")
            check(near(t, (i + 1) * sample_s, tol=0),
                  f"{path}: run '{label}' row {i}: t={t} off the "
                  f"(i+1)*sample_s grid")
            prev_t = t
            for j, v in enumerate(row[1:]):
                sums[j] += v
        if not ok_rows:
            continue
        totals = s.get("totals", {})
        for j, c in enumerate(columns):
            name = c.get("name", "?")
            if not check(name in totals,
                         f"{path}: run '{label}': totals missing '{name}'"):
                continue
            if c.get("kind") == "delta":
                check(near(sums[j], totals[name]),
                      f"{path}: run '{label}': delta column '{name}' "
                      f"interval sum {sums[j]} != total {totals[name]}")
            else:
                check(near(rows[-1][j + 1], totals[name]),
                      f"{path}: run '{label}': gauge column '{name}' final "
                      f"row {rows[-1][j + 1]} != total {totals[name]}")
        spans = s.get("spans", {})
        check(spans.get("columns") == TS_SPAN_COLUMNS,
              f"{path}: run '{label}': span columns are "
              f"{spans.get('columns')!r}")
        prev_span_t = 0.0
        published = 0.0
        for i, r in enumerate(spans.get("rows", [])):
            if not check(len(r) == len(TS_SPAN_COLUMNS),
                         f"{path}: run '{label}' span row {i}: "
                         f"{len(r)} fields"):
                break
            check(r[0] > prev_span_t,
                  f"{path}: run '{label}' span row {i}: timestamps not "
                  f"strictly increasing")
            prev_span_t = r[0]
            check(0 <= r[4] <= r[2] <= r[1],
                  f"{path}: run '{label}' span row {i}: needs "
                  f"reached_all <= applied_versions <= published, got "
                  f"{r[4]}/{r[2]}/{r[1]}")
            published += r[1]
        if "consistency.updates_published" in totals:
            check(near(published, totals["consistency.updates_published"]),
                  f"{path}: run '{label}': span rows account for "
                  f"{published} versions, published "
                  f"{totals['consistency.updates_published']}")
        if registry_by_label:
            if not check(label in registry_by_label,
                         f"{path}: run '{label}' has no matching metrics "
                         f"line in {metrics_path}"):
                continue
            registry = registry_by_label[label]
            for c in columns:
                name = c.get("name", "?")
                if c.get("kind") != "delta" or name not in registry:
                    continue
                check(near(totals.get(name, 0), registry[name]),
                      f"{path}: run '{label}': total '{name}' = "
                      f"{totals.get(name)} but the final registry says "
                      f"{registry[name]}")
    csv_sibling = timeseries_csv_path_for(path)
    if check(os.path.exists(csv_sibling),
             f"missing timeseries csv sibling {csv_sibling}"):
        with open(csv_sibling, newline="") as f:
            header = next(csv.reader(f), None)
        check(header == ["label", "t", "series", "value"],
              f"{csv_sibling}: header is {header!r}")
    check_manifest(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics")
    parser.add_argument("--trace")
    parser.add_argument("--csv")
    parser.add_argument("--profile")
    parser.add_argument("--timeseries")
    parser.add_argument("--require-metric", action="append", default=[],
                        metavar="NAME[OP N]",
                        help="counter/gauge that must exist on every metrics "
                             "line; with >N / >=N / ==N, some line must "
                             "satisfy the comparison")
    args = parser.parse_args()
    if not (args.metrics or args.trace or args.csv or args.profile or
            args.timeseries):
        parser.error("nothing to check")
    if args.require_metric and not args.metrics:
        parser.error("--require-metric needs --metrics")
    if args.metrics:
        check_metrics(args.metrics, args.require_metric)
    if args.trace:
        check_trace(args.trace)
    if args.csv:
        check_csv(args.csv)
    if args.profile:
        check_profile(args.profile)
    if args.timeseries:
        check_timeseries(args.timeseries, metrics_path=args.metrics)
    if failures:
        for msg in failures:
            print(f"check_obs: FAIL: {msg}", file=sys.stderr)
        return 1
    print("check_obs: all artifact checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
