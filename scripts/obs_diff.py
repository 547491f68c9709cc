#!/usr/bin/env python3
"""Diff two observability artifacts and emit a markdown delta report.

Usage:
    obs_diff.py A B [--rel-tol 1e-9] [--out report.md]
                    [--fail-on-diff] [--fail-on-schema-change]
                    [--include-wall]

Accepts any artifact family (auto-detected from the file contents):
  * metrics JSONL — one {"label", "metrics"} object per line, as written by
    bench::ObsSession. Compared per label, per metric name: counters,
    gauges, histogram count/sum/nan_count and per-bucket counts;
  * profile JSON — {"schema": "cdnsim.profile.v1", ...}. Only the
    "deterministic" section (scope counts + sim-time coverage) is compared
    by default; the host-only "wall" section is scheduling noise and is
    ignored unless --include-wall is given;
  * timeseries JSON — {"schema": "cdnsim.timeseries.v1", ...}. Compared per
    run label: every sampled cell, every total and every span-rollup field.

A *value* difference is a shared key whose numbers differ beyond --rel-tol.
A *schema* difference is a key (label, metric name, scope path, histogram
bound layout) present on one side only — the signature of comparing
different configurations rather than different seeds.

Exit codes: 0 = no reportable difference (or differences found but no
--fail-on-* flag requested), 1 = value differences with --fail-on-diff,
3 = schema differences with --fail-on-schema-change, 2 = usage/parse error.
Stdlib only.
"""
import argparse
import json
import sys


def load(path, include_wall=False):
    """Returns ("profile"|"timeseries"|"metrics", flat name -> number)."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and doc.get("schema") == "cdnsim.profile.v1":
        flat = {}
        for scope in doc.get("deterministic", {}).get("scopes", []):
            flat[f"{scope['path']} count"] = scope["count"]
            flat[f"{scope['path']} sim_cover_us"] = scope["sim_cover_us"]
        if include_wall:
            for scope in doc.get("wall", {}).get("scopes", []):
                flat[f"{scope['path']} wall_ns"] = scope.get("wall_ns", 0)
                flat[f"{scope['path']} self_ns"] = scope.get("self_ns", 0)
            flat["wall scope_entry_ns"] = doc.get("wall", {}).get(
                "scope_entry_ns", 0)
        return "profile", flat
    if isinstance(doc, dict) and doc.get("schema") == "cdnsim.timeseries.v1":
        flat = {}
        for run in doc.get("deterministic", {}).get("runs", []):
            label = run.get("label", "?")
            s = run.get("series", {})
            flat[f"{label} sample_s"] = s.get("sample_s", 0)
            flat[f"{label} replicas"] = s.get("replicas", 0)
            names = [c.get("name", "?") for c in s.get("columns", [])]
            for row in s.get("rows", []):
                for name, v in zip(names, row[1:]):
                    flat[f"{label} t={row[0]:g} {name}"] = v
            for name, v in s.get("totals", {}).items():
                flat[f"{label} total {name}"] = v
            span_cols = s.get("spans", {}).get("columns", [])[1:]
            for row in s.get("spans", {}).get("rows", []):
                for name, v in zip(span_cols, row[1:]):
                    flat[f"{label} span t={row[0]:g} {name}"] = v
        return "timeseries", flat
    # Metrics JSONL: one record per line.
    flat = {}
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"obs_diff: {path}:{i + 1}: not a profile JSON and not "
                     f"metrics JSONL: {e}")
        label = rec.get("label", f"line{i + 1}")
        m = rec.get("metrics", {})
        for name, v in m.get("counters", {}).items():
            flat[f"{label} counter {name}"] = v
        for name, v in m.get("gauges", {}).items():
            flat[f"{label} gauge {name}"] = v
        for name, h in m.get("histograms", {}).items():
            base = f"{label} histogram {name}"
            flat[f"{base} count"] = h.get("count", 0)
            flat[f"{base} sum"] = h.get("sum", 0)
            flat[f"{base} nan_count"] = h.get("nan_count", 0)
            # The bound layout is part of the schema: two files bucketed
            # differently must show up as a schema change, not as noise.
            bounds = ",".join(repr(b) for b in h.get("bounds", []))
            for j, c in enumerate(h.get("counts", [])):
                flat[f"{base} bounds[{bounds}] bucket{j}"] = c
    return "metrics", flat


def differs(a, b, rel_tol):
    if a == b:
        return False
    scale = max(abs(a), abs(b))
    return abs(a - b) > rel_tol * scale


def fmt(x):
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--rel-tol", type=float, default=1e-9,
                        help="relative tolerance below which shared values "
                             "are considered equal (default 1e-9)")
    parser.add_argument("--out", help="write the markdown report here "
                                      "instead of stdout")
    parser.add_argument("--fail-on-diff", action="store_true",
                        help="exit 1 when any value difference is found")
    parser.add_argument("--fail-on-schema-change", action="store_true",
                        help="exit 3 when the two files disagree on which "
                             "keys exist")
    parser.add_argument("--include-wall", action="store_true",
                        help="also compare the profile's host-only wall "
                             "section (scheduling noise; off by default)")
    args = parser.parse_args()

    kind_a, flat_a = load(args.a, args.include_wall)
    kind_b, flat_b = load(args.b, args.include_wall)
    if kind_a != kind_b:
        sys.exit(f"obs_diff: cannot compare a {kind_a} file ({args.a}) "
                 f"against a {kind_b} file ({args.b})")

    only_a = sorted(set(flat_a) - set(flat_b))
    only_b = sorted(set(flat_b) - set(flat_a))
    changed = [(k, flat_a[k], flat_b[k])
               for k in sorted(set(flat_a) & set(flat_b))
               if differs(flat_a[k], flat_b[k], args.rel_tol)]

    lines = [f"# obs_diff: {kind_a} comparison", "",
             f"- A: `{args.a}` ({len(flat_a)} values)",
             f"- B: `{args.b}` ({len(flat_b)} values)",
             f"- changed: {len(changed)}, only in A: {len(only_a)}, "
             f"only in B: {len(only_b)} (rel tol {args.rel_tol:g})", ""]
    if changed:
        lines += ["## Changed values", "",
                  "| key | A | B | delta |", "|---|---|---|---|"]
        for k, va, vb in changed:
            lines.append(f"| {k} | {fmt(va)} | {fmt(vb)} | {fmt(vb - va)} |")
        lines.append("")
    for title, keys in (("Only in A", only_a), ("Only in B", only_b)):
        if keys:
            lines += [f"## {title}", ""]
            lines += [f"- {k}" for k in keys]
            lines.append("")
    if not changed and not only_a and not only_b:
        lines += ["No differences.", ""]

    report = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    else:
        print(report, end="")

    if (only_a or only_b) and args.fail_on_schema_change:
        print(f"obs_diff: schema change: {len(only_a) + len(only_b)} "
              "one-sided key(s)", file=sys.stderr)
        return 3
    if changed and args.fail_on_diff:
        print(f"obs_diff: {len(changed)} value difference(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
