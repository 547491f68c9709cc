"""Turns the benchmark program's JSON lines into metrics and check verdicts.

`summarize(workload, records, trace)` is the whole contract: it returns the
end-to-end metrics (untraced runs) or the per-layer metrics (traced runs),
the number of units attempted and failed, every failure with its reason,
and the accuracy figures and result digest that run.py prints.

A unit is one simulated job (a `job` line) or one measurement-study call
(a `study` line). A unit fails when it threw or failed any check:

* its result digest differs from another unit of the same cell (repeated
  runs, and traced against untraced runs, must agree);
* a metric-registry identity does not hold, or a key it needs is missing;
* it is a unicast-TTL cell whose server staleness misses TTL/2 by more than
  TTL_ORACLE_TOLERANCE.

In a traced run, a cell without both a traced and an untraced job also
counts as a failed unit.
"""

import hashlib
import statistics

# Largest accepted |staleness - TTL/2| / (TTL/2) for unicast-TTL cells. The
# simulated value sits above TTL/2 by the poll round trip (about 1.4% at
# paper sizes).
TTL_ORACLE_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "replica_s_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.queue_peak_depth": "count",
    "sim.cancelled_ratio": "ratio",
    "consistency.ctor_s": "s",
    "topology.tree_build_s": "s",
    "consistency.prepare_s": "s",
    "consistency.publish_s": "s",
    "cdn.user_log_rows": "count",
    "consistency.collect_s": "s",
    "consistency.visits": "count",
    "consistency.poll_useful_ratio": "ratio",
    "net.messages": "count",
    "net.ack_ratio": "ratio",
    "fault.drop_ratio": "ratio",
    "reliable.retries": "count",
    "reliable.give_ups": "count",
    "pubsub.live_deliveries": "count",
    "pubsub.suppressed_ratio": "ratio",
    "pubsub.catch_up_messages": "count",
    "pubsub.skipped_ahead": "count",
    "analysis.s": "s",
    "analysis.rows": "count",
    "analysis.rows_per_s": "1/s",
    "core.scenario_build_s": "s",
    "trace.generate_s": "s",
    "core.batch_overhead_s": "s",
    "trace.overhead_s": "s",
}

# Message kinds a reliable sender expects an ack for.
ACKED_KINDS = ("push-update", "invalidation", "fetch-response",
               "catch-up-update", "catch-up-notice")


def _ratio(num, den):
    return num / den if den else 0.0


def identity_failures(metrics):
    """Reasons the registry identities fail; a missing key is a failure."""
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    try:
        fired = gauges["sim.events_fired"]
        cancelled = gauges["sim.events_cancelled"]
        scheduled = gauges["sim.events_scheduled"]
        light = gauges["net.messages_light"]
        update = gauges["net.messages_update"]
        lagging = gauges["pubsub.lagging_subscribers"]
        enter = counters["pubsub.lagging_enter"]
        leave = counters["pubsub.lagging_exit"]
    except KeyError as missing:
        return ["registry lacks %s" % missing]
    kinds = [v for k, v in gauges.items() if k.startswith("net.messages.")]
    reasons = []
    if fired + cancelled != scheduled:
        reasons.append("sim.events_fired + sim.events_cancelled = %s != "
                       "sim.events_scheduled = %s" % (fired + cancelled, scheduled))
    if not kinds:
        reasons.append("registry lacks net.messages.<kind>")
    elif light + update != sum(kinds):
        reasons.append("net.messages_light + net.messages_update = %s != "
                       "sum of net.messages.<kind> = %s" % (light + update, sum(kinds)))
    if lagging != enter - leave:
        reasons.append("pubsub.lagging_subscribers = %s != lagging_enter - "
                       "lagging_exit = %s" % (lagging, enter - leave))
    return reasons


def oracle_error(job):
    half = job["server_ttl_s"] / 2.0
    return abs(job["avg_server_inconsistency_s"] - half) / half


def check_units(records, trace):
    """Returns (units, failures): failures maps unit index -> reasons."""
    units = [r for r in records if r["kind"] in ("job", "study")]
    failures = {}

    def fail(i, reason):
        failures.setdefault(i, []).append(reason)

    reference = {}  # cell -> first digest seen
    for i, unit in enumerate(units):
        if unit.get("error"):
            fail(i, "threw: " + unit["error"])
            continue
        if "digest" not in unit or "metrics" not in unit:
            fail(i, "no result")
            continue
        for reason in identity_failures(unit["metrics"]):
            fail(i, reason)
        cell = unit.get("cell", "study")
        first = reference.setdefault(cell, unit["digest"])
        if unit["digest"] != first:
            fail(i, "digest %s != %s of an earlier run of %s"
                 % (unit["digest"], first, cell))
        if unit.get("ttl_oracle") and oracle_error(unit) > TTL_ORACLE_TOLERANCE:
            fail(i, "TTL/2 oracle error %.4f > %.2f"
                 % (oracle_error(unit), TTL_ORACLE_TOLERANCE))
    if trace:
        jobs = [u for u in units if u["kind"] == "job"]
        for cell in sorted({u["cell"] for u in jobs}):
            kinds = {u["traced"] for u in jobs if u["cell"] == cell}
            if kinds != {True, False}:
                units.append({"kind": "job", "cell": cell})
                fail(len(units) - 1, "no traced/untraced pair for " + cell)
    return units, failures


def _of(records, kind):
    return [r for r in records if r["kind"] == kind]


def _one(records, kind):
    found = _of(records, kind)
    if len(found) != 1:
        raise ValueError("expected one %s line, got %d" % (kind, len(found)))
    return found[0]


def end_to_end(records):
    passes = _of(records, "pass")
    studies = _of(records, "study")
    units = passes or studies
    if not units:
        raise ValueError("no timed pass or study call")
    wall = statistics.median(u["wall_s"] for u in units)
    if passes:
        first = [j for j in _of(records, "job") if j["pass"] == 0]
        replica_s = sum(j["servers"] * j["sim_time_s"] for j in first)
    else:
        s = studies[0]
        replica_s = s["servers"] * s["days"] * s["metrics"]["gauges"]["sim.end_time_s"]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(_one(records, "setup")["total_s"]),
        "peak_rss_mb": _one(records, "end")["peak_rss_mb"],
        "replica_s_per_s": replica_s / wall,
    }


def per_layer(records):
    spans = {}
    for s in _of(records, "span"):
        spans[s["name"]] = spans.get(s["name"], 0.0) + s["end_s"] - s["start_s"]
    traced = [j for j in _of(records, "job") if j["traced"]]
    reference = {}  # cell -> host time of its untraced twin (the last one)
    for j in _of(records, "job"):
        if not j["traced"]:
            reference[j["cell"]] = j["wall_s"]

    def counter(name):
        return sum(j["metrics"]["counters"].get(name, 0) for j in traced)

    def gauge(name):
        return sum(j["metrics"]["gauges"].get(name, 0) for j in traced)

    messages = gauge("net.messages_light") + gauge("net.messages_update")
    live = counter("pubsub.live_deliveries")
    suppressed = counter("pubsub.suppressed_deliveries")
    analysis = _of(records, "analysis")
    rows = sum(a["rows"] for a in analysis)
    setup = _one(records, "setup")
    passes = _of(records, "pass")
    run_s = spans.get("sim.run", 0.0)
    return {
        "sim.run_s": run_s,
        "sim.events": gauge("sim.events_fired"),
        "sim.events_per_s": _ratio(gauge("sim.events_fired"), run_s),
        "sim.queue_peak_depth": max(
            (j["metrics"]["gauges"]["sim.queue_peak_depth"] for j in traced), default=0),
        "sim.cancelled_ratio": _ratio(gauge("sim.events_cancelled"),
                                      gauge("sim.events_scheduled")),
        "consistency.ctor_s": spans.get("consistency.ctor", 0.0),
        "topology.tree_build_s": spans.get("topology.tree_build", 0.0),
        "consistency.prepare_s": spans.get("consistency.prepare", 0.0),
        "consistency.publish_s": spans.get("consistency.publish", 0.0),
        "cdn.user_log_rows": sum(j["user_log_rows"] for j in traced),
        "consistency.collect_s": spans.get("consistency.collect", 0.0),
        "consistency.visits": counter("engine.user_visits"),
        "consistency.poll_useful_ratio": _ratio(
            gauge("net.messages.poll-response-fresh"), gauge("net.messages.poll-request")),
        "net.messages": messages,
        "net.ack_ratio": _ratio(gauge("net.messages.ack"),
                                sum(gauge("net.messages." + k) for k in ACKED_KINDS)),
        "fault.drop_ratio": _ratio(counter("fault.messages_dropped"), messages),
        "reliable.retries": counter("reliable.retries"),
        "reliable.give_ups": counter("reliable.give_ups"),
        "pubsub.live_deliveries": live,
        "pubsub.suppressed_ratio": _ratio(suppressed, live + suppressed),
        "pubsub.catch_up_messages": counter("pubsub.catch_up_messages"),
        "pubsub.skipped_ahead": counter("pubsub.skipped_ahead"),
        "analysis.s": spans.get("analysis", 0.0),
        "analysis.rows": rows,
        "analysis.rows_per_s": _ratio(rows, spans.get("analysis", 0.0)),
        "core.scenario_build_s": statistics.median(setup["scenario_build_s"]),
        "trace.generate_s": statistics.median(setup["trace_generate_s"]),
        "core.batch_overhead_s": sum(p["workers"] * p["wall_s"] - p["job_sum_s"]
                                     for p in passes),
        "trace.overhead_s": sum(j["wall_s"] - reference.get(j["cell"], j["wall_s"])
                                for j in traced),
    }


def accuracy(workload, records):
    """The deterministic accuracy figures (lower is better), by workload."""
    jobs = [j for j in _of(records, "job") if "digest" in j]
    if workload == "paper_eval":
        errors = [oracle_error(j) for j in jobs if j["ttl_oracle"]]
        return {"ttl_oracle_err": max(errors)} if errors else {}
    if workload == "crawl":
        source = _of(records, "study") or _of(records, "analysis")
        inferred = [s["inferred_ttl_s"] for s in source]
        if not inferred:
            return {}
        true_ttl = source[0]["true_ttl_s"]
        return {"ttl_infer_err": abs(statistics.median(inferred) - true_ttl) / true_ttl}
    if workload == "lossy_fanout":
        first = [j for j in jobs if not j["traced"] and j["pass"] == 0]
        if not first:
            return {}
        return {"unconverged_fraction": statistics.mean(
            1.0 - j["converged_server_fraction"] for j in first)}
    return {}


def workload_digest(records):
    """One digest over every cell's result (the first run of each)."""
    seen = {}
    for unit in records:
        if unit["kind"] in ("job", "study") and "digest" in unit:
            seen.setdefault(unit.get("cell", "study"), unit["digest"])
    text = ";".join("%s=%s" % kv for kv in sorted(seen.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summarize(workload, records, trace):
    units, failures = check_units(records, trace)
    metrics = per_layer(records) if trace else end_to_end(records)
    return {
        "attempted": len(units),
        "failed": len(failures),
        "failures": [(units[i].get("cell", "study"), reason)
                     for i in sorted(failures) for reason in failures[i]],
        "metrics": metrics,
        "units": PER_LAYER_UNITS if trace else END_TO_END_UNITS,
        "accuracy": accuracy(workload, records),
        "digest": workload_digest(records),
    }
