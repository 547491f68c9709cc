#!/usr/bin/env python3
"""End-to-end benchmark of the cdnsim library.

Run from the repository root:

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a CMake package over ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs one workload and prints every metric
by name with its unit, the accuracy figures, the workload's result digest,
the host and build fingerprints and the check verdict. The last line of
standard output is one JSON object:

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--record-out FILE also writes the full record (fingerprints included);
--baseline FILE compares this run with such a record, and says "no comparable
baseline" when the host or build fingerprints differ. --source DIR builds the
library sources of another checkout (ab.py uses it).

Exit codes: 0 with a result, 1 when the program cannot be built or run.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import evaluate  # noqa: E402

WORKLOADS = ("paper_eval", "crawl", "lossy_fanout")
# The seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 90125
BUILD_TYPE = "Release"
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest(source):
    """sha256 over the library sources and the benchmark's own C++ files."""
    h = hashlib.sha256()
    for root in (source, HERE):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "machine": platform.machine()}


def build_fingerprint(build_dir, source):
    compiler = "unknown"
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            text = f.read()
        path = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", text, re.M)
        if path:
            out = subprocess.run([path.group(1), "--version"], capture_output=True,
                                 text=True).stdout
            compiler = out.splitlines()[0] if out else path.group(1)
    commit = "unknown"
    checkout = os.path.dirname(source)
    if os.path.isdir(os.path.join(checkout, ".git")):
        out = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "commit": commit,
        "source": source_digest(source),
    }


def comparable(a, b):
    """Same host, compiler and build type (commits may differ)."""
    return a["host"] == b["host"] and all(
        a["build"][k] == b["build"][k] for k in ("compiler", "build_type"))


def build(source, build_dir):
    if not os.path.exists(os.path.join(source, "CMakeLists.txt")):
        fail("no library sources at " + source)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
             "-DCDNSIM_SRC=" + source],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                          stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "cdnsim_perfbench")


def run_program(binary, args):
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("benchmark program exited with %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def report(args, record, baseline):
    s = record["summary"]
    print("perfbench %s seed=%d seconds=%s trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(record["host"], sort_keys=True))
    print("build: " + json.dumps(record["build"], sort_keys=True))
    for name, value in s["metrics"].items():
        print("metric %s = %s %s" % (name, fmt(value), s["units"][name]))
    for name, value in s["accuracy"].items():
        print("accuracy %s = %s ratio" % (name, fmt(value)))
    print("failed_fraction = %s ratio (%d of %d units)" % (
        fmt(s["failed"] / s["attempted"]), s["failed"], s["attempted"]))
    print("digest %s seed %d: %s" % (args.workload, args.seed, s["digest"]))
    for cell, reason in s["failures"]:
        print("FAILED %s: %s" % (cell, reason))
    print("checks: %s" % ("PASS" if s["failed"] == 0 else "FAIL"))
    if baseline is not None:
        if not comparable(record, baseline) or baseline["workload"] != args.workload:
            print("baseline: no comparable baseline")
        else:
            for name, value in s["metrics"].items():
                base = baseline["summary"]["metrics"].get(name)
                if base:
                    print("baseline %s: %s -> %s (%+.1f%%)" % (
                        name, fmt(base), fmt(value), 100.0 * (value - base) / base))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--source", default=os.path.join(HERE, os.pardir, "src"))
    parser.add_argument("--build-dir",
                        default=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    parser.add_argument("--record-out")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    source = os.path.abspath(args.source)
    build_dir = os.path.abspath(args.build_dir)
    binary = build(source, build_dir)
    records = run_program(binary, args)
    try:
        summary = evaluate.summarize(args.workload, records, args.trace == 1)
    except (KeyError, ValueError) as e:
        fail("malformed program output: %r" % (e,))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "build": build_fingerprint(build_dir, source),
        "summary": summary,
    }
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    report(args, record, baseline)
    if args.record_out:
        with open(args.record_out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    units = summary["units"]
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in summary["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
