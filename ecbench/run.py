#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source, runs one
workload, checks its outputs and prints the result as the last line of
stdout.

    python3 ecbench/run.py --workload thr-open --seed 3 --seconds 20 --trace 0

Run from the repository root. --trace 0 reports the end-to-end metrics
named in BENCHMARK.json, --trace 1 the per-layer ones (ladder, host counts,
traced critical-path pass). Any failed check, broken conservation ledger,
golden mismatch or missing metric makes the run exit non-zero.

    python3 ecbench/run.py --record-goldens 0-100

re-records the sim-sweep goldens (simulated commit and message counts per
seed) into ecbench/goldens.json; do that only when a change to the
simulator's semantics is intended.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")
WORKLOADS = ("sim-sweep", "thr-closed", "thr-open", "sock-open")
RUN_TIMEOUT_S = 170


def format_metric_line(name, value, unit, samples):
    """The binary's metric record (mirrors EmitMetric in main.cc)."""
    return "metric %s %r %s %d" % (name, value, unit, samples)


def parse_lines(lines):
    """Parses the binary's line protocol (see common.h)."""
    out = {"metrics": {}, "checks": [], "ledgers": [], "goldens": {},
           "count": None}
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "metric" and len(parts) == 5:
            out["metrics"][parts[1]] = (float(parts[2]), parts[3],
                                        int(parts[4]))
        elif kind == "check" and len(parts) >= 3:
            out["checks"].append((parts[1], parts[2] == "ok",
                                  " ".join(parts[3:])))
        elif kind == "ledger" and len(parts) == 6:
            fields = dict(p.split("=", 1) for p in parts[2:])
            out["ledgers"].append(
                (parts[1], {k: int(v) for k, v in fields.items()}))
        elif kind == "golden" and len(parts) == 4:
            out["goldens"].setdefault(parts[1], {})[parts[2]] = int(parts[3])
        elif kind == "count" and len(parts) == 3:
            out["count"] = (int(parts[1]), int(parts[2]))
    return out


def verify(parsed, expected, goldens):
    """Returns every reason the run is not correct (empty when it is).

    `expected` maps each metric the mode must report to whether it must be
    positive (end-to-end metrics are never 0); `goldens` maps seeds to the
    recorded sim-sweep counts.
    """
    failures = []
    for name, ok, detail in parsed["checks"]:
        if not ok:
            failures.append("check %s failed: %s" % (name, detail))
    for label, ledger in parsed["ledgers"]:
        closed = (ledger["committed"] + ledger["rejected"] +
                  ledger["taborted"])
        if ledger["offered"] != closed:
            failures.append(
                "conservation violated in %s: offered %d != committed %d + "
                "rejected %d + terminal aborts %d" %
                (label, ledger["offered"], ledger["committed"],
                 ledger["rejected"], ledger["taborted"]))
    for seed, counts in parsed["goldens"].items():
        recorded = goldens.get(seed)
        if recorded is not None and recorded != counts:
            failures.append("sim-sweep seed %s differs from its golden: %s "
                            "vs recorded %s" % (seed, counts, recorded))
    for name, positive in expected.items():
        got = parsed["metrics"].get(name)
        if got is None:
            failures.append("metric %s missing" % name)
        elif not math.isfinite(got[0]) or (positive and got[0] <= 0):
            failures.append("metric %s has value %r" % (name, got[0]))
    if parsed["count"] is None or parsed["count"][0] < 1:
        failures.append("no operations attempted")
    return failures


def result(parsed, expected, units, failures):
    attempted, failed = parsed["count"] or (0, 0)
    metrics = {}
    for name in expected:
        if name in parsed["metrics"]:
            metrics[name] = {"value": parsed["metrics"][name][0],
                             "unit": units[name]}
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def load_spec(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: not trace for m in group}
    units = {m["name"]: m["unit"] for m in group}
    return expected, units


def load_goldens():
    if not os.path.exists(GOLDENS):
        return {}
    with open(GOLDENS) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(os.path.dirname(HERE), "src",
                                       "CMakeLists.txt")):
        sys.exit("ecbench: program sources (src/) not found next to ecbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("ecbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "ecbench")


def run_binary(binary, args):
    """Runs the binary in its own process group, so a timeout also stops
    every node process it spawned. Returns its stdout lines."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("ecbench: benchmark binary timed out after %d s" %
                 RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        sys.exit("ecbench: benchmark binary exited with %d" % proc.returncode)
    return stdout.splitlines()


def record_goldens(binary, seeds):
    goldens = load_goldens()
    for seed in seeds:
        parsed = parse_lines(run_binary(binary, ["--record-golden", str(seed)]))
        goldens.update(parsed["goldens"])
        print("seed %d: %s" % (seed, parsed["goldens"][str(seed)]))
    with open(GOLDENS, "w") as f:
        json.dump({k: goldens[k] for k in sorted(goldens, key=int)}, f,
                  indent=1)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-goldens", metavar="FIRST-LAST")
    args = p.parse_args()
    if not args.record_goldens and not args.workload:
        p.error("--workload is required")

    binary = build()
    if args.record_goldens:
        first, last = (int(x) for x in args.record_goldens.split("-"))
        record_goldens(binary, range(first, last + 1))
        return 0

    expected, units = load_spec(args.trace)
    goldens = load_goldens()
    scratch = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    try:
        lines = run_binary(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", scratch])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in lines:
        print(line)
    parsed = parse_lines(lines)
    failures = verify(parsed, expected, goldens)
    if parsed["goldens"] and str(args.seed) not in goldens:
        print("# no recorded golden for seed %d: sim-sweep determinism was "
              "checked across rounds only" % args.seed)
    for f in failures:
        print("# FAILED: " + f)
    print(json.dumps(result(parsed, expected, units, failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
