#!/usr/bin/env bash
# A/B-compare two revisions on the repository benchmark (ecbench).
#
#   scripts/ab.sh [-n PAIRS] [-s SECONDS] BASE CHANGE WORKLOAD [WORKLOAD...]
#
#   scripts/ab.sh HEAD~1 HEAD thr-closed sim-sweep
#
# Checks BASE and CHANGE out into temporary git worktrees and builds each
# one's ecbench. Then, per workload, it runs
# `python3 ecbench/run.py --workload W --seed I --seconds S` from each tree
# PAIRS times in alternating order: pair 1 runs BASE then CHANGE, pair 2
# CHANGE then BASE, and so on, so slow drift on the machine hits both sides
# alike. Both runs of pair I use seed I.
#
# For every end-to-end metric in BENCHMARK.json it prints both medians, the
# base's interquartile spread (IQR / median), how many pairs CHANGE won, and
# the median of the per-pair CHANGE/BASE ratios with a bootstrap 95%
# interval. A metric is flagged better or worse only when that interval
# excludes 1; otherwise it reads "same".
#
# PAIRS defaults to 10 and SECONDS to BENCHMARK.json's run_seconds. Every
# run's metrics go to stderr as they finish. Exits non-zero if a run fails
# its checks. Worktrees live under ${TMPDIR:-/tmp} and are removed on exit.

set -euo pipefail

usage() {
  sed -n '3,5p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

pairs=10
seconds=""
while getopts "n:s:h" opt; do
  case "$opt" in
    n) pairs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[ $# -ge 3 ] && [ "$pairs" -ge 2 ] || usage
base_rev="$1" change_rev="$2"
shift 2
workloads=("$@")

repo="$(git rev-parse --show-toplevel)"
spec="$repo/BENCHMARK.json"
if [ -z "$seconds" ]; then
  seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")"
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
cleanup() {
  for side in base change; do
    [ -d "$work/$side" ] && git -C "$repo" worktree remove --force "$work/$side"
  done
  git -C "$repo" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT

for side in base change; do
  rev="$base_rev"
  [ "$side" = change ] && rev="$change_rev"
  git -C "$repo" worktree add --detach --quiet "$work/$side" "$rev"
  echo "ab: $side = $(git -C "$work/$side" rev-parse --short HEAD) ($rev)" >&2
  # The same configure and build run.py does, done up front so every
  # measured run starts from a built binary.
  cmake -S "$work/$side/ecbench" -B "$work/$side/.bench_build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$work/$side/.bench_build" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))" > /dev/null
done

# One line per run: workload side pair metric=value ...
results="$work/results.txt"
run_one() {  # workload side pair
  local log="$work/run.log"
  (cd "$work/$2" && CARGO_TARGET_DIR="$work/$2/.bench_build" \
    python3 ecbench/run.py --workload "$1" --seed "$3" --seconds "$seconds") \
    > "$log" 2>&1 || tail -n 20 "$log" >&2
  python3 - "$1" "$2" "$3" "$(tail -n 1 "$log")" >> "$results" <<'EOF'
import json, sys
workload, side, pair, line = sys.argv[1:]
try:
    res = json.loads(line)
except ValueError:
    sys.exit("ab: %s run of %s (pair %s) printed no result" % (side, workload, pair))
if not res.get("correct"):
    sys.exit("ab: %s run of %s (pair %s) failed its checks" % (side, workload, pair))
vals = " ".join("%s=%r" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))
print(workload, side, pair, vals)
print("ab: %s pair %s %-6s %s" % (workload, pair, side, vals), file=sys.stderr)
EOF
}

for w in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(base change); else order=(change base); fi
    for side in "${order[@]}"; do run_one "$w" "$side" "$i"; done
  done
done

python3 - "$spec" "$results" "$pairs" "$seconds" <<'EOF'
import json, random, statistics, sys

spec = json.load(open(sys.argv[1]))
pairs, seconds = int(sys.argv[3]), sys.argv[4]
runs = {}  # (workload, side) -> {pair: {metric: value}}
order = []
for line in open(sys.argv[2]):
    workload, side, pair, *kv = line.split()
    if workload not in order:
        order.append(workload)
    runs.setdefault((workload, side), {})[int(pair)] = {
        k: float(v) for k, v in (x.split("=", 1) for x in kv)}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def ratio(c, b):
    return c / b if b else (1.0 if c == b else float("inf"))


rng = random.Random(1)
print("%d pairs, --seconds %s; ratio = CHANGE/BASE, median of per-pair "
      "ratios, bootstrap 95%% interval" % (pairs, seconds))
print("%-10s %-16s %12s %12s %8s %6s %7s %16s  %s" %
      ("workload", "metric", "base", "change", "base_iqr", "wins", "ratio",
       "95% interval", "verdict"))
for workload in order:
    base, change = runs[(workload, "base")], runs[(workload, "change")]
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        b = [base[i][name] for i in sorted(base)]
        c = [change[i][name] for i in sorted(base)]
        ratios = [ratio(y, x) for x, y in zip(b, c)]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        boot = sorted(
            statistics.median(rng.choices(ratios, k=len(ratios)))
            for _ in range(10000))
        lo, hi = boot[249], boot[9749]
        q1, q3 = quartiles(b)
        mb = statistics.median(b)
        spread = (q3 - q1) / mb if mb else 0.0
        verdict = "same"
        if lo > 1 or hi < 1:
            verdict = "better" if (lo > 1) == higher else "worse"
        print("%-10s %-16s %12.6g %12.6g %7.1f%% %3d/%-2d %7.3f [%6.3f, %6.3f]  %s"
              % (workload, name, mb, statistics.median(c), 100 * spread,
                 wins, len(b), statistics.median(ratios), lo, hi, verdict))
EOF
