#!/usr/bin/env bash
# aa.sh — A/A check: two interleaved sets of runs of the same commit.
#
#   benchmark/aa.sh            # 5 runs per set and workload (seeds 1..5)
#   RUNS=10 benchmark/aa.sh    # what the acceptance check uses
#   WORKLOADS="mesh-chain" RUNS=10 benchmark/aa.sh
#
# For every workload × end-to-end metric it prints both sets' medians and
# quartiles, each set's spread (IQR / median, quartiles as Python's
# statistics.quantiles(n=4) gives them) and the relative difference of
# the medians, and exits non-zero if a spread or a difference exceeds the
# metric's bound in BENCHMARK.json. One traced run per set checks that
# the exact-count layer metrics repeat. Raw result lines are kept in
# benchmark/out/aa/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
runs=${RUNS:-5}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=${WORKLOADS:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}
dir=benchmark/out/aa
rm -rf "$dir"
mkdir -p "$dir"

for w in $workloads; do
    for i in $(seq 1 "$runs"); do
        for set in a b; do
            echo "aa: $w set $set run $i/$runs (seed $i)" >&2
            benchmark/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1 >>"$dir/$w.$set.e2e"
        done
    done
    for set in a b; do
        echo "aa: $w set $set traced run" >&2
        benchmark/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 | tail -n 1 >"$dir/$w.$set.layers"
    done
done

WORKLOADS="$workloads" python3 - "$dir" <<'PY'
import json, os, statistics, sys

d = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
# Layer metrics that are counts of what the workload is built to cause:
# they must repeat exactly. Wire bytes per tick repeat to the fourth
# digit (the tick count of a timed run varies, and with it which jitter
# draws are encoded).
exact = ["dataplane.passes_per_req", "dataplane.spans_per_req", "core.subsolves",
         "core.skipped", "core.skip_ratio", "simrun.events_per_req",
         "simrun.par_windows", "simrun.par_messages", "simrun.spans_per_req"]
close = {"controlplane.wire_kb_per_tick": 0.002, "routing.patch_bytes": 0.02}
bad = 0

def load(path):
    return [json.loads(l) for l in open(path) if l.strip()]

def spread(v):
    if len(v) < 2:
        return 0.0, v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v), q[0], q[2]

print("%-12s %-15s %12s %12s %8s %8s %8s %6s" % ("workload", "metric", "median a", "median b", "spread a", "spread b", "diff", "bound"))
for w in os.environ["WORKLOADS"].split():
    a, b = load(f"{d}/{w}.a.e2e"), load(f"{d}/{w}.b.e2e")
    for r in a + b:
        if not r["correct"] or r["failed"]:
            print(f"{w}: a run reported correct={r['correct']} failed={r['failed']}")
            bad += 1
    for m in bench["end_to_end"]:
        va = [r["metrics"][m["name"]]["value"] for r in a]
        vb = [r["metrics"][m["name"]]["value"] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        sa, sb = spread(va)[0], spread(vb)[0]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = ""
        if abs(worse) > m["bound"]:
            flag += " DIFF"
        if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
            flag += " SPREAD"
        if flag:
            bad += 1
        print("%-12s %-15s %12.5g %12.5g %8.3f %8.3f %+8.3f %6.2f%s" % (w, m["name"], ma, mb, sa, sb, worse, m["bound"], flag))
    la, lb = load(f"{d}/{w}.a.layers")[0], load(f"{d}/{w}.b.layers")[0]
    for r in (la, lb):
        if not r["correct"] or r["failed"]:
            print(f"{w}: a traced run reported correct={r['correct']} failed={r['failed']}")
            bad += 1
    for name in exact + list(close):
        x, y = la["metrics"][name]["value"], lb["metrics"][name]["value"]
        tol = close.get(name, 0.0)
        if abs(x - y) > tol * max(abs(x), abs(y)):
            print(f"{w}: layer count {name} does not repeat: {x} vs {y}")
            bad += 1
print("aa: %s" % ("FAILED (%d)" % bad if bad else "ok"))
sys.exit(1 if bad else 0)
PY
