#!/usr/bin/env bash
# The benchmark pipeline: builds once, runs five steps and writes one
# snapshot (BENCH_pr<N>.json; the earlier ones are the perf trajectory):
#
#   pbench       `pbench run`, stored verbatim: medians, quartiles,
#                counts, digests and host regime of all five workloads
#   paper_bins   wall seconds and exit status of each paper bin at the
#                paper's 1000 runs, run from target/release, with nproc
#                and /proc/loadavg before and after the loop
#   grid_json    bench_grid's and bench_service's GRID_JSON records,
#                verbatim, keyed by name (the deterministic headlines:
#                VR runs to a ±1% CI, adaptive runs saved, prefilter
#                prune rate, cache hit rate)
#   nontest_loc  scripts/loc.sh's LOC_JSON
#   compare      `pbench compare` of the newest earlier BENCH_pr<N>.json
#                that holds a "pbench" run against this one, under
#                BENCHMARK.json's bounds; a worse row fails the step
#
# Every step runs even when an earlier one fails. The snapshot records
# each step's exit status and is written either way; the script then
# exits non-zero naming the failed steps. Every number is taken at the
# defaults, so the script refuses to start while any PCKPT_* variable
# is set.
#
# Usage: scripts/bench.sh OUT.json
set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench.sh OUT.json" >&2
    exit 2
fi
OUT=$1

knobs=$(compgen -e | grep '^PCKPT_' | tr '\n' ' ')
if [ -n "$knobs" ]; then
    echo "bench.sh: refusing to run with ${knobs% } set; unset them first" >&2
    exit 2
fi

echo "== build =="
cargo build --release -q --offline -p pckpt-bench || exit 1
cargo build --release -q --offline --manifest-path crates/bench/pbench/Cargo.toml || exit 1
REL=${CARGO_TARGET_DIR:-target}/release
PBENCH=${CARGO_TARGET_DIR:-crates/bench/pbench/target}/release/pbench

LOG=$(mktemp -d)
trap 'rm -rf "$LOG"' EXIT
RUN=target/pbench/bench-run.json

# step NAME STATUS: appends one step's exit status to the status log.
step() { echo "$1 $2" >> "$LOG/steps"; }

echo
echo "== [1/5] pbench run =="
rm -f "$RUN"
"$PBENCH" run --out "$RUN"
step pbench $?

echo
echo "== [2/5] paper bins at 1000 runs =="
nproc > "$LOG/nproc"
cat /proc/loadavg > "$LOG/loadavg_before"
bins_status=0
for bin in exp_fig4 exp_table2 exp_table4 exp_fig6a exp_fig6b exp_fig6c exp_fig7 exp_fig8; do
    start=$(date +%s%N)
    "$REL/$bin" > "$LOG/$bin.out" 2>&1
    status=$?
    end=$(date +%s%N)
    wall=$(awk -v ns=$((end - start)) 'BEGIN { printf "%.3f", ns / 1e9 }')
    printf '  %-11s %8s s  exit %d\n' "$bin" "$wall" "$status"
    echo "$bin $wall $status" >> "$LOG/paper_bins"
    if [ "$status" -ne 0 ]; then
        tail -5 "$LOG/$bin.out"
        bins_status=1
    fi
done
cat /proc/loadavg > "$LOG/loadavg_after"
step paper_bins $bins_status

echo
echo "== [3/5] bench_grid and bench_service =="
for bin in bench_grid bench_service; do
    "$REL/$bin" 2>&1 | tee -a "$LOG/grid.out"
    step "$bin" "${PIPESTATUS[0]}"
done

echo
echo "== [4/5] non-test lines of code =="
scripts/loc.sh | tee "$LOG/loc.out"
step loc "${PIPESTATUS[0]}"

echo
echo "== [5/5] pbench compare against the previous snapshot =="
python3 - "$LOG" "$RUN" "$OUT" "$PBENCH" <<'PYEOF'
import json
import os
import re
import subprocess
import sys

log, run_path, out_path, pbench = sys.argv[1:5]


def lines(name):
    path = os.path.join(log, name)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return f.read().splitlines()


def tagged(name, tag):
    return [json.loads(l[len(tag):]) for l in lines(name) if l.startswith(tag)]


steps = {name: int(status) for name, status in (l.split() for l in lines("steps"))}

doc = {"pbench": None}
if os.path.exists(run_path):
    with open(run_path) as f:
        doc["pbench"] = json.load(f)

loadavg = lambda name: [float(x) for x in lines(name)[0].split()[:3]]
bins = {}
for l in lines("paper_bins"):
    name, wall, status = l.split()
    bins[name] = {"wall_secs": float(wall), "status": int(status)}
doc["paper_bins"] = {
    "runs": 1000,
    "host": {
        "nproc": int(lines("nproc")[0]),
        "loadavg_before": loadavg("loadavg_before"),
        "loadavg_after": loadavg("loadavg_after"),
    },
    "bins": bins,
    "total_wall_secs": round(sum(b["wall_secs"] for b in bins.values()), 3),
}
doc["grid_json"] = {rec["name"]: rec for rec in tagged("grid.out", "GRID_JSON ")}
loc = tagged("loc.out", "LOC_JSON ")
doc["nontest_loc"] = loc[0] if loc else None

# The baseline: the newest BENCH_pr<N>.json holding a pbench run, older
# than OUT when OUT is itself a BENCH_pr<N>.json.
def pr_number(path):
    m = re.fullmatch(r"BENCH_pr(\d+)\.json", os.path.basename(path))
    return int(m.group(1)) if m else None

limit = pr_number(out_path)
baseline = None
candidates = sorted(
    (n, f) for f in os.listdir(".")
    if (n := pr_number(f)) is not None and (limit is None or n < limit)
)
for _, name in reversed(candidates):
    with open(name) as f:
        prev = json.load(f)
    if prev.get("pbench"):
        baseline = (name, prev["pbench"])
        break

compare = {"baseline": baseline[0] if baseline else None, "report": None}
if baseline is None:
    compare["verdict"] = "no baseline"
    steps["compare"] = 0
elif doc["pbench"] is None:
    compare["verdict"] = "no run to compare"
    steps["compare"] = 1
else:
    base_path = os.path.join(log, "baseline-run.json")
    with open(base_path, "w") as f:
        json.dump(baseline[1], f)
    res = subprocess.run([pbench, "compare", base_path, run_path],
                         capture_output=True, text=True)
    print(res.stdout + res.stderr, end="")
    compare["report"] = res.stdout + res.stderr
    compare["verdict"] = "worse" if res.returncode else "no worse"
    steps["compare"] = res.returncode
print(f"compare: {compare['verdict']}"
      + (f" (baseline {baseline[0]})" if baseline else ""))
doc["compare"] = compare
doc["steps"] = steps
failed = [name for name, status in steps.items() if status != 0]
doc["failed_steps"] = failed

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")

print(f"\nwrote {out_path}")
if doc["pbench"]:
    for w in doc["pbench"]["workloads"]:
        m = w["metrics"]
        value = lambda k: m[k]["value"] if k in m else float("nan")
        print(f"  pbench {w['workload']:<15} op_p50_ms {value('op_p50_ms'):>9.2f}  "
              f"lane_runs_per_s {value('lane_runs_per_s'):>9.0f}  "
              f"correct {str(w['correct']).lower()}  failed {w['failed']}")
host = doc["paper_bins"]["host"]
print(f"  paper bins total {doc['paper_bins']['total_wall_secs']:.1f} s "
      f"(nproc {host['nproc']}, loadavg {host['loadavg_before'][0]} -> "
      f"{host['loadavg_after'][0]})")
for name, b in bins.items():
    print(f"    {name:<11} {b['wall_secs']:>8.3f} s  exit {b['status']}")
print(f"  grid_json {len(doc['grid_json'])} records: {', '.join(doc['grid_json'])}")
grids = doc["grid_json"]
for rec, key in (("variance_reduction_fig4", "variance_reduction_speedup"),
                 ("variance_reduction_fig4", "adaptive_runs_saved_pct"),
                 ("grid_prefilter_pop", "prune_rate"),
                 ("service_cache_fig4", "cache_hit_rate"),
                 ("service_cache_fig4", "cache_hit_speedup")):
    if key in grids.get(rec, {}):
        print(f"    {rec}.{key}: {grids[rec][key]}")
if doc["nontest_loc"]:
    print(f"  nontest_loc (total): {doc['nontest_loc']['total']}")
print(f"  compare: {compare['verdict']}")
if failed:
    print(f"bench.sh: failed steps: {', '.join(failed)}")
    sys.exit(1)
print("bench.sh: all steps passed")
PYEOF
