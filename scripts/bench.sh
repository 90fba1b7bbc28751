#!/usr/bin/env bash
# The benchmark pipeline: builds once, runs five steps and writes one
# snapshot (BENCH_pr<N>.json; the earlier ones are the perf trajectory):
#
#   pbench       one `pbench measure` per BENCHMARK.json workload, as
#                `pbench run` makes them, stored as the document it
#                writes: medians, quartiles, counts, digests and host
#                regime of all five workloads
#   paper_bins   wall seconds and exit status of each paper bin at the
#                paper's 1000 runs, run from target/release, with nproc
#                and /proc/loadavg before and after the loop
#   grid_json    bench_grid's and bench_service's GRID_JSON records,
#                verbatim, keyed by name (the deterministic headlines:
#                VR runs to a ±1% CI, adaptive runs saved, prefilter
#                prune rate, cache hit rate)
#   nontest_loc  scripts/loc.sh's LOC_JSON
#   compare      `pbench compare` of a baseline run against this one,
#                under BENCHMARK.json's bounds. The baseline is the
#                newest earlier BENCH_pr<N>.json that holds a "pbench"
#                run or, with --parent DIR, DIR's pbench run in step 1 of
#                this invocation, each workload right before or after the
#                tree's (the parent first on every other workload), so
#                that both runs meet the same host. The step reads its
#                rows: a
#                `worse` or `missing` row fails it, and so does a count
#                that `differs` unless it is named on the command line as
#                an expected move (WORKLOAD/COUNT, e.g.
#                lanl_panel/events_per_lane_run), and a named count that
#                reads `same`. The snapshot records the names and the
#                baseline (with --parent, the parent's commit and run).
#
# Every step runs even when an earlier one fails. The snapshot records
# each step's exit status and is written either way; the script then
# exits non-zero naming the failed steps. Every number is taken at the
# defaults, so the script refuses to start while any PCKPT_* variable
# is set.
#
# DIR for --parent is a checkout (the parent commit, say) whose pbench
# is already built (cargo build --release --offline --manifest-path
# crates/bench/pbench/Cargo.toml inside it).
#
# Usage: scripts/bench.sh [--parent DIR] OUT.json [WORKLOAD/COUNT ...]
set -uo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/bench.sh [--parent DIR] OUT.json [WORKLOAD/COUNT ...]" >&2
    exit 2
}
PARENT=
PARENT_DESC=
if [ "${1:-}" = --parent ]; then
    [ $# -ge 2 ] || usage
    PARENT=$(cd "$2" && pwd -P) || usage
    shift 2
    if [ ! -x "$PARENT/crates/bench/pbench/target/release/pbench" ]; then
        echo "bench.sh: $PARENT/crates/bench/pbench/target/release/pbench is missing;" \
            "build pbench there first" >&2
        exit 2
    fi
    PARENT_DESC="parent $(git -C "$PARENT" rev-parse HEAD 2>/dev/null || echo "checkout (no git)")"
fi
[ $# -ge 1 ] || usage
OUT=$1
shift
for moved in "$@"; do
    [[ $moved =~ ^[a-z0-9_]+/[a-z0-9_]+$ ]] || usage
done

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
PARENT_RUN=$PWD/target/pbench/bench-parent-run.json

# step NAME STATUS: appends one step's exit status to the status log.
step() { echo "$1 $2" >> "$LOG/steps"; }

echo
echo "== [1/5] pbench measure, workload by workload =="
rm -f "$RUN" "$PARENT_RUN"
mapfile -t WORKLOADS < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
# measure SIDE DIR EXE W: EXE (relative to DIR) measures workload W in
# DIR; its stdout and exit status are kept for collect.
measure() {
    echo "-- $1: $4 --"
    (cd "$2" && "$3" measure --workload "$4" --trace 0) > "$LOG/$1.$4.out"
    echo $? > "$LOG/$1.$4.status"
}
for i in "${!WORKLOADS[@]}"; do
    w=${WORKLOADS[$i]}
    [ -n "$PARENT" ] && [ $((i % 2)) -eq 1 ] &&
        measure parent "$PARENT" crates/bench/pbench/target/release/pbench "$w"
    measure tree . "$PBENCH" "$w"
    [ -n "$PARENT" ] && [ $((i % 2)) -eq 0 ] &&
        measure parent "$PARENT" crates/bench/pbench/target/release/pbench "$w"
done
# collect SIDE OUT: writes SIDE's DETAIL lines to OUT as the document
# `pbench run` writes; fails if a run exited non-zero, printed no DETAIL
# line or was not correct.
collect() {
    python3 - "$LOG" "$1" "$2" "${WORKLOADS[@]}" <<'PYEOF'
import json
import os
import sys

log, side, out = sys.argv[1:4]
details, ok = [], True
for w in sys.argv[4:]:
    path = os.path.join(log, f"{side}.{w}")
    with open(path + ".status") as f:
        status = int(f.read())
    with open(path + ".out") as f:
        detail = next((l[len("DETAIL "):] for l in f.read().splitlines()
                       if l.startswith("DETAIL ")), None)
    correct = detail is not None and json.loads(detail).get("correct") is True
    if status != 0 or not correct:
        print(f"bench.sh: {side} {w}: exit {status}, "
              + ("not correct" if detail else "no DETAIL line"))
        ok = False
    if detail is not None:
        details.append(detail)
seed = json.loads(details[0])["seed"] if details else None
os.makedirs(os.path.dirname(out), exist_ok=True)
with open(out, "w") as f:
    f.write(f'{{"seed":{json.dumps(seed)},"quick":false,"workloads":[{",".join(details)}]}}\n')
sys.exit(0 if ok else 1)
PYEOF
}
collect tree "$RUN"
step pbench $?
if [ -n "$PARENT" ]; then
    collect parent "$PARENT_RUN"
    step parent_pbench $?
fi

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
if [ -n "$PARENT" ]; then
    echo "== [5/5] pbench compare against the parent's run =="
else
    echo "== [5/5] pbench compare against the previous snapshot =="
fi
python3 - "$LOG" "$RUN" "$OUT" "$PBENCH" "$PARENT_DESC" "$PARENT_RUN" "$@" <<'PYEOF'
import json
import os
import re
import subprocess
import sys

log, run_path, out_path, pbench, parent_desc, parent_run = sys.argv[1:7]
expected = sys.argv[7:]


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

# The baseline: with --parent, the parent checkout's run from step 1;
# otherwise the newest BENCH_pr<N>.json holding a pbench run, older than
# OUT when OUT is itself a BENCH_pr<N>.json.
def pr_number(path):
    m = re.fullmatch(r"BENCH_pr(\d+)\.json", os.path.basename(path))
    return int(m.group(1)) if m else None

baseline = None
if parent_desc:
    if os.path.exists(parent_run):
        with open(parent_run) as f:
            baseline = (parent_desc, json.load(f))
else:
    limit = pr_number(out_path)
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

compare = {
    "baseline": baseline[0] if baseline else None,
    "report": None,
    "expected_count_moves": expected,
}
if parent_desc:
    compare["baseline_run"] = baseline[1] if baseline else None
if parent_desc and baseline is None:
    compare["verdict"] = "no parent run"
    steps["compare"] = 1
elif baseline is None:
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
    # One row per WORKLOAD METRIC VERDICT ...; the first line is the header.
    rows = {}
    for line in res.stdout.splitlines()[1:]:
        fields = line.split()
        if len(fields) >= 3:
            rows[f"{fields[0]}/{fields[1]}"] = fields[2]
    problems = [] if rows else [f"pbench compare printed no rows (exit {res.returncode})"]
    for key, verdict in rows.items():
        if verdict in ("worse", "missing"):
            problems.append(f"{key} reads {verdict}")
        elif verdict == "differs" and key not in expected:
            problems.append(f"{key} differs but was not named as an expected move")
    for key in expected:
        if rows.get(key) != "differs":
            problems.append(f"{key} was named as an expected move but reads "
                            f"{rows.get(key, 'no row')}")
    for problem in problems:
        print(f"compare: {problem}")
    compare["problems"] = problems
    compare["verdict"] = "worse" if problems else "no worse"
    steps["compare"] = 1 if problems else 0
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
