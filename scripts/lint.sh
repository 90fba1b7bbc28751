#!/usr/bin/env bash
# The single tier-1 gate: determinism lint, release build, test suite,
# and the bench, service and bad-knob smokes.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== simlint =="
# Machine-readable report is the CI artifact: archived whether or not
# findings exist (|| true keeps the artifact on failure; the smoke below
# re-asserts zero findings and fails the gate if any slipped through).
mkdir -p target/ci
cargo run -q -p simlint -- --json > target/ci/simlint-report.json || true
python3 -c '
import json
rec = json.load(open("target/ci/simlint-report.json"))
lines = ["{}:{}: [{}] {}".format(f["path"], f["line"], f["rule"], f["message"])
         for f in rec["findings"]]
assert rec["count"] == 0 and not lines, "simlint findings:\n" + "\n".join(lines)
print("simlint clean ({} files, report: target/ci/simlint-report.json)".format(rec["files"]))
'

echo "== release build =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== bench smoke (1-run Fig. 4 bin) =="
# One Monte-Carlo run per cell through a paper bin: proves the obs
# METRICS_JSON lines stay parseable and their counts consistent without
# paying for a full benchmark session. 15 cells x [B, M1, M2] = 45
# lanes, one run each. A checkpoint cycle (start, BB write and drain) is
# made of instants CrSim keeps out of the queue, so events handled per BB
# checkpoint stay under 0.25 (about 0.024 here: the failures, the
# predictions and the migrations they start); a cycle back on the queue,
# one event each, would read about 1.05.
PCKPT_RUNS=1 cargo run --release -q -p pckpt-bench --bin exp_fig4 \
    | python3 -c '
import json, sys
seen = {}
for line in sys.stdin:
    if line.startswith("METRICS_JSON "):
        rec = json.loads(line[len("METRICS_JSON "):])
        seen[rec["name"]] = rec
obs, grid = seen.get("fig4"), seen.get("fig4_grid")
assert obs and grid, f"expected fig4 and fig4_grid METRICS_JSON lines, saw {sorted(seen)}"
assert obs["runs"] == 45 and obs["events_handled"] > 0, obs
assert obs["events_scheduled"] >= obs["events_handled"], obs
assert grid["cells"] == 15 and grid["lanes"] == 45, grid
per_ckpt = obs["events_handled"] / obs["lat_bb_ns"]["count"]
assert per_ckpt < 0.25, f"{per_ckpt:.3f} events handled per BB checkpoint (limit 0.25)"
print("bench smoke ok (fig4: 45 runs, {} events handled, {:.3f} per BB checkpoint)".format(
    obs["events_handled"], per_ckpt))
'

echo "== bench smoke (1-run fluid campaign) =="
# The same gate in fluid PFS mode: CHIMERA, XGC and POP under all five
# models, one run each. Fluid cycles are kept out of the queue like the
# analytic ones, a drain that has the link to itself included, so the
# limit is the same 0.25 (about 0.054 here; only a drain sharing the link
# costs a PfsTick); a cycle back on the queue would read about 1.05.
PCKPT_RUNS=1 cargo run --release -q -p pckpt-bench --bin exp_fluid \
    | python3 -c '
import json, sys
seen = {}
for line in sys.stdin:
    if line.startswith("METRICS_JSON "):
        rec = json.loads(line[len("METRICS_JSON "):])
        seen[rec["name"]] = rec
obs, grid = seen.get("fluid"), seen.get("fluid_grid")
assert obs and grid, f"expected fluid and fluid_grid METRICS_JSON lines, saw {sorted(seen)}"
assert obs["runs"] == 15 and obs["events_handled"] > 0, obs
assert grid["cells"] == 3 and grid["lanes"] == 15, grid
per_ckpt = obs["events_handled"] / obs["lat_bb_ns"]["count"]
assert per_ckpt < 0.25, f"{per_ckpt:.3f} fluid events handled per BB checkpoint (limit 0.25)"
print("fluid smoke ok (15 runs, {} events handled, {:.3f} per BB checkpoint)".format(
    obs["events_handled"], per_ckpt))
'

echo "== bench smoke (1-run grid + prefilter + VR) =="
# One-run grid sweep: the grid METRICS_JSON must carry the analytic
# pre-filter accounting (pruned + simulated == cells on every grid), every
# X_alloc line must report the run totals of its X_grid line, the POP
# crossover sweep must actually prune at least half its cells, and the
# variance-reduction headline (which runs at its own fixed budgets,
# independent of PCKPT_RUNS) must beat fixed provisioning.
PCKPT_RUNS=1 cargo run --release -q -p pckpt-bench --bin bench_grid \
    | python3 -c '
import json, sys
grids = prefilter = vr = 0
metrics = {}
for line in sys.stdin:
    if line.startswith("METRICS_JSON "):
        rec = json.loads(line[len("METRICS_JSON "):])
        metrics[rec["name"]] = rec
    if line.startswith("METRICS_JSON ") and "\"prefilter_pruned\"" in line:
        assert rec["prefilter_pruned"] + rec["prefilter_simulated"] == rec["cells"], rec
        grids += 1
    if line.startswith("GRID_JSON "):
        rec = json.loads(line[len("GRID_JSON "):])
        if rec["name"] == "grid_prefilter_pop":
            assert rec["prune_rate"] >= 0.5, rec
            assert rec["pruned"] + rec["simulated"] == rec["cells"], rec
            prefilter += 1
        if rec["name"] == "variance_reduction_fig4":
            assert rec["variance_reduction_speedup"] > 1.5, rec
            assert 0.0 < rec["adaptive_runs_saved_pct"] < 100.0, rec
            vr += 1
assert grids == 5, f"expected 5 grid METRICS_JSON lines, saw {grids}"
assert prefilter == 1, "missing grid_prefilter_pop GRID_JSON line"
assert vr == 1, "missing variance_reduction_fig4 GRID_JSON line"
allocs = [n for n in metrics if n.endswith("_alloc")]
assert "variance_reduction_fig4_alloc" in allocs, f"missing the VR alloc line: {sorted(metrics)}"
for name in allocs:
    alloc, grid = metrics[name], metrics[name[:-len("_alloc")] + "_grid"]
    for key in ("total_runs", "runs_min", "worst_ci_rel"):
        assert alloc[key] == grid[key], (key, alloc, grid)
print("grid smoke ok (5 grids, alloc lines match their grids, prefilter prunes >= 50%, "
      "VR speedup > 1.5x)")
'

echo "== bench smoke (1-run campaign service: cache + journal) =="
# One-run pass through the campaign service bench: cold compute, warm
# content-addressed replay, torn-journal resume, full-journal replay.
# Asserts the cache accounting reaches meta_json (cache_hits covers the
# whole warm sweep, zero cells simulated, uncached=false, service_pruned
# equal to the grid's prefilter_pruned) and that both GRID_JSON lines
# report digest-identical replays. No speedup floor at
# smoke budgets — bench_service only asserts >= 50x at real budgets.
PCKPT_RUNS=1 cargo run --release -q -p pckpt-bench --bin bench_service \
    | python3 -c '
import json, sys
cache = journal = metrics = 0
for line in sys.stdin:
    if line.startswith("METRICS_JSON "):
        rec = json.loads(line[len("METRICS_JSON "):])
        assert rec["name"] == "service_fig4_grid", rec
        assert rec["cache_hits"] + rec["journal_recovered"] == rec["cells"], rec
        assert rec["computed_cells"] == 0 and rec["uncached"] is False, rec
        assert rec["service_pruned"] == rec["prefilter_pruned"], rec
        metrics += 1
    if line.startswith("GRID_JSON "):
        rec = json.loads(line[len("GRID_JSON "):])
        if rec["name"] == "service_cache_fig4":
            assert rec["digest_match"] is True, rec
            assert rec["cache_hit_rate"] == 1.0, rec
            assert rec["cache_hit_speedup"] > 0.0, rec
            cache += 1
        if rec["name"] == "service_journal_fig4":
            assert rec["digest_match"] is True, rec
            assert rec["resume_recovered"] + rec["resume_computed"] == rec["cells"], rec
            assert rec["journal_resume_overhead_pct"] > 0.0, rec
            journal += 1
assert metrics == 1, "missing warm-pass METRICS_JSON line"
assert cache == 1, "missing service_cache_fig4 GRID_JSON line"
assert journal == 1, "missing service_journal_fig4 GRID_JSON line"
print("service smoke ok (warm pass fully cache-served, crash resume "
      "digest-identical)")
'

echo "== bad-knob smoke (strict PCKPT_* parse) =="
# A malformed PCKPT_* value stops a binary that reads it with an error
# naming the variable (exit 1, not a panic's 101), and a valid value
# keeps its meaning.
expect_knob_error() { # VAR=value, then the command to run
    local knob=$1 code=0 err
    shift
    err=$(env "$knob" "$@" 2>&1 >/dev/null) || code=$?
    if [ "$code" -eq 0 ] || [ "$code" -eq 101 ] || [[ "$err" != *"${knob%%=*}"* ]]; then
        echo "$knob $*: exit $code, stderr: $err" >&2
        exit 1
    fi
}
expect_knob_error PCKPT_SEED=12x cargo run --release -q -p pckpt-bench --bin exp_fig2a
req=$(mktemp)
printf '{"app":"POP","models":["B"],"runs":1,"threads":1}\n' > "$req"
expect_knob_error PCKPT_JOURNAL_SYNC=of \
    cargo run --release -q -p pckpt-cli --bin pckptd -- once --request "$req"
rm -f "$req"
PCKPT_SEED=20220530 cargo run --release -q -p pckpt-bench --bin exp_fig2a > target/ci/fig2a-seed.txt
cargo run --release -q -p pckpt-bench --bin exp_fig2a > target/ci/fig2a-default.txt
cmp target/ci/fig2a-seed.txt target/ci/fig2a-default.txt
echo "bad-knob smoke ok (PCKPT_SEED=12x, PCKPT_JOURNAL_SYNC=of rejected; the default seed spelled out prints the same)"

echo "lint.sh: all gates passed"
