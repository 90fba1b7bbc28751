#!/usr/bin/env bash
# The single tier-1 gate: determinism lint, release build, test suite.
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
# lanes, one run each.
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
print("bench smoke ok (fig4: 45 runs, {} events handled)".format(obs["events_handled"]))
'

echo "== bench smoke (1-run grid + prefilter + VR) =="
# One-run grid sweep: the grid METRICS_JSON must carry the analytic
# pre-filter accounting (pruned + simulated == cells on every grid), the
# POP crossover sweep must actually prune at least half its cells, and
# the variance-reduction headline (which runs at its own fixed budgets,
# independent of PCKPT_RUNS) must beat fixed provisioning.
PCKPT_RUNS=1 cargo run --release -q -p pckpt-bench --bin bench_grid \
    | python3 -c '
import json, sys
grids = prefilter = vr = 0
for line in sys.stdin:
    if line.startswith("METRICS_JSON ") and "\"prefilter_pruned\"" in line:
        rec = json.loads(line[len("METRICS_JSON "):])
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
print("grid smoke ok (5 grids, prefilter prunes >= 50%, VR speedup > 1.5x)")
'

echo "== bench smoke (1-run campaign service: cache + journal) =="
# One-run pass through the campaign service bench: cold compute, warm
# content-addressed replay, torn-journal resume, full-journal replay.
# Asserts the cache accounting reaches meta_json (cache_hits covers the
# whole warm sweep, zero cells simulated, uncached=false) and that both
# GRID_JSON lines report digest-identical replays. No speedup floor at
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

echo "lint.sh: all gates passed"
