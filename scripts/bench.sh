#!/usr/bin/env bash
# Perf trajectory harness for the PR sequence.
#
# Runs the criterion micro-benchmarks (event dispatch, flow-link churn
# virtual-vs-reference, arena-reuse vs fresh-build campaign runs, grid
# sweep vs serial cells, scalar vs SoA analytic evaluation) and the
# end-to-end campaign + grid-sweep timers, counts non-test lines of
# code, then folds the machine-parsable CRITERION_JSON / CAMPAIGN_JSON /
# GRID_JSON / METRICS_JSON / LOC_JSON lines into one snapshot (default BENCH_pr9.json; earlier
# BENCH_pr<N>.json files are kept as the perf trajectory across the PR
# sequence):
#
#   median_ns_per_event            engine dispatch cost
#   events_per_sec                 its reciprocal
#   flow_churn_speedup_vs_reference  virtual-time link vs O(n) reference
#   arena_reuse_speedup[_fluid]    warm one-cell GridWorker run vs
#                                  fresh-build run
#   runs_per_sec / runs_per_sec_fluid  1000-run P2/XGC campaign throughput
#   grid_speedup                   4-cell POP sweep: one grid pool vs
#                                  serial per-cell campaigns (bit-
#                                  identical results, asserted)
#   grid_cells_per_sec             grid sweep throughput on that sweep
#   grid_trace_cache_hit_rate      share of unit executions served from
#                                  a worker's cached per-run trace
#   analytic_cells_per_s           SoA-batched Eq. (4)-(8) evaluation
#                                  throughput on a 2^20-cell (α, σ) grid
#   analytic_batch_speedup         that batch vs per-cell scalar calls
#   prefilter_prune_rate           share of the 4-cell POP crossover
#                                  sweep answered analytically
#                                  (PCKPT_PREFILTER tier)
#   variance_reduction_speedup     runs-to-±1%-CI on the Fig.-4 sweep:
#                                  fixed uniform provisioning vs the
#                                  adaptive antithetic+stratified engine
#   adaptive_runs_saved_pct        share of the sweep the per-cell CI
#                                  stopping rule alone saved
#   vr_ci_rel_*                    attained relative CI per strategy
#                                  (plain / antithetic / stratified /
#                                  both) at one fixed POP budget
#   shard_speedup                  Fig.-4 sweep, one single-threaded
#                                  process vs 2 single-threaded shard
#                                  subprocesses with a bit-identical
#                                  coordinator merge (≤ 1x on a
#                                  single-core host — see bench_grid)
#   shard_reexecutions             shard children re-executed by the
#                                  coordinator's failure recovery (0 on
#                                  a healthy run)
#   cache_hit_speedup              Fig.-4 sweep through the campaign
#                                  service: cold compute vs warm
#                                  content-addressed cache replay
#                                  (bit-identical, digest-asserted)
#   cache_hit_rate                 share of warm-pass cells served
#                                  without simulating
#   journal_resume_overhead_pct    full-journal crash-replay wall time
#                                  as a percentage of cold compute
#   nontest_loc                    non-test lines of Rust, per crate
#                                  and in total (scripts/loc.sh), so
#                                  size is tracked next to speed
#
# Usage: scripts/bench.sh [output.json]
# Env:   PCKPT_RUNS (campaign size, default 1000), PCKPT_SEED,
#        PCKPT_THREADS (campaign worker threads),
#        PCKPT_BENCH_SAMPLES / PCKPT_BENCH_SAMPLE_MS (criterion shim).

set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_pr10.json}
BENCH_LOG=$(mktemp)
CAMPAIGN_LOG=$(mktemp)
trap 'rm -f "$BENCH_LOG" "$CAMPAIGN_LOG"' EXIT

echo "== criterion benches (pckpt-bench) =="
cargo bench -p pckpt-bench 2>&1 | tee "$BENCH_LOG"

echo
echo "== end-to-end campaign timing =="
cargo run --release -q -p pckpt-bench --bin bench_campaign 2>&1 | tee "$CAMPAIGN_LOG"

echo
echo "== grid sweep vs serial cells =="
cargo run --release -q -p pckpt-bench --bin bench_grid 2>&1 | tee -a "$CAMPAIGN_LOG"

echo
echo "== campaign service: cache replay + journal resume =="
cargo run --release -q -p pckpt-bench --bin bench_service 2>&1 | tee -a "$CAMPAIGN_LOG"

echo
echo "== non-test lines of code =="
scripts/loc.sh | tee -a "$CAMPAIGN_LOG"

python3 - "$BENCH_LOG" "$CAMPAIGN_LOG" "$OUT" <<'PYEOF'
import json
import sys

bench_log, campaign_log, out_path = sys.argv[1:4]

def parse(path, tag):
    out = {}
    with open(path) as f:
        for line in f:
            if line.startswith(tag):
                rec = json.loads(line[len(tag):])
                out[rec["name"]] = rec
    return out

benches = parse(bench_log, "CRITERION_JSON ")
campaigns = parse(campaign_log, "CAMPAIGN_JSON ")
grids = parse(campaign_log, "GRID_JSON ")
metrics = parse(campaign_log, "METRICS_JSON ")

doc = {"benchmarks": benches, "campaigns": campaigns, "grids": grids,
       "metrics": metrics}

with open(campaign_log) as f:
    for line in f:
        if line.startswith("LOC_JSON "):
            doc["nontest_loc"] = json.loads(line[len("LOC_JSON "):])

dispatch = benches.get("engine_dispatch_100k_events")
if dispatch:
    ns_per_event = dispatch["median_ns"] / 100_000
    doc["median_ns_per_event"] = round(ns_per_event, 3)
    doc["events_per_sec"] = round(1e9 / ns_per_event, 1)

virt = benches.get("flow_link_churn/virtual_1k_concurrent")
ref = benches.get("flow_link_churn/reference_1k_concurrent")
if virt and ref:
    doc["flow_churn_speedup_vs_reference"] = round(
        ref["median_ns"] / virt["median_ns"], 2
    )

for label, key in (("analytic", "arena_reuse_speedup"),
                   ("fluid", "arena_reuse_speedup_fluid")):
    warm = benches.get(f"campaign_run/arena_reuse_{label}")
    fresh = benches.get(f"campaign_run/fresh_build_{label}")
    if warm and fresh:
        doc[key] = round(fresh["median_ns"] / warm["median_ns"], 2)

if "p2_xgc_analytic" in campaigns:
    doc["runs_per_sec"] = campaigns["p2_xgc_analytic"]["runs_per_sec"]
if "p2_xgc_fluid" in campaigns:
    doc["runs_per_sec_fluid"] = campaigns["p2_xgc_fluid"]["runs_per_sec"]

# Headline grid numbers: the 4-cell POP sweep (largest per-run trace
# share, so the strongest work-elimination case of the three apps).
pop = grids.get("grid_sweep_pop")
if pop:
    doc["grid_speedup"] = pop["speedup"]
    doc["grid_cells_per_sec"] = pop["cells_per_sec"]
    doc["grid_trace_cache_hit_rate"] = pop["trace_cache_hit_rate"]

sweep_serial = benches.get("grid_sweep/serial_cells_pop")
sweep_grid = benches.get("grid_sweep/grid_pop")
if sweep_serial and sweep_grid:
    doc["grid_sweep_speedup_micro"] = round(
        sweep_serial["median_ns"] / sweep_grid["median_ns"], 2
    )

# Analytic tier: SoA batch throughput over the 2^20-cell bench grid,
# speedup vs the per-cell scalar loop, and the pre-filter prune rate on
# the POP crossover sweep.
scalar = benches.get("analytic_batch/scalar_1m")
soa = benches.get("analytic_batch/soa_1m")
if soa:
    doc["analytic_cells_per_s"] = round((1 << 20) / (soa["median_ns"] / 1e9), 1)
if scalar and soa:
    doc["analytic_batch_speedup"] = round(
        scalar["median_ns"] / soa["median_ns"], 2
    )
prefilter = grids.get("grid_prefilter_pop")
if prefilter:
    doc["prefilter_prune_rate"] = prefilter["prune_rate"]

# Variance reduction: runs-to-±1%-CI on the Fig.-4 sweep, fixed uniform
# provisioning vs adaptive antithetic+stratified allocation, plus the
# per-strategy attained-CI columns from the fixed-budget POP cell.
vr = grids.get("variance_reduction_fig4")
if vr:
    doc["variance_reduction_speedup"] = vr["variance_reduction_speedup"]
    doc["adaptive_runs_saved_pct"] = vr["adaptive_runs_saved_pct"]
    for strategy in ("plain", "antithetic", "stratified",
                     "antithetic_stratified"):
        doc[f"vr_ci_rel_{strategy}"] = vr[f"ci_rel_{strategy}"]

# Shard scale-out: the Fig.-4 sweep fanned across 2 subprocesses with a
# bit-identical coordinator merge (digest_match is asserted inside
# bench_grid before the line is even printed).
shard = grids.get("shard_scaleout_fig4")
if shard:
    doc["shard_speedup"] = shard["shard_speedup"]
    doc["shard_reexecutions"] = shard["reexecutions"]
    doc["shard_frame_bytes"] = shard["frame_bytes"]

# Campaign service: warm content-addressed replay vs cold compute, and
# crash-recovery cost through the sweep journal (both digest-asserted
# bit-identical inside bench_service before the lines are printed).
svc_cache = grids.get("service_cache_fig4")
if svc_cache:
    doc["cache_hit_speedup"] = svc_cache["cache_hit_speedup"]
    doc["cache_hit_rate"] = svc_cache["cache_hit_rate"]
svc_journal = grids.get("service_journal_fig4")
if svc_journal:
    doc["journal_resume_overhead_pct"] = svc_journal[
        "journal_resume_overhead_pct"
    ]

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")

print(f"\nwrote {out_path}")
for key in (
    "median_ns_per_event",
    "events_per_sec",
    "flow_churn_speedup_vs_reference",
    "arena_reuse_speedup",
    "arena_reuse_speedup_fluid",
    "runs_per_sec",
    "runs_per_sec_fluid",
    "grid_speedup",
    "grid_cells_per_sec",
    "grid_trace_cache_hit_rate",
    "grid_sweep_speedup_micro",
    "analytic_cells_per_s",
    "analytic_batch_speedup",
    "prefilter_prune_rate",
    "variance_reduction_speedup",
    "adaptive_runs_saved_pct",
    "vr_ci_rel_plain",
    "vr_ci_rel_antithetic",
    "vr_ci_rel_stratified",
    "vr_ci_rel_antithetic_stratified",
    "shard_speedup",
    "shard_reexecutions",
    "cache_hit_speedup",
    "cache_hit_rate",
    "journal_resume_overhead_pct",
):
    if key in doc:
        print(f"  {key}: {doc[key]}")
if "nontest_loc" in doc:
    print(f"  nontest_loc (total): {doc['nontest_loc']['total']}")
PYEOF
