#!/usr/bin/env bash
# Full CI chain: the tier-1 gate plus everything it doesn't cover —
# workspace-member tests, the examples and benches build, the
# trace-feature build (whose golden digests prove the recorder changes
# nothing it observes), the analytic-tier equivalence gates, and the
# benchmark harness.
#
#   1. scripts/lint.sh        simlint, release build, root test suite,
#                             1-run bench smoke (CAMPAIGN/METRICS_JSON,
#                             prefilter accounting)
#   2. cargo test --workspace every crate's unit tests (trace off)
#   3. examples + benches build
#                             the doc examples and the criterion benches
#                             compile against the current API (neither
#                             is a test target, so nothing else catches
#                             their drift)
#   4. cargo test --features trace
#                             root suite again with the recorder live:
#                             golden stream digests + on/off equivalence;
#                             then desim's own tests with the recorder
#                             compiled in, so the queue's hooks on both
#                             its sorted-run and heap paths are built
#                             and exercised
#   5. analytic tier          batch-vs-scalar bit-identity proptest and
#                             the prefilter digest oracle (the two
#                             equivalence contracts of the analytic
#                             pre-filter) as an explicit, named gate
#   6. concurrency + lint harness
#                             schedcheck's bounded-exhaustive schedule
#                             exploration of the grid pool's claim/slab/
#                             fold protocol (incl. seeded-bug regressions)
#                             and simlint's own fixture suite (each rule
#                             family must still trip on its fixture)
#   7. variance reduction     KS marginal-preservation proptests for the
#                             antithetic reflection, stratified fold
#                             consistency, VR/adaptive thread-count
#                             invariance, the adaptive-grid golden
#                             digest, and the VR-on zero-allocation gate
#   8. shard scale-out        cross-process equivalence (sharded merges
#                             bit-identical to single-process sweeps,
#                             incl. VR and prefilter modes), the sharded
#                             golden grid, and the fault-injection suite
#                             (killed / truncated / corrupted / hung
#                             children recover to the same digest)
#   9. campaign service       pckptd end-to-end suite (cache replay
#                             digest oracle, single-flight admission,
#                             torn-journal crash/resume property test)
#                             plus the service crate's unit tests
#                             (cell-frame codec, journal, cache,
#                             single-flight primitives)
#  10. benchmark harness     pbench is its own workspace, so no stage
#                             above builds it: compile it against the
#                             current core/service API and run its
#                             tests (incl. a traced-fold-vs-run_grid
#                             digest check and a quick pass of every
#                             workload)
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== [1/10] tier-1 gate (scripts/lint.sh) ===="
scripts/lint.sh

echo
echo "==== [2/10] workspace tests ===="
cargo test -q --workspace

echo
echo "==== [3/10] examples + benches build ===="
cargo build -q --examples
cargo bench --no-run -q -p pckpt-bench

echo
echo "==== [4/10] trace-feature tests ===="
cargo test -q --features trace
cargo test -q -p pckpt-desim --features trace

echo
echo "==== [5/10] analytic tier: batch + prefilter equivalence ===="
cargo test -q -p pckpt-analysis --test batch_equivalence
cargo test -q --test grid_equivalence

echo
echo "==== [6/10] schedcheck exhaustive + simlint fixtures ===="
cargo test -q -p schedcheck
cargo test -q -p simlint

echo
echo "==== [7/10] variance reduction: marginals, folds, determinism ===="
cargo test -q --test variance_reduction
cargo test -q --test trace_determinism adaptive_grid
cargo test -q -p pckpt-core --test alloc_free

echo
echo "==== [8/10] shard scale-out: equivalence + fault injection ===="
cargo test -q --test grid_equivalence sharded
cargo test -q --test trace_determinism sharded_grid
cargo test -q --test shard_faults

echo
echo "==== [9/10] campaign service: cache, single-flight, crash/resume ===="
cargo test -q --test service_suite
cargo test -q -p pckpt-service

echo
echo "==== [10/10] benchmark harness: pbench builds and passes ===="
cargo test -q --offline --manifest-path crates/bench/pbench/Cargo.toml

echo
echo "ci.sh: all stages passed"
