#!/usr/bin/env bash
# Full CI chain: the tier-1 gate plus everything it doesn't cover —
# workspace-member tests, the examples build, the
# trace-feature build (whose golden digests prove the recorder changes
# nothing it observes), the analytic-tier equivalence gates, and the
# benchmark harness.
#
#   1. scripts/lint.sh        simlint, release build, root test suite,
#                             1-run bench smoke (exp_fig4 METRICS_JSON,
#                             prefilter accounting)
#   2. cargo test --workspace every crate's unit tests (trace off)
#   3. examples build         the examples compile against the current
#                             API (they are not test targets, so
#                             nothing else catches their drift)
#   4. cargo test --features trace
#                             root suite again with the queue's records
#                             compiled in: raw-stream golden digests +
#                             on/off equivalence; then desim's own tests
#                             with them, so the queue's hooks on all
#                             three of its paths (sorted run, heap and
#                             uncancellable lane) are built and
#                             exercised; then simobs' own tests, for
#                             the causal parents those hooks set
#   5. analytic tier          the closed-form equations and crossover
#                             verdict (analysis crate tests), the
#                             byte-for-byte pin of exp_analytical's
#                             output, and the prefilter digest oracle
#                             as an explicit, named gate
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
#   8. campaign service       pckptd end-to-end suite (cache replay
#                             digest oracle, single-flight admission,
#                             torn-journal crash/resume property test)
#                             plus the service crate's unit tests
#                             (cell-frame codec, journal, cache,
#                             single-flight primitives)
#   9. benchmark harness     pbench is its own workspace, so no stage
#                             above builds it: compile it against the
#                             current core/service API and run its
#                             tests (incl. a traced-fold-vs-run_grid
#                             digest check and a quick pass of every
#                             workload)
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== [1/9] tier-1 gate (scripts/lint.sh) ===="
scripts/lint.sh

echo
echo "==== [2/9] workspace tests ===="
cargo test -q --workspace

echo
echo "==== [3/9] examples build ===="
cargo build -q --examples

echo
echo "==== [4/9] trace-feature tests ===="
cargo test -q --features trace
cargo test -q -p pckpt-desim --features trace
cargo test -q -p pckpt-simobs --features trace

echo
echo "==== [5/9] analytic tier: equations, exp_analytical pin, prefilter equivalence ===="
cargo test -q -p pckpt-analysis
cargo test -q -p pckpt-bench --test smoke exp_analytical
cargo test -q --test grid_equivalence

echo
echo "==== [6/9] schedcheck exhaustive + simlint fixtures ===="
cargo test -q -p schedcheck
cargo test -q -p simlint

echo
echo "==== [7/9] variance reduction: marginals, folds, determinism ===="
cargo test -q --test variance_reduction
cargo test -q --test trace_determinism adaptive_grid
cargo test -q -p pckpt-core --test alloc_free

echo
echo "==== [8/9] campaign service: cache, single-flight, crash/resume ===="
cargo test -q --test service_suite
cargo test -q -p pckpt-service

echo
echo "==== [9/9] benchmark harness: pbench builds and passes ===="
cargo test -q --offline --manifest-path crates/bench/pbench/Cargo.toml

echo
echo "ci.sh: all stages passed"
