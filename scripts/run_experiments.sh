#!/usr/bin/env bash
# Runs the full experiment sweep (every table/figure binary) into
# results/, one log per binary.
#
# Usage: scripts/run_experiments.sh [binary ...]   # default: all
# Env:   PCKPT_RUNS    Monte-Carlo runs per configuration (default 1000)
#        PCKPT_SEED    master seed
#        PCKPT_THREADS campaign worker threads
#
# Exits non-zero if any experiment fails; failures are listed at the end
# rather than aborting the sweep (later experiments still produce their
# logs).
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_EXPERIMENTS=(
  exp_table1 exp_fig2a exp_fig2b exp_fig2c exp_analytical
  exp_table2 exp_table4 exp_fig4 exp_fig7
  exp_fig6a exp_fig6b exp_fig6c exp_fig8 exp_obs9
  exp_ablations exp_extensions exp_table5 exp_fluid exp_sensitivity
)
EXPERIMENTS=("${@:-${ALL_EXPERIMENTS[@]}}")

echo "== building experiment binaries =="
cargo build --release -q -p pckpt-bench

mkdir -p results
FAILED=()
for exp in "${EXPERIMENTS[@]}"; do
  echo "=== $exp start $(date +%T) ==="
  # PCKPT_RUNS / PCKPT_SEED / PCKPT_THREADS propagate through the
  # environment; pass them through explicitly so `env -i`-style callers
  # and sudo wrappers behave identically.
  if ! env \
      ${PCKPT_RUNS+PCKPT_RUNS="$PCKPT_RUNS"} \
      ${PCKPT_SEED+PCKPT_SEED="$PCKPT_SEED"} \
      ${PCKPT_THREADS+PCKPT_THREADS="$PCKPT_THREADS"} \
      "./target/release/$exp" >"results/$exp.txt" 2>&1; then
    echo "$exp FAILED (see results/$exp.txt)"
    FAILED+=("$exp")
  fi
done

echo "ALL EXPERIMENTS DONE $(date +%T)"
if ((${#FAILED[@]} > 0)); then
  echo "FAILED: ${FAILED[*]}" >&2
  exit 1
fi
