#!/usr/bin/env bash
# Alternating parent/change pairs of one pbench workload: the recipe a
# speed claim needs on a small, noisy host (choosing-metrics §8).
#
# PARENT and CHANGE are two checkouts whose pbench is already built
# (cargo build --release --offline --manifest-path
# crates/bench/pbench/Cargo.toml inside each). Pair i runs
# `pbench measure` once on each side, parent first in even pairs and
# change first in odd ones, each from its own checkout. Absolute source
# paths are baked into a binary ahead of its code, so checkouts whose
# paths differ in length can differ in code layout; the script warns.
#
# It prints every run's four end-to-end metrics with correct/failed,
# then each side's median and quartiles, the change's op_p50_ms wins
# (ties count for neither side), and whether the gain rule holds: the
# change wins at least 9/10 of the pairs and its op_p50_ms median is
# lower than the parent's by more than the parent's interquartile range.
#
# Usage: scripts/pbench_pairs.sh PARENT CHANGE WORKLOAD [PAIRS=10] [SECONDS=20] [SEED]
#        (SEED defaults to pbench's own default seed)
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    echo "usage: scripts/pbench_pairs.sh PARENT CHANGE WORKLOAD [PAIRS=10] [SECONDS=20] [SEED]" >&2
    exit 2
fi
knobs=$(compgen -e | grep '^PCKPT_' | tr '\n' ' ' || true)
if [ -n "$knobs" ]; then
    echo "pbench_pairs.sh: refusing to run with ${knobs% } set; unset them first" >&2
    exit 2
fi
PARENT=$(cd "$1" && pwd -P)
CHANGE=$(cd "$2" && pwd -P)
WORKLOAD=$3
PAIRS=${4:-10}
SECONDS_PER_RUN=${5:-20}
SEED_ARGS=()
if [ $# -ge 6 ]; then
    SEED_ARGS=(--seed "$6")
fi
BIN=crates/bench/pbench/target/release/pbench
for dir in "$PARENT" "$CHANGE"; do
    if [ ! -x "$dir/$BIN" ]; then
        echo "pbench_pairs.sh: $dir/$BIN is missing; build pbench there first" >&2
        exit 2
    fi
done
if [ ${#PARENT} -ne ${#CHANGE} ]; then
    echo "warning: $PARENT and $CHANGE differ in length (${#PARENT} vs ${#CHANGE});" \
        "code layout may differ between the two builds" >&2
fi

RESULTS=$(mktemp)
trap 'rm -f "$RESULTS"' EXIT

# Prints one "SIDE PAIR JSON" line as a row of metrics.
PRINT_RUN=$(cat <<'EOF'
import json, sys
side, pair, doc = sys.stdin.read().split(" ", 2)
r = json.loads(doc)
m = {k: v['value'] for k, v in r['metrics'].items()}
print(f"pair {int(pair):>2}  {side:<6}  op_p50_ms {m['op_p50_ms']:10.3f}  "
      f"lane_runs_per_s {m['lane_runs_per_s']:10.1f}  setup_s {m['setup_s']:7.3f}  "
      f"peak_rss_mb {m['peak_rss_mb']:7.2f}  correct {str(r['correct']).lower()}  "
      f"failed {r['failed']}")
EOF
)

# measure SIDE DIR PAIR: one pbench measure run; appends "SIDE PAIR JSON".
measure() {
    local line
    line=$(cd "$2" && "$2/$BIN" measure --workload "$WORKLOAD" "${SEED_ARGS[@]}" \
        --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1)
    echo "$1 $3 $line" >> "$RESULTS"
    echo "$1 $3 $line" | python3 -c "$PRINT_RUN"
}

seed_note=${6:-default}
echo "$WORKLOAD: $PAIRS pairs of $SECONDS_PER_RUN s runs, seed $seed_note"
echo "parent $PARENT"
echo "change $CHANGE"
for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then
        measure parent "$PARENT" "$i"
        measure change "$CHANGE" "$i"
    else
        measure change "$CHANGE" "$i"
        measure parent "$PARENT" "$i"
    fi
done

python3 - "$RESULTS" <<'EOF'
import json, statistics, sys

runs = {"parent": {}, "change": {}}
correct = True
failed = {"parent": 0, "change": 0}
for line in open(sys.argv[1]):
    side, pair, doc = line.rstrip("\n").split(" ", 2)
    r = json.loads(doc)
    runs[side][int(pair)] = {k: v["value"] for k, v in r["metrics"].items()}
    correct = correct and r["correct"]
    failed[side] += r["failed"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print()
print(f"{'metric':<16} {'side':<6} {'median':>12} {'q1':>12} {'q3':>12}")
for metric in ["op_p50_ms", "lane_runs_per_s", "setup_s", "peak_rss_mb"]:
    for side in ["parent", "change"]:
        q1, med, q3 = quartiles([m[metric] for m in runs[side].values()])
        print(f"{metric:<16} {side:<6} {med:12.4f} {q1:12.4f} {q3:12.4f}")
print(f"correct {str(correct).lower()}  failed parent {failed['parent']} change {failed['change']}")

pairs = sorted(set(runs["parent"]) & set(runs["change"]))
wins = sum(runs["change"][p]["op_p50_ms"] < runs["parent"][p]["op_p50_ms"] for p in pairs)
losses = sum(runs["change"][p]["op_p50_ms"] > runs["parent"][p]["op_p50_ms"] for p in pairs)
pq1, pmed, pq3 = quartiles([runs["parent"][p]["op_p50_ms"] for p in pairs])
_, cmed, _ = quartiles([runs["change"][p]["op_p50_ms"] for p in pairs])
gap = pmed - cmed
iqr = pq3 - pq1
holds = 10 * wins >= 9 * len(pairs) and gap > iqr
print(f"op_p50_ms: change wins {wins}/{len(pairs)} (loses {losses}); "
      f"median {cmed:.3f} vs {pmed:.3f} ms ({cmed / pmed:.3f}x); "
      f"gap {gap:.3f} ms vs parent IQR {iqr:.3f} ms")
print(f"gain rule (wins >= 9/10 and gap > parent IQR): {'holds' if holds else 'does not hold'}")
EOF
