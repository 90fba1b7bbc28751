#!/usr/bin/env bash
# Non-test lines of Rust, per crate: the "small" half of tracking size
# next to speed (scripts/bench.sh stores the result as `nontest_loc`).
#
# Counts the non-blank lines of crates/*/src/**/*.rs and src/**/*.rs
# that come before each file's first line starting with `#[cfg(test)]`
# (leading whitespace allowed). Comments count. Test modules after that
# line, tests/, benches/, examples/ and the separate pbench workspace
# (crates/bench/pbench, outside every crates/*/src) do not. The root
# package is reported as `pckpt`.
#
# Prints a table, then one machine-parsable line:
#   LOC_JSON {"crates":{"analysis":1165,...},"total":21794}
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

mapfile -t files < <(find crates/*/src src -name '*.rs' | LC_ALL=C sort)

awk '
FNR == 1 {
    split(FILENAME, part, "/")
    crate = (part[1] == "src") ? "pckpt" : part[2]
    if (!(crate in loc)) {
        order[++n] = crate
        loc[crate] = 0
    }
    counting = 1
}
/^[ \t]*#\[cfg\(test\)\]/ { counting = 0 }
counting && NF { loc[crate]++; total++ }
END {
    printf "%-12s %7s\n", "crate", "nontest"
    json = ""
    sep = ""
    for (i = 1; i <= n; i++) {
        printf "%-12s %7d\n", order[i], loc[order[i]]
        json = json sep "\"" order[i] "\":" loc[order[i]]
        sep = ","
    }
    printf "%-12s %7d\n", "total", total
    printf "LOC_JSON {\"crates\":{%s},\"total\":%d}\n", json, total
}' "${files[@]}"
