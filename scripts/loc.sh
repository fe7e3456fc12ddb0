#!/usr/bin/env bash
# Non-test Rust lines per crate and in total. A file's non-test lines
# are the lines before its first `#[cfg(test)]` (the whole file when it
# has none); files under `src/` (the root package) and `crates/*/src`
# are counted. Reports only: it gates nothing.
#
# Usage: scripts/loc.sh        (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }'
}

total=0
for dir in src crates/*/src; do
    [ -d "$dir" ] || continue
    n="$(count "$dir")"
    total=$((total + n))
    printf '%-24s %7d\n' "$dir" "$n"
done
printf '%-24s %7d\n' total "$total"
