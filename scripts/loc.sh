#!/usr/bin/env sh
# Non-test lines per crate and in total: lines under crates/<k>/src (and
# benchmark/src, reported on its own line) that are not blank and not a
# `//` comment, counted up to each file's first `#[cfg(test)]`.
#
#   scripts/loc.sh [repo-root]
#
# Prints `<crate> <lines>` sorted by crate name, then `total <lines>` over
# crates/. Simplicity changes quote these figures before and after.
set -eu

cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' | sort | xargs awk '
        FNR == 1 { live = 1 }
        /#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*(\/\/.*)?$/ { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/src; do
    k=${dir#crates/}
    k=${k%/src}
    n=$(count "$dir")
    total=$((total + n))
    printf '%-10s %6d\n' "$k" "$n"
done
printf '%-10s %6d\n' total "$total"
[ -d benchmark/src ] && printf '%-10s %6d\n' benchmark "$(count benchmark/src)"
exit 0
