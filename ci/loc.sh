#!/usr/bin/env sh
# Non-test source lines per workspace crate: every .rs file under a
# crate's src/ (its library, modules and binaries), each counted up to
# its first `#[cfg(test)]`, where the file's unit tests begin. Run from
# the repository root; prints one `crate lines` row per crate, then the
# total.
set -eu

total=0
for dir in crates/*/; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "${dir}Cargo.toml" | head -n 1)
    lines=$(find "${dir}src" -name '*.rs' -exec awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { n++ }
        END { print n + 0 }' {} \; | awk '{ s += $1 } END { print s + 0 }')
    printf '%-14s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-14s %6d\n' total "$total"
