#!/usr/bin/env bash
# Lines of Rust per crate, by the convention every CHANGES.md entry uses:
#   shipped = lines of src/**/*.rs before the file's first `#[cfg(test)]`
#   inline  = the rest of those files (the inline test modules)
#   tests   = lines under the crate's tests/, benches/ and examples/
# Plain `wc -l` lines (comments and blanks count). `scripts/loc.sh DIR`
# counts the tree at DIR instead, e.g. a checkout of the parent commit.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-14s %8s %8s %8s\n' crate shipped inline tests
total_s=0 total_i=0 total_t=0
for dir in . crates/*/; do
  dir=${dir%/}
  [ -d "$dir/src" ] || continue
  name=$([ "$dir" = . ] && echo root || basename "$dir")
  read -r s i < <(find "$dir/src" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    { if (in_tests) inline++; else shipped++ }
    END { print shipped + 0, inline + 0 }')
  t=0
  for sub in tests benches examples; do
    [ -d "$dir/$sub" ] || continue
    n=$(find "$dir/$sub" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    t=$((t + n))
  done
  printf '%-14s %8d %8d %8d\n' "$name" "$s" "$i" "$t"
  total_s=$((total_s + s)) total_i=$((total_i + i)) total_t=$((total_t + t))
done
printf '%-14s %8d %8d %8d\n' total "$total_s" "$total_i" "$total_t"
