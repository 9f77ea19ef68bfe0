#!/usr/bin/env bash
# Two revisions on one cell, alternated: builds examples/sample_profile.rs
# of each revision from a `git archive` of it under target/ab/<commit>/,
# then runs one repetition of the cell on each side in turn, the side that
# goes first flipping every pair, and prints every pair's time and peak RSS
# (the `VmHWM` that `sample_profile --time` prints), then for each of the
# two each side's minimum, quartiles and median, the ratio of the medians,
# in how many pairs b was lower, and the verdict: "gain" when, over at least
# ten pairs, b is lower in nine tenths of them (a tie counts for neither
# side) and the medians differ by more than a's q3 - q1, else "unresolved". A memory
# claim is judged on the same pairs as a time claim.
#
#   scripts/ab.sh <rev-a> <rev-b> <cell> [pairs=40] [codegen-units=16]
#
# `sample_profile --time` compares cells inside one binary; this compares
# binaries. The box's speed drifts by a fifth over minutes, so two runs
# back to back compare the drift; alternated single repetitions do not.
# Code generation as in scripts/profile.sh: 16 units is perfbench's, 1 the
# root release profile's. A revision needs `sample_profile --time`.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: scripts/ab.sh <rev-a> <rev-b> <cell> [pairs=40] [codegen-units=16]"
rev_a=${1:?$usage}
rev_b=${2:?$usage}
cell=${3:?$usage}
pairs=${4:-40}
units=${5:-16}

# The sample_profile binary of a revision, built once per commit and unit
# count.
build() {
  local commit dir
  commit=$(git rev-parse --verify "$1^{commit}")
  dir=target/ab/$commit
  if [ ! -f "$dir/Cargo.toml" ]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$commit" | tar -x -C "$dir"
  fi
  CARGO_PROFILE_RELEASE_CODEGEN_UNITS="$units" cargo build --release --quiet --offline \
    --manifest-path "$dir/Cargo.toml" --example sample_profile --target-dir "$dir/target$units"
  echo "$dir/target$units/release/examples/sample_profile"
}
exe_a=$(build "$rev_a")
exe_b=$(build "$rev_b")

# One repetition: its milliseconds (the median column of `--time`'s row)
# and the process's peak RSS in MB, `nan` from a revision that does not
# print it.
once() {
  "$1" --time "$cell" 1 | awk -v cell="$cell" '
    $1 == cell { ms = $4 }
    $2 == "peak" && $3 == "RSS" { mb = $4 }
    END { print ms, (mb == "" ? "nan" : mb) }'
}
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    a=$(once "$exe_a")
    b=$(once "$exe_b")
  else
    b=$(once "$exe_b")
    a=$(once "$exe_a")
  fi
  echo "$a $b" >> "$runs"
done

python3 - "$runs" "$rev_a" "$rev_b" "$cell" "$units" <<'PY'
import math, sys

path, rev_a, rev_b, cell, units = sys.argv[1:]
# Each line: a's ms and MB, then b's.
pairs = [tuple(map(float, line.split())) for line in open(path)]
print(f"# {cell}, {len(pairs)} alternated pairs, {units} codegen units")
print(f"{'pair':<6}{'a ms':>9}{'b ms':>9}{'a MB':>9}{'b MB':>9}")
for i, (a_ms, a_mb, b_ms, b_mb) in enumerate(pairs):
    print(f"{i:<6}{a_ms:>9.1f}{b_ms:>9.1f}{a_mb:>9.2f}{b_mb:>9.2f}")
for what, k in (("ms", 0), ("peak RSS, MB", 1)):
    print(f"# {what}")
    if any(math.isnan(p[k]) or math.isnan(p[2 + k]) for p in pairs):
        print("not printed by one of the revisions")
        continue
    print(f"{'side':<24}{'min':>9}{'q1':>9}{'median':>9}{'q3':>9}")
    sides = []
    for name, col in ((f"a {rev_a}", k), (f"b {rev_b}", 2 + k)):
        xs = sorted(p[col] for p in pairs)
        q = [xs[(len(xs) - 1) * i // 4] for i in range(5)]
        sides.append(q)
        print(f"{name[:23]:<24}{q[0]:>9.2f}{q[1]:>9.2f}{q[2]:>9.2f}{q[3]:>9.2f}")
    (_, a_q1, a_med, a_q3, _), (_, _, b_med, _, _) = sides
    lower = sum(p[2 + k] < p[k] for p in pairs)
    # choosing-metrics §8: at least ten pairs, b wins nine tenths of them,
    # and the medians are further apart than a's own quartiles.
    n = len(pairs)
    gain = n >= 10 and 10 * lower >= 9 * n and a_med - b_med > a_q3 - a_q1
    verdict = "gain" if gain else "unresolved"
    print(f"b / a median {b_med / a_med:.3f}; b lower in {lower} of {len(pairs)}: {verdict}")
PY
