#!/usr/bin/env bash
# Two revisions on one cell, alternated: builds examples/sample_profile.rs
# of each revision from a `git archive` of it under target/ab/<commit>/,
# then runs one repetition of the cell on each side in turn, the side that
# goes first flipping every pair, and prints each side's minimum, quartiles
# and median, the ratio of the medians and in how many pairs b was faster.
#
#   scripts/ab.sh <rev-a> <rev-b> <cell> [pairs=20] [codegen-units=16]
#
# `sample_profile --time` compares cells inside one binary; this compares
# binaries. The box's speed drifts by a fifth over minutes, so two runs
# back to back compare the drift; alternated single repetitions do not.
# Code generation as in scripts/profile.sh: 16 units is perfbench's, 1 the
# root release profile's. A revision needs `sample_profile --time`.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: scripts/ab.sh <rev-a> <rev-b> <cell> [pairs=20] [codegen-units=16]"
rev_a=${1:?$usage}
rev_b=${2:?$usage}
cell=${3:?$usage}
pairs=${4:-20}
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

# Milliseconds of one repetition: the median column of `--time`'s row.
once() {
  "$1" --time "$cell" 1 | awk -v cell="$cell" '$1 == cell { print $4 }'
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
import sys

path, rev_a, rev_b, cell, units = sys.argv[1:]
pairs = [tuple(map(float, line.split())) for line in open(path)]
print(f"# {cell}, {len(pairs)} alternated pairs, {units} codegen units, ms")
print(f"{'side':<24}{'min':>9}{'q1':>9}{'median':>9}{'q3':>9}")
medians = []
for name, k in ((f"a {rev_a}", 0), (f"b {rev_b}", 1)):
    ms = sorted(p[k] for p in pairs)
    q = lambda i: ms[(len(ms) - 1) * i // 4]
    medians.append(q(2))
    print(f"{name[:23]:<24}{q(0):>9.1f}{q(1):>9.1f}{q(2):>9.1f}{q(3):>9.1f}")
ahead = sum(b < a for a, b in pairs)
print(f"b / a median {medians[1] / medians[0]:.3f}; b ahead in {ahead} of {len(pairs)}")
PY
