#!/usr/bin/env bash
# Where host time goes inside a run: builds examples/sample_profile.rs with
# frame pointers and line tables, runs a perfbench cell under its SIGPROF
# sampler, resolves the sampled addresses (inlined frames included) with
# addr2line and prints self and inclusive shares by function.
#
#   scripts/profile.sh <cell> [repetitions=20] [rows=30]
#
# The kernel delivers ITIMER_PROF at its own tick rate (250 Hz on the CI
# box), so twenty one-second repetitions give about 5 000 samples. The
# build goes to target/profile, apart from the ordinary release build.
set -euo pipefail
cd "$(dirname "$0")/.."
cell=${1:?usage: scripts/profile.sh <cell> [repetitions] [rows]}
reps=${2:-20}
rows=${3:-30}
dir=target/profile

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  cargo build --release --quiet --example sample_profile --target-dir "$dir"
exe=$dir/release/examples/sample_profile
"$exe" "$cell" "$reps" > "$dir/$cell.samples"
grep -v '^#' "$dir/$cell.samples" | tr ' ' '\n' | sort -u \
  | addr2line -a -f -i -C -e "$exe" > "$dir/$cell.resolved"

python3 - "$dir/$cell.samples" "$dir/$cell.resolved" "$rows" <<'PY'
import collections, re, sys

samples_path, resolved_path, rows = sys.argv[1], sys.argv[2], int(sys.argv[3])
OUTSIDE = "[outside the executable]"

# addr2line -a -f -i: "0x<addr>", then (function, file:line) pairs, the
# innermost inlined function first.
functions, addr, lines = {}, None, open(resolved_path).read().splitlines()
for i, line in enumerate(lines):
    if line.startswith("0x"):
        addr, pair = int(line, 16), i
        functions[addr] = []
    elif (i - pair) % 2 == 1:
        name = re.sub(r"::h[0-9a-f]{16}$", "", line)
        functions[addr].append(OUTSIDE if name == "??" else name)

self_time, inclusive, total = collections.Counter(), collections.Counter(), 0
for line in open(samples_path):
    if line.startswith("#"):
        print(line.strip())
        continue
    stack = [f for a in line.split() for f in functions[int(a, 16)]]
    total += 1
    self_time[stack[0]] += 1
    # Every chain ends outside, in libc's start-up code.
    inclusive.update(set(stack[:1] + [f for f in stack if f != OUTSIDE]))

for title, counts in (("self", self_time), ("inclusive", inclusive)):
    print(f"\n{title:>9}  function ({total} samples)")
    for name, n in counts.most_common(rows):
        print(f"{100 * n / total:8.1f}%  {name}")
PY
