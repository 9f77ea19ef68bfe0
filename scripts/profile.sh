#!/usr/bin/env bash
# Where host time goes inside a run: builds examples/sample_profile.rs with
# frame pointers and line tables, runs a perfbench cell under its SIGPROF
# sampler, resolves the sampled addresses (inlined frames included) with
# addr2line and prints four tables: the instructions the samples sit on
# (by address), self and inclusive shares by function, then shares by
# layer. A sample's layer is its innermost frame in a file under
# crates/<crate>/src/, by module for simcore, core, netsim and stats
# (netsim::host, core::cuckoo, ...) and by crate for the rest; a sample
# with no such frame is "outside".
#
#   scripts/profile.sh <cell> [repetitions=20] [rows=30] [codegen-units=16]
#
# Read the address table first. A stall on one instruction — a load that
# waits for a store it cannot forward from, a miss — is 5-9 % of a run on
# one row there, and a function table spreads it over whatever was inlined
# around it. Each row names the inlining chain of its address, innermost
# first, as function@file:line.
#
# Code generation: 16 units is what perfbench/ builds with, the binary the
# benchmark judges; 1 is the root workspace's release profile, the binary
# users run. The two inline differently (see the verify skill), so a row
# can be in one and not the other. Each goes to its own target/profile<units>.
#
# The kernel delivers ITIMER_PROF at its own tick rate (250 Hz on the CI
# box), so twenty one-second repetitions give about 5 000 samples.
set -euo pipefail
cd "$(dirname "$0")/.."
cell=${1:?usage: scripts/profile.sh <cell> [repetitions] [rows] [codegen-units]}
reps=${2:-20}
rows=${3:-30}
units=${4:-16}
dir=target/profile$units

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
  CARGO_PROFILE_RELEASE_CODEGEN_UNITS="$units" \
  cargo build --release --quiet --example sample_profile --target-dir "$dir"
exe=$dir/release/examples/sample_profile
"$exe" "$cell" "$reps" > "$dir/$cell.samples"
grep -v '^#' "$dir/$cell.samples" | tr ' ' '\n' | sort -u \
  | addr2line -a -f -i -C -e "$exe" > "$dir/$cell.resolved"

python3 - "$dir/$cell.samples" "$dir/$cell.resolved" "$rows" <<'PY'
import collections, os, re, sys

samples_path, resolved_path, rows = sys.argv[1], sys.argv[2], int(sys.argv[3])
OUTSIDE = "[outside the executable]"

BY_MODULE = {"simcore", "core", "netsim", "stats"}
CRATES = re.compile(re.escape(os.getcwd()) + r"/crates/([^/]+)/src/([^/:]+?)(?:\.rs)?(?:/|:|$)")


def layer(path):
    """The layer a source path belongs to, or None outside the workspace."""
    m = CRATES.match(path)
    if m is None:
        return None
    krate, module = m.groups()
    if krate not in BY_MODULE or module in ("lib", "main"):
        return krate
    return f"{krate}::{module}"


# addr2line -a -f -i: "0x<addr>", then (function, path:line) pairs, the
# innermost inlined function first. A frame keeps its whole path, for its
# layer, and shows only the file's name.
frames, addr, lines = {}, None, open(resolved_path).read().splitlines()
for i, line in enumerate(lines):
    if line.startswith("0x"):
        addr, pair = int(line, 16), i
        frames[addr] = []
    elif (i - pair) % 2 == 1:
        name = re.sub(r"::h[0-9a-f]{16}$", "", line)
        path = re.sub(r" \(discriminator \d+\)$", "", lines[i + 1])
        where = re.sub(r"^.*/(?=[^/]+:)", "", path)
        frames[addr].append((OUTSIDE if name == "??" else name, where, layer(path)))

by_address, by_layer = collections.Counter(), collections.Counter()
self_time, inclusive, total = collections.Counter(), collections.Counter(), 0
for line in open(samples_path):
    if line.startswith("#"):
        print(line.strip())
        continue
    addrs = [int(a, 16) for a in line.split()]
    stack = [frame for a in addrs for frame in frames[a]]
    names = [f for f, _, _ in stack]
    total += 1
    by_address[addrs[0]] += 1
    self_time[names[0]] += 1
    # Every chain ends outside, in libc's start-up code.
    inclusive.update(set(names[:1] + [f for f in names if f != OUTSIDE]))
    by_layer[next((l for _, _, l in stack if l is not None), "outside")] += 1

print(f"\n   share samples  address   inlining chain, innermost first ({total} samples)")
for a, n in by_address.most_common(rows):
    chain = " < ".join(f if f == OUTSIDE else f"{f}@{where}" for f, where, _ in frames[a])
    print(f"{100 * n / total:7.1f}% {n:7d}  {a:#9x}  {chain}")

for title, counts in (("self", self_time), ("inclusive", inclusive)):
    print(f"\n{title:>9}  function ({total} samples)")
    for name, n in counts.most_common(rows):
        print(f"{100 * n / total:8.1f}%  {name}")

# Every layer, so the column sums to 100 %.
print(f"\n{'share':>9}  layer ({total} samples)")
for name, n in by_layer.most_common():
    print(f"{100 * n / total:8.1f}%  {name}")
PY
