#!/usr/bin/env bash
# Tier-1 CI for the Vertigo reproduction workspace. Everything here must
# pass before merging: release build, full test suite, formatting, lints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> one event queue in shipped code: the binary heap is a test oracle only"
if grep -rnE 'HeapEventQueue|EventBackend::Heap' crates/*/src src; then
  echo "shipped code names the heap; it lives in crates/simcore/tests/event_differential.rs" >&2
  exit 1
fi
# One queue type, holding node events only: telemetry samples are taken
# at each engine's stops, not popped as events.
if grep -rnE 'TimingWheel|Event::TelemetrySample' crates/*/src src; then
  echo "shipped code names a wheel behind the queue or a telemetry tick event" >&2
  exit 1
fi

echo "==> knobs are fixed per run: no parameter search, no mid-run setters"
# The paper fixes tau, d, K and the buffer per experiment, and fig12/fig13
# sweep them as cold specs; a phased cell is a spec plus a fork horizon.
if grep -rnE 'ForkOverrides|TUNE_FLAGS|mod tune|override_(ordering_timeout|port_buffer_bytes|ecn_threshold_pkts|deflect_power)' \
  crates/*/src src; then
  echo "shipped code names the knob search or a mid-run knob setter" >&2
  exit 1
fi

echo "==> the transport runs at the paper's parameters: no per-run knobs, no unread fields"
# Reno, DCTCP, Swift and the RTO estimator use constants next to the code
# that reads them; ordering follows the marking discipline. An ACK carries
# no reorder count (the recorder counts reorders at the receiver).
if grep -rnwE 'RtoConfig|RenoConfig|DctcpConfig|SwiftConfig|reorder_seen|mice_queueing_secs|OrderingMode' \
  crates/; then
  echo "crates/ name a transport config struct, an unread field or OrderingMode again" >&2
  exit 1
fi

echo "==> what the arriving packet says is not stored again"
# PABO bounces out of the port a packet arrived on, so no packet carries
# its previous hop and no route table a reverse-path index. A host holds a
# live receiver bare and a finished flow as its id: a late segment's ACK
# is the flow size it carries.
if grep -rnwE 'prev_hop|upstream_port|from_nested_with_neighbors|switch_neighbor_lists|FinishedReceiver|RecvState|reported_bytes|reported_reorders' \
  crates/*/src src; then
  echo "shipped code stores a copy of what the arriving packet says again" >&2
  exit 1
fi

echo "==> the transport is plain data: one flag per segment, a closed set of controllers"
# Every segment is cut on the MAX_PAYLOAD grid, so the sender's lost
# segments and the receiver's early ones are flags indexed from the front
# of the window and from the prefix. The byte-range receiver lives only in
# crates/transport/tests/receiver_oracle.rs, as the grid receiver's oracle.
# The paper runs three controllers, so a sender holds its controller inline
# as an enum: a boxed trait object would keep Simulation from being Clone,
# which warm starts need.
if grep -rnwE 'BTreeSet|BTreeMap' crates/transport/src \
  || grep -rnE 'struct Seg\b|Box<dyn|trait CongestionControl' crates/transport/src; then
  echo "crates/transport/src keeps an ordered tree, a segment record or a boxed controller" >&2
  exit 1
fi

echo "==> one snapshot reader: counts and key order are checked in SnapReader only"
# `SnapReader::count` refuses a count the bytes left cannot hold and
# `SnapReader::ascending` a key at or below the one before; a restore that
# weighs `.remaining()` itself is a hand guard beside them.
if grep -rn 'strictly_ascending\|\.remaining()' crates/*/src src \
  | grep -v '^crates/simcore/src/snap\.rs:' \
  | grep -vE 'payload .* bytes|assert.*remaining\(\), 0'; then
  echo "shipped code guards a snapshot count or key order by hand; use SnapReader::{count, ascending}" >&2
  exit 1
fi

echo "==> one build: no cargo features"
# The conservation audit runs in every debug-assertion build and the packet
# recorder in every build, armed at run time; a feature would split the
# builds, the tests and the checkpoint layout again.
if grep -nE '^[[:space:]]*\[features\]' Cargo.toml crates/*/Cargo.toml \
  || grep -rnE 'feature = "(audit|trace)"' crates src tests examples; then
  echo "a manifest declares features or a source gates on one; the build has none" >&2
  exit 1
fi

echo "==> one benchmark harness: no bench targets, no criterion"
# Per-layer numbers come from perfbench's probes (`perf --trace 1`) and
# examples/host_microbench; a second harness would copy their op streams.
manifests=(Cargo.toml crates/*/Cargo.toml crates/compat/*/Cargo.toml)
if grep -nE '^[[:space:]]*\[\[bench\]\]' "${manifests[@]}" \
  || grep -nw criterion "${manifests[@]}"; then
  echo "a manifest declares a bench target or criterion; perfbench is the one harness" >&2
  exit 1
fi

echo "==> DESIGN.md stays under 900 lines"
# It describes the tree as it is; history goes to CHANGES.md.
if [ "$(wc -l < DESIGN.md)" -ge 900 ]; then
  echo "DESIGN.md has $(wc -l < DESIGN.md) lines; move history to CHANGES.md" >&2
  exit 1
fi

echo "==> the docs name only what the tree has: files, identifiers, flags, DESIGN sections"
# DESIGN.md, README.md and EXPERIMENTS.md describe the tree as it is. This
# reports, one per line, each name they give that the tracked tree lacks:
#   - a file path not in `git ls-files`, matched by path suffix (`host.rs`,
#     `core/src/pieo.rs`) or as a cargo target name (`examples/host_microbench`);
#   - a backticked snake_case identifier with two or more underscores that
#     no tracked .rs file contains;
#   - a `--flag` that is neither in a string literal of shipped code (before
#     the first `#[cfg(test)]`, as scripts/loc.sh counts) nor an argument in
#     scripts/*.sh; cargo's own options, between `cargo` and ` -- `, are skipped;
#   - and, from any tracked .md, .rs or .sh file, a `DESIGN §Nx` or
#     `DESIGN.md §Nx` that is not one of DESIGN.md's `## Nx.` headings.
if ! python3 - <<'EOF'; then
import re, subprocess, sys

tracked = subprocess.run(["git", "ls-files"], capture_output=True, text=True, check=True).stdout.split()

def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()

def shipped_literals(path):
    lines = read(path).split("\n")
    cut = next((i for i, l in enumerate(lines) if re.match(r"\s*#\[cfg\(test\)\]", l)), len(lines))
    code = "\n".join(l for l in lines[:cut] if not l.lstrip().startswith("//"))
    code = re.sub(r"b?'(?:\\.|[^\\'\n])'", "", code)  # a '"' char would pair wrongly
    return re.findall(r'"(?:[^"\\]|\\.)*"', code, re.S)

FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
words, flags = set(), set()
for path in tracked:
    if path.endswith(".rs"):
        words.update(re.findall(r"\w+", read(path)))
    if re.match(r"(crates/[^/]+/src|src|perfbench/src)/.*\.rs$", path):
        for literal in shipped_literals(path):
            flags.update(FLAG.findall(literal))
    elif re.fullmatch(r"scripts/[^/]+\.sh", path):
        for line in read(path).split("\n"):
            if not line.lstrip().startswith("#"):
                flags.update(FLAG.findall(line))

def exists(name):
    for q in (name, name + ".rs"):
        if any(t == q or t.endswith("/" + q) or ("/" + t).find("/" + q + "/") >= 0 for t in tracked):
            return True
    return False

def line_of(text, offset):
    return text.count("\n", 0, offset) + 1

bad = []
for doc in ("DESIGN.md", "README.md", "EXPERIMENTS.md"):
    text = read(doc)
    for m in re.finditer(r"[\w./{}*-]+", text):
        word = m.group().rstrip(".-")
        if re.search(r"[{}*]", word) or word.startswith(("/", "target/", "..")):
            continue  # a pattern, an absolute path or a build output
        if re.search(r"\.(rs|sh|md|json|toml|py)$", word) or re.match(
            r"(crates|examples|tests|scripts|src|perfbench|results)/", word
        ):
            name = word.removeprefix("./").rstrip("/")
            if not exists(name):
                bad.append(f"{doc}:{line_of(text, m.start())}: no tracked file `{word}`")
    fence = re.compile(r"^```.*?^```", re.M | re.S)
    prose = fence.sub(lambda m: "\n" * m.group().count("\n"), text)
    for span in list(fence.finditer(text)) + list(re.finditer(r"`[^`]+`", prose)):
        for m in re.finditer(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+){2,}\b", span.group()):
            if m.group() not in words:
                line = line_of(span.string, span.start() + m.start())
                bad.append(f"{doc}:{line}: no .rs file names `{m.group()}`")
    for i, line in enumerate(text.split("\n"), 1):
        for flag in FLAG.findall(re.sub(r"\bcargo\b(?:(?! -- )[^`])*", "", line)):
            if flag not in flags:
                bad.append(f"{doc}:{i}: no shipped code or script reads `{flag}`")

sections = set(re.findall(r"^## ([0-9]+[a-z]?)\. ", read("DESIGN.md"), re.M))
for path in tracked:
    if path.endswith((".md", ".rs", ".sh")):
        for i, line in enumerate(read(path).split("\n"), 1):
            for section in re.findall(r"DESIGN(?:\.md)?(?:'s)? §([0-9]+[a-z]?)", line):
                if section not in sections:
                    bad.append(f"{path}:{i}: DESIGN.md has no §{section}")
if bad:
    sys.exit("\n".join(bad))
EOF
  echo "a doc names a file, identifier, flag or DESIGN section the tree does not have" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
# Includes the workload conformance suites: statistical (workload_stats)
# and grammar (scenario_grammar, grammar_hostile and its outcome corpus),
# and, since tests build with debug assertions, the audit layer's mutation
# smoke: it must catch a seeded accounting bug (netsim's audit suite,
# seeded_phantom_packet_is_caught).
# Includes the golden-trace regression suite (golden_trace) and the
# deflection-policy conformance and invariant suites (policy_conformance,
# deflect_invariants), which read the provenance trace.
cargo test --workspace -q

echo "==> audit observes, never perturbs: digest diff, debug build against release"
cargo run --quiet --example audit_digest > /tmp/vertigo_digest_audit.txt
cargo run --release --quiet --example audit_digest > /tmp/vertigo_digest_plain.txt
diff /tmp/vertigo_digest_plain.txt /tmp/vertigo_digest_audit.txt

echo "==> resume equivalence: checkpoint+resume digest (faults active)"
# fig5's cells are phased (incast deferred to W = 5 ms), and the plain run
# starts each warmup class's cells from clones of one warmed simulation
# while the checkpointing and resuming runs simulate every cell straight
# through: the diffs below are also the shared-warmup-vs-straight-through
# oracle.
SNAPDIR=/tmp/vertigo_snapshot_ci
rm -rf "$SNAPDIR"
FAULTS='loss:*:0.002@2ms-10ms'
base="$SNAPDIR/wheel"
mkdir -p "$base"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  fig5 --quick --faults "$FAULTS" --out "$base/straight" \
  | grep -v '^\[csv\]' > "$base/straight.txt"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  fig5 --quick --faults "$FAULTS" --out "$base/ck" \
  --checkpoint-every "6ms:$base/snaps/fig5.vsnp" \
  | grep -v '^\[csv\]' > "$base/ck.txt"
# Checkpointing must not perturb the run.
diff "$base/straight.txt" "$base/ck.txt"
diff -r "$base/straight" "$base/ck"
# Resume from the deepest checkpoint (t = 18 ms), then delete it and
# resume from t = 12 ms: equivalence at two distinct sim-times.
for t in 18000000 12000000; do
  out="$base/resume_$t"
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    fig5 --quick --faults "$FAULTS" --out "$out" \
    --resume "$base/snaps/fig5.vsnp" 2> "$out.err" \
    | grep -v '^\[csv\]' > "$out.txt"
  grep -q -- "-t$t.vsnp" "$out.err"   # really resumed at this depth
  diff "$base/straight.txt" "$out.txt"
  diff -r "$base/straight" "$out"
  rm -f "$base/snaps/"*"-t$t.vsnp"
done
# Crossing W after a resume: checkpoints every 4 ms, all but the one
# at t = 4 ms (before W) deleted, so the resumed cells restore, apply
# the phase at 5 ms and install the deferred incast themselves.
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  fig5 --quick --faults "$FAULTS" --out "$base/ck4" \
  --checkpoint-every "4ms:$base/snaps4/fig5.vsnp" > /dev/null
find "$base/snaps4" -name '*.vsnp' ! -name '*-t4000000.vsnp' -delete
out="$base/resume_across_w"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  fig5 --quick --faults "$FAULTS" --out "$out" \
  --resume "$base/snaps4/fig5.vsnp" 2> "$out.err" \
  | grep -v '^\[csv\]' > "$out.txt"
grep -q -- "-t4000000.vsnp" "$out.err"
diff "$base/straight.txt" "$out.txt"
diff -r "$base/straight" "$out"

echo "==> checkpoints cross builds: a debug build's resumes under --release, and back"
# One payload layout in every build: table2's cells checkpointed by one
# build at t = 12 ms and resumed by the other must print what the straight
# run prints. The debug side audits the resumed run's last 8 ms from the
# custody tallies the release side wrote.
base="$SNAPDIR/cross"
mkdir -p "$base"
t2() { # PROFILE ARGS...: `table2 --quick ARGS...` built by cargo's PROFILE
  local profile=$1
  shift
  cargo run --profile "$profile" --quiet -p vertigo-experiments --bin experiments -- \
    table2 --quick "$@" | grep -v '^\[csv\]'
}
t2 release --out "$base/straight" > "$base/straight.txt"
for pair in dev:release release:dev; do
  from=${pair%:*}
  to=${pair#*:}
  t2 "$from" --out "$base/ck_$from" \
    --checkpoint-every "12ms:$base/snaps_$from/t2.vsnp" 2> /dev/null > "$base/ck_$from.txt"
  diff "$base/straight.txt" "$base/ck_$from.txt"
  out="$base/${from}_to_$to"
  t2 "$to" --out "$out" --resume "$base/snaps_$from/t2.vsnp" 2> "$out.err" > "$out.txt"
  grep -q '^\[snapshot\] resumed' "$out.err"   # really resumed
  diff "$base/straight.txt" "$out.txt"
  diff -r "$base/straight" "$out"
done

echo "==> resume equivalence under trace: identical .vtrace streams from the resume point on"
base="$SNAPDIR/traced"
mkdir -p "$base"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  fig5 --quick --faults "$FAULTS" --out "$base/straight" \
  --trace "$base/tstraight/fig5.vtrace:time=18ms-" \
  --checkpoint-every "6ms:$base/snaps/fig5.vsnp" \
  | grep -v '^\[csv\]' > "$base/straight.txt"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  fig5 --quick --faults "$FAULTS" --out "$base/resume" \
  --resume "$base/snaps/fig5.vsnp" \
  --trace "$base/tresume/fig5.vtrace:time=18ms-" \
  | grep -v '^\[csv\]' > "$base/resume.txt"
diff "$base/straight.txt" "$base/resume.txt"
diff -r "$base/straight" "$base/resume"
for f in "$base"/tstraight/*.vtrace; do
  cargo run --release --quiet -p vertigo-experiments --bin vtrace -- \
    diff "$f" "$base/tresume/$(basename "$f")" > /dev/null
done

echo "==> deflect override is inert at the default: --deflect vertigo vs no flag"
base=/tmp/vertigo_deflect_ci
rm -rf "$base"
mkdir -p "$base"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  fig5 --quick --out "$base/native" \
  | grep -v '^\[csv\]' > "$base/native.txt"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  fig5 --quick --deflect vertigo --out "$base/explicit" \
  | grep -v '^\[csv\]' > "$base/explicit.txt"
# Explicitly selecting the default policy must be byte-unobservable.
diff "$base/native.txt" "$base/explicit.txt"
diff -r "$base/native" "$base/explicit"

echo "==> figdeflect smoke: all five policies produce rows"
FIGDEFL=/tmp/vertigo_figdeflect_ci
rm -rf "$FIGDEFL"
mkdir -p "$FIGDEFL"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  figdeflect --quick --out "$FIGDEFL" > /dev/null
for p in vertigo dibs pabo hybrid bounded; do
  grep -q ",$p," "$FIGDEFL/figdeflect.csv"
done

echo "==> vsnp inspect: decodes checkpoint headers"
# A glob, not `ls | head -1`: under pipefail a long listing can die of
# SIGPIPE and fail the step.
set -- "$SNAPDIR"/wheel/snaps/*.vsnp
ckpt=$1
cargo run --release --quiet -p vertigo-experiments --bin vsnp -- \
  inspect "$ckpt" | tee /tmp/vertigo_vsnp_ci.txt
grep -q 'sim time' /tmp/vertigo_vsnp_ci.txt
version=$(sed -n 's/^pub const SNAP_VERSION: u16 = \([0-9]*\);$/\1/p' crates/simcore/src/snap.rs)
test -n "$version"
grep -q "version    $version" /tmp/vertigo_vsnp_ci.txt
# Garbage input must fail loudly with a non-zero exit.
if cargo run --release --quiet -p vertigo-experiments --bin vsnp -- \
  inspect scripts/ci.sh 2> /dev/null; then
  echo "vsnp inspect accepted a non-snapshot file" >&2
  exit 1
fi

echo "==> domain equivalence: fig5 at --domains 1/2 (faults active) and soak at 1/2/4/64"
base=/tmp/vertigo_domains_ci
rm -rf "$base"
mkdir -p "$base"
for n in 1 2; do
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    fig5 --quick --faults "$FAULTS" --out "$base/d$n" --domains "$n" \
    | grep -v '^\[csv\]' > "$base/d$n.txt"
done
# The domain count must be unobservable: same stdout, same CSVs.
diff "$base/d1.txt" "$base/d2.txt"
diff -r "$base/d1" "$base/d2"
# The per-pod partition of the fat-tree, end to end: one domain, two
# pods a domain, one pod a domain, and more domains than zones (one
# domain a zone runs).
for n in 1 2 4 64; do
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    soak --quick --out "$base/soak_d$n" --domains "$n" \
    | grep -v '^\[csv\]' > "$base/soak_d$n.txt"
done
for n in 2 4 64; do
  diff "$base/soak_d1.txt" "$base/soak_d$n.txt"
  diff -r "$base/soak_d1" "$base/soak_d$n"
done

echo "==> committed quick CSVs are what the tree produces: experiments all --quick vs results/quick"
# The whole directory is the refactoring oracle: every figure, default
# flags (so an absent --workload, --deflect, --faults or --domains must
# not move a committed byte). ≈ 2.7 min on 2 cores.
WLDIR=/tmp/vertigo_workload_ci
rm -rf "$WLDIR"
mkdir -p "$WLDIR"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  all --quick --out "$WLDIR/quick" > /dev/null
diff -r results/quick "$WLDIR/quick"

echo "==> soak smoke: multi-tenant scenario with the audit layer live (a debug build)"
cargo run --quiet -p vertigo-experiments --bin experiments -- \
  soak --quick --out "$WLDIR/soak" 2> "$WLDIR/soak.err" > "$WLDIR/soak.txt"
grep -q 'bursty' "$WLDIR/soak.txt"        # per-tenant breakdown printed
grep -q 'conservation layer live' "$WLDIR/soak.err"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> perfbench (own workspace, path deps on crates/*): tests, fmt, clippy"
# The benchmark package only calls public functions of the workspace
# crates; an API change that breaks it must fail here, not in the pipeline.
cargo test --manifest-path perfbench/Cargo.toml -q
cargo fmt --manifest-path perfbench/Cargo.toml --check
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> memory follows what is live: ft_soak and ft_soak_d1 peak RSS under 7.6 MB (ft_soak reads 7.1; 7.4 while finished flows kept their Recorder records and host flow slots held whole states; 7.9 while fingerprints stayed until their flow completed; 8.5 while retransmission counters did; 9.6 while drained rings, flow tables and the wheel's pool kept their busiest moment's room; 10.6 while finished receivers stayed whole; 49 MB with flat filter tables. ft_soak_d1 reads 6.7 since one domain records into the run's recorder)"
for w in ft_soak ft_soak_d1; do
  rss=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml --bin perf -- \
    --workload "$w" --seed 1 --seconds 3 --trace 0 \
    | tail -1 | sed 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/')
  echo "$w peak_rss_mb = $rss"
  awk -v rss="$rss" 'BEGIN { exit !(rss > 0 && rss < 7.6) }'
done

echo "==> the other three pinned full-horizon digests reproduce (perf exits 1 on a mismatch)"
# With ft_soak above that is all four cells: a tie-order slip in any
# ordered structure (event queue, PIEO ring, ordering buffer, flow table)
# moves events=, ord= or mark= and fails here, not in the pipeline. The
# domain engine's cell at all three pinned seeds: each ties differently.
for run in ls_burst_vertigo:1 ls_bg_ecmp_swift:1 ft_soak_d1:1 ft_soak_d1:2 ft_soak_d1:3; do
  cargo run --release --quiet --manifest-path perfbench/Cargo.toml --bin perf -- \
    --workload "${run%:*}" --seed "${run#*:}" --seconds 2 --trace 0 | tail -1 | cut -c1-60
done

echo "==> sampling profiler smoke: one repetition yields samples"
# The profile itself wants frame pointers (scripts/profile.sh); here only:
# the example builds, its timer fires and its output is not empty.
samples=$(cargo run --release --quiet --example sample_profile -- ls_burst_vertigo 1 \
  | grep -vc '^#')
echo "sample_profile ls_burst_vertigo 1: $samples samples"

echo "==> one domain against the classic loop, alternated in process (information, never a gate)"
# ROADMAP's "One engine" item wants the last column at 1.02 before the
# classic loop can go; this box drifts by a fifth over minutes, hence
# single repetitions in turn rather than two runs back to back.
cargo run --release --quiet --example sample_profile -- --time ft_soak ft_soak_d1 8

echo "==> the default soak: its CSV must equal results/default/soak.csv byte for byte; its peak RSS and wall time are information, never a gate (≈ 17.4 MB since finished flows fold out of the Recorder, 23.5 while their records stayed and since fingerprints leave at the cumulative ACK, 35 before, 43 while retransmission counters stayed until their flow completed, 49 before drained buffers gave their room back)"
rm -rf /tmp/vertigo_soak_info
python3 - <<'EOF'
import resource, subprocess, time
start = time.time()
subprocess.run(
    ["target/release/experiments", "soak", "--out", "/tmp/vertigo_soak_info"],
    stdout=subprocess.DEVNULL,
    check=True,
)
wall = time.time() - start
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"soak: peak RSS {rss:.1f} MB, wall {wall:.1f} s")
EOF
cmp /tmp/vertigo_soak_info/soak.csv results/default/soak.csv

echo "==> two revisions alternated: scripts/ab.sh smoke (information, never a gate)"
# One pair of the committed tree against itself: the script builds, runs
# and reports. Comparing a change with its parent takes the default 40.
scripts/ab.sh HEAD HEAD ls_bg_ecmp_swift 1

echo "==> lines of Rust by crate (the numbers CHANGES.md entries quote)"
scripts/loc.sh

echo "==> ci OK"
