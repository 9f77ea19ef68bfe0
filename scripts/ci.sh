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

echo "==> one build: no cargo features"
# The conservation audit runs in every debug-assertion build and the packet
# recorder in every build, armed at run time; a feature would split the
# builds, the tests and the checkpoint layout again.
if grep -nE '^[[:space:]]*\[features\]' Cargo.toml crates/*/Cargo.toml \
  || grep -rnE 'feature = "(audit|trace)"' crates src tests examples; then
  echo "a manifest declares features or a source gates on one; the build has none" >&2
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
# starts each warmup class's cells from one in-memory snapshot while the
# checkpointing and resuming runs simulate every cell straight through:
# the diffs below are also the shared-warmup-vs-straight-through oracle.
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

echo "==> tune smoke: a Pareto front, the same at --jobs 1 and 2, on both strategies"
TUNEDIR=/tmp/vertigo_tune_ci
rm -rf "$TUNEDIR"
for search in grid halving; do
  base="$TUNEDIR/$search"
  mkdir -p "$base"
  for j in 1 2; do
    cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
      tune --quick --search "$search" --budget 4 --jobs "$j" --out "$base/j$j" \
      | sed "s|$base/j$j|OUT|" > "$base/j$j.txt"
  done
  diff "$base/j1.txt" "$base/j2.txt"
  diff "$base/j1/tune.csv" "$base/j2/tune.csv"
  grep -q '^  cand' "$base/j1.txt"   # a Pareto front was printed
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
ckpt=$(ls "$SNAPDIR"/wheel/snaps/*.vsnp | head -1)
cargo run --release --quiet -p vertigo-experiments --bin vsnp -- \
  inspect "$ckpt" | tee /tmp/vertigo_vsnp_ci.txt
grep -q 'sim time' /tmp/vertigo_vsnp_ci.txt
grep -q 'version    5' /tmp/vertigo_vsnp_ci.txt
# Garbage input must fail loudly with a non-zero exit.
if cargo run --release --quiet -p vertigo-experiments --bin vsnp -- \
  inspect scripts/ci.sh 2> /dev/null; then
  echo "vsnp inspect accepted a non-snapshot file" >&2
  exit 1
fi

echo "==> domain equivalence: fig5 at --domains 1/2 (faults active) and soak at 1/2/4"
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
# pods a domain, one pod a domain.
for n in 1 2 4; do
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    soak --quick --out "$base/soak_d$n" --domains "$n" \
    | grep -v '^\[csv\]' > "$base/soak_d$n.txt"
done
for n in 2 4; do
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

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> perfbench (own workspace, path deps on crates/*): tests, fmt, clippy"
# The benchmark package only calls public functions of the workspace
# crates; an API change that breaks it must fail here, not in the pipeline.
cargo test --manifest-path perfbench/Cargo.toml -q
cargo fmt --manifest-path perfbench/Cargo.toml --check
cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> memory follows what is live: ft_soak peak RSS under 9 MB (it reads 8.5; 9.6 while drained rings, flow tables and the wheel's pool kept their busiest moment's room; 10.6 while finished receivers stayed whole; 49 MB with flat filter tables)"
rss=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml --bin perf -- \
  --workload ft_soak --seed 1 --seconds 3 --trace 0 \
  | tail -1 | sed 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/')
echo "ft_soak peak_rss_mb = $rss"
awk -v rss="$rss" 'BEGIN { exit !(rss > 0 && rss < 9) }'

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

echo "==> the default soak's peak RSS and wall time (information, never a gate; ≈ 43 MB since drained buffers give their room back, 49 before)"
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

echo "==> two revisions alternated: scripts/ab.sh smoke (information, never a gate)"
# One pair of the committed tree against itself: the script builds, runs
# and reports. Comparing a change with its parent takes 20 pairs or more.
scripts/ab.sh HEAD HEAD ls_bg_ecmp_swift 1

echo "==> lines of Rust by crate (the numbers CHANGES.md entries quote)"
scripts/loc.sh

echo "==> ci OK"
