//! `perf`: the repository's benchmark.
//!
//! ```sh
//! # what the driver runs, once per (workload, seed, trace):
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin perf -- \
//!     --workload ft_soak --seed 1 --seconds 20 --trace 0
//! # the whole suite into one result file, then judged against another:
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin perf -- --seed 1 --out b.json
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin perf -- --compare a.json b.json
//! ```
//!
//! Every repetition runs in a fresh child process (this binary, started
//! with `--child`), so peak memory is the cell's own and allocator state
//! never carries over. See `README.md` in this directory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};
use vertigo_perfbench::cells::{self, Cell};
use vertigo_perfbench::compare;
use vertigo_perfbench::estimate::{median, quartiles};
use vertigo_perfbench::json::Json;
use vertigo_perfbench::metrics::{self, MetricDef, Values, END_TO_END, PER_LAYER};
use vertigo_perfbench::probes::{self, ProbeInput};
use vertigo_perfbench::rep::{self, Rep};
use vertigo_perfbench::spans::Tracer;
use vertigo_perfbench::traced::{self, AllocHooks};

/// The system allocator, counting while armed. The counters publish no
/// other data, hence `Relaxed`.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(size: usize) {
    if ARMED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the caller's; counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, per the caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ALLOC_HOOKS: AllocHooks = AllocHooks {
    arm: |on| ARMED.store(on, Relaxed),
    read: || (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed)),
};

/// Seconds one run measures for unless `--seconds` says otherwise; also
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;

/// Untraced runs of each workload in a suite: enough for `--compare` to
/// see a spread.
const SUITE_RUNS: usize = 3;

const USAGE: &str = "usage: perf [--workload NAME --trace 0|1] [--seed N] [--seconds S]
            [--only NAME] [--reps N] [--quick] [--out FILE]
       perf --list | --compare A.json B.json | --pin
  --workload NAME  one run of one workload; the last line of stdout is its result
  --trace 0|1      with --workload: end-to-end metrics (0) or the traced pass (1)
  --seed N         workload seed (default 1)
  --seconds S      how long one run measures on the sizing box (default 20); it
                   fixes the repetition count, whatever the speed of the code
  --only NAME      suite: this workload only
  --reps N         exactly N repetitions per run, whatever --seconds says
  --quick          horizons divided by ten (smoke tests; digests are not pinned)
  --out FILE       suite: where the result file goes (default <target>/perf/result.json)
  --list           print workloads and metrics without running
  --compare A B    judge result file B against A; exit 1 on a regression
  --pin            write expected/<workload>.seed<N>.digest for --seed";

struct Opts {
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    quick: bool,
    out_dir: PathBuf,
}

/// `<target>/perf`, next to the profile directory this binary sits in.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this binary");
    exe.parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/")
        .join("perf")
}

fn expected_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.seed{seed}.digest"))
}

fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Child mode: one untraced repetition, its result written to `out`.
fn child(cell: &Cell, out: &Path) -> Result<(), String> {
    let r = rep::run(cell);
    let mut j = r.to_json();
    j.set("peak_rss_kb", vm_hwm_kb());
    std::fs::write(out, j.to_string()).map_err(|e| format!("writing {}: {e}", out.display()))
}

/// Runs one repetition in a fresh child and returns it with the child's
/// peak resident set in MB. A child that exits non-zero, writes no
/// result, or runs past ten times the cell's expected time (it is
/// killed) is an error.
fn spawn_rep(cell: &Cell, opts: &Opts) -> Result<(Rep, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let result = opts
        .out_dir
        .join(format!("rep-{}.json", std::process::id()));
    let mut cmd = Command::new(exe);
    cmd.args(["--child", cell.name, "--seed", &cell.spec.seed.to_string()])
        .arg("--child-out")
        .arg(&result);
    if opts.quick {
        cmd.arg("--quick");
    }
    let mut ch = cmd.spawn().map_err(|e| format!("spawning child: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(cell.expected_s * 10.0 + 2.0);
    let status = loop {
        match ch.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = ch.kill();
                let _ = ch.wait();
                return Err(format!(
                    "repetition killed after {:.0} s",
                    cell.expected_s * 10.0
                ));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    if !status.success() {
        return Err(format!("child {status}"));
    }
    let text = std::fs::read_to_string(&result).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&result);
    let j = Json::parse(&text)?;
    let rss_kb = j.get("peak_rss_kb").and_then(Json::num).unwrap_or(0.0);
    Ok((Rep::from_json(&j)?, rss_kb / 1024.0))
}

/// The outcome of one run of one workload.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Values,
    digest: String,
    /// Whole-run seconds of every valid repetition, for information.
    whole_s: Vec<f64>,
}

/// The untraced repetitions of one run.
struct Repetitions {
    /// Those that reproduced the reference digest.
    valid: Vec<Rep>,
    /// Peak resident set of each valid repetition's child, MB.
    rss_mb: Vec<f64>,
    /// The pinned digest or, on an unpinned seed, the first one seen.
    reference: Option<String>,
    attempted: u64,
    /// Panicked, killed, or digest other than the reference.
    failed: u64,
}

/// The untraced repetitions of a run that measures for `budget_s`
/// seconds, each checked against the pinned digest — or, on an unpinned
/// seed, against the first. How many there are follows from the budget
/// and the cell alone ([`Cell::reps_in`]), never from how fast they ran:
/// the wall-time estimate falls as repetitions are added, so parent and
/// change must get the same number. The budget itself is only a limit:
/// repetitions not started after five times the budget count as failed.
/// `after_each` runs after every valid repetition.
fn repetitions(
    cell: &Cell,
    opts: &Opts,
    budget_s: f64,
    mut after_each: impl FnMut(&Rep),
) -> Repetitions {
    let wanted = opts.reps.unwrap_or_else(|| cell.reps_in(budget_s)) as u64;
    let mut out = Repetitions {
        valid: Vec::new(),
        rss_mb: Vec::new(),
        // A quick cell has another horizon than the pinned one.
        reference: (!opts.quick)
            .then(|| std::fs::read_to_string(expected_path(cell.name, cell.spec.seed)).ok())
            .flatten()
            .map(|s| s.trim().to_owned()),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    // Three failures are a verdict; more would only burn the budget.
    while out.attempted < wanted && out.failed < 3 {
        if start.elapsed().as_secs_f64() > 5.0 * budget_s {
            eprintln!(
                "perf: {} seed {}: {} repetitions not started within {:.0} s",
                cell.name,
                cell.spec.seed,
                wanted - out.attempted,
                5.0 * budget_s
            );
            out.failed += wanted - out.attempted;
            out.attempted = wanted;
            break;
        }
        out.attempted += 1;
        match spawn_rep(cell, opts) {
            Ok((r, mb)) => {
                let want = out.reference.get_or_insert_with(|| r.digest.clone());
                if r.digest == *want {
                    after_each(&r);
                    out.valid.push(r);
                    out.rss_mb.push(mb);
                } else {
                    eprintln!(
                        "perf: {} seed {}: digest mismatch\n  want {want}\n  got  {}",
                        cell.name, cell.spec.seed, r.digest
                    );
                    out.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("perf: {} seed {}: {e}", cell.name, cell.spec.seed);
                out.failed += 1;
            }
        }
    }
    out
}

/// Checks that hold at any seed: nothing completes that never started,
/// and the domain engine's outcome does not depend on the partition (on
/// a tenth of the cell, since two threads on this box are slow).
fn sane(cell: &Cell, r: &Rep, check_partition: bool) -> bool {
    let mut ok = r.count("flows_completed") <= r.count("flows_started")
        && r.count("queries_completed") <= r.count("queries_started")
        && r.count("events") > 0.0;
    if check_partition && cell.spec.domains.is_some() {
        let mut one = cells::cell(cell.name, cell.spec.seed, true)
            .expect("named cell exists")
            .spec;
        let mut two = one;
        one.domains = Some(1);
        two.domains = Some(2);
        ok &= rep::plain_digest(&one) == rep::plain_digest(&two);
    }
    if !ok {
        eprintln!(
            "perf: {} seed {}: sanity check failed",
            cell.name, cell.spec.seed
        );
    }
    ok
}

impl RunResult {
    /// A run judged on `reps`, with `metrics` computed from them unless
    /// none was valid.
    fn new(
        reps: &Repetitions,
        failed: u64,
        correct: bool,
        metrics: impl FnOnce() -> Values,
    ) -> Self {
        RunResult {
            correct: correct && failed == 0 && !reps.valid.is_empty(),
            attempted: reps.attempted,
            failed,
            metrics: if reps.valid.is_empty() {
                Values::new()
            } else {
                metrics()
            },
            digest: reps.reference.clone().unwrap_or_default(),
            whole_s: reps.valid.iter().map(|r| r.whole_ns as f64 / 1e9).collect(),
        }
    }
}

/// One run with tracing off: the end-to-end metrics.
fn run_untraced(cell: &Cell, opts: &Opts) -> RunResult {
    let reps = repetitions(cell, opts, opts.seconds, |_| ());
    let sane = reps.valid.first().is_some_and(|r| sane(cell, r, true));
    RunResult::new(&reps, reps.failed, sane, || {
        metrics::end_to_end(&reps.valid, &reps.rss_mb)
    })
}

/// One run with tracing on: the untraced repetitions of half the budget
/// (the base of the shares and of the overhead) with one round of probes
/// after each, then the traced pass. Writes `spans-<workload>.jsonl`.
fn run_traced(cell: &Cell, opts: &Opts) -> RunResult {
    let mut tracer = Tracer::new();
    let root = tracer.enter("perf.traced_run");
    let mut probes = probes::ProbeResults::new();
    let mut reps = repetitions(cell, opts, opts.seconds / 2.0, |r| {
        let id = tracer.enter("perf.probes");
        let round = probes::run_round(
            &mut tracer,
            &ProbeInput {
                queue_depth: r.count("peak_pending") as usize,
                flows: r.count("flows_started") as u64,
                switch: cell.spec.switch_config(),
                cc: cell.spec.cc,
                ops_divisor: if opts.quick { 10 } else { 1 },
            },
        );
        tracer.exit(id, &[]);
        probes::keep_fastest(&mut probes, round);
    });
    if reps.valid.is_empty() {
        return RunResult::new(&reps, reps.failed, false, Values::new);
    }
    let mut failed = reps.failed;
    reps.attempted += 1;
    let traced = traced::run(cell, &mut tracer, &ALLOC_HOOKS);
    if Some(&traced.rep.digest) != reps.reference.as_ref() || !traced.consistent {
        eprintln!(
            "perf: {} seed {}: traced pass diverged\n  want {}\n  got  {}",
            cell.name,
            cell.spec.seed,
            reps.reference.as_deref().unwrap_or(""),
            traced.rep.digest
        );
        failed += 1;
    }
    tracer.exit(root, &[]);
    let spans = opts.out_dir.join(format!("spans-{}.jsonl", cell.name));
    if let Err(e) = tracer.write_jsonl(&spans) {
        eprintln!("perf: writing {}: {e}", spans.display());
        failed += 1;
    }
    RunResult::new(&reps, failed, sane(cell, &traced.rep, false), || {
        metrics::per_layer(&reps.valid, &traced, &tracer, &probes)
    })
}

fn unit_of(table: &[MetricDef], name: &str) -> &'static str {
    table
        .iter()
        .find(|d| d.name == name)
        .expect("metric defined")
        .unit
}

fn print_metrics(cell: &Cell, table: &[MetricDef], r: &RunResult) {
    let (q1, q2, q3) = quartiles(&r.whole_s);
    println!(
        "== {} seed {}: {} repetitions, {} failed; whole run {q2:.3} s (quartiles {q1:.3}-{q3:.3})",
        cell.name, cell.spec.seed, r.attempted, r.failed
    );
    for (name, v) in &r.metrics {
        println!("{name:<44} {v:>18.6} {}", unit_of(table, name));
    }
}

/// The result object the driver reads from the last line of stdout.
fn result_line(table: &[MetricDef], r: &RunResult) -> Json {
    let mut m = Json::obj();
    for (name, v) in &r.metrics {
        let mut one = Json::obj();
        one.set("value", *v).set("unit", unit_of(table, name));
        m.set(name, one);
    }
    let mut j = Json::obj();
    j.set("correct", r.correct)
        .set("attempted", r.attempted)
        .set("failed", r.failed)
        .set("metrics", m);
    j
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and on what a result file was measured.
fn header(opts: &Opts) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split(':')
                    .nth(1)
                    .map(str::trim)
                    .map(str::to_owned)
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let features: Vec<Json> = [
        ("audit", vertigo_stats::AUDIT_AVAILABLE),
        ("trace", vertigo_stats::TRACE_AVAILABLE),
        ("snapshot", vertigo_simcore::SNAPSHOT_AVAILABLE),
    ]
    .iter()
    .filter(|f| f.1)
    .map(|f| Json::from(f.0))
    .collect();
    let mut h = Json::obj();
    h.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
    )
    .set("cpu_model", cpu)
    .set("rustc", first_line("rustc", &["-V"]))
    .set("git_commit", first_line("git", &["rev-parse", "HEAD"]))
    .set("build_features", features)
    .set("seed", opts.seed)
    .set("seconds", opts.seconds)
    .set("runs", SUITE_RUNS as u64)
    .set("quick", opts.quick);
    h
}

/// The suite: [`SUITE_RUNS`] untraced runs of every workload,
/// round-robin so that drift of the box hits all cells alike, then one
/// traced run each. Returns whether every run was correct.
fn suite(names: &[&str], opts: &Opts, out: &Path) -> Result<bool, String> {
    let cells: Vec<Cell> = names
        .iter()
        .map(|n| cells::cell(n, opts.seed, opts.quick).expect("named cell exists"))
        .collect();
    let mut untraced: Vec<Vec<RunResult>> = cells.iter().map(|_| Vec::new()).collect();
    for _ in 0..SUITE_RUNS {
        for (cell, results) in cells.iter().zip(&mut untraced) {
            let r = run_untraced(cell, opts);
            print_metrics(cell, END_TO_END, &r);
            results.push(r);
        }
    }
    let mut all_correct = true;
    let mut workloads = Json::obj();
    for (cell, results) in cells.iter().zip(&untraced) {
        let traced = run_traced(cell, opts);
        print_metrics(cell, PER_LAYER, &traced);
        let mut e2e = Json::obj();
        for def in END_TO_END {
            let per_run: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| m.0 == def.name).map(|m| m.1))
                .collect();
            let mut m = Json::obj();
            m.set("value", median(&per_run))
                .set("unit", def.unit)
                .set("better", def.better.word())
                .set("bound", def.bound.expect("end-to-end bound"))
                .set("runs", Json::nums(&per_run));
            e2e.set(def.name, m);
        }
        let mut layers = Json::obj();
        for (def, (_, v)) in PER_LAYER.iter().zip(&traced.metrics) {
            let mut m = Json::obj();
            m.set("value", *v)
                .set("unit", def.unit)
                .set("better", def.better.word());
            layers.set(def.name, m);
        }
        let correct = traced.correct && results.iter().all(|r| r.correct);
        all_correct &= correct;
        let sum = |f: fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() + f(&traced);
        let whole: Vec<f64> = results
            .iter()
            .flat_map(|r| r.whole_s.iter().copied())
            .collect();
        let mut w = Json::obj();
        w.set("why", cell.why)
            .set("correct", correct)
            .set("attempted", sum(|r| r.attempted))
            .set("failed", sum(|r| r.failed))
            .set("digest", traced.digest.as_str())
            .set("whole_run_s", Json::nums(&whole))
            .set("traced_run_whole_run_s", Json::nums(&traced.whole_s))
            .set("end_to_end", e2e)
            .set("per_layer", layers);
        workloads.set(cell.name, w);
    }
    let mut file = Json::obj();
    file.set("schema", "vertigo-perfbench/1")
        .set("header", header(opts))
        .set("workloads", workloads);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(out, format!("{file}\n"))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn list() {
    println!("workloads:");
    for n in cells::NAMES {
        let c = cells::cell(n, 1, false).expect("named cell exists");
        println!("  {:<18} {}", c.name, c.why);
    }
    for (title, table) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("{title} metrics:");
        for d in table {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
            println!(
                "  {:<44} {:<6} {} is better{bound}",
                d.name,
                d.unit,
                d.better.word()
            );
        }
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}")),
        }
    };
    fn parsed<T: std::str::FromStr>(name: &str, v: Option<&str>) -> Result<Option<T>, String> {
        v.map(|s| {
            s.parse()
                .map_err(|_| format!("{name}: cannot read {s:?}\n{USAGE}"))
        })
        .transpose()
    }
    if flag("--help") || flag("-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    if flag("--list") {
        list();
        return Ok(true);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err(format!("--compare needs two files\n{USAGE}"));
        };
        return Ok(compare::compare(&read_json(a)?, &read_json(b)?));
    }

    let opts = Opts {
        seed: parsed("--seed", value("--seed")?)?.unwrap_or(1),
        seconds: parsed("--seconds", value("--seconds")?)?.unwrap_or(RUN_SECONDS as f64),
        reps: parsed("--reps", value("--reps")?)?,
        quick: flag("--quick"),
        out_dir: out_dir(),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) || opts.reps == Some(0) {
        return Err(format!(
            "--seconds must be in (0, 600] and --reps at least 1\n{USAGE}"
        ));
    }
    let cell_named = |name: &str| {
        cells::cell(name, opts.seed, opts.quick)
            .ok_or_else(|| format!("unknown workload {name:?}; try --list"))
    };
    if let Some(name) = value("--child")? {
        let out = value("--child-out")?.ok_or("--child needs --child-out")?;
        child(&cell_named(name)?, Path::new(out))?;
        return Ok(true);
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;

    if flag("--pin") {
        for name in cells::NAMES {
            let digest = rep::plain_digest(&cell_named(name)?.spec);
            let path = expected_path(name, opts.seed);
            std::fs::create_dir_all(path.parent().expect("expected/ directory"))
                .and_then(|()| std::fs::write(&path, format!("{digest}\n")))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("{}: {digest}", path.display());
        }
        return Ok(true);
    }
    if let Some(name) = value("--workload")? {
        let cell = cell_named(name)?;
        let traced = match value("--trace")? {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}\n{USAGE}")),
        };
        let (table, r) = if traced {
            (PER_LAYER, run_traced(&cell, &opts))
        } else {
            (END_TO_END, run_untraced(&cell, &opts))
        };
        print_metrics(&cell, table, &r);
        println!("{}", result_line(table, &r));
        return Ok(r.correct);
    }
    let only = value("--only")?;
    if let Some(name) = only {
        cell_named(name)?;
    }
    let names: Vec<&str> = cells::NAMES
        .into_iter()
        .filter(|n| only.is_none_or(|o| o == *n))
        .collect();
    let out = value("--out")?.map_or_else(|| opts.out_dir.join("result.json"), PathBuf::from);
    suite(&names, &opts, &out)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
