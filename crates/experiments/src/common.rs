//! Shared infrastructure for the reproduction harness: scale presets,
//! load arithmetic, table printing, and CSV output.
//!
//! ## Scaling
//!
//! The paper simulates 320 servers for 5 s per datapoint — hours of wall
//! time per figure on one core. The harness therefore defaults to a scaled
//! topology that preserves the quantities the results depend on (2.5:1
//! leaf oversubscription, 300 KB port buffers, 10/40 Gbps links, buffer ≈
//! 1.5× path BDP, incast fan-in as a fraction of cluster size) while
//! shrinking host count and horizon. `--full` runs paper scale;
//! `--quick` is for smoke tests. EXPERIMENTS.md records which preset
//! produced the committed numbers.

use std::fmt::Display;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::str::FromStr;
use vertigo_netsim::DomainSimulation;
use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{
    CheckpointSpec, DeflectKind, FaultSchedule, ForkSpec, IncastSpec, RunSpec, ScenarioSpec,
    SnapshotSpec, SystemKind, TopoKind, TraceSpec, WorkloadSpec,
};

/// `println!` for figure output: every line of a subcommand's stdout goes
/// through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::common::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}
pub(crate) use outln;

/// Writes to the locked stdout. A reader that has stopped reading
/// (`experiments fig5 | head`) ends the run there: exit 0, nothing on
/// stderr, since the output it wanted has arrived.
pub fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Scale preset for a harness invocation.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Hosts per leaf in the 4×8 leaf-spine (paper: 40).
    pub hosts_per_leaf: usize,
    /// Fat-tree arity (paper: 8).
    pub ft_k: usize,
    /// Horizon for leaf-spine runs (paper: 5 s).
    pub horizon: SimDuration,
    /// Horizon for fat-tree runs (paper: 3 s).
    pub ft_horizon: SimDuration,
    /// Default incast scale (paper: 100 of 320 hosts ≈ 31 %).
    pub incast_scale: usize,
    /// Default incast flow size (paper: 40 KB).
    pub incast_flow: u64,
    /// Preset name for reports.
    pub name: &'static str,
}

impl Scale {
    /// Smoke-test scale: 32 hosts, 20 ms.
    pub fn quick() -> Scale {
        Scale {
            hosts_per_leaf: 4,
            ft_k: 4,
            horizon: SimDuration::from_millis(20),
            ft_horizon: SimDuration::from_millis(20),
            incast_scale: 10,
            incast_flow: 40_000,
            name: "quick",
        }
    }

    /// Default scale: 64 hosts, 60 ms (leaf-spine) / 128 hosts, 30 ms
    /// (fat-tree). Incast fan-in 20/64 ≈ paper's 100/320.
    pub fn default_scale() -> Scale {
        Scale {
            hosts_per_leaf: 8,
            ft_k: 8,
            horizon: SimDuration::from_millis(60),
            ft_horizon: SimDuration::from_millis(30),
            incast_scale: 20,
            incast_flow: 40_000,
            name: "default",
        }
    }

    /// Paper scale: 320 hosts, 500 ms horizon (the paper's 5 s horizon
    /// exists to catch second-scale RTO tails; 500 ms already exposes
    /// them via completion ratios).
    pub fn full() -> Scale {
        Scale {
            hosts_per_leaf: 40,
            ft_k: 8,
            horizon: SimDuration::from_millis(500),
            ft_horizon: SimDuration::from_millis(300),
            incast_scale: 100,
            incast_flow: 40_000,
            name: "full",
        }
    }

    /// The leaf-spine topology at this scale.
    pub fn leaf_spine(&self) -> TopoKind {
        TopoKind::LeafSpine {
            hosts_per_leaf: self.hosts_per_leaf,
        }
    }

    /// The fat-tree topology at this scale.
    pub fn fat_tree(&self) -> TopoKind {
        TopoKind::FatTree { k: self.ft_k }
    }

    /// Host count of the leaf-spine at this scale.
    pub fn ls_hosts(&self) -> usize {
        8 * self.hosts_per_leaf
    }

    /// Aggregate host bandwidth of the leaf-spine (10 Gbps hosts).
    pub fn ls_total_bw(&self) -> u64 {
        self.ls_hosts() as u64 * 10_000_000_000
    }

    /// Host count of the fat-tree at this scale.
    pub fn ft_hosts(&self) -> usize {
        self.ft_k.pow(3) / 4
    }

    /// Aggregate host bandwidth of the fat-tree.
    pub fn ft_total_bw(&self) -> u64 {
        self.ft_hosts() as u64 * 10_000_000_000
    }

    /// The phased-run fork horizon at this scale: the first quarter of
    /// the leaf-spine horizon is the background-only warmup every cell of
    /// an equivalence class shares; the incast burst starts here. (quick:
    /// 5 ms of 20 ms; default: 15 ms of 60 ms; full: 125 ms of 500 ms.)
    pub fn fork_at(&self) -> SimDuration {
        SimDuration::from_nanos(self.horizon.as_nanos() / 4)
    }

    /// An incast spec contributing `load` fraction on the leaf-spine, at
    /// this scale's default fan-in and flow size.
    pub fn incast_for_load(&self, load: f64) -> IncastSpec {
        IncastSpec {
            qps: IncastSpec::qps_for_load(
                load,
                self.incast_scale,
                self.incast_flow,
                self.ls_total_bw(),
            ),
            scale: self.incast_scale,
            flow_bytes: self.incast_flow,
        }
    }
}

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Scale preset.
    pub scale: Scale,
    /// Seed for every run (figures use seed, seed+1, ... for repeats).
    pub seed: u64,
    /// Output directory for CSVs.
    pub outdir: PathBuf,
    /// Sweep worker count (`--jobs N`; default: available parallelism).
    /// `1` runs every cell inline — the sequential reference behavior.
    pub jobs: usize,
    /// Fault schedule applied to every run (`--faults SPEC`; see
    /// `vertigo_netsim::faults` for the grammar). Empty by default.
    pub faults: FaultSchedule,
    /// Provenance trace request applied to every run (`--trace
    /// PATH[:filter]`; see `vertigo_netsim::trace` for the grammar).
    pub trace: Option<TraceSpec>,
    /// Checkpoint/resume request applied to every run
    /// (`--checkpoint-every SIMTIME[:PATH]` / `--resume PATH`; see
    /// `vertigo_workload::snapshot` for the grammar).
    pub snapshot: SnapshotSpec,
    /// Domain count for the conservative-parallel engine (`--domains N`,
    /// N ≥ 1). `None` runs the classic single-queue engine. Results are
    /// byte-identical for every N — CI diffs `--domains 2` against
    /// `--domains 1`.
    pub domains: Option<usize>,
    /// Deflection-policy override applied to every Vertigo-system run
    /// (`--deflect vertigo|dibs|pabo|hybrid|bounded`). `None` (and the
    /// explicit `vertigo`) is the native policy — CI digest-diffs
    /// `--deflect vertigo` against an unflagged run.
    pub deflect: Option<DeflectKind>,
    /// Scenario components layered on top of every run's figure workload
    /// (`--workload SPEC`; see `vertigo_workload::scenario` for the
    /// grammar). Empty by default — and byte-inert when empty: CI
    /// digest-diffs an unflagged run against the committed figures.
    pub scenario: ScenarioSpec,
}

/// The flags every subcommand takes, for the usage text.
pub const FLAGS: &str = "[--quick|--full] [--seed N] [--out DIR] [--jobs N] \
    [--faults SPEC] [--trace FILE[:filter]] \
    [--checkpoint-every SIMTIME[:PATH]] [--resume PATH] [--domains N] \
    [--deflect vertigo|dibs|pabo|hybrid|bounded] [--workload SPEC]";

impl Opts {
    /// Parses a subcommand's flags ([`FLAGS`]) and refuses the
    /// combinations that cannot work.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut scale = Scale::default_scale();
        let mut seed = 1u64;
        let mut outdir = PathBuf::from("results");
        let mut jobs = crate::sweep::default_jobs();
        let mut faults = FaultSchedule::new();
        let mut trace = None;
        let mut snapshot = SnapshotSpec::default();
        let mut domains = None;
        let mut deflect = None;
        let mut scenario = ScenarioSpec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let it = &mut it;
            match a.as_str() {
                "--quick" => scale = Scale::quick(),
                "--full" => scale = Scale::full(),
                "--seed" => seed = at_least(it, a, 0)?,
                "--out" => outdir = PathBuf::from(value(it, a)?),
                "--jobs" => jobs = at_least(it, a, 1)?,
                "--domains" => domains = Some(at_least(it, a, 1)?),
                "--faults" => faults = parsed(it, a, FaultSchedule::parse)?,
                "--trace" => trace = Some(parsed(it, a, TraceSpec::parse)?),
                "--checkpoint-every" => {
                    snapshot.checkpoint = Some(parsed(it, a, CheckpointSpec::parse)?);
                }
                "--resume" => snapshot.resume = Some(PathBuf::from(value(it, a)?)),
                "--workload" => scenario = parsed(it, a, ScenarioSpec::parse)?,
                "--deflect" => {
                    let v = value(it, a)?;
                    deflect = Some(DeflectKind::parse(v).ok_or_else(|| {
                        format!("bad --deflect (vertigo|dibs|pabo|hybrid|bounded): {v}")
                    })?);
                }
                other => return Err(format!("unknown option: {other}")),
            }
        }
        // The domain engine states the combinations it cannot run, with
        // both sides of the conflict named rather than silently degraded.
        if let Some(why) =
            domains.and_then(|_| DomainSimulation::refusal(trace.is_some(), snapshot.is_active()))
        {
            return Err(why.to_owned());
        }
        Ok(Opts {
            scale,
            seed,
            outdir,
            jobs,
            faults,
            trace,
            snapshot,
            domains,
            deflect,
            scenario,
        })
    }

    /// The run this invocation asks for, for one (system, transport,
    /// workload) cell on the scale's leaf-spine: the only place options
    /// become a [`RunSpec`]. Fat-tree figures override `topo`/`horizon`
    /// on the result, ablations the `vertigo` knobs.
    pub fn spec(&self, system: SystemKind, cc: CcKind, workload: WorkloadSpec) -> RunSpec {
        let mut spec = RunSpec::new(system, cc, workload);
        spec.topo = self.scale.leaf_spine();
        spec.horizon = self.scale.horizon;
        spec.seed = self.seed;
        spec.domains = self.domains;
        spec.faults = self.faults;
        spec.deflect = self.deflect;
        spec.scenario = self.scenario;
        spec
    }

    /// The fork every phased figure grid uses: incast deferred to the
    /// scale's fork horizon.
    pub fn fig_fork(&self) -> ForkSpec {
        ForkSpec::at(self.scale.fork_at())
    }
}

/// The value after `flag`.
fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The value after `flag`, read by a spec grammar's `parse`.
fn parsed<T>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    parse(value(it, flag)?).map_err(|e| format!("bad {flag}: {e}"))
}

/// The value after `flag` as a number of at least `min`.
fn at_least<T>(it: &mut std::slice::Iter<'_, String>, flag: &str, min: T) -> Result<T, String>
where
    T: FromStr + PartialOrd + Display,
    T::Err: Display,
{
    let name = flag.trim_start_matches('-');
    let n: T = (value(it, flag)?.parse()).map_err(|e| format!("bad {name}: {e}"))?;
    if n < min {
        return Err(format!("{flag} must be at least {min}"));
    }
    Ok(n)
}

/// A simple aligned-column table printer for figure output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Appends rows in order.
    pub fn rows(&mut self, rows: impl IntoIterator<Item = Vec<String>>) {
        for r in rows {
            self.row(r);
        }
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout and writes `<outdir>/<name>.csv`.
    pub fn emit(&self, opts: &Opts, name: &str) {
        outln!("{}", self.render());
        let _ = std::fs::create_dir_all(&opts.outdir);
        let path = opts.outdir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, self.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            outln!("[csv] {}", path.display());
        }
    }
}

/// Formats seconds with an auto unit (matches the paper's axes).
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Opts::parse(&args)
    }

    #[test]
    fn incast_load_solves_correctly() {
        let s = Scale::default_scale();
        let inc = s.incast_for_load(0.30);
        let back = inc.offered_load(s.ls_total_bw());
        assert!((back - 0.30).abs() < 1e-9);
    }

    #[test]
    fn opts_parse() {
        let o = parse(&["--quick", "--seed", "7", "--out", "/tmp/x", "--jobs", "3"]).unwrap();
        assert_eq!(o.scale.name, "quick");
        assert_eq!(o.seed, 7);
        assert_eq!(o.outdir, PathBuf::from("/tmp/x"));
        assert_eq!(o.jobs, 3);
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        // Default worker count follows the machine.
        let d = parse(&[]).unwrap();
        assert!(d.jobs >= 1);
        assert!(d.faults.is_empty());
        let f = parse(&["--faults", "loss:*:0.01@2ms-18ms"]).unwrap();
        assert_eq!(f.faults.len(), 1);
        assert!(parse(&["--faults", "flood:*@0s-1ms"]).is_err());
        assert!(parse(&["--faults"]).is_err());
        assert!(d.trace.is_none());
        let t = parse(&["--trace", "out/t.vtrace:flow=3,time=1ms-"]).unwrap();
        let spec = t.trace.unwrap();
        assert_eq!(spec.path, PathBuf::from("out/t.vtrace"));
        assert_eq!(spec.filter.flow, Some(3));
        assert!(parse(&["--trace", "t.vtrace:bogus=1"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(!d.snapshot.is_active());
        let c = parse(&["--checkpoint-every", "6ms:out/ck.vsnp"]).unwrap();
        let ck = c.snapshot.checkpoint.as_ref().unwrap();
        assert_eq!(ck.every, SimDuration::from_millis(6));
        assert_eq!(ck.stem, PathBuf::from("out/ck.vsnp"));
        assert!(c.snapshot.is_active());
        let r = parse(&["--resume", "out/ck.vsnp"]).unwrap();
        assert_eq!(r.snapshot.resume, Some(PathBuf::from("out/ck.vsnp")));
        assert!(parse(&["--checkpoint-every", "6"]).is_err());
        assert!(parse(&["--checkpoint-every"]).is_err());
        assert!(parse(&["--resume"]).is_err());
        assert!(d.domains.is_none());
        let dm = parse(&["--domains", "4"]).unwrap();
        assert_eq!(dm.domains, Some(4));
        assert!(parse(&["--domains", "0"]).is_err());
        assert!(parse(&["--domains", "two"]).is_err());
        assert!(parse(&["--domains"]).is_err());
        assert!(d.deflect.is_none());
        for name in ["vertigo", "dibs", "pabo", "hybrid", "bounded"] {
            let o = parse(&["--deflect", name]).unwrap();
            assert_eq!(o.deflect.unwrap().name(), name);
        }
        assert!(parse(&["--deflect", "random"]).is_err());
        assert!(parse(&["--deflect"]).is_err());
        assert!(d.scenario.is_empty());
        let w = parse(&[
            "--workload",
            "bg:load=0.3,dist=datamining + incast:scale=8,size=64k,qps=500,sync=5us",
        ])
        .unwrap();
        assert_eq!(w.scenario.len(), 2);
        assert!(parse(&["--workload", "flood:load=0.1"]).is_err());
        assert!(parse(&["--workload", "bg:load=1.5"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn subcommand_and_engine_refusals() {
        let cases: [(&[&str], &str); 2] = [
            (
                &["--domains", "2", "--trace", "x"],
                "drop either --trace or --domains",
            ),
            (
                &["--resume", "x", "--domains", "1"],
                "drop either --checkpoint-every/--resume or --domains",
            ),
        ];
        for (args, needle) in cases {
            let err = parse(args).expect_err("conflicting flags must be rejected");
            assert!(
                err.contains(needle),
                "{args:?}: {err:?} should mention {needle:?}"
            );
        }
        // The same flags are fine where nothing conflicts.
        assert!(parse(&["--trace", "x"]).is_ok());
        assert!(parse(&["--domains", "2"]).is_ok());
    }

    /// Which of two byte-identical paths runs a cell is not an option.
    #[test]
    fn gone_flags_are_unknown_options() {
        for gone in ["--warm-start", "--events"] {
            let err = parse(&[gone]).unwrap_err();
            assert_eq!(err, format!("unknown option: {gone}"));
        }
    }

    /// Every run axis `Opts` carries must land in the `RunSpec`. The
    /// exhaustive destructuring makes a new `Opts` field a compile error
    /// here until it is classified as an axis (and asserted on) or not.
    #[test]
    fn spec_carries_every_run_axis() {
        let opts = parse(&[
            "--quick",
            "--seed",
            "7",
            "--faults",
            "loss:*:0.01@2ms-18ms",
            "--domains",
            "3",
            "--deflect",
            "pabo",
            "--workload",
            "perm:load=0.2",
        ])
        .unwrap();
        let workload = WorkloadSpec {
            background: None,
            incast: Some(opts.scale.incast_for_load(0.3)),
        };
        let spec = opts.spec(SystemKind::Dibs, CcKind::Swift, workload);
        let Opts {
            scale,
            seed,
            faults,
            domains,
            deflect,
            scenario,
            // How cells execute, not what they simulate: the sweep runner's.
            jobs: _,
            trace: _,
            snapshot: _,
            // Where tables go.
            outdir: _,
        } = opts;
        assert_eq!(
            format!("{:?}", spec.topo),
            format!("{:?}", scale.leaf_spine())
        );
        assert_eq!(spec.horizon, scale.horizon);
        assert_eq!(spec.seed, seed);
        assert_eq!(format!("{:?}", spec.faults), format!("{faults:?}"));
        assert_eq!(spec.domains, domains);
        assert_eq!(spec.deflect, deflect);
        assert_eq!(spec.scenario.to_string(), scenario.to_string());
        // None of them is the default, so a dropped assignment shows.
        let plain = RunSpec::new(SystemKind::Dibs, CcKind::Swift, workload);
        assert_ne!(spec.horizon, plain.horizon);
        assert_ne!(spec.seed, plain.seed);
        assert_ne!(format!("{:?}", spec.faults), format!("{:?}", plain.faults));
        assert_ne!(spec.domains, plain.domains);
        assert!(plain.deflect.is_none() && plain.scenario.is_empty());
        // The cell's own coordinates pass through untouched.
        assert_eq!(spec.system, SystemKind::Dibs);
        assert_eq!(spec.cc, CcKind::Swift);
        assert_eq!(format!("{:?}", spec.workload), format!("{workload:?}"));
    }

    #[test]
    fn fork_horizon_is_a_quarter_of_the_scale() {
        for s in [Scale::quick(), Scale::default_scale(), Scale::full()] {
            assert_eq!(
                s.fork_at().as_nanos() * 4,
                s.horizon.as_nanos(),
                "{}",
                s.name
            );
        }
        let o = parse(&["--quick"]).unwrap();
        let f = o.fig_fork();
        assert_eq!(f.at, SimDuration::from_millis(5));
    }

    #[test]
    fn table_renders_and_csvs() {
        let mut t = Table::new(&["load", "qct"]);
        t.row(vec!["35%".into(), "1.2ms".into()]);
        let r = t.render();
        assert!(r.contains("load"));
        assert!(r.contains("1.2ms"));
        assert_eq!(t.to_csv(), "load,qct\n35%,1.2ms\n");
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(0.0035), "3.50ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(42e-6), "42.0us");
        assert_eq!(fmt_pct(0.985), "98.5%");
    }
}
