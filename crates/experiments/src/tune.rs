//! `tune`: simulation-driven parameter search over Vertigo's knobs from
//! one shared warm checkpoint — the FlowForge idiom (protocols tuned by
//! simulating them thousands of times) applied to Vertigo.
//!
//! The scenario is a fig5-style cell under pressure: 25 % CacheFollower
//! background plus a 50 % incast burst over DCTCP. Every candidate is a
//! [`ForkOverrides`] — τ, deflection power-of-d, DCTCP marking threshold
//! K, per-port queue bytes — applied at the fork horizon, so the whole
//! search shares a *single* warmup equivalence class: the background
//! prefix is simulated once, then every candidate forks from the same
//! in-memory snapshot.
//!
//! Two search strategies: exhaustive `grid`, and successive `halving`
//! where the simulated measurement window past the fork is the rung
//! resource (short windows rank cheaply, survivors graduate to longer
//! ones). Either way the result is a Pareto front over p99 FCT vs.
//! drops, printed as a table and written as CSV like the fig modules.
//!
//! Stdout is byte-identical between the warm path and `--cold` (each
//! candidate simulated straight through) at every `--jobs` value — the
//! same oracle the figure grids obey; CI diffs it.

use crate::common::{fmt_secs, Opts, Table};
use crate::sweep::pool;
use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, DistKind, ForkOverrides, ForkSpec, RunError, RunSpec, SnapBuf, SystemKind,
    WorkloadSpec,
};

/// Which knobs a `--knobs` list selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Ordering timeout τ.
    Tau,
    /// Deflection power-of-d.
    Defl,
    /// DCTCP/ECN marking threshold (packets).
    EcnK,
    /// Per-port buffer (bytes).
    Buf,
}

impl Knob {
    /// Parses a `--knobs` comma list.
    pub fn parse_list(list: &str) -> Result<Vec<Knob>, String> {
        list.split(',')
            .map(|k| match k {
                "tau" => Ok(Knob::Tau),
                "defl" => Ok(Knob::Defl),
                "k" => Ok(Knob::EcnK),
                "buf" => Ok(Knob::Buf),
                other => Err(format!("bad knob (tau|defl|k|buf): {other}")),
            })
            .collect()
    }
}

/// Search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// Every candidate at full depth.
    Grid,
    /// Successive halving over the measurement window.
    Halving,
}

impl Search {
    /// Parses a `--search` value.
    pub fn parse(s: &str) -> Result<Search, String> {
        match s {
            "grid" => Ok(Search::Grid),
            "halving" => Ok(Search::Halving),
            other => Err(format!("bad --search (grid|halving): {other}")),
        }
    }
}

/// The `tune`-only flags (`Opts::parse` accepts them for `tune` alone).
#[derive(Debug, Clone)]
pub struct TuneOpts {
    /// `--search grid|halving`.
    pub search: Search,
    /// `--knobs tau,defl,k,buf`.
    pub knobs: Vec<Knob>,
    /// `--budget N`: evaluate only the first N grid candidates.
    pub budget: Option<usize>,
    /// `--cold`: simulate every candidate straight through.
    pub cold: bool,
}

impl Default for TuneOpts {
    fn default() -> Self {
        TuneOpts {
            search: Search::Grid,
            knobs: vec![Knob::Tau, Knob::Defl],
            budget: None,
            cold: false,
        }
    }
}

/// One point of the search space.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    overrides: ForkOverrides,
}

/// A candidate's scores at its deepest evaluated window.
#[derive(Debug, Clone, Copy)]
struct Scored {
    idx: usize,
    window: Option<SimDuration>,
    p99_fct: f64,
    mean_fct: f64,
    drops: u64,
    /// Survived to the final rung (always true for grid search); only
    /// finalists enter the Pareto comparison.
    finalist: bool,
}

/// Knob value grids. τ brackets the paper's 360 µs default; K brackets
/// the DCTCP-default 65 packets; buffers bracket the paper's 300 KB.
const TAUS_US: [u64; 4] = [180, 360, 540, 720];
const DEFLS: [usize; 2] = [1, 2];
const ECN_KS: [usize; 3] = [20, 65, 140];
const BUFS: [u64; 3] = [150_000, 300_000, 600_000];

/// The cartesian candidate grid over the selected knobs, in a fixed
/// deterministic order (τ outermost, buffer innermost). Unselected knobs
/// stay at the spec default (override `None`).
fn grid(knobs: &[Knob]) -> Vec<Candidate> {
    let pick = |k: Knob, n: usize| -> Vec<Option<usize>> {
        if knobs.contains(&k) {
            (0..n).map(Some).collect()
        } else {
            vec![None]
        }
    };
    let mut out = Vec::new();
    for t in pick(Knob::Tau, TAUS_US.len()) {
        for d in pick(Knob::Defl, DEFLS.len()) {
            for k in pick(Knob::EcnK, ECN_KS.len()) {
                for b in pick(Knob::Buf, BUFS.len()) {
                    out.push(Candidate {
                        overrides: ForkOverrides {
                            tau: t.map(|i| SimDuration::from_micros(TAUS_US[i])),
                            defl_power: d.map(|i| DEFLS[i]),
                            ecn_threshold_pkts: k.map(|i| ECN_KS[i]),
                            port_buffer_bytes: b.map(|i| BUFS[i]),
                        },
                    });
                }
            }
        }
    }
    out
}

/// The shared-scenario spec the search tunes.
fn scenario(opts: &Opts) -> RunSpec {
    let s = opts.scale;
    let workload = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.25,
            dist: DistKind::CacheFollower,
        }),
        incast: Some(s.incast_for_load(0.50)),
    };
    opts.spec(SystemKind::Vertigo, CcKind::Dctcp, workload)
}

/// Evaluates `who` (candidate indices) at `window` across the job pool,
/// warm (forked from `buf`) or cold (straight through).
///
/// This is the one grid that does not go through `sweep::run`: a rung
/// drains only a measurement *window* past the fork, and all rungs share
/// the one snapshot captured before the first — neither is something a
/// figure cell can say.
fn evaluate(
    opts: &Opts,
    spec: RunSpec,
    cands: &[Candidate],
    who: &[usize],
    window: Option<SimDuration>,
    buf: Option<&SnapBuf>,
) -> Vec<Scored> {
    let items = who
        .iter()
        .map(|&idx| (format!("tune cand{idx}"), idx))
        .collect();
    pool(opts.jobs, items, |idx| {
        let fork = fork_for(opts, &cands[idx]);
        let out = match buf {
            Some(b) => spec.run_forked_until(&fork, b, window),
            None => spec.run_phased_until(&fork, window),
        };
        Scored {
            idx,
            window,
            p99_fct: out.report.fct_p99,
            mean_fct: out.report.fct_mean,
            drops: out.report.drops,
            finalist: window.is_none(),
        }
    })
}

fn fork_for(opts: &Opts, cand: &Candidate) -> ForkSpec {
    let mut f = ForkSpec::at(opts.scale.fork_at());
    f.overrides = cand.overrides;
    f
}

/// Non-dominated candidates under (minimize p99 FCT, minimize drops).
fn pareto(finalists: &[&Scored]) -> Vec<usize> {
    let mut front = Vec::new();
    for a in finalists {
        let dominated = finalists.iter().any(|b| {
            b.idx != a.idx
                && b.p99_fct <= a.p99_fct
                && b.drops <= a.drops
                && (b.p99_fct < a.p99_fct || b.drops < a.drops)
        });
        if !dominated {
            front.push(a.idx);
        }
    }
    front.sort_unstable();
    front
}

fn fmt_override<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
}

pub fn run(opts: &Opts) -> Result<(), RunError> {
    let TuneOpts {
        search,
        ref knobs,
        budget,
        cold,
    } = opts.tune;
    println!(
        "== tune: Vertigo knob search ({}) ==\n",
        match search {
            Search::Grid => "grid",
            Search::Halving => "halving",
        }
    );

    let spec = scenario(opts);
    let mut cands = grid(knobs);
    if let Some(b) = budget {
        if b < cands.len() {
            // Deterministic truncation; stderr so stdout stays
            // warm-vs-cold comparable.
            eprintln!(
                "[tune] budget {b}: evaluating the first {b} of {} grid candidates",
                cands.len()
            );
            cands.truncate(b);
        }
    }

    // One shared warmup for the whole search: every candidate's knobs are
    // fork-time overrides, so every fork key is the same class.
    let fork0 = fork_for(opts, &cands[0]);
    let key = spec
        .fork_key(&fork0)
        .expect("the tune scenario is warm-startable by construction");
    for c in &cands {
        assert_eq!(
            spec.fork_key(&fork_for(opts, c)),
            Some(key),
            "all candidates must share one equivalence class"
        );
    }
    let buf = if cold {
        eprintln!("[tune] --cold: simulating every candidate straight through");
        None
    } else {
        eprintln!(
            "[tune] warming 1 shared class ({} candidates share one {} prefix)",
            cands.len(),
            fmt_secs(fork0.at.as_secs_f64()),
        );
        Some(spec.run_warmup(&fork0))
    };

    let full_window = SimDuration::from_nanos(spec.horizon.as_nanos() - fork0.at.as_nanos());
    let mut best: Vec<Scored> = Vec::new();
    match search {
        Search::Grid => {
            let who: Vec<usize> = (0..cands.len()).collect();
            best = evaluate(opts, spec, &cands, &who, None, buf.as_ref());
        }
        Search::Halving => {
            // Rung resource = measurement window past the fork: quarter,
            // half, full horizon; each rung keeps the better half by p99
            // FCT (candidate index breaks ties, so the schedule is
            // deterministic at every --jobs value).
            let mut alive: Vec<usize> = (0..cands.len()).collect();
            for (i, frac) in [4u64, 2, 1].iter().enumerate() {
                // Once no further halving is possible, graduate straight
                // to the full window: finalists (and hence the Pareto
                // front) are always evaluated at full depth.
                let last_rung = *frac == 1 || alive.len() <= 2;
                let window = (!last_rung).then(|| full_window / *frac);
                let scored = evaluate(opts, spec, &cands, &alive, window, buf.as_ref());
                eprintln!(
                    "[tune] rung {i}: {} candidates at window {}",
                    alive.len(),
                    fmt_secs(window.unwrap_or(full_window).as_secs_f64()),
                );
                let mut ranked = scored.clone();
                ranked.sort_by(|a, b| {
                    a.p99_fct
                        .partial_cmp(&b.p99_fct)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.idx.cmp(&b.idx))
                });
                for s in scored {
                    // Keep each candidate's deepest evaluation for the
                    // report.
                    match best.iter_mut().find(|b| b.idx == s.idx) {
                        Some(slot) => *slot = s,
                        None => best.push(s),
                    }
                }
                if last_rung {
                    break;
                }
                alive = ranked
                    .iter()
                    .take(ranked.len().div_ceil(2))
                    .map(|s| s.idx)
                    .collect();
                alive.sort_unstable();
            }
            best.sort_by_key(|s| s.idx);
        }
    }

    let finalists: Vec<&Scored> = best.iter().filter(|s| s.finalist).collect();
    let front = pareto(&finalists);

    let mut t = Table::new(&[
        "cand", "tau_us", "d", "K_pkts", "buf_KB", "window", "p99_fct", "mean_fct", "drops",
        "pareto",
    ]);
    for s in &best {
        let o = cands[s.idx].overrides;
        t.row(vec![
            s.idx.to_string(),
            fmt_override(o.tau.map(|d| d.as_nanos() / 1000)),
            fmt_override(o.defl_power),
            fmt_override(o.ecn_threshold_pkts),
            fmt_override(o.port_buffer_bytes.map(|b| b / 1000)),
            fmt_secs(s.window.unwrap_or(full_window).as_secs_f64()),
            fmt_secs(s.p99_fct),
            fmt_secs(s.mean_fct),
            s.drops.to_string(),
            if front.contains(&s.idx) { "*" } else { "" }.to_string(),
        ]);
    }
    t.emit(opts, "tune");

    println!("Pareto front (minimize p99 FCT and drops):");
    for idx in &front {
        let s = finalists.iter().find(|s| s.idx == *idx).expect("finalist");
        let o = cands[*idx].overrides;
        println!(
            "  cand{idx}: tau={} d={} K={} buf={} -> p99_fct={} drops={}",
            fmt_override(o.tau.map(|d| d.as_nanos() / 1000)),
            fmt_override(o.defl_power),
            fmt_override(o.ecn_threshold_pkts),
            fmt_override(o.port_buffer_bytes.map(|b| b / 1000)),
            fmt_secs(s.p99_fct),
            s.drops,
        );
    }
    Ok(())
}
