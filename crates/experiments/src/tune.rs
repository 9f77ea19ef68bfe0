//! `tune`: simulation-driven parameter search over Vertigo's knobs — the
//! FlowForge idiom (protocols tuned by simulating them thousands of
//! times) applied to Vertigo.
//!
//! The scenario is a fig5-style cell under pressure: 25 % CacheFollower
//! background plus a 50 % incast burst over DCTCP. Every candidate is a
//! [`ForkOverrides`] — τ, deflection power-of-d, DCTCP marking threshold
//! K, per-port queue bytes — applied at the fork horizon, so a rung's
//! candidates are phased cells of a *single* warmup equivalence class and
//! the sweep runner simulates their background prefix once.
//!
//! Two search strategies: exhaustive `grid`, and successive `halving`
//! where the simulated measurement window past the fork is the rung
//! resource (short windows rank cheaply, survivors graduate to longer
//! ones). Either way the result is a Pareto front over p99 FCT vs.
//! drops, printed as a table and written as CSV like the fig modules,
//! byte-identical at every `--jobs` value; CI diffs it.

use crate::common::{fmt_secs, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, DistKind, ForkOverrides, ForkSpec, RunError, RunSpec, SystemKind, WorkloadSpec,
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
}

impl Default for TuneOpts {
    fn default() -> Self {
        TuneOpts {
            search: Search::Grid,
            knobs: vec![Knob::Tau, Knob::Defl],
            budget: None,
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

/// Evaluates `who` (candidate indices) at `window`: one sweep of phased
/// cells, each applying its candidate's overrides at the fork horizon and
/// ending `window` past it.
fn evaluate(
    opts: &Opts,
    spec: RunSpec,
    cands: &[Candidate],
    who: &[usize],
    window: Option<SimDuration>,
) -> Result<Vec<Scored>, RunError> {
    let cells = who
        .iter()
        .map(|&idx| {
            let fork = ForkSpec {
                overrides: cands[idx].overrides,
                window,
                ..opts.fig_fork()
            };
            Cell::phased(format!("tune cand{idx}"), spec, fork, idx)
        })
        .collect();
    sweep::run(opts, cells, |cell, out| Scored {
        idx: cell.tag,
        window,
        p99_fct: out.report.fct_p99,
        mean_fct: out.report.fct_mean,
        drops: out.report.drops,
        finalist: window.is_none(),
    })
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
            // comparable across invocations.
            eprintln!(
                "[tune] budget {b}: evaluating the first {b} of {} grid candidates",
                cands.len()
            );
            cands.truncate(b);
        }
    }

    let fork_at = opts.fig_fork().at;
    let full_window = SimDuration::from_nanos(spec.horizon.as_nanos() - fork_at.as_nanos());
    let mut best: Vec<Scored> = Vec::new();
    match search {
        Search::Grid => {
            let who: Vec<usize> = (0..cands.len()).collect();
            best = evaluate(opts, spec, &cands, &who, None)?;
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
                let scored = evaluate(opts, spec, &cands, &alive, window)?;
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
