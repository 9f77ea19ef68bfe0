//! The sweep runner: the one place a figure's cells become simulation
//! runs.
//!
//! Every figure in the harness is a grid of *cells* — one `RunSpec` per
//! (load, system, transport, ...) combination — with no data flowing
//! between cells: each gets its seed from the experiment options, not from
//! a shared RNG. That makes the grid embarrassingly parallel, and [`run`]
//! exploits it with `std::thread::scope` (no external dependencies). It
//! owns every option that decides *how* a cell executes: `--jobs`,
//! `--trace` and `--checkpoint-every`/`--resume` — and the one decision
//! no option makes: whether phased cells share their warmup.
//!
//! ## Determinism contract
//!
//! Rows come back in **submission order**, regardless of worker count or
//! completion order, and each cell is self-contained (its `RunSpec`
//! carries its own seed). Consequently the table a figure prints is
//! identical for every `--jobs` value, and `--jobs 1` executes the cells
//! inline on the calling thread. Cells started from a shared warmup are
//! byte-identical to cells simulated straight through
//! (`vertigo_workload::warm`), so that choice is equally unobservable.
//! Progress chatter goes to stderr only, so stdout (tables, CSV paths)
//! stays clean and comparable.

use crate::common::Opts;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vertigo_workload::{ForkSpec, RunError, RunOutput, RunSpec, Warmup};

/// One unit of a figure's grid.
pub struct Cell<T> {
    /// Progress label (stderr only).
    pub label: String,
    /// The run, seed and all.
    pub spec: RunSpec,
    /// Phased execution (`RunSpec::try_run_staged`'s `fork`). Cells whose
    /// forks share a warmup class start from one simulation of it.
    pub fork: Option<ForkSpec>,
    /// Whatever else the figure's row function needs to know about the
    /// cell (the swept load, a display name, ...).
    pub tag: T,
}

impl<T> Cell<T> {
    /// A cell simulated straight through.
    pub fn new(label: impl Into<String>, spec: RunSpec, tag: T) -> Self {
        Cell {
            label: label.into(),
            spec,
            fork: None,
            tag,
        }
    }

    /// A cell run in two phases around `fork`.
    pub fn phased(label: impl Into<String>, spec: RunSpec, fork: ForkSpec, tag: T) -> Self {
        Cell {
            fork: Some(fork),
            ..Cell::new(label, spec, tag)
        }
    }
}

/// Runs `cells` under `opts` and maps each cell's output through `row`
/// (on the worker, so only rows are retained), returning the rows in
/// submission order.
///
/// Phased cells with a provable [`RunSpec::fork_key`] are grouped into
/// equivalence classes; each class with at least two members simulates
/// its warmup once and its cells start from clones of it — unless the
/// invocation asks for something a cell that starts mid-run cannot give
/// (`--trace`: the prefix would be missing from the trace;
/// `--checkpoint-every`/`--resume`: the cell's start is not on disk;
/// `--domains`: no quiescent state to start from, which `fork_key`
/// already answers). Every other cell runs through
/// [`RunSpec::try_run_staged`], and the bytes are the same either way.
/// The first cell error in submission order is returned.
pub fn run<T: Send, R: Send>(
    opts: &Opts,
    cells: Vec<Cell<T>>,
    row: impl Fn(&Cell<T>, &RunOutput) -> R + Sync,
) -> Result<Vec<R>, RunError> {
    let warmups = if opts.trace.is_none() && !opts.snapshot.is_active() {
        warm_up(opts.jobs, &cells)?
    } else {
        vec![None; cells.len()]
    };
    let items = cells
        .into_iter()
        .zip(warmups)
        .map(|(cell, warmup)| (cell.label.clone(), (cell, warmup)))
        .collect();
    let rows = pool(opts.jobs, items, |(cell, warmup)| {
        let out = match (&cell.fork, warmup) {
            (Some(fork), Some(warmup)) => cell.spec.run_forked(fork, &warmup),
            _ => cell.spec.try_run_staged(
                opts.trace.as_ref(),
                Some(&opts.snapshot),
                cell.fork.as_ref(),
            )?,
        };
        Ok(row(&cell, &out))
    });
    rows.into_iter().collect()
}

/// The warmup phase: per cell, the warmed simulation of its class, shared
/// by every cell that clones it (`None`: run straight through). The first
/// warmup error in submission order is returned.
fn warm_up<T>(jobs: usize, cells: &[Cell<T>]) -> Result<Vec<Option<Arc<Warmup>>>, RunError> {
    let keys: Vec<Option<u64>> = cells
        .iter()
        .map(|c| c.fork.and_then(|f| c.spec.fork_key(&f)))
        .collect();
    let mut members: BTreeMap<u64, usize> = BTreeMap::new();
    for k in keys.iter().flatten() {
        *members.entry(*k).or_insert(0) += 1;
    }
    // One warmup per class with ≥ 2 members, claimed by the class's first
    // cell in submission order. A singleton class runs straight through —
    // a warmup would simulate the prefix once to save simulating it once.
    let mut warmups = Vec::new();
    let mut claimed = BTreeSet::new();
    for (c, key) in cells.iter().zip(&keys) {
        if let (Some(k), Some(fork)) = (key, c.fork) {
            if members[k] >= 2 && claimed.insert(*k) {
                warmups.push((format!("warmup {}", c.label), (*k, c.spec, fork)));
            }
        }
    }
    let warmed: BTreeMap<u64, Arc<Warmup>> = pool(jobs, warmups, |(k, spec, fork)| {
        Ok((k, Arc::new(spec.run_warmup(&fork)?)))
    })
    .into_iter()
    .collect::<Result<_, RunError>>()?;
    Ok(keys
        .iter()
        .map(|k| k.and_then(|k| warmed.get(&k).cloned()))
        .collect())
}

/// Number of workers to use when `--jobs` is not given.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every labelled item across `jobs` workers and returns
/// the results in submission order.
///
/// `jobs <= 1` runs every item inline on the calling thread, in order —
/// the sequential reference behavior. Otherwise `min(jobs, items)` scoped
/// threads pull items off a shared index counter; a panicking item
/// propagates the panic once the scope joins.
fn pool<T: Send, R: Send>(
    jobs: usize,
    items: Vec<(String, T)>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(|(_, item)| f(item)).collect();
    }
    // Work queue: each slot is claimed exactly once via the shared counter;
    // the Mutex exists to move the item out from behind the shared ref.
    let slots: Vec<Mutex<Option<(String, T)>>> =
        items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let workers = jobs.min(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (label, item) = slots[i]
                    .lock()
                    .expect("no panics while holding slot lock")
                    .take()
                    .expect("each slot claimed exactly once");
                let r = f(item);
                *results[i]
                    .lock()
                    .expect("no panics while holding result lock") = Some(r);
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("[sweep {finished}/{n}] {label}");
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("workers have joined")
                .expect("every slot was executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertigo_simcore::SimDuration;
    use vertigo_transport::CcKind;
    use vertigo_workload::{
        BackgroundSpec, DistKind, IncastSpec, SystemKind, TopoKind, WorkloadSpec,
    };

    fn labelled(n: usize) -> Vec<(String, usize)> {
        (0..n).map(|i| (format!("c{i}"), i)).collect()
    }

    #[test]
    fn sequential_preserves_order() {
        let out = pool(1, labelled(10), |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_order() {
        // Deliberately uneven work so completion order differs from
        // submission order; results must still come back in submission order.
        let work = |i: usize| {
            let mut acc = i as u64;
            for _ in 0..((31 - i) * 10_000) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            i
        };
        let seq = pool(1, labelled(32), work);
        for jobs in [2, 4, 8] {
            assert_eq!(pool(jobs, labelled(32), work), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(pool(64, labelled(3), |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_sweep_returns_empty() {
        let out: Vec<()> = pool(8, Vec::new(), |(): ()| ());
        assert!(out.is_empty());
    }

    fn test_opts(jobs: usize) -> Opts {
        let args = ["--quick".to_string(), "--jobs".into(), jobs.to_string()];
        Opts::parse(&args).expect("valid test options")
    }

    /// A 2 ms cell on the 32-host leaf-spine; `incast_qps` varies only
    /// what happens after the fork, `seed` splits the class.
    fn test_spec(seed: u64, incast_qps: f64) -> RunSpec {
        let mut spec = RunSpec::new(
            SystemKind::Ecmp,
            CcKind::Dctcp,
            WorkloadSpec {
                background: Some(BackgroundSpec {
                    load: 0.05,
                    dist: DistKind::CacheFollower,
                }),
                incast: Some(IncastSpec {
                    qps: incast_qps,
                    scale: 4,
                    flow_bytes: 2_000,
                }),
            },
        );
        spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        spec.horizon = SimDuration::from_millis(2);
        spec.seed = seed;
        spec
    }

    /// Two classes of two, one singleton, one cell without a fork —
    /// interleaved, so submission order differs from class order.
    fn mixed_grid() -> Vec<Cell<usize>> {
        let fork = ForkSpec::at(SimDuration::from_micros(500));
        let cells = [
            (7, 2000.0, true),
            (9, 2000.0, true),
            (7, 6000.0, true),
            (11, 2000.0, true),
            (9, 6000.0, true),
            (7, 2000.0, false),
        ];
        cells
            .into_iter()
            .enumerate()
            .map(|(i, (seed, qps, forked))| {
                let spec = test_spec(seed, qps);
                if forked {
                    Cell::phased(format!("cell{i}"), spec, fork, i)
                } else {
                    Cell::new(format!("cell{i}"), spec, i)
                }
            })
            .collect()
    }

    #[test]
    fn rows_come_back_in_submission_order_warm_or_cold_at_any_jobs() {
        let digest = |c: &Cell<usize>, out: &RunOutput| (c.tag, format!("{:?}", out.report));
        // Cold: every cell straight through the staged driver, in order.
        let reference: Vec<_> = mixed_grid()
            .iter()
            .map(|c| digest(c, &c.spec.run_staged(None, None, c.fork.as_ref())))
            .collect();
        assert_eq!(
            reference.iter().map(|r| r.0).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        assert_ne!(reference[0].1, reference[2].1, "cells must differ");
        assert_ne!(reference[0].1, reference[5].1, "phasing must matter");
        // Warm where the sweep chooses to be (four of the six cells).
        for jobs in [1, 2, 5] {
            let rows = run(&test_opts(jobs), mixed_grid(), digest);
            assert_eq!(rows.unwrap(), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn warm_scheduling_groups_classes_and_falls_back() {
        let grid = mixed_grid();
        for jobs in [1, 4] {
            let warmed = warm_up(jobs, &grid).expect("warmups run");
            assert_eq!(
                warmed.iter().map(Option::is_some).collect::<Vec<_>>(),
                vec![true, true, true, false, true, false],
                "jobs={jobs}"
            );
            assert!(Arc::ptr_eq(
                warmed[0].as_ref().unwrap(),
                warmed[2].as_ref().unwrap()
            ));
            assert!(!Arc::ptr_eq(
                warmed[0].as_ref().unwrap(),
                warmed[1].as_ref().unwrap()
            ));
        }
    }

    #[test]
    fn a_cell_error_is_returned_not_panicked() {
        let dir = std::env::temp_dir().join(format!("vertigo-sweep-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let garbage = dir.join("garbage.vsnp");
        std::fs::write(&garbage, b"not a snapshot").unwrap();
        let mut opts = test_opts(2);
        opts.snapshot.resume = Some(garbage);
        let err = run(&opts, mixed_grid(), |_, _| ()).expect_err("resume must fail");
        assert!(err.to_string().contains("not a VSNP snapshot"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
