//! Figure 5: QCT/FCT (mean and p99) under 25/50/75 % background load with
//! an incast sweep, all four systems over DCTCP.
//!
//! The grid runs *phased*: every cell simulates a background-only warmup
//! for the first quarter of the horizon, then the incast burst arrives —
//! the paper's steady-state-background methodology. Phasing also lets the
//! sweep share warmups: the 4 systems × 7/5/2 loads of a panel collapse
//! into 4 equivalence classes (one per system at that background load),
//! and each class's warmup is simulated once instead of per cell. Output
//! is byte-identical to simulating every cell straight through, which
//! `--checkpoint-every`, `--resume`, `--trace` and `--domains` do (CI
//! digest-diffs those against the plain run).

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 5: systems x background load (DCTCP) ==\n");
    let s = opts.scale;
    let fork = opts.fig_fork();
    // Build the whole grid up front so all three panels share one sweep.
    let mut cells = Vec::new();
    let mut panels: Vec<(u32, usize)> = Vec::new(); // (bg_pct, cell count)
    for bg_pct in [25u32, 50, 75] {
        let before = cells.len();
        let mut total = bg_pct + 10;
        let mut loads = Vec::new();
        while total <= 95 {
            loads.push(total);
            total += 10;
        }
        if *loads.last().unwrap_or(&0) != 95 {
            loads.push(95);
        }
        for total in loads {
            let incast_load = (total - bg_pct) as f64 / 100.0;
            let workload = WorkloadSpec {
                background: Some(BackgroundSpec {
                    load: bg_pct as f64 / 100.0,
                    dist: DistKind::CacheFollower,
                }),
                incast: Some(s.incast_for_load(incast_load)),
            };
            for sys in SystemKind::all() {
                cells.push(Cell::phased(
                    format!("fig5 bg{bg_pct} load{total} {}", sys.name()),
                    opts.spec(sys, CcKind::Dctcp, workload),
                    fork,
                    total,
                ));
            }
        }
        panels.push((bg_pct, cells.len() - before));
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let r = &out.report;
        vec![
            c.tag.to_string(),
            c.spec.system.name().to_string(),
            fmt_secs(r.qct_mean),
            fmt_secs(r.qct_p99),
            fmt_secs(r.fct_mean),
            fmt_secs(r.fct_p99),
            r.drops.to_string(),
        ]
    })?;
    let mut rows = rows.into_iter();
    for (bg_pct, count) in panels {
        outln!("--- panel: {bg_pct}% background load ---");
        let mut t = Table::new(&[
            "load%", "system", "mean_qct", "p99_qct", "mean_fct", "p99_fct", "drops",
        ]);
        t.rows(rows.by_ref().take(count));
        t.emit(opts, &format!("fig5_bg{bg_pct}"));
    }
    Ok(())
}
