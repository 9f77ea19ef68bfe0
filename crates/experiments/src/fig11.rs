//! Figure 11: component analysis.
//!
//! * (a) ablations — full Vertigo vs. no-deflection, no-scheduling, and
//!   no-ordering across a load sweep (50 % background + incast);
//! * (b) boosting — completed-query ratio with boosting off / 2x / 4x / 8x
//!   at 25 % and 75 % background load under a heavy incast.

use crate::common::{fmt_pct, fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, RunSpec, SystemKind, WorkloadSpec};

/// A named ablation: label plus the spec tweak that disables one component.
type Variant = (&'static str, fn(&mut RunSpec));

pub fn run_a(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 11a: Vertigo ablations (50% BG + incast sweep) ==\n");
    let s = &opts.scale;
    let variants: [Variant; 4] = [
        ("Vertigo", |_| {}),
        ("NoDeflection", |sp| sp.vertigo.deflection = false),
        ("NoScheduling", |sp| sp.vertigo.scheduling = false),
        ("NoOrdering", |sp| sp.vertigo.ordering = false),
    ];
    let mut cells = Vec::new();
    for total in (55..=95).step_by(10) {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.50,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(s.incast_for_load((total - 50) as f64 / 100.0)),
        };
        for (name, tweak) in variants {
            let mut spec = opts.spec(SystemKind::Vertigo, CcKind::Dctcp, workload);
            tweak(&mut spec);
            cells.push(Cell::new(
                format!("fig11a load{total} {name}"),
                spec,
                (total, name),
            ));
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let (total, name) = c.tag;
        let r = &out.report;
        vec![
            total.to_string(),
            name.to_string(),
            fmt_secs(r.qct_mean),
            fmt_secs(r.fct_mean),
            format!("{:.2}", r.goodput_gbps),
            r.drops.to_string(),
            format!("{:.4}", r.reorder_rate),
        ]
    })?;
    let mut t = Table::new(&[
        "load%",
        "variant",
        "mean_qct",
        "mean_fct",
        "goodput_gbps",
        "drops",
        "reorder_rate",
    ]);
    t.rows(rows);
    t.emit(opts, "fig11a");
    Ok(())
}

pub fn run_b(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 11b: retransmission boosting (queries completed) ==\n");
    let s = &opts.scale;
    let mut cells = Vec::new();
    for bg in [0.25, 0.75] {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: bg,
                dist: DistKind::CacheFollower,
            }),
            // Incast pushes aggregate load to ~95 %.
            incast: Some(s.incast_for_load(0.95 - bg)),
        };
        for factor in [None, Some(2u32), Some(4), Some(8)] {
            let mut spec = opts.spec(SystemKind::Vertigo, CcKind::Dctcp, workload);
            spec.vertigo.boost_factor = factor;
            let boosting = match factor {
                None => "off".to_string(),
                Some(f) => format!("x{f}"),
            };
            let bg_pct = (bg * 100.0) as u32;
            cells.push(Cell::new(
                format!("fig11b bg{bg_pct} boost {boosting}"),
                spec,
                (bg_pct, boosting),
            ));
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let (bg_pct, boosting) = &c.tag;
        let r = &out.report;
        vec![
            bg_pct.to_string(),
            boosting.clone(),
            fmt_pct(r.query_completion_ratio()),
            fmt_secs(r.qct_mean),
            r.retransmits.to_string(),
        ]
    })?;
    let mut t = Table::new(&[
        "bg%",
        "boosting",
        "completed_queries",
        "mean_qct",
        "retransmits",
    ]);
    t.rows(rows);
    t.emit(opts, "fig11b");
    Ok(())
}
