//! fig-deflect: the deflection-policy zoo compared head-to-head — all
//! five [`DeflectKind`]s × three congestion controls on the Vertigo
//! system, at 25 % background load plus a 50 % incast.
//!
//! Every cell keeps Vertigo's forwarding, scheduling knobs, and host
//! marking/ordering stack and swaps *only* the overflow policy (the
//! `RunSpec::deflect` override), so differences between rows are the
//! deflection axis and nothing else. Per-policy counters (PABO bounces,
//! hybrid deflect/drop split, bounded cap drops) come from the report's
//! policy-specific fields.
//!
//! The grid runs *phased* like fig5: background-only warmup for the first
//! quarter of the horizon, then the incast burst. Every cell is its own
//! warmup equivalence class (the overflow policy is part of the prefix
//! spec — background overflows, EWMA state, and queue disciplines all
//! depend on it), so the conservative fork key sends all 15 cells
//! straight through.

use crate::common::{fmt_pct, fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DeflectKind, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== fig-deflect: deflection-policy zoo x congestion control ==\n");
    let s = opts.scale;
    let fork = opts.fig_fork();
    let workload = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.25,
            dist: DistKind::CacheFollower,
        }),
        incast: Some(s.incast_for_load(0.50)),
    };
    let mut cells = Vec::new();
    for cc in [CcKind::Reno, CcKind::Dctcp, CcKind::Swift] {
        for kind in DeflectKind::ALL {
            let mut spec = opts.spec(SystemKind::Vertigo, cc, workload);
            spec.deflect = Some(kind);
            cells.push(Cell::phased(
                format!("figdeflect {} {}", cc.name(), kind.name()),
                spec,
                fork,
                kind,
            ));
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let kind = c.tag;
        let r = &out.report;
        // The policy-specific action column: what the policy did
        // *instead of* plain deflection (PABO bounces are deflections
        // too, so they show in both columns).
        let policy_action = match kind {
            DeflectKind::Vertigo | DeflectKind::Dibs => 0,
            DeflectKind::Pabo => r.pabo_bounces,
            DeflectKind::Hybrid => r.hybrid_retx_drops,
            DeflectKind::Bounded => r.bounded_cap_drops,
        };
        vec![
            c.spec.cc.name().to_string(),
            kind.name().to_string(),
            fmt_secs(r.qct_mean),
            fmt_secs(r.qct_p99),
            fmt_secs(r.fct_mice_p99),
            fmt_pct(r.query_completion_ratio()),
            r.deflections.to_string(),
            policy_action.to_string(),
            r.drops.to_string(),
        ]
    })?;
    let mut t = Table::new(&[
        "cc",
        "deflect",
        "mean_qct",
        "p99_qct",
        "p99_mice_fct",
        "qcr",
        "deflections",
        "policy_action",
        "drops",
    ]);
    t.rows(rows);
    t.emit(opts, "figdeflect");
    Ok(())
}
