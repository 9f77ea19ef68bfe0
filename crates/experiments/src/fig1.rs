//! Figure 1 (§2): why naive deflection breaks under load.
//!
//! 15 % background (data-mining: the only distribution with > 10 MB
//! elephants, needed for Fig. 1f) plus an incast sweep raising aggregate
//! load 25→95 %. Systems: TCP Reno + ECMP, DCTCP + ECMP, and random
//! deflection (DIBS) + DCTCP. Reports all six panels: incast query
//! completion %, mean QCT, flow completion %, mean FCT, overall goodput,
//! and elephant-flow goodput.

use crate::common::{fmt_pct, fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 1: random deflection vs. load (15% BG + incast sweep) ==\n");
    let s = &opts.scale;
    let systems: [(&str, SystemKind, CcKind); 3] = [
        ("TCP Reno+ECMP", SystemKind::Ecmp, CcKind::Reno),
        ("DCTCP+ECMP", SystemKind::Ecmp, CcKind::Dctcp),
        ("RandDefl+DCTCP", SystemKind::Dibs, CcKind::Dctcp),
    ];
    let mut cells = Vec::new();
    for total in (25..=95).step_by(10) {
        let incast_load = (total as f64 / 100.0 - 0.15).max(0.01);
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.15,
                dist: DistKind::DataMining,
            }),
            incast: Some(s.incast_for_load(incast_load)),
        };
        for (name, sys, cc) in systems {
            cells.push(Cell::new(
                format!("fig1 load{total} {name}"),
                opts.spec(sys, cc, workload),
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
            fmt_pct(r.query_completion_ratio()),
            fmt_secs(r.qct_mean),
            fmt_pct(r.flow_completion_ratio()),
            fmt_secs(r.fct_mean),
            format!("{:.2}", r.goodput_gbps),
            format!("{:.1}", r.elephant_goodput_mbps),
            r.drops.to_string(),
            format!("{:.2}", r.mean_hops),
        ]
    })?;
    let mut t = Table::new(&[
        "load%",
        "system",
        "query_compl",
        "mean_qct",
        "flow_compl",
        "mean_fct",
        "goodput_gbps",
        "elephant_mbps",
        "drops",
        "mean_hops",
    ]);
    t.rows(rows);
    t.emit(opts, "fig1");
    Ok(())
}
