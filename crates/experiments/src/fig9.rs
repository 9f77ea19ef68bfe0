//! Figure 9: incast *flow size* sweep (1→180 KB) at fixed fan-in and QPS
//! over 50 % background load.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, IncastSpec, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 9: incast flow size sweep (50% BG) ==\n");
    let s = opts.scale;
    // Fixed QPS: at the largest flow size (180 KB) total load hits ~95 %.
    let qps = IncastSpec::qps_for_load(0.45, s.incast_scale, 180_000, s.ls_total_bw());
    let systems: [(&str, SystemKind, CcKind); 5] = [
        ("TCP ECMP", SystemKind::Ecmp, CcKind::Reno),
        ("ECMP", SystemKind::Ecmp, CcKind::Dctcp),
        ("DRILL", SystemKind::Drill, CcKind::Dctcp),
        ("DIBS", SystemKind::Dibs, CcKind::Dctcp),
        ("Vertigo", SystemKind::Vertigo, CcKind::Dctcp),
    ];
    let mut cells = Vec::new();
    for flow_kb in [1u64, 20, 40, 60, 100, 140, 180] {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.50,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps,
                scale: s.incast_scale,
                flow_bytes: flow_kb * 1000,
            }),
        };
        for (name, sys, cc) in systems {
            cells.push(Cell::new(
                format!("fig9 {flow_kb}KB {name}"),
                opts.spec(sys, cc, workload),
                (flow_kb, name),
            ));
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let (flow_kb, name) = c.tag;
        let r = &out.report;
        vec![
            flow_kb.to_string(),
            name.to_string(),
            fmt_secs(r.qct_mean),
            r.queries_completed.to_string(),
            r.drops.to_string(),
        ]
    })?;
    let mut t = Table::new(&[
        "flow_kb",
        "system",
        "mean_qct",
        "completed_queries",
        "drops",
    ]);
    t.rows(rows);
    t.emit(opts, "fig9");
    Ok(())
}
