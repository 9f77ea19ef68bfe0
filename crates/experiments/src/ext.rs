//! Extension experiment (beyond the paper): NDP-style packet trimming as
//! an alternative buffer policy. The paper's §5 names NDP's payload
//! trimming as related buffer management and leaves combining it with
//! Vertigo to future work; this table quantifies how trimming's explicit
//! loss signals compare to tail-drop, DIBS, and Vertigo under the
//! standard bursty workload.

use crate::common::{fmt_pct, fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Extension: NDP-style trimming vs drop/deflect policies ==\n");
    let s = &opts.scale;
    let systems = [
        SystemKind::Ecmp,
        SystemKind::NdpTrim,
        SystemKind::Dibs,
        SystemKind::Vertigo,
    ];
    let mut cells = Vec::new();
    for total in [55u32, 75, 95] {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.25,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(s.incast_for_load((total - 25) as f64 / 100.0)),
        };
        for sys in systems {
            cells.push(Cell::new(
                format!("ext load{total} {}", sys.name()),
                opts.spec(sys, CcKind::Dctcp, workload),
                total,
            ));
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let r = &out.report;
        vec![
            c.tag.to_string(),
            c.spec.system.name().to_string(),
            fmt_pct(r.query_completion_ratio()),
            fmt_secs(r.qct_mean),
            r.drops.to_string(),
            r.rtos.to_string(),
            r.retransmits.to_string(),
        ]
    })?;
    let mut t = Table::new(&[
        "load%",
        "system",
        "query_compl",
        "mean_qct",
        "drops",
        "rtos",
        "retransmits",
    ]);
    t.rows(rows);
    t.emit(opts, "ext_trim");
    Ok(())
}
