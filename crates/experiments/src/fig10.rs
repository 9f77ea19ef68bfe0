//! Figure 10: burstiness sweep at fixed 80 % aggregate load — incast
//! arrival rate rises while background load falls to compensate.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 10: incast arrival-rate sweep at fixed 80% load ==\n");
    let s = opts.scale;
    let mut cells = Vec::new();
    for incast_pct in [4u32, 8, 12, 16, 20, 24, 28] {
        let inc = s.incast_for_load(incast_pct as f64 / 100.0);
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: (80 - incast_pct) as f64 / 100.0,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(inc),
        };
        for sys in SystemKind::all() {
            cells.push(Cell::new(
                format!("fig10 incast{incast_pct}% {}", sys.name()),
                opts.spec(sys, CcKind::Dctcp, workload),
                (incast_pct, inc.qps),
            ));
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let (incast_pct, qps) = c.tag;
        let r = &out.report;
        vec![
            incast_pct.to_string(),
            format!("{:.1}", qps / 1000.0),
            c.spec.system.name().to_string(),
            fmt_secs(r.qct_mean),
            fmt_secs(r.fct_p99),
            r.drops.to_string(),
        ]
    })?;
    let mut t = Table::new(&[
        "incast_load%",
        "kqps",
        "system",
        "mean_qct",
        "p99_fct",
        "drops",
    ]);
    t.rows(rows);
    t.emit(opts, "fig10");
    Ok(())
}
