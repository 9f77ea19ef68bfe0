//! Table 2: flow and query completion ratios at 75 % load
//! (50 % background + 25 % incast) under DCTCP and Swift, on the
//! leaf-spine.

use crate::common::{fmt_pct, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Table 2: completion ratios at 75% load (50% BG + 25% incast) ==\n");
    let s = opts.scale;
    let workload = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.50,
            dist: DistKind::CacheFollower,
        }),
        incast: Some(s.incast_for_load(0.25)),
    };
    let mut cells = Vec::new();
    for cc in [CcKind::Dctcp, CcKind::Swift] {
        for sys in [SystemKind::Ecmp, SystemKind::Dibs, SystemKind::Vertigo] {
            cells.push(Cell::new(
                format!("table2 {}+{}", sys.name(), cc.name()),
                opts.spec(sys, cc, workload),
                (),
            ));
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        vec![
            c.spec.cc.name().to_string(),
            c.spec.system.name().to_string(),
            fmt_pct(out.report.flow_completion_ratio()),
            fmt_pct(out.report.query_completion_ratio()),
        ]
    })?;
    let mut t = Table::new(&["cc", "system", "flow_completion", "query_completion"]);
    t.rows(rows);
    t.emit(opts, "table2");
    Ok(())
}
