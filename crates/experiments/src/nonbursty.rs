//! §4.2 "Vertigo favors short flows under less bursty workloads":
//! background-only sweeps over the three trace distributions, comparing
//! ECMP+DCTCP with Vertigo+DCTCP.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Non-bursty workloads: background-only FCT comparison ==\n");
    let mut cells = Vec::new();
    for dist in [
        DistKind::CacheFollower,
        DistKind::WebSearch,
        DistKind::DataMining,
    ] {
        for load in [25u32, 50, 70, 90] {
            let workload = WorkloadSpec {
                background: Some(BackgroundSpec {
                    load: load as f64 / 100.0,
                    dist,
                }),
                incast: None,
            };
            for sys in [SystemKind::Ecmp, SystemKind::Vertigo] {
                cells.push(Cell::new(
                    format!("nonbursty {} load{load} {}", dist.name(), sys.name()),
                    opts.spec(sys, CcKind::Dctcp, workload),
                    (dist, load),
                ));
            }
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let (dist, load) = c.tag;
        let r = &out.report;
        vec![
            dist.name().to_string(),
            load.to_string(),
            c.spec.system.name().to_string(),
            fmt_secs(r.fct_mean),
            fmt_secs(r.fct_mice_mean),
            fmt_secs(r.fct_p99),
            r.drops.to_string(),
        ]
    })?;
    let mut t = Table::new(&[
        "dist", "load%", "system", "mean_fct", "mice_fct", "p99_fct", "drops",
    ]);
    t.rows(rows);
    t.emit(opts, "nonbursty");
    Ok(())
}
