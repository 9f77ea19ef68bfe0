//! §2 prose measurements: the costs of *random* deflection.
//!
//! Compares ECMP and DIBS (random deflection) at a light (35 %) and heavy
//! (80 %) load: hop inflation, transport-visible reordering, packet loss,
//! and mice-flow FCT — the four §2 observations that motivate Vertigo.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Section 2 measurements: random deflection pathologies ==\n");
    let s = &opts.scale;
    let mut cells = Vec::new();
    for total in [35u32, 50, 65, 80] {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.15,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(s.incast_for_load((total - 15) as f64 / 100.0)),
        };
        for sys in [SystemKind::Ecmp, SystemKind::Dibs] {
            cells.push(Cell::new(
                format!("sec2 load{total} {}", sys.name()),
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
            format!("{:.3}", r.mean_hops),
            format!("{:.4}", r.reorder_rate),
            r.drops.to_string(),
            fmt_secs(r.fct_mice_mean),
            fmt_secs(r.qct_mean),
        ]
    })?;
    let mut t = Table::new(&[
        "load%",
        "system",
        "mean_hops",
        "reorder_rate",
        "drops",
        "mice_fct",
        "mean_qct",
    ]);
    t.rows(rows);
    t.emit(opts, "sec2");
    outln!("paper §2 claims to compare against:");
    outln!("  - deflection increases mean hop count by ~20% under load");
    outln!("  - random deflection raises transport reordering ~10x at 35% load");
    outln!("  - random deflection inflates mice FCT (~40%) and QCT under load");
    Ok(())
}
