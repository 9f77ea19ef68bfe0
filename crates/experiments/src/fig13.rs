//! Figure 13: sensitivity of flow completion times to the ordering
//! timeout τ (120 µs → 1.08 ms) under a heavily bursty load.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 13: ordering timeout sweep (85% load) ==\n");
    let s = &opts.scale;
    let workload = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.25,
            dist: DistKind::CacheFollower,
        }),
        incast: Some(s.incast_for_load(0.60)),
    };
    let cells = [120u64, 240, 360, 480, 600, 720, 840, 960, 1080]
        .into_iter()
        .map(|tau_us| {
            let mut spec = opts.spec(SystemKind::Vertigo, CcKind::Dctcp, workload);
            spec.vertigo.tau = SimDuration::from_micros(tau_us);
            Cell::new(format!("fig13 tau{tau_us}us"), spec, tau_us)
        })
        .collect();
    let rows = sweep::run(opts, cells, |c, out| {
        let r = &out.report;
        vec![
            c.tag.to_string(),
            fmt_secs(r.fct_mean),
            fmt_secs(r.fct_p99),
            fmt_secs(r.qct_mean),
            out.ordering.timeouts.to_string(),
            format!("{:.4}", r.reorder_rate),
        ]
    })?;
    let mut t = Table::new(&[
        "tau_us",
        "mean_fct",
        "p99_fct",
        "mean_qct",
        "ooo_timeouts",
        "reorder_rate",
    ]);
    t.rows(rows);
    t.emit(opts, "fig13");
    Ok(())
}
