//! Figure 6: transport sensitivity. DIBS and Vertigo under TCP, DCTCP,
//! and Swift (plus ECMP + Swift), mean QCT across a load sweep, and the
//! QCT CDF at 85 % load.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, RunError, SystemKind, WorkloadSpec};

const COMBOS: [(SystemKind, CcKind); 7] = [
    (SystemKind::Dibs, CcKind::Reno),
    (SystemKind::Dibs, CcKind::Dctcp),
    (SystemKind::Dibs, CcKind::Swift),
    (SystemKind::Ecmp, CcKind::Swift),
    (SystemKind::Vertigo, CcKind::Reno),
    (SystemKind::Vertigo, CcKind::Dctcp),
    (SystemKind::Vertigo, CcKind::Swift),
];

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 6: DIBS/Vertigo x TCP/DCTCP/Swift (25% BG + incast) ==\n");
    let s = opts.scale;
    let mut cells = Vec::new();
    for total in (35..=95).step_by(10) {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.25,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(s.incast_for_load((total - 25) as f64 / 100.0)),
        };
        for (sys, cc) in COMBOS {
            cells.push(Cell::new(
                format!("fig6 load{total} {}+{}", sys.name(), cc.name()),
                opts.spec(sys, cc, workload),
                total,
            ));
        }
    }
    // One cell's output: the sweep row, plus CDF rows for the 85 % column.
    let outs = sweep::run(opts, cells, |c, out| {
        let (total, sys, cc) = (c.tag, c.spec.system.name(), c.spec.cc.name());
        let r = &out.report;
        let row = vec![
            total.to_string(),
            sys.to_string(),
            cc.to_string(),
            fmt_secs(r.qct_mean),
            format!("{:.2e}", r.drop_rate),
            r.queries_completed.to_string(),
        ];
        let mut cdf_rows = Vec::new();
        if total == 85 {
            for (v, f) in r.qct_cdf(40).points {
                cdf_rows.push(vec![
                    format!("{sys}+{cc}"),
                    format!("{v:.6}"),
                    format!("{f:.4}"),
                ]);
            }
        }
        (row, cdf_rows)
    })?;
    let mut t = Table::new(&[
        "load%",
        "system",
        "cc",
        "mean_qct",
        "drop_rate",
        "queries_done",
    ]);
    let mut cdf_table = Table::new(&["system_cc", "qct_secs", "cum_frac"]);
    for (row, cdf_rows) in outs {
        t.row(row);
        cdf_table.rows(cdf_rows);
    }
    t.emit(opts, "fig6a");
    cdf_table.emit(opts, "fig6b_cdf85");
    Ok(())
}
