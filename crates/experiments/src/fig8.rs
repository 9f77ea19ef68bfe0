//! Figure 8: incast *scale* sweep at fixed QPS and flow size over 50 %
//! background load. The fan-in is swept as a fraction of cluster size,
//! mirroring the paper's 50→450 over 320 hosts.

use crate::common::{fmt_pct, fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, IncastSpec, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 8: incast scale sweep (50% BG, fixed QPS) ==\n");
    let s = opts.scale;
    let hosts = s.ls_hosts();
    // Paper sweeps 50..450 of 320 hosts (≈ 16 %..140 %, capped by cluster);
    // we sweep 10 %..75 % of hosts.
    let scales: Vec<usize> = [0.10, 0.20, 0.30, 0.45, 0.60, 0.75]
        .iter()
        .map(|f| ((hosts as f64 * f) as usize).clamp(2, hosts - 1))
        .collect();
    // Fixed QPS chosen so the largest scale pushes total load to ~95 %.
    let max_scale = *scales.last().expect("nonempty");
    let qps = IncastSpec::qps_for_load(0.45, max_scale, s.incast_flow, s.ls_total_bw());
    let mut cells = Vec::new();
    for &scale in &scales {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.50,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps,
                scale,
                flow_bytes: s.incast_flow,
            }),
        };
        for sys in SystemKind::all() {
            cells.push(Cell::new(
                format!("fig8 scale{scale} {}", sys.name()),
                opts.spec(sys, CcKind::Dctcp, workload),
                scale,
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
            fmt_secs(r.fct_mean),
            fmt_secs(r.fct_p99),
        ]
    })?;
    let mut t = Table::new(&[
        "scale",
        "system",
        "completed_queries",
        "mean_qct",
        "mean_fct",
        "p99_fct",
    ]);
    t.rows(rows);
    t.emit(opts, "fig8");
    Ok(())
}
