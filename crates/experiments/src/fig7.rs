//! Figure 7 + Table 2: the fat-tree evaluation. Three load mixes
//! (25+10, 50+25, 25+60) x {DCTCP, Swift} x {ECMP, DIBS, Vertigo}:
//! FCT/QCT CDFs (CSV) and completion-ratio summaries.

use crate::common::{fmt_pct, fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, IncastSpec, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 7: fat-tree(k={}) CDFs ==\n", opts.scale.ft_k);
    let s = &opts.scale;
    let total_bw = s.ft_total_bw();
    // Incast fan-in scaled to the fat-tree size (paper: 100 of 128 hosts).
    let ft_scale = (s.ft_hosts() * 3 / 4).max(2).min(s.ft_hosts() - 1);
    let mut cells = Vec::new();
    for (bg, inc) in [(0.25, 0.10), (0.50, 0.25), (0.25, 0.60)] {
        let workload = WorkloadSpec {
            background: Some(BackgroundSpec {
                load: bg,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps: IncastSpec::qps_for_load(inc, ft_scale, s.incast_flow, total_bw),
                scale: ft_scale,
                flow_bytes: s.incast_flow,
            }),
        };
        let mix = format!("{}+{}", (bg * 100.0) as u32, (inc * 100.0) as u32);
        for cc in [CcKind::Dctcp, CcKind::Swift] {
            for sys in [SystemKind::Ecmp, SystemKind::Dibs, SystemKind::Vertigo] {
                let mut spec = opts.spec(sys, cc, workload);
                spec.topo = s.fat_tree();
                spec.horizon = s.ft_horizon;
                cells.push(Cell::new(
                    format!("fig7 mix{mix} {}+{}", sys.name(), cc.name()),
                    spec,
                    mix.clone(),
                ));
            }
        }
    }
    // One cell's output: its summary row plus its FCT and QCT CDF rows.
    let outs = sweep::run(opts, cells, |c, out| {
        let r = &out.report;
        let id = [
            c.tag.clone(),
            c.spec.cc.name().to_string(),
            c.spec.system.name().to_string(),
        ];
        let mut row = id.to_vec();
        row.extend([
            fmt_pct(r.flow_completion_ratio()),
            fmt_pct(r.query_completion_ratio()),
            fmt_secs(r.fct_mean),
            fmt_secs(r.qct_mean),
            fmt_secs(r.qct_p99),
        ]);
        let mut cdf_rows = Vec::new();
        for (metric, cdf) in [("fct", r.fct_cdf(30)), ("qct", r.qct_cdf(30))] {
            for (v, f) in cdf.points {
                let mut cdf_row = id.to_vec();
                cdf_row.extend([metric.to_string(), format!("{v:.6}"), format!("{f:.4}")]);
                cdf_rows.push(cdf_row);
            }
        }
        (row, cdf_rows)
    })?;
    let mut summary = Table::new(&[
        "mix",
        "cc",
        "system",
        "flow_compl",
        "query_compl",
        "mean_fct",
        "mean_qct",
        "p99_qct",
    ]);
    let mut cdfs = Table::new(&["mix", "cc", "system", "metric", "secs", "cum_frac"]);
    for (row, cdf_rows) in outs {
        summary.row(row);
        cdfs.rows(cdf_rows);
    }
    summary.emit(opts, "fig7_summary");
    cdfs.emit(opts, "fig7_cdfs");
    Ok(())
}
