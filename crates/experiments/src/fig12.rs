//! Figure 12: random vs. power-of-two choices for forwarding (1FW/2FW)
//! and deflection (1DEF/2DEF), on both topologies: mean QCT and drop %.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{BackgroundSpec, DistKind, IncastSpec, RunError, SystemKind, WorkloadSpec};

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== Figure 12: 1FW/2FW x 1DEF/2DEF on leaf-spine and fat-tree ==\n");
    let s = &opts.scale;
    let combos: [(&str, usize, usize); 4] = [
        ("1FW 1DEF", 1, 1),
        ("1FW 2DEF", 1, 2),
        ("2FW 1DEF", 2, 1),
        ("Vertigo(2FW 2DEF)", 2, 2),
    ];
    for (topo_name, tag, topo, total_bw, horizon, fanin) in [
        (
            "leaf-spine",
            "ab",
            s.leaf_spine(),
            s.ls_total_bw(),
            s.horizon,
            s.incast_scale,
        ),
        (
            "fat-tree",
            "cd",
            s.fat_tree(),
            s.ft_total_bw(),
            s.ft_horizon,
            (s.ft_hosts() / 3).max(2),
        ),
    ] {
        outln!("--- {topo_name} ---");
        let mut cells = Vec::new();
        for total in [35u32, 55, 75, 95] {
            let workload = WorkloadSpec {
                background: Some(BackgroundSpec {
                    load: 0.25,
                    dist: DistKind::CacheFollower,
                }),
                incast: Some(IncastSpec {
                    qps: IncastSpec::qps_for_load(
                        (total - 25) as f64 / 100.0,
                        fanin,
                        s.incast_flow,
                        total_bw,
                    ),
                    scale: fanin,
                    flow_bytes: s.incast_flow,
                }),
            };
            for (name, fw, def) in combos {
                let mut spec = opts.spec(SystemKind::Vertigo, CcKind::Dctcp, workload);
                spec.topo = topo;
                spec.horizon = horizon;
                spec.vertigo.fw_power = fw;
                spec.vertigo.defl_power = def;
                cells.push(Cell::new(
                    format!("fig12 {topo_name} load{total} {name}"),
                    spec,
                    (total, name),
                ));
            }
        }
        let rows = sweep::run(opts, cells, |c, out| {
            let (total, name) = c.tag;
            let r = &out.report;
            vec![
                total.to_string(),
                name.to_string(),
                fmt_secs(r.qct_mean),
                format!("{:.3}", r.drop_rate * 100.0),
                r.deflections.to_string(),
            ]
        })?;
        let mut t = Table::new(&["load%", "combo", "mean_qct", "drop_pct", "deflections"]);
        t.rows(rows);
        t.emit(opts, &format!("fig12{tag}_{topo_name}"));
    }
    Ok(())
}
