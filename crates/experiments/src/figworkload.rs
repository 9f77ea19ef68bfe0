//! `figworkload`: the four systems under the composable `--workload`
//! scenarios the classic figures cannot express — a windowed incast
//! burst with synchronized-arrival jitter, a permutation matrix, ON-OFF
//! modulated background, and a two-tenant mix (bursty tenant vs.
//! latency-sensitive tenant pinned to disjoint host halves).
//!
//! Every preset is built by *parsing* its grammar string — the same path
//! `--workload` takes — so this figure doubles as an end-to-end exercise
//! of the scenario parser. All presets ride on a common 30 %
//! CacheFollower base load, whose flows land in the `base` bucket of the
//! per-tenant breakdown.

use crate::common::{fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, DistKind, RunError, ScenarioSpec, SystemKind, WorkloadSpec,
};

/// The scenario presets, parameterized by the run's scale. Times are in
/// whole nanoseconds of the horizon so every scale divides evenly.
fn presets(opts: &Opts) -> Vec<(&'static str, String)> {
    let s = opts.scale;
    let hosts = s.ls_hosts();
    let h = s.horizon.as_nanos();
    let half = hosts / 2;
    vec![
        (
            "burst",
            format!(
                "incast:scale={},size=64k,load=0.3,sync=5us@{}ns-{}ns",
                s.incast_scale,
                h / 4,
                h / 2
            ),
        ),
        ("perm", "perm:load=0.3,dist=websearch".to_string()),
        (
            "onoff",
            "onoff:load=0.3,on=1ms,off=4ms,dist=datamining".to_string(),
        ),
        (
            "tenants",
            format!(
                "onoff:load=0.25,on=1ms,off=4ms,dist=datamining,tenant=bursty,hosts=0-{} \
                 + bg:load=0.1,tenant=latency,hosts={}-{}",
                half - 1,
                half,
                hosts - 1
            ),
        ),
    ]
}

pub fn run(opts: &Opts) -> Result<(), RunError> {
    outln!("== figworkload: systems x composable scenarios ==\n");
    let base = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.30,
            dist: DistKind::CacheFollower,
        }),
        incast: None,
    };
    let mut cells = Vec::new();
    for (name, spec_str) in presets(opts) {
        let scenario = ScenarioSpec::parse(&spec_str)
            .unwrap_or_else(|e| panic!("figworkload preset `{name}`: {e}"));
        for sys in SystemKind::all() {
            let mut spec = opts.spec(sys, CcKind::Dctcp, base);
            spec.scenario = scenario;
            cells.push(Cell::new(
                format!("figworkload {name} {}", sys.name()),
                spec,
                name,
            ));
        }
    }
    let rows = sweep::run(opts, cells, |c, out| {
        let r = &out.report;
        vec![
            c.tag.to_string(),
            c.spec.system.name().to_string(),
            fmt_secs(r.fct_mean),
            fmt_secs(r.fct_p99),
            fmt_secs(r.qct_p99),
            format!("{:.2}", r.goodput_gbps),
            r.drops.to_string(),
            r.tenants.len().to_string(),
        ]
    })?;
    let mut t = Table::new(&[
        "scenario", "system", "mean_fct", "p99_fct", "p99_qct", "goodput", "drops", "tenants",
    ]);
    t.rows(rows);
    t.emit(opts, "figworkload");
    Ok(())
}
