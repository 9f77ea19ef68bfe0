//! `soak`: sustained multi-tenant load on the fat-tree for a long
//! horizon, with the conservation audit exercised and the per-tenant
//! breakdown printed — the workload-realism endurance run, not a paper
//! figure.
//!
//! The default scenario mixes a bursty ON-OFF tenant and a
//! latency-sensitive service tenant pinned to disjoint host halves with
//! a shared synchronized incast application on top of a light all-hosts
//! base load; `--workload SPEC` replaces it wholesale. The horizon is 4×
//! the scale's fat-tree horizon. The conservation checks run in debug
//! builds (`cargo run` without `--release`) — the run reports whether the
//! invariant layer was live, and CI runs the soak in a debug build so a
//! conservation violation fails loudly.

use crate::common::{fmt_pct, fmt_secs, outln, Opts, Table};
use crate::sweep::{self, Cell};
use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, DistKind, RunError, ScenarioSpec, SystemKind, WorkloadSpec,
};

/// The canned multi-tenant scenario, parameterized by host count: ON-OFF
/// bursty tenant on the low half, Poisson service tenant on the high
/// half, one shared (untenanted) incast across all hosts.
pub fn default_scenario(hosts: usize) -> String {
    let half = hosts / 2;
    format!(
        "onoff:load=0.3,on=1ms,off=3ms,dist=datamining,tenant=bursty,hosts=0-{} \
         + bg:load=0.15,tenant=svc,hosts={}-{} \
         + incast:scale={},size=40k,load=0.1,sync=10us",
        half - 1,
        half,
        hosts - 1,
        (hosts / 8).max(2)
    )
}

pub fn run(opts: &Opts) -> Result<(), RunError> {
    let s = opts.scale;
    let hosts = s.ft_hosts();
    let scenario = if opts.scenario.is_empty() {
        let spec = default_scenario(hosts);
        ScenarioSpec::parse(&spec).unwrap_or_else(|e| panic!("soak default scenario: {e}"))
    } else {
        opts.scenario
    };
    let horizon = SimDuration::from_nanos(s.ft_horizon.as_nanos() * 4);
    outln!(
        "== soak: fat-tree k={} ({hosts} hosts), {:.0} ms sustained multi-tenant load ==\n\
         workload: {scenario}\n",
        s.ft_k,
        horizon.as_secs_f64() * 1e3,
    );

    let base = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.10,
            dist: DistKind::CacheFollower,
        }),
        incast: None,
    };
    let mut spec = opts.spec(SystemKind::Vertigo, CcKind::Dctcp, base);
    spec.topo = s.fat_tree();
    spec.horizon = horizon;
    spec.scenario = scenario;

    // The one cell's output: the per-tenant rows, the totals line, and
    // the audit tally.
    let cell = Cell::new("soak", spec, ());
    let mut outs = sweep::run(opts, vec![cell], |_, out| {
        let r = &out.report;
        let tenants: Vec<Vec<String>> = r
            .tenants
            .iter()
            .map(|ten| {
                vec![
                    ten.label.clone(),
                    ten.flows_started.to_string(),
                    ten.flows_completed.to_string(),
                    fmt_secs(ten.fct_mean),
                    fmt_secs(ten.fct_p99),
                    ten.queries_started.to_string(),
                    fmt_secs(ten.qct_p99),
                    format!("{:.2}", ten.goodput_gbps),
                ]
            })
            .collect();
        let totals = format!(
            "offered load {}  goodput {:.2} Gbps  flows {}/{}  queries {}/{}  drops {}",
            fmt_pct(out.offered_load),
            r.goodput_gbps,
            r.flows_completed,
            r.flows_started,
            r.queries_completed,
            r.queries_started,
            r.drops,
        );
        (tenants, totals, r.audit_checks)
    })?;
    let (tenants, totals, audit_checks) = outs.pop().expect("one cell in, one row out");

    let mut t = Table::new(&[
        "tenant", "flows", "done", "mean_fct", "p99_fct", "queries", "p99_qct", "gbps",
    ]);
    t.rows(tenants);
    t.emit(opts, "soak");

    outln!("{totals}");
    // Audit tallies live on stderr with the build note: stdout stays
    // byte-identical between debug and release builds.
    if cfg!(debug_assertions) {
        eprintln!("[audit] conservation layer live: {audit_checks} invariant checks, zero diffs");
    } else {
        eprintln!(
            "[audit] release build: conservation checks compiled out \
             (run without --release to audit)"
        );
    }
    Ok(())
}
