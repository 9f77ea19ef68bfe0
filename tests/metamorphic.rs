//! Metamorphic relations: two runs that must agree whatever the model's
//! behaviour, so they need no pinned bytes and survive a change that
//! moves every pin.
//!
//! * **(a) Time shift.** Shifting every arrival and the horizon by Δ
//!   changes no FCT or QCT sample, drop, deflection, retransmission, RTO,
//!   ECN mark or event count. A Δ past 2^33 ns straddles the timing
//!   wheel's levels, so it checks the wheel against absolute time.
//! * **(b) An overflow policy that never fires is invisible.** DIBS
//!   forwards by ECMP until a buffer overflows, so a DIBS run that
//!   deflects nothing is the ECMP run of the same spec.
//!
//! Cells are tiny (2 hosts a leaf, 4 ms) and planned with
//! [`WorkloadSpec::plan`], so a relation sees every arrival.

use vertigo::netsim::Simulation;
use vertigo::pkt::{NodeId, QueryId};
use vertigo::simcore::SimDuration;
use vertigo::stats::Report;
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DistKind, IncastSpec, PlanContext, RunSpec, SystemKind, TopoKind, WorkloadSpec,
};

/// A 4 ms cell on the 16-host leaf-spine carrying `workload`.
fn cell(system: SystemKind, cc: CcKind, seed: u64, workload: WorkloadSpec) -> RunSpec {
    let mut spec = RunSpec::new(system, cc, workload);
    spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 2 };
    spec.horizon = SimDuration::from_millis(4);
    spec.seed = seed;
    spec
}

/// Background plus an incast heavy enough to overflow buffers.
fn bursty() -> WorkloadSpec {
    WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.3,
            dist: DistKind::CacheFollower,
        }),
        incast: Some(IncastSpec {
            qps: 4_000.0,
            scale: 10,
            flow_bytes: 40_000,
        }),
    }
}

/// `spec`'s workload, planned at `spec`'s horizon, run with every arrival
/// and the horizon shifted by `shift`.
fn run_shifted(spec: &RunSpec, shift: SimDuration) -> Report {
    let mut shifted = *spec;
    shifted.workload = WorkloadSpec {
        background: None,
        incast: None,
    };
    shifted.horizon = spec.horizon + shift;
    let mut sim: Simulation = shifted.build();
    let ctx = PlanContext {
        horizon: spec.horizon,
        ..PlanContext::of(&sim)
    };
    let plans = (spec.workload.plan(sim.rng(), &ctx)).expect("the cell plans");
    for plan in &plans {
        let queries: Vec<QueryId> = (plan.queries.iter())
            .map(|q| sim.register_query(q.fanout, q.at + shift))
            .collect();
        for f in &plan.flows {
            let query = f.query.map_or(QueryId::NONE, |i| queries[i as usize]);
            let (src, dst) = (NodeId(f.src), NodeId(f.dst));
            sim.schedule_flow(f.at + shift, src, dst, f.bytes, query);
        }
    }
    sim.run()
}

/// What relation (a) holds equal: the sorted FCT and QCT samples and the
/// counters.
fn shift_invariant(r: &Report) -> String {
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    format!(
        "fct {:?} qct {:?} drops {:?} deflections {} retransmits {} rtos {} ecn {} events {}",
        sorted(&r.fct_samples),
        sorted(&r.qct_samples),
        r.drops_by_cause,
        r.deflections,
        r.retransmits,
        r.rtos,
        r.ecn_marks,
        r.events_scheduled,
    )
}

#[test]
fn shifting_every_arrival_and_the_horizon_changes_no_sample_or_count() {
    let shifts = [
        SimDuration::from_nanos(1),
        SimDuration::from_nanos((1 << 33) + 12_345),
    ];
    let mut totals = Report::default();
    for system in SystemKind::all() {
        for cc in [CcKind::Dctcp, CcKind::Swift] {
            let spec = cell(system, cc, 3, bursty());
            let base = run_shifted(&spec, SimDuration::ZERO);
            assert!(base.flows_completed > 0, "{system:?}/{cc:?}: nothing ran");
            for shift in shifts {
                assert_eq!(
                    shift_invariant(&base),
                    shift_invariant(&run_shifted(&spec, shift)),
                    "{system:?}/{cc:?} shifted by {shift:?}"
                );
            }
            totals.deflections += base.deflections;
            totals.retransmits += base.retransmits;
            totals.ecn_marks += base.ecn_marks;
            totals.drops += base.drops;
        }
    }
    // The relation is only as strong as the events it compares.
    for (what, n) in [
        ("deflections", totals.deflections),
        ("retransmits", totals.retransmits),
        ("ECN marks", totals.ecn_marks),
        ("drops", totals.drops),
    ] {
        assert!(n > 0, "no cell had any {what}: the grid proves nothing");
    }
}

#[test]
fn a_dibs_run_that_deflects_nothing_is_the_ecmp_run() {
    let light = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.1,
            dist: DistKind::CacheFollower,
        }),
        incast: Some(IncastSpec {
            qps: 1_000.0,
            scale: 2,
            flow_bytes: 10_000,
        }),
    };
    for cc in [CcKind::Reno, CcKind::Dctcp, CcKind::Swift] {
        for seed in [1, 2] {
            let dibs = cell(SystemKind::Dibs, cc, seed, light).run().report;
            assert_eq!(dibs.deflections, 0, "{cc:?} seed {seed}: DIBS deflected");
            assert!(dibs.flows_completed > 0, "{cc:?} seed {seed}: nothing ran");
            let ecmp = cell(SystemKind::Ecmp, cc, seed, light).run().report;
            assert_eq!(
                format!("{dibs:?}"),
                format!("{ecmp:?}"),
                "{cc:?} seed {seed}"
            );
        }
    }
}
