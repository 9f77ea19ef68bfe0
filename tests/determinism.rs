//! Whole-stack determinism: a simulation is a pure function of its spec.

use vertigo::simcore::SimDuration;
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DistKind, IncastSpec, RunSpec, SystemKind, TopoKind, WorkloadSpec,
};

fn wl() -> WorkloadSpec {
    WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.35,
            dist: DistKind::WebSearch,
        }),
        incast: Some(IncastSpec {
            qps: 500.0,
            scale: 10,
            flow_bytes: 40_000,
        }),
    }
}

fn digest(system: SystemKind, cc: CcKind, seed: u64) -> Vec<u64> {
    let mut s = RunSpec::new(system, cc, wl());
    s.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    s.horizon = SimDuration::from_millis(25);
    s.seed = seed;
    let out = s.run();
    let r = &out.report;
    vec![
        r.flows_completed,
        r.queries_completed,
        r.drops,
        r.deflections,
        r.retransmits,
        r.rtos,
        (r.fct_mean * 1e12) as u64,
        (r.qct_mean * 1e12) as u64,
        (r.goodput_gbps * 1e9) as u64,
        out.ordering.buffered,
        out.marking.retransmissions,
    ]
}

#[test]
fn every_system_is_deterministic() {
    for system in SystemKind::all() {
        let a = digest(system, CcKind::Dctcp, 99);
        let b = digest(system, CcKind::Dctcp, 99);
        assert_eq!(a, b, "{} must be bit-reproducible", system.name());
    }
}

#[test]
fn swift_pacing_is_deterministic() {
    let a = digest(SystemKind::Vertigo, CcKind::Swift, 5);
    let b = digest(SystemKind::Vertigo, CcKind::Swift, 5);
    assert_eq!(a, b);
}

#[test]
fn seeds_actually_matter() {
    let a = digest(SystemKind::Vertigo, CcKind::Dctcp, 1);
    let b = digest(SystemKind::Vertigo, CcKind::Dctcp, 2);
    assert_ne!(a, b, "different seeds should perturb results");
}

/// Determinism holds at event granularity, not just in aggregate: the
/// full provenance event stream is a pure function of the spec.
mod trace_level {
    use super::*;
    use vertigo::stats::TraceFilter;

    fn trace_bytes(system: SystemKind, seed: u64) -> Vec<u8> {
        let mut s = RunSpec::new(system, CcKind::Dctcp, wl());
        s.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
        s.horizon = SimDuration::from_millis(25);
        s.seed = seed;
        let mut sim = s.build();
        sim.enable_trace(TraceFilter::default(), 1 << 14);
        let _ = sim.run();
        sim.trace_bytes()
    }

    #[test]
    fn same_seed_same_event_stream() {
        for system in SystemKind::all() {
            let a = trace_bytes(system, 99);
            let b = trace_bytes(system, 99);
            assert!(!a.is_empty());
            assert_eq!(a, b, "{}: traces must be byte-identical", system.name());
        }
    }

    #[test]
    fn different_seed_different_event_stream() {
        let a = trace_bytes(SystemKind::Vertigo, 1);
        let b = trace_bytes(SystemKind::Vertigo, 2);
        assert_ne!(a, b, "different seeds should perturb the event stream");
    }
}
