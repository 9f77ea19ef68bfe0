//! The marking component's cuckoo filter against the senders' own count.
//!
//! A sender knows which segments it sends again; the marking component
//! only infers it, from the fingerprints of segments sent and not yet
//! cumulatively acknowledged. On a lossy Vertigo cell the two counts
//! agree: no retransmission goes unboosted, no fresh segment is boosted
//! as one, and the filter never refuses an insert.

use vertigo::core::MarkingDiscipline;
use vertigo::simcore::SimDuration;
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DistKind, FaultSchedule, IncastSpec, RunSpec, SystemKind, TopoKind,
    WorkloadSpec,
};

fn spec(discipline: MarkingDiscipline, seed: u64) -> RunSpec {
    let wl = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.4,
            dist: DistKind::WebSearch,
        }),
        incast: Some(IncastSpec {
            qps: 500.0,
            scale: 10,
            flow_bytes: 40_000,
        }),
    };
    let mut s = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, wl);
    s.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    s.horizon = SimDuration::from_millis(20);
    s.seed = seed;
    s.vertigo.discipline = discipline;
    s.faults = FaultSchedule::parse("loss:*:0.01@2ms-12ms").expect("valid fault spec");
    s
}

#[test]
fn the_filter_counts_what_the_senders_resend() {
    for discipline in [MarkingDiscipline::Srpt, MarkingDiscipline::Las] {
        for seed in [3, 4] {
            let out = spec(discipline, seed).run();
            let cell = format!("{discipline:?} seed {seed}");
            assert!(out.report.retransmits > 1000, "{cell}: too little loss");
            assert_eq!(
                out.marking.retransmissions, out.report.retransmits,
                "{cell}: marked retransmissions against sender resends"
            );
            assert_eq!(out.marking.filter_overflows, 0, "{cell}");
        }
    }
}
