//! Fault-injection integration tests (no `audit` feature required).
//!
//! These exercise the recovery machinery the paper's whole argument rests
//! on: under an injected loss window every congestion controller must
//! actually retransmit, the marking component must detect and boost those
//! retransmissions, and the RX ordering shim must release packets by
//! τ-timeout. They also pin the determinism contract for faulted runs —
//! identical spec + schedule + seed gives identical results — and the
//! semantics of hard link-down and switch-stall windows.

use vertigo::simcore::SimDuration;
use vertigo::stats::{DropCause, DROP_CAUSES};
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DistKind, FaultSchedule, IncastSpec, RunOutput, RunSpec, SystemKind, TopoKind,
    WorkloadSpec,
};

fn wl() -> WorkloadSpec {
    WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.4,
            dist: DistKind::WebSearch,
        }),
        incast: Some(IncastSpec {
            qps: 500.0,
            scale: 10,
            flow_bytes: 40_000,
        }),
    }
}

fn spec(cc: CcKind, faults: &str) -> RunSpec {
    let mut s = RunSpec::new(SystemKind::Vertigo, cc, wl());
    s.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    s.horizon = SimDuration::from_millis(30);
    s.seed = 11;
    s.faults = FaultSchedule::parse(faults).expect("valid fault spec");
    s
}

fn fault_drops(out: &RunOutput) -> u64 {
    (0..DROP_CAUSES)
        .filter(|&i| DropCause::ALL[i].is_fault())
        .map(|i| out.report.drops_by_cause[i])
        .sum()
}

fn digest(out: &RunOutput) -> Vec<u64> {
    let r = &out.report;
    let mut d = vec![
        r.flows_completed,
        r.queries_completed,
        r.drops,
        r.deflections,
        r.retransmits,
        r.rtos,
        r.fault_events,
        (r.fct_mean * 1e12) as u64,
        (r.goodput_gbps * 1e9) as u64,
        out.ordering.buffered,
        out.ordering.timeout_released,
        out.marking.retransmissions,
    ];
    d.extend_from_slice(&r.drops_by_cause);
    d
}

/// Acceptance criterion: under a 1 % loss window all three congestion
/// controllers demonstrably exercise their recovery paths — transport
/// retransmissions, cuckoo-detected boosted packets, and RX τ-timeout
/// releases — and the loss window itself accounts for nonzero drops.
#[test]
fn loss_window_fires_recovery_paths_for_every_cc() {
    for cc in [CcKind::Reno, CcKind::Dctcp, CcKind::Swift] {
        let out = spec(cc, "loss:*:0.01@1ms-25ms").run();
        let name = format!("{cc:?}");
        assert!(
            out.report.retransmits > 0,
            "{name}: no transport retransmissions under 1% loss"
        );
        assert!(
            out.marking.retransmissions > 0,
            "{name}: marking never detected/boosted a retransmission"
        );
        assert!(
            out.ordering.timeout_released > 0,
            "{name}: RX ordering never released by τ-timeout"
        );
        assert!(
            fault_drops(&out) > 0,
            "{name}: loss window produced no fault drops"
        );
        assert_eq!(
            fault_drops(&out),
            out.report.drops_by_cause[DropCause::LinkLoss as usize],
            "{name}: only the loss cause should fire"
        );
        assert!(
            out.report.flows_completed > 0,
            "{name}: the network must still make progress under faults"
        );
    }
}

/// Identical spec + fault schedule + seed is bit-reproducible.
#[test]
fn faulted_runs_are_deterministic() {
    let fspec = "loss:*:0.02@1ms-10ms;down:0-32@12ms-14ms;stall:33@15ms-16ms";
    let run = || digest(&spec(CcKind::Dctcp, fspec).run());
    assert_eq!(run(), run(), "same everything => same digest");
}

/// A hard link-down window drops every traversal with the LinkDown cause
/// and the seed still perturbs results (faults don't freeze the RNG).
#[test]
fn link_down_window_drops_with_its_own_cause() {
    let out = spec(CcKind::Dctcp, "down:*@5ms-9ms").run();
    let down = out.report.drops_by_cause[DropCause::LinkDown as usize];
    assert!(down > 0, "an all-links down window must drop traffic");
    assert_eq!(
        fault_drops(&out),
        down,
        "no probabilistic causes were configured"
    );
    let mut other = spec(CcKind::Dctcp, "down:*@5ms-9ms");
    other.seed = 12;
    assert_ne!(
        digest(&out),
        digest(&other.run()),
        "different seeds must still differ under identical faults"
    );
}

/// A stalled switch freezes (defers) its work rather than dropping it:
/// fault events fire, no fault-cause drops appear, and traffic completes
/// after the window.
#[test]
fn switch_stall_defers_without_dropping() {
    // Node 32 is the first ToR on the 4-hosts-per-leaf leaf-spine
    // (32 hosts, then 8 leaves, then 4 spines).
    let out = spec(CcKind::Dctcp, "stall:32@2ms-4ms").run();
    assert!(out.report.fault_events > 0, "stall window never triggered");
    assert_eq!(
        fault_drops(&out),
        0,
        "a stall must defer, not drop ({} fault drops)",
        fault_drops(&out)
    );
    assert!(out.report.flows_completed > 0);
}

/// The fault-free schedule is the identity: an empty spec changes nothing
/// relative to a run with no schedule at all.
#[test]
fn empty_schedule_is_identity() {
    let mut plain = RunSpec::new(SystemKind::Vertigo, CcKind::Dctcp, wl());
    plain.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    plain.horizon = SimDuration::from_millis(20);
    plain.seed = 3;
    let mut empty = plain;
    empty.faults = FaultSchedule::parse("").unwrap();
    assert_eq!(digest(&plain.run()), digest(&empty.run()));
    let out = plain.run();
    assert_eq!(out.report.fault_events, 0);
    assert_eq!(fault_drops(&out), 0);
}

/// Malformed specs are rejected with errors, never silently ignored.
#[test]
fn malformed_fault_specs_are_rejected() {
    for bad in [
        "flood:*@0s-1ms",    // unknown kind
        "loss:*@0s-1ms",     // loss needs a probability
        "loss:*:1.5@0s-1ms", // probability out of range
        "down:*@5ms-2ms",    // empty window
        "down:0-0@0s-1ms",   // self-link
        "stall:3@1ms",       // missing window end
        "down:*@1000-2000",  // missing time unit
    ] {
        assert!(
            FaultSchedule::parse(bad).is_err(),
            "spec `{bad}` should be rejected"
        );
    }
}
