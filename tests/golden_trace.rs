//! Golden-trace regression suite: committed `.vtrace` event streams for
//! a small fixed Figure-5 cell under each congestion controller, plus a
//! fault-window run. A behavioral change anywhere on the packet path —
//! victim selection, forwarding choice, RX ordering, drop accounting —
//! shifts the event stream and fails the byte-diff, even when the
//! aggregate `Report` happens to land on the same numbers.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```sh
//! UPDATE_GOLDENS=1 cargo test --test golden_trace
//! ```
//!
//! then commit the rewritten files under `tests/golden/` (see
//! EXPERIMENTS.md).

use std::path::PathBuf;
use vertigo::simcore::SimDuration;
use vertigo::stats::{parse_trace, TraceFilter, TraceKind};
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DeflectKind, DistKind, FaultSchedule, IncastSpec, RunSpec, SystemKind,
    TopoKind, WorkloadSpec,
};

/// One Figure-5-style cell, hot enough that Vertigo's deflection path
/// actually fires under DCTCP: 32 hosts, 4 ms, 40 % background plus a
/// heavy 16-wide incast.
fn cell(cc: CcKind, faults: &str) -> RunSpec {
    let wl = WorkloadSpec {
        background: Some(BackgroundSpec {
            load: 0.40,
            dist: DistKind::CacheFollower,
        }),
        incast: Some(IncastSpec {
            qps: 2_000.0,
            scale: 16,
            flow_bytes: 40_000,
        }),
    };
    let mut s = RunSpec::new(SystemKind::Vertigo, cc, wl);
    s.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    s.horizon = SimDuration::from_millis(4);
    s.seed = 42;
    s.faults = FaultSchedule::parse(faults).expect("valid fault spec");
    s
}

/// Clean-cell window: 10 µs across all nodes, placed just after queue
/// pressure peaks (under DCTCP the first deflections land at ≈2.79 ms),
/// so the stream crosses forwarding, queueing, deflection, and RX
/// ordering while staying ~100 KB on disk.
const CLEAN_WINDOW: (u64, u64) = (2_785_000, 2_795_000);

/// Fault-cell window: inside the 0.5–1.5 ms loss window, so the stream
/// includes fault-injected `Drop` records.
const FAULT_WINDOW: (u64, u64) = (600_000, 620_000);

fn trace_of(spec: &RunSpec, window: (u64, u64)) -> Vec<u8> {
    let mut sim = spec.build();
    let filter = TraceFilter {
        from_ns: window.0,
        until_ns: window.1,
        ..TraceFilter::default()
    };
    sim.enable_trace(filter, 1 << 16);
    let _ = sim.run();
    sim.trace_bytes()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.vtrace"))
}

fn check_golden(name: &str, spec: &RunSpec, window: (u64, u64)) {
    check_golden_inner(name, spec, window, None);
}

/// [`check_golden`] for a deflection-policy cell: additionally requires
/// the window to contain Deflect records carrying the policy's trace
/// code (flags bits 2+), so the golden provably pins that policy's
/// victim-selection path and not just ambient traffic.
fn check_golden_deflect(name: &str, spec: &RunSpec, window: (u64, u64), code: u8) {
    check_golden_inner(name, spec, window, Some(code));
}

fn check_golden_inner(name: &str, spec: &RunSpec, window: (u64, u64), require_code: Option<u8>) {
    let actual = trace_of(spec, window);
    let (header, records) = parse_trace(&actual).expect("self-produced trace parses");
    assert_eq!(
        header.overwritten, 0,
        "{name}: ring overflowed; grow capacity"
    );
    assert!(
        records.len() > 100,
        "{name}: only {} records — filter too narrow to regress on",
        records.len()
    );
    assert!(
        actual.len() < 256 * 1024,
        "{name}: {} bytes — goldens must stay small; tighten the window",
        actual.len()
    );
    if let Some(code) = require_code {
        let hits = records
            .iter()
            .filter(|r| r.kind() == Some(TraceKind::Deflect) && r.flags >> 2 == code)
            .count();
        assert!(
            hits > 0,
            "{name}: no Deflect records with policy code {code} in the \
             window — the golden would not pin this policy's selection"
        );
    }
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!(
            "[golden] rewrote {} ({} records)",
            path.display(),
            records.len()
        );
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run UPDATE_GOLDENS=1 cargo test --test golden_trace \
             to create it)",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name}: event stream diverged from the committed golden \
         ({} vs {} bytes).\nInspect with `cargo run --bin vtrace -- diff` \
         after writing the new stream; if the change is intentional, \
         regenerate with UPDATE_GOLDENS=1 (see EXPERIMENTS.md).",
        expected.len(),
        actual.len()
    );
}

#[test]
fn fig5_cell_reno_matches_golden() {
    check_golden("fig5cell_reno", &cell(CcKind::Reno, ""), CLEAN_WINDOW);
}

#[test]
fn fig5_cell_dctcp_matches_golden() {
    check_golden("fig5cell_dctcp", &cell(CcKind::Dctcp, ""), CLEAN_WINDOW);
}

#[test]
fn fig5_cell_swift_matches_golden() {
    check_golden("fig5cell_swift", &cell(CcKind::Swift, ""), CLEAN_WINDOW);
}

#[test]
fn fault_window_matches_golden() {
    check_golden(
        "fault_window",
        &cell(CcKind::Dctcp, "loss:*:0.02@0.5ms-1.5ms"),
        FAULT_WINDOW,
    );
}

/// The suite must be *sensitive*: a one-knob behavior change (disabling
/// SRPT scheduling flips Vertigo's victim selection to drop-arrival)
/// has to shift the event stream, or the goldens guard nothing.
#[test]
fn goldens_are_sensitive_to_policy_changes() {
    let base = cell(CcKind::Dctcp, "");
    let mut mutated = base;
    mutated.vertigo.scheduling = false;
    assert_ne!(
        trace_of(&base, CLEAN_WINDOW),
        trace_of(&mutated, CLEAN_WINDOW),
        "scheduling ablation must perturb the event stream"
    );
}

/// The DCTCP cell with the overflow policy swapped to `kind` — same
/// workload, forwarding, and host stack, so the golden isolates the
/// deflection axis at peak queue pressure.
fn deflect_cell(kind: DeflectKind) -> RunSpec {
    let mut s = cell(CcKind::Dctcp, "");
    s.deflect = Some(kind);
    s
}

/// Like [`trace_of`], with the seeded victim-selection mutation armed:
/// PABO bounces forward instead of backward, the hybrid's threshold
/// decision inverts, bounded picks the most- instead of least-loaded
/// sampled port.
fn trace_of_mutated(spec: &RunSpec, window: (u64, u64)) -> Vec<u8> {
    let mut sim = spec.build();
    sim.seed_victim_mutation();
    let filter = TraceFilter {
        from_ns: window.0,
        until_ns: window.1,
        ..TraceFilter::default()
    };
    sim.enable_trace(filter, 1 << 16);
    let _ = sim.run();
    sim.trace_bytes()
}

/// PABO and the hybrid resolve overflow pressure much earlier than the
/// baseline cell (backward bounces and retransmit drops both relieve the
/// incast queues), so their deflection density peaks near 0.4 ms; each
/// golden's window sits on its own policy's peak.
const PABO_WINDOW: (u64, u64) = (400_000, 410_000);
const HYBRID_WINDOW: (u64, u64) = (415_000, 425_000);

#[test]
fn pabo_cell_matches_golden() {
    check_golden_deflect(
        "deflect_pabo",
        &deflect_cell(DeflectKind::Pabo),
        PABO_WINDOW,
        1,
    );
}

#[test]
fn hybrid_cell_matches_golden() {
    check_golden_deflect(
        "deflect_hybrid",
        &deflect_cell(DeflectKind::Hybrid),
        HYBRID_WINDOW,
        2,
    );
}

#[test]
fn bounded_cell_matches_golden() {
    check_golden_deflect(
        "deflect_bounded",
        &deflect_cell(DeflectKind::Bounded),
        CLEAN_WINDOW,
        3,
    );
}

/// Each new-policy golden must fail loudly if its victim-selection logic
/// regresses: the seeded mutation flips exactly that logic and nothing
/// else, so a byte-identical stream would mean the golden pins nothing.
#[test]
fn new_policy_goldens_fail_under_seeded_mutation() {
    for (kind, window) in [
        (DeflectKind::Pabo, PABO_WINDOW),
        (DeflectKind::Hybrid, HYBRID_WINDOW),
        (DeflectKind::Bounded, CLEAN_WINDOW),
    ] {
        let spec = deflect_cell(kind);
        assert_ne!(
            trace_of(&spec, window),
            trace_of_mutated(&spec, window),
            "{}: seeded victim-selection mutation must perturb the stream",
            kind.name()
        );
    }
}
