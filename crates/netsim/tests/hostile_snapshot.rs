//! Every collection count in a checkpoint is read through
//! `SnapReader::count` and every ordered key through
//! `SnapReader::ascending`, so no payload field can panic a restore or
//! size an allocation the input cannot back. Each 8-byte window of two
//! real payloads is rewritten to `u64::MAX`, to the number of bytes that
//! follow it and one more, and to 0. Every such restore must return, `Ok`
//! or `Err`, and no single allocation it makes may exceed the largest one
//! the clean restore of the same payload makes.
//!
//! Its own binary: it installs a `#[global_allocator]` that notes the
//! largest request made on the restoring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vertigo_netsim::{
    FaultSchedule, HostConfig, LinkParams, SimConfig, Simulation, SwitchConfig, TelemetryConfig,
    TopologySpec,
};
use vertigo_pkt::{NodeId, QueryId};
use vertigo_simcore::{SimDuration, SimTime, SnapReader, SnapWriter};
use vertigo_stats::TraceFilter;
use vertigo_transport::{CcKind, TransportConfig};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LARGEST.set(LARGEST.get().max(size));
        }
    });
}

struct Largest;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the caller's; noting touches only thread-locals.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, per the caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Per-node ring capacity of the traced payload: every ring fills, and
/// the payload stays under 12 KB.
const TRACE_CAPACITY: usize = 3;

/// `snapshot_resume.rs`'s build: a 16-host leaf-spine with telemetry and
/// a fault schedule armed, an 8-to-1 incast and staggered background
/// flows, plus a two-reply query; with `traced`, the packet recorder armed
/// as well.
fn build(traced: bool) -> Simulation {
    let cfg = SimConfig {
        topology: TopologySpec::LeafSpine {
            spines: 2,
            leaves: 4,
            hosts_per_leaf: 4,
            host_link: LinkParams::gbps(10, 500),
            fabric_link: LinkParams::gbps(40, 500),
        },
        switch: SwitchConfig::vertigo(),
        host: HostConfig::vertigo(TransportConfig::default_for(CcKind::Dctcp)),
        horizon: SimDuration::from_millis(20),
        seed: 1234,
    };
    let mut sim = Simulation::new(&cfg);
    sim.enable_telemetry(TelemetryConfig {
        interval: SimDuration::from_micros(100),
    });
    let faults =
        FaultSchedule::parse("loss:*:0.001@1ms-5ms; stall:17@2ms-3ms").expect("valid fault spec");
    sim.install_faults(&faults);
    if traced {
        sim.enable_trace(TraceFilter::default(), TRACE_CAPACITY);
    }
    let q = sim.register_query(8, SimTime::from_micros(50));
    for i in 0..8u32 {
        let at = SimTime::from_micros(50);
        sim.schedule_flow(at, NodeId(i + 1), NodeId(0), 60_000, q);
    }
    for i in 0..6u32 {
        let at = SimTime::from_micros(200 + i as u64 * 700);
        sim.schedule_flow(at, NodeId(i + 2), NodeId(15 - i), 250_000, QueryId::NONE);
    }
    // A query still open mid-burst: one reply done, one to start.
    let q = sim.register_query(2, SimTime::from_micros(2_000));
    for (i, at) in [(9, 2_000), (10, 3_000)] {
        sim.schedule_flow(SimTime::from_micros(at), NodeId(i), NodeId(1), 20_000, q);
    }
    sim
}

/// The payload of `build(traced)` drained to the middle of the incast.
fn mid_burst(traced: bool) -> Vec<u8> {
    let mut sim = build(traced);
    sim.drain_until(SimTime::from_micros(2_500));
    // The recorder record has all its parts: live records, an open
    // query, and the folded FCT and QCT samples.
    let rec = sim.recorder();
    assert!(!rec.flows.is_empty() && rec.folded.flows() > 0);
    assert!(!rec.queries.is_empty() && !rec.folded.tenants[&0].qct.is_empty());
    let mut w = SnapWriter::new();
    sim.save_state(&mut w);
    w.into_bytes()
}

/// Restores `payload` into a fresh build: `None` on a panic, else
/// whether it was accepted and the largest single allocation made.
fn restore(traced: bool, payload: &[u8]) -> Option<(bool, usize)> {
    let mut sim = build(traced);
    LARGEST.set(0);
    ARMED.set(true);
    let accepted = catch_unwind(AssertUnwindSafe(|| {
        sim.restore_state(&mut SnapReader::new(payload)).is_ok()
    }));
    ARMED.set(false);
    accepted.ok().map(|ok| (ok, LARGEST.get()))
}

fn every_window_rewritten(traced: bool) {
    let clean = mid_burst(traced);
    let (ok, largest) = restore(traced, &clean).expect("the clean restore");
    assert!(ok, "the clean payload is refused");
    let mut failures = Vec::new();
    for at in 0..=clean.len() - 8 {
        let past = (clean.len() - at - 8) as u64;
        for value in [u64::MAX, past + 1, past, 0] {
            let mut hostile = clean.clone();
            hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
            match restore(traced, &hostile) {
                None => failures.push(format!("offset {at} = {value}: panicked")),
                Some((_, bytes)) if bytes > largest => failures.push(format!(
                    "offset {at} = {value}: allocated {bytes} bytes at once, \
                     the clean restore at most {largest}"
                )),
                Some(_) => {}
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} rewrites of a {}-byte payload failed; the first:\n{}",
        failures.len(),
        4 * (clean.len() - 7),
        clean.len(),
        failures[..failures.len().min(8)].join("\n")
    );
}

#[test]
fn every_window_of_a_mid_burst_payload() {
    every_window_rewritten(false);
}

#[test]
fn every_window_of_a_traced_payload() {
    every_window_rewritten(true);
}
