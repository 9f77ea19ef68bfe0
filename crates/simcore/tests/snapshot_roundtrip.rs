//! Snapshot round-trip proptests for the event queue and RNG: a queue
//! serialized mid-script and restored must pop the
//! exact remaining sequence the original would have, and a restored
//! [`SimRng`] must emit the exact tail of the original stream.
//!
//! The delay distribution deliberately spans every timing-wheel level and
//! the overflow list, and scripts interleave pops with pushes, so
//! snapshots are taken with events parked across cascade boundaries —
//! the regime where a naive "serialize the slot arrays" design would go
//! wrong, and which the drain-and-rebuild design must keep exact.

use proptest::prelude::*;
use vertigo_simcore::{EventQueue, SimDuration, SimRng, SnapReader, SnapWriter, Snapshot};

/// Delays spanning all wheel levels (256 slots each) plus the overflow
/// horizon, mirroring the differential suite's distribution.
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..4,
        // Level-boundary straddlers: events that cascade from level 1/2
        // into level 0 as the clock crosses 256-tick / 65536-tick edges.
        200u64..320,
        65_000u64..66_000,
        65_536u64..16_777_216,
        1u64 << 30..1u64 << 40,
    ]
}

/// A script step: push an event this far ahead, then pop this many.
fn step_strategy() -> impl Strategy<Value = (u64, usize)> {
    (delta_strategy(), 0usize..3)
}

/// Replays `steps` for `prefix` steps, snapshots, and checks the restored
/// queue pops identically to the original through the rest of the script
/// and the final drain.
fn check_roundtrip(steps: &[(u64, usize)], prefix: usize) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut id = 0u64;
    let apply = |q: &mut EventQueue<u64>, (delta, pops): (u64, usize), id: &mut u64| {
        q.push(q.now() + SimDuration::from_nanos(delta), *id);
        *id += 1;
        for _ in 0..pops {
            q.pop();
        }
    };
    for &s in &steps[..prefix] {
        apply(&mut q, s, &mut id);
    }

    let mut w = SnapWriter::new();
    q.save_into(&mut w);
    let bytes = w.into_bytes();
    let mut r = EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes)).expect("restore");

    assert_eq!(q.now(), r.now());
    assert_eq!(q.len(), r.len());
    assert_eq!(q.scheduled_total(), r.scheduled_total());
    assert_eq!(q.peak_pending(), r.peak_pending());

    // Finish the script on both, then drain: every observation must match.
    let mut rid = id;
    for &s in &steps[prefix..] {
        apply(&mut q, s, &mut id);
        apply(&mut r, s, &mut rid);
        assert_eq!(q.now(), r.now());
    }
    loop {
        let (a, b) = (q.pop(), r.pop());
        assert_eq!(a, b, "post-restore drain diverged");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn wheel_snapshot_pops_identically(
        steps in proptest::collection::vec(step_strategy(), 1..120),
        cut in 0usize..120,
    ) {
        let prefix = cut.min(steps.len());
        check_roundtrip(&steps, prefix);
    }

    #[test]
    fn rng_restores_exact_stream_tail(
        warmup in 0usize..200,
        tail in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut a = SimRng::new(seed);
        for _ in 0..warmup {
            a.next_u64();
        }
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut b = SimRng::restore(&mut SnapReader::new(&bytes)).unwrap();
        for i in 0..tail {
            prop_assert_eq!(a.next_u64(), b.next_u64(), "tail diverged at draw {}", i);
        }
        // Forked child streams must agree too (faults/workload use them).
        prop_assert_eq!(a.fork(0xFA17).next_u64(), b.fork(0xFA17).next_u64());
    }
}
