//! Differential proptests: the timing-wheel event queue against a binary
//! heap, the queue it replaced, kept here as the reference (`HeapQueue`
//! below, a copy of its own so that no change to the shipped queue can
//! move it).
//!
//! Random interleavings of `push` / `push_after` / `pop` / `pop_until`,
//! and snapshots of the wheel taken and restored mid-script, must produce
//! identical `(timestamp, payload)` sequences, identical clocks, and
//! identical pending counts on both queues — including clustered near-now
//! timestamps (burst regime), heavy ties (FIFO tie-break), far-future
//! delays that land in the wheel's upper levels, `pop_until` at exact tick
//! boundaries, `u64::MAX`-adjacent timestamps in the overflow wheel, the
//! delay mix and depth of a simulated datacenter, and ACK-sized delays
//! pushed into the window being popped.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vertigo_simcore::{EventQueue, SimDuration, SimTime, SnapReader, SnapWriter};

/// The oracle: a `BinaryHeap` keyed on `(at, seq)`, the sequence number
/// making ties pop first-in first-out. Payloads never take part in the
/// ordering, since `(at, seq)` is unique.
struct HeapQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
    now: SimTime,
    peak: usize,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            peak: 0,
        }
    }

    fn push(&mut self, at: SimTime, ev: u64) {
        assert!(at >= self.now, "scheduled an event in the past");
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    fn push_after(&mut self, delay: SimDuration, ev: u64) {
        self.push(self.now + delay, ev);
    }

    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
        if self.heap.peek()?.0 .0 > limit {
            return None;
        }
        let Reverse((at, _, ev)) = self.heap.pop()?;
        self.now = at;
        Some((at, ev))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_until(SimTime::MAX)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0 .0)
    }
}

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// `push(now + delta, id)` — absolute form.
    Push(u64),
    /// `push_after(delta, id)` — relative form.
    PushAfter(u64),
    /// `pop()`.
    Pop,
    /// `pop_until(now + horizon)` — bounded drain.
    PopUntil(u64),
    /// `pop_until` at the exact timestamp of the earliest pending event
    /// (boundary must be inclusive on both queues).
    PopUntilExact,
    /// `save_into` then `restore_from` on the wheel alone: what a
    /// checkpoint does to the queue of a running simulation.
    Snapshot,
}

/// Delay distributions exercising different wheel levels.
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Ties and near-now clusters: level 0, heavy FIFO pressure.
        Just(0u64),
        0u64..4,
        0u64..256,
        // Mid horizon: levels 1-2 (typical packet serialization/RTT).
        256u64..65_536,
        65_536u64..16_777_216,
        // Far future: upper wheel levels.
        1u64 << 30..1u64 << 40,
        // Overflow wheel: u64::MAX-adjacent (saturating add clamps).
        (u64::MAX - 512)..=u64::MAX,
    ]
}

/// The delays of the perfbench cells' event census, in nanoseconds:
/// ACK and full-size serializations at 40 and 10 Gbps, and the same
/// plus 500 ns of propagation.
const DC_DELAYS: [u64; 8] = [13, 51, 300, 513, 551, 800, 1200, 1700];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        delta_strategy().prop_map(Op::Push),
        delta_strategy().prop_map(Op::PushAfter),
        Just(Op::Pop),
        delta_strategy().prop_map(Op::PopUntil),
        Just(Op::PopUntilExact),
        Just(Op::Snapshot),
    ]
}

/// Runs the script on the wheel and the heap in lockstep, asserting every
/// observable agrees after every step.
fn run_script(ops: &[Op]) {
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut next_id = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(delta) => {
                let at = wheel.now() + SimDuration::from_nanos(delta);
                wheel.push(at, next_id);
                heap.push(at, next_id);
                next_id += 1;
            }
            Op::PushAfter(delta) => {
                let d = SimDuration::from_nanos(delta);
                wheel.push_after(d, next_id);
                heap.push_after(d, next_id);
                next_id += 1;
            }
            Op::Pop => {
                assert_eq!(wheel.pop(), heap.pop(), "pop diverged at step {step}");
            }
            Op::PopUntil(h) => {
                let limit = wheel.now() + SimDuration::from_nanos(h);
                assert_eq!(
                    wheel.pop_until(limit),
                    heap.pop_until(limit),
                    "pop_until diverged at step {step}"
                );
            }
            Op::PopUntilExact => {
                // Inclusive boundary: the earliest event must come out at
                // a limit equal to its own timestamp.
                let (a, b) = (wheel.peek_time(), heap.peek_time());
                assert_eq!(a, b, "peek_time diverged at step {step}");
                if let Some(t) = a {
                    let (x, y) = (wheel.pop_until(t), heap.pop_until(t));
                    assert_eq!(x, y, "exact-boundary pop_until diverged at step {step}");
                    assert_eq!(x.map(|(at, _)| at), Some(t), "boundary must be inclusive");
                }
            }
            Op::Snapshot => {
                // The save leaves the wheel running; the restored copy
                // takes over from it.
                let mut w = SnapWriter::new();
                wheel.save_into(&mut w);
                let bytes = w.into_bytes();
                wheel = EventQueue::restore_from(&mut SnapReader::new(&bytes)).expect("restore");
            }
        }
        assert_eq!(wheel.now(), heap.now, "clock diverged at step {step}");
        assert_eq!(wheel.len(), heap.heap.len(), "len diverged at step {step}");
        assert_eq!(
            wheel.peak_pending(),
            heap.peak,
            "peak diverged at step {step}"
        );
        assert_eq!(
            wheel.scheduled_total(),
            heap.seq,
            "scheduled_total diverged at step {step}"
        );
    }
    // Full drain: whatever is left must come out identically, in order.
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.now(), heap.now);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn wheel_matches_heap_on_random_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        run_script(&ops);
    }

    /// Pure burst regime: everything lands within a few ticks of now, with
    /// many exact ties — the FIFO-on-tie contract under maximum pressure.
    #[test]
    fn wheel_matches_heap_under_tie_storms(
        deltas in proptest::collection::vec(0u64..3, 1..300),
        drain_every in 2usize..10,
    ) {
        let mut ops = Vec::new();
        for (i, d) in deltas.iter().enumerate() {
            ops.push(Op::PushAfter(*d));
            if i % drain_every == drain_every - 1 {
                ops.push(Op::Pop);
                ops.push(Op::PopUntilExact);
            }
        }
        run_script(&ops);
    }

    /// The traffic the simulator puts on the queue: some 3 000 pending
    /// events at about a hundred per 256 ns, and a loop that pops one and
    /// pushes one 13 ns to 1.7 µs ahead (ACK and data serializations, wire
    /// times), so most pushes cascade once from level 1 and one in five
    /// lands inside the window being popped. Now and then a handler also
    /// arms an RTO-sized timer or schedules nothing, and a checkpoint
    /// snapshots the wheel.
    #[test]
    fn wheel_matches_heap_on_datacenter_delays(
        prefill in proptest::collection::vec(0u64..8_192, 2_900..3_100),
        steps in proptest::collection::vec(
            (0usize..DC_DELAYS.len(), 0u32..40, 200_000u64..4_000_000),
            500..3_000,
        ),
    ) {
        let spread = prefill.iter().enumerate();
        let mut ops: Vec<Op> = spread
            .map(|(i, &d)| Op::PushAfter(d + DC_DELAYS[i % DC_DELAYS.len()]))
            .collect();
        for (delay, roll, rto) in steps {
            ops.push(if roll % 8 == 7 { Op::PopUntil(1_000) } else { Op::Pop });
            ops.push(Op::PushAfter(DC_DELAYS[delay]));
            match roll {
                0 => ops.push(Op::PushAfter(rto)),
                1 => ops.push(Op::Pop),
                2 => ops.push(Op::PopUntilExact),
                3 => ops.push(Op::Snapshot),
                _ => {}
            }
        }
        run_script(&ops);
    }

    /// What the wheel's side run sees: a window that a cascade filled
    /// (serializations and wire times, 300 ns to 1.7 µs ahead) being
    /// popped while ACK serializations (13 and 52 ns, and same-instant
    /// follow-ups) are pushed into it, most of them behind the last such
    /// push, some ahead of it, many tying with an entry of the run or of
    /// the side run; `pop_until` limits at the head's own instant and a
    /// few nanoseconds short of it, which is between the two runs as often
    /// as not; and a snapshot now and then, with both runs pending.
    #[test]
    fn wheel_matches_heap_on_ack_shaped_pushes(
        prefill in proptest::collection::vec((0usize..4, 0u64..2_048), 200..600),
        steps in proptest::collection::vec(
            (0usize..3, 0usize..3, 0usize..4, 0u32..16, 0u64..60),
            300..2_000,
        ),
    ) {
        const ACK: [u64; 3] = [0, 13, 52];
        const DATA: [u64; 4] = [300, 513, 1200, 1700];
        let mut ops: Vec<Op> = prefill
            .iter()
            .map(|&(d, spread)| Op::PushAfter(DATA[d] + spread))
            .collect();
        for (a, b, d, roll, short) in steps {
            ops.push(match roll % 4 {
                0 => Op::PopUntilExact,
                1 => Op::PopUntil(short),
                _ => Op::Pop,
            });
            ops.push(Op::PushAfter(ACK[a]));
            match roll / 4 {
                0 => ops.push(Op::PushAfter(ACK[b])),
                1 => ops.push(Op::Push(DATA[d])),
                2 => ops.push(Op::PushAfter(DATA[d] + ACK[b])),
                _ => {}
            }
            if roll == 15 {
                ops.push(Op::Snapshot);
            }
        }
        run_script(&ops);
    }

    /// Deep prefill then bounded drains: exercises cascades from upper
    /// wheel levels down to level 0 as the clock sweeps forward.
    #[test]
    fn wheel_matches_heap_across_cascades(
        deltas in proptest::collection::vec(delta_strategy(), 1..200),
        horizons in proptest::collection::vec(0u64..1u64 << 41, 1..60),
    ) {
        let mut ops: Vec<Op> = deltas.iter().map(|&d| Op::Push(d)).collect();
        for h in horizons {
            ops.push(Op::PopUntil(h));
            ops.push(Op::PopUntil(h));
        }
        run_script(&ops);
    }
}

/// Deterministic regression: the exact sequence that exercises a push
/// landing in a level-0 slot while older ties for the same instant are
/// still staged from a cascade.
#[test]
fn staged_slot_interleaving_regression() {
    let ops = [
        Op::Push(1_000_000),
        Op::Push(1_000_000),
        Op::Push(10),
        Op::Pop,           // advances to 10
        Op::Push(999_990), // same instant as the parked pair, pushed later
        Op::Pop,           // first of the ties
        Op::Push(0),       // zero-delay push mid-drain
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ];
    run_script(&ops);
}

/// `pop_until(u64::MAX)` with pending `u64::MAX` events: the horizon and
/// the timestamps coincide at the top of the clock.
#[test]
fn max_clock_saturation() {
    let ops = [
        Op::Push(u64::MAX),
        Op::Push(u64::MAX),
        Op::Push(5),
        Op::PopUntil(u64::MAX),
        Op::PopUntil(u64::MAX),
        Op::PopUntil(u64::MAX),
        Op::PopUntil(u64::MAX),
    ];
    run_script(&ops);
    // Saturating push_after at a clock already at MAX.
    run_script(&[
        Op::Push(u64::MAX),
        Op::Pop,
        Op::PushAfter(17), // saturates to MAX
        Op::Snapshot,
        Op::Pop,
    ]);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    wheel.push(SimTime::from_nanos(u64::MAX), 0);
    wheel.pop();
    wheel.push_after(SimDuration::from_nanos(17), 1);
    assert_eq!(wheel.pop(), Some((SimTime::MAX, 1)));
    assert_eq!(wheel.now(), SimTime::from_nanos(u64::MAX));
}
