//! Domain-decomposition primitives for conservative parallel simulation.
//!
//! A parallel run partitions the model into *domains*, each owning a
//! private [`crate::EventQueue`]. Domains advance in lockstep windows
//! bounded by a *lookahead* — the minimum latency any interaction needs
//! to cross from one domain into another. Three pieces live here because
//! they are model-agnostic:
//!
//! * [`LookaheadGrid`] — the window arithmetic. Windows end on multiples
//!   of the lookahead quantum, which makes the barrier schedule a pure
//!   function of event *times* (never of how the model was partitioned).
//! * [`Batch`] — an unsorted bag of [`Delivery`]s that knows its earliest
//!   arrival: what one domain hands another at a barrier.
//! * [`CalendarInbox`] — one domain's buffer of deliveries not yet due: a
//!   ring of batches, one per grid slot. Pushing is O(1); draining sorts
//!   only the slots that came due, so deliveries landing at the same
//!   instant are re-injected in a canonical `(send time, uid)` order,
//!   independent of which domain produced them or in what order threads
//!   finished.
//!
//! All are deliberately dumb data structures: the driving loop (who
//! drains what, when threads run) belongs to the model layer.

use crate::SimTime;
use std::collections::VecDeque;

/// Window arithmetic for a conservative lookahead barrier.
///
/// The quantum is the minimum cross-domain latency: any interaction
/// emitted at time `t` lands at `t + quantum` or later, so a window
/// `(start, end]` with `end - start <= quantum` can be simulated by all
/// domains independently — nothing sent inside the window can be
/// received inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadGrid {
    quantum_ns: u64,
}

impl LookaheadGrid {
    /// Creates a grid with the given lookahead quantum.
    ///
    /// # Panics
    /// Panics if `quantum_ns` is zero: a zero-latency interaction makes
    /// conservative windowing impossible (every window would be empty).
    pub fn new(quantum_ns: u64) -> Self {
        assert!(
            quantum_ns > 0,
            "lookahead quantum must be positive: a zero-latency cross-domain \
             link admits no conservative window"
        );
        LookaheadGrid { quantum_ns }
    }

    /// The lookahead quantum in nanoseconds.
    pub fn quantum_ns(&self) -> u64 {
        self.quantum_ns
    }

    /// The earliest grid point *strictly after* `t`.
    ///
    /// Windows always end on grid points, so a window that starts at the
    /// earliest pending event time `t` spans at most one quantum — the
    /// conservative bound. Strictness matters: an event exactly on a grid
    /// point still needs a non-empty window to execute in.
    pub fn ceil_after(&self, t: SimTime) -> SimTime {
        let q = self.quantum_ns;
        SimTime::from_nanos((t.as_nanos() / q + 1).saturating_mul(q))
    }

    /// The slot `t` falls in: slot `s` covers `((s-1)·quantum, s·quantum]`,
    /// so a window ending on grid point `s·quantum` takes slots `..= s`
    /// whole.
    fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos().div_ceil(self.quantum_ns)
    }
}

/// One buffered delivery: an event, when it lands, and the `(sent, uid)`
/// that ranks it among the deliveries landing at the same instant — the
/// canonical merge order is `(at, sent, uid)`.
#[derive(Debug)]
pub struct Delivery<E> {
    /// When the delivery lands.
    pub at: SimTime,
    /// When it was sent (the sender's clock at push time).
    pub sent: SimTime,
    /// A globally unique, partition-independent tie-breaker.
    pub uid: u64,
    /// The domain that produced it.
    pub src: u32,
    /// The buffered event.
    pub ev: E,
}

impl<E> Delivery<E> {
    /// What a slot is sorted by. `at` comes last: the queue the deliveries
    /// are fed to orders by time itself, so only the tie order is ours to
    /// fix — and `(sent, uid)` is nearly the order deliveries are pushed in.
    fn key(&self) -> (SimTime, u64, SimTime) {
        (self.sent, self.uid, self.at)
    }
}

/// An unsorted bag of deliveries whose earliest arrival is tracked on
/// push: a domain's outbox towards one other domain, and one slot of a
/// [`CalendarInbox`]. Emptying it keeps the allocation.
#[derive(Debug)]
pub struct Batch<E> {
    entries: Vec<Delivery<E>>,
    min_at: SimTime,
}

impl<E> Default for Batch<E> {
    fn default() -> Self {
        Batch {
            entries: Vec::new(),
            min_at: SimTime::MAX,
        }
    }
}

impl<E> Batch<E> {
    /// Number of buffered deliveries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffers a delivery.
    #[inline]
    pub fn push(&mut self, d: Delivery<E>) {
        self.min_at = self.min_at.min(d.at);
        self.entries.push(d);
    }

    /// Earliest buffered arrival time, if any.
    pub fn min_time(&self) -> Option<SimTime> {
        (!self.entries.is_empty()).then_some(self.min_at)
    }

    /// Sorts by `(sent, uid)`.
    ///
    /// A domain's clock only moves forward, so what it pushes is out of
    /// order only among deliveries sent in the same nanosecond, and an
    /// insertion sort is linear. Batches absorbed from other domains are
    /// whole runs out of place; once the swaps outnumber the entries the
    /// general sort takes over.
    ///
    /// # Panics
    /// In debug and `audit` builds, panics if two entries share
    /// `(at, sent, uid)`: keys must be unique or the merge order would be
    /// ambiguous.
    fn sort(&mut self) {
        let v = &mut self.entries[..];
        let mut budget = v.len();
        'sorted: for i in 1..v.len() {
            let mut j = i;
            while j > 0 && v[j - 1].key() > v[j].key() {
                if budget == 0 {
                    v.sort_unstable_by_key(Delivery::key);
                    break 'sorted;
                }
                budget -= 1;
                v.swap(j - 1, j);
                j -= 1;
            }
        }
        #[cfg(any(debug_assertions, feature = "audit"))]
        for w in v.windows(2) {
            assert!(
                w[0].key() < w[1].key(),
                "inbox key collision at t={:?} uid={}: cross-domain merge order \
                 would be ambiguous",
                w[1].at,
                w[1].uid
            );
        }
    }

    /// Removes every entry, handing each to `sink` in order.
    fn drain_all(&mut self, sink: impl FnMut(Delivery<E>)) {
        self.entries.drain(..).for_each(sink);
        self.min_at = SimTime::MAX;
    }

    /// Removes the entries landing at or before `limit`, handing each to
    /// `sink` in order; the rest keep theirs.
    fn drain_due(&mut self, limit: SimTime, sink: impl FnMut(Delivery<E>)) {
        self.entries
            .extract_if(.., |d| d.at <= limit)
            .for_each(sink);
        self.min_at = (self.entries.iter().map(|d| d.at).min()).unwrap_or(SimTime::MAX);
    }
}

/// One domain's buffer of deliveries that are not due yet, bucketed by
/// lookahead-grid slot.
///
/// `ring[i]` holds slot `base + i`. Barrier windows end on grid points,
/// so a drain normally takes whole slots off the front; a window that
/// ends off the grid (horizon, telemetry sample) splits the front slot.
/// Emptied batches go to the back of the ring, so once the ring spans the
/// longest latency in the model nothing allocates. The ring grows to
/// reach the furthest pending slot, which suits deliveries a bounded
/// number of quanta ahead (wire latencies), not arbitrary timers.
///
/// [`CalendarInbox::drain_until`] yields deliveries slot by slot, and a
/// slot in `(sent, uid)` order: fed to a time-ordered queue that breaks
/// ties first-in-first-out, they pop in `(at, sent, uid)` order. As long
/// as `uid` is unique and derived from content (not from partition
/// layout), that order is the same for any domain count.
#[derive(Debug)]
pub struct CalendarInbox<E> {
    grid: LookaheadGrid,
    /// Slot number of `ring[0]`. Every slot before it has been drained; a
    /// delivery that lands in one anyway joins `ring[0]` and leaves with
    /// the next drain.
    base: u64,
    ring: VecDeque<Batch<E>>,
    len: usize,
}

impl<E> CalendarInbox<E> {
    /// An empty inbox on `grid`.
    pub fn new(grid: LookaheadGrid) -> Self {
        CalendarInbox {
            grid,
            base: 0,
            ring: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of buffered deliveries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffers a delivery.
    #[inline]
    pub fn push(&mut self, d: Delivery<E>) {
        let i = self.grid.slot_of(d.at).saturating_sub(self.base) as usize;
        if i >= self.ring.len() {
            self.ring.resize_with(i + 1, Batch::default);
        }
        self.ring[i].push(d);
        self.len += 1;
    }

    /// Moves every delivery of `from` in, leaving it empty.
    pub fn absorb(&mut self, from: &mut Batch<E>) {
        from.drain_all(|d| self.push(d));
    }

    /// Earliest buffered arrival time, if any.
    pub fn min_time(&self) -> Option<SimTime> {
        // Slots are disjoint ascending ranges, so the first occupied one
        // holds the minimum.
        self.ring.iter().find_map(Batch::min_time)
    }

    /// Removes every delivery with `at <= limit`, handing each to `sink`:
    /// slot by slot, those of one slot in `(sent, uid)` order.
    pub fn drain_until(&mut self, limit: SimTime, mut sink: impl FnMut(Delivery<E>)) {
        // Slots up to this one lie wholly at or before `limit`.
        let whole = limit.as_nanos() / self.grid.quantum_ns;
        while self.base <= whole {
            if self.len == 0 {
                self.base = whole.saturating_add(1); // nothing to walk past but empties
                break;
            }
            let mut slot = self.ring.pop_front().expect("len > 0 implies a slot");
            self.len -= slot.len();
            slot.sort();
            slot.drain_all(&mut sink);
            self.ring.push_back(slot);
            self.base += 1;
        }
        // The slot an off-grid `limit` cuts through (and late arrivals).
        if let Some(front) = self.ring.front_mut() {
            if front.min_at <= limit {
                let before = front.len();
                front.sort();
                front.drain_due(limit, &mut sink);
                self.len -= before - front.len();
            }
        }
    }
}

/// The `BTreeMap` mailbox the calendar replaced, kept as the reference
/// the differential test below compares against: one global ordered map,
/// drained from the front.
#[cfg(test)]
struct BTreeMailbox<E> {
    entries: std::collections::BTreeMap<(SimTime, SimTime, u64), (E, u32)>,
}

#[cfg(test)]
impl<E> BTreeMailbox<E> {
    fn new() -> Self {
        BTreeMailbox {
            entries: std::collections::BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn push(&mut self, d: Delivery<E>) {
        let prev = self.entries.insert((d.at, d.sent, d.uid), (d.ev, d.src));
        assert!(prev.is_none(), "mailbox key collision");
    }

    fn min_time(&self) -> Option<SimTime> {
        self.entries.keys().next().map(|&(at, _, _)| at)
    }

    fn drain_until(&mut self, limit: SimTime, mut sink: impl FnMut(Delivery<E>)) {
        while let Some(e) = self.entries.first_entry() {
            let &(at, sent, uid) = e.key();
            if at > limit {
                break;
            }
            let (ev, src) = e.remove();
            sink(Delivery {
                at,
                sent,
                uid,
                src,
                ev,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d<E>(at: u64, sent: u64, uid: u64, ev: E) -> Delivery<E> {
        Delivery {
            at: SimTime::from_nanos(at),
            sent: SimTime::from_nanos(sent),
            uid,
            src: 0,
            ev,
        }
    }

    #[test]
    fn grid_ceil_is_strictly_after() {
        let g = LookaheadGrid::new(500);
        assert_eq!(g.ceil_after(SimTime::ZERO), SimTime::from_nanos(500));
        assert_eq!(
            g.ceil_after(SimTime::from_nanos(499)),
            SimTime::from_nanos(500)
        );
        // Exactly on a grid point -> next point, never the same one.
        assert_eq!(
            g.ceil_after(SimTime::from_nanos(500)),
            SimTime::from_nanos(1000)
        );
        assert_eq!(
            g.ceil_after(SimTime::from_nanos(501)),
            SimTime::from_nanos(1000)
        );
    }

    #[test]
    fn slots_end_on_grid_points() {
        let g = LookaheadGrid::new(500);
        let slots: Vec<u64> = [0, 1, 500, 501, 1000]
            .iter()
            .map(|&t| g.slot_of(SimTime::from_nanos(t)))
            .collect();
        assert_eq!(slots, vec![0, 1, 1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "lookahead quantum must be positive")]
    fn zero_quantum_rejected() {
        let _ = LookaheadGrid::new(0);
    }

    /// Drains to `limit` and orders the result as the consumer does: a
    /// queue sorted by time that keeps ties in arrival order.
    fn drained<E>(m: &mut CalendarInbox<E>, limit: u64) -> Vec<Delivery<E>> {
        let mut got = Vec::new();
        m.drain_until(SimTime::from_nanos(limit), |e| got.push(e));
        got.sort_by_key(|e| e.at);
        got
    }

    fn events<E>(got: Vec<Delivery<E>>) -> Vec<E> {
        got.into_iter().map(|e| e.ev).collect()
    }

    #[test]
    fn inbox_drains_in_canonical_order_regardless_of_push_order() {
        let mut m = CalendarInbox::new(LookaheadGrid::new(100));
        // Push in scrambled "thread finish" order.
        m.push(d(200, 100, 7, "c"));
        m.push(d(100, 50, 9, "b"));
        m.push(d(100, 10, 9, "a"));
        m.push(d(300, 0, 1, "d"));
        assert_eq!(events(drained(&mut m, 200)), vec!["a", "b", "c"]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.min_time(), Some(SimTime::from_nanos(300)));
        assert_eq!(events(drained(&mut m, 300)), vec!["d"]);
        assert!(m.is_empty());
        assert_eq!(m.min_time(), None);
    }

    #[test]
    fn off_grid_limit_splits_the_front_slot() {
        let mut m = CalendarInbox::new(LookaheadGrid::new(500));
        for (uid, at) in [(1, 990), (2, 510), (3, 750), (4, 1000), (5, 1001)] {
            m.push(d(at, 0, uid, uid));
        }
        assert_eq!(events(drained(&mut m, 750)), vec![2, 3]);
        assert_eq!(m.min_time(), Some(SimTime::from_nanos(990)));
        // A late arrival (at or before the last limit) still comes out,
        // with the slot it joined.
        m.push(d(750, 700, 6, 6));
        assert_eq!(events(drained(&mut m, 995)), vec![6, 1]);
        assert_eq!(events(drained(&mut m, 1000)), vec![4]);
        assert_eq!(events(drained(&mut m, 1500)), vec![5]);
        assert!(m.is_empty());
    }

    #[test]
    fn runs_handed_over_out_of_place_still_sort() {
        // Three senders' worth of deliveries for one slot, each in its own
        // order: far more swaps than entries, so the general sort finishes.
        let mut m = CalendarInbox::new(LookaheadGrid::new(1000));
        for run in 0..3u64 {
            let mut batch = Batch::default();
            for k in 0..40u64 {
                batch.push(d(900, 10 * k, run, (k, run)));
            }
            m.absorb(&mut batch);
            assert!(batch.is_empty());
        }
        let got = events(drained(&mut m, 1000));
        let mut want = got.clone();
        want.sort_unstable();
        assert_eq!(got.len(), 120);
        assert_eq!(got, want);
    }

    #[test]
    fn drained_slots_are_recycled() {
        let mut m = CalendarInbox::new(LookaheadGrid::new(10));
        let mut uid = 0;
        let mut round = |m: &mut CalendarInbox<u64>, now: u64| {
            for k in 0..3 {
                uid += 1;
                m.push(d(now + 11 + 10 * k, now, uid, uid));
            }
            m.drain_until(SimTime::from_nanos(now + 10), |_| {});
        };
        for r in 0..8 {
            round(&mut m, 10 * r);
        }
        let span = m.ring.len();
        for r in 8..1000 {
            round(&mut m, 10 * r);
        }
        assert_eq!(
            m.ring.len(),
            span,
            "the ring spans the latency, not the run"
        );
    }

    // Collisions are only looked for where the oracle idiom looks.
    #[cfg(any(debug_assertions, feature = "audit"))]
    #[test]
    #[should_panic(expected = "inbox key collision")]
    fn duplicate_key_is_a_bug() {
        let mut m = CalendarInbox::new(LookaheadGrid::new(10));
        m.push(d(5, 0, 42, 1u8));
        m.push(d(5, 0, 42, 2u8));
        m.drain_until(SimTime::from_nanos(10), |_| {});
    }

    /// One scripted step against the calendar and the oracle.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `clock + ahead - 2` (so a few land at or before the
        /// last limit), sent `ago` before the clock.
        Push { ahead: u64, ago: u64 },
        /// Drain to `clock + by`, which becomes the clock.
        Drain { by: u64 },
        /// Drain again to the current clock: nothing new may be due.
        Redrain,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let ahead = prop_oneof![
            // Late, and ties on `at` within one slot.
            0u64..4,
            0u64..40,
            // The usual few quanta of wire latency.
            0u64..2_000,
            // Far future: the ring has to grow.
            100_000u64..400_000,
        ];
        // Zero (an empty drain), off-grid steps that split one slot more
        // than once, whole quanta, and a leap over many slots.
        let by = prop_oneof![Just(0u64), 1u64..9, 1u64..700, 5_000u64..50_000];
        (0u8..5, ahead, 0u64..3, by).prop_map(|(kind, ahead, ago, by)| match kind {
            0..=2 => Op::Push { ahead, ago },
            3 => Op::Drain { by },
            _ => Op::Redrain,
        })
    }

    proptest! {
        /// Any schedule of pushes and drains yields the same sequence (once
        /// through the consumer's queue), `len` and `min_time` from the
        /// calendar as from the ordered map it replaced.
        #[test]
        fn calendar_matches_btree_mailbox(
            quantum in prop_oneof![Just(1u64), Just(7), Just(500), Just(512)],
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            let mut cal = CalendarInbox::new(LookaheadGrid::new(quantum));
            let mut oracle = BTreeMailbox::new();
            let mut clock = 0u64;
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Push { ahead, ago } => {
                        let at = (clock + ahead).saturating_sub(2);
                        // Unique, and ordered unlike the pushes.
                        let uid = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let sent = clock.saturating_sub(ago);
                        let src = (i % 3) as u32;
                        cal.push(Delivery { src, ..d(at, sent, uid, i) });
                        oracle.push(Delivery { src, ..d(at, sent, uid, i) });
                    }
                    Op::Drain { .. } | Op::Redrain => {
                        if let Op::Drain { by } = *op {
                            clock += by;
                        }
                        let flat = |e: Delivery<usize>| (e.at, e.sent, e.uid, e.src, e.ev);
                        let got: Vec<_> = drained(&mut cal, clock).into_iter().map(flat).collect();
                        let mut want = Vec::new();
                        oracle.drain_until(SimTime::from_nanos(clock), |e| want.push(flat(e)));
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(cal.len(), oracle.len());
                prop_assert_eq!(cal.is_empty(), oracle.len() == 0);
                prop_assert_eq!(cal.min_time(), oracle.min_time());
            }
        }
    }
}
