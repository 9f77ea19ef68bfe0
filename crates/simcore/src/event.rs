//! The event queue at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] is a time-ordered priority queue. Events scheduled for the
//! same instant pop in insertion order, which makes whole simulations
//! bit-reproducible for a given seed — a property the test suite asserts
//! end to end. It is a hierarchical timing wheel with amortized O(1)
//! push/pop; see [`crate::wheel`]'s module docs. The differential suite
//! (`tests/event_differential.rs`) drives it in lockstep with a binary
//! heap of its own, the reference it replaced.

use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// The event queue a simulation runs on: the timing wheel is the only one.
///
/// Kept only because `perfbench` names it, through `RunSpec.event_backend`
/// and `Simulation::new_with_events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventBackend {
    /// Hierarchical timing wheel: amortized O(1) per operation.
    #[default]
    Wheel,
}

/// A deterministic, time-ordered event queue.
///
/// The queue tracks the current simulation clock: [`EventQueue::pop`]
/// advances it to the timestamp of the event being delivered, and scheduling
/// an event in the past is a logic error caught by a debug assertion (it is
/// clamped to `now` in release builds so a simulation never travels back in
/// time).
pub struct EventQueue<E> {
    wheel: TimingWheel<E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
        }
    }

    /// The current simulation clock (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.wheel.now()
    }

    /// Schedules `ev` for delivery at `at`.
    ///
    /// `at` must not be earlier than the current clock; in debug builds this
    /// panics, in release builds the event is clamped to `now`.
    ///
    /// Always inlined, here and in `push_after`, down to the wheel's slot
    /// append (DESIGN.md §5b).
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, ev: E) {
        self.wheel.push(at, ev)
    }

    /// Schedules `ev` for `delay` after the current clock.
    ///
    /// The hot scheduling sites all compute `now + delta`; this helper folds
    /// the addition into the queue so callers cannot accidentally use a
    /// stale clock, and the non-negative-delay invariant holds by
    /// construction (no past-scheduling check needed).
    #[inline(always)]
    pub fn push_after(&mut self, delay: SimDuration, ev: E) {
        self.wheel.push_after(delay, ev)
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.wheel.pop()
    }

    /// Combined peek-then-pop: removes and returns the earliest event only
    /// if its timestamp is at or before `limit`, advancing the clock.
    ///
    /// This is the main-loop fast path — events beyond the horizon stay
    /// queued and the clock does not move past `limit`.
    #[inline]
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.wheel.pop_until(limit)
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn scheduled_total(&self) -> u64 {
        self.wheel.scheduled_total()
    }

    /// High-water mark of pending events — the queue-depth analogue of a
    /// switch buffer's peak occupancy. Deflection storms (DIBS-style) show
    /// up here as an order-of-magnitude spike over quiet runs.
    pub fn peak_pending(&self) -> usize {
        self.wheel.peak_pending()
    }
}

impl<E: Snapshot> EventQueue<E> {
    /// Serializes the queue for a checkpoint: the clock, the lifetime
    /// counters, and every pending event in **pop order** — then rebuilds
    /// the queue in place so the simulation keeps running unperturbed.
    ///
    /// Pop order is the only ordering fact the restored queue needs: the
    /// rebuild re-files events in that order (the wheel's slots simply
    /// append) and then restores the insertion counter to its original
    /// value, so FIFO ties survive and future pushes order after every
    /// pending tie. The drain-and-rebuild is invisible to the running
    /// simulation (identical clock, counters, and pop sequence afterwards);
    /// the differential suite and the snapshot proptests pin that down.
    pub fn save_into(&mut self, w: &mut SnapWriter) {
        let now = self.now().as_nanos();
        let total = self.scheduled_total();
        let peak = self.peak_pending();
        let mut events: Vec<(u64, E)> = Vec::with_capacity(self.len());
        while let Some((t, ev)) = self.pop() {
            events.push((t.as_nanos(), ev));
        }
        w.put_u64(now);
        w.put_u64(total);
        w.put_usize(peak);
        w.put_usize(events.len());
        for (at, ev) in &events {
            w.put_u64(*at);
            ev.save(w);
        }
        self.wheel = TimingWheel::rebuild(now, total, peak, events);
    }

    /// Reconstructs a queue serialized by [`EventQueue::save_into`]. The
    /// payload holds pop order and nothing of the queue's layout.
    pub fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let now = r.get_u64()?;
        let total = r.get_u64()?;
        let peak = r.get_usize()?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(SnapError::new(format!(
                "corrupt event count {n} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut events = Vec::with_capacity(n);
        let mut prev = now;
        for _ in 0..n {
            let at = r.get_u64()?;
            if at < prev {
                return Err(SnapError::new(format!(
                    "event stream not in pop order ({at} after {prev})"
                )));
            }
            prev = at;
            events.push((at, E::restore(r)?));
        }
        Ok(EventQueue {
            wheel: TimingWheel::rebuild(now, total, peak, events),
        })
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_millis(5), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        // Scheduling relative to the advanced clock works.
        q.push(q.now() + SimDuration::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(6)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), ());
        q.pop();
        q.push(SimTime::from_millis(1), ());
    }

    #[test]
    fn len_and_counters() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(1), 1);
        q.push(SimTime::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.peak_pending(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peak_pending(), 2);
    }

    #[test]
    fn push_after_is_relative_to_clock() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "first");
        q.pop();
        q.push_after(SimDuration::from_millis(2), "second");
        assert_eq!(q.pop(), Some((SimTime::from_millis(7), "second")));
    }

    #[test]
    fn push_after_matches_push_ordering() {
        // push(now + d) and push_after(d) must interleave identically.
        let mut a = EventQueue::new();
        let mut c = EventQueue::new();
        for i in [7u64, 3, 3, 9, 1] {
            let d = SimDuration::from_nanos(i);
            a.push(a.now() + d, i);
            c.push_after(d, i);
        }
        loop {
            let (x, y) = (a.pop(), c.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "in");
        q.push(SimTime::from_nanos(30), "out");
        let limit = SimTime::from_nanos(20);
        assert_eq!(q.pop_until(limit), Some((SimTime::from_nanos(10), "in")));
        // The later event stays queued and the clock stays put.
        assert_eq!(q.pop_until(limit), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), SimTime::from_nanos(10));
        // A higher limit releases it.
        assert_eq!(
            q.pop_until(SimTime::from_nanos(30)),
            Some((SimTime::from_nanos(30), "out"))
        );
        assert_eq!(q.pop_until(SimTime::from_nanos(u64::MAX)), None);
    }

    #[test]
    fn pop_until_ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1);
        for i in 0..10 {
            q.push(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop_until(t).unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 10u64);
        q.push(SimTime::from_nanos(50), 50);
        let (t, v) = q.pop().unwrap();
        assert_eq!(v, 10);
        q.push(t + SimDuration::from_nanos(5), 15);
        q.push(t + SimDuration::from_nanos(25), 35);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![15, 35, 50]);
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut q = EventQueue::new();
        // Ties across cascade boundaries plus a popped prefix, so the
        // snapshot sees a mid-run clock and a partly popped window.
        let far = SimTime::from_nanos(1_000_000);
        q.push(far, 0u64);
        q.push(far, 1);
        q.push(SimTime::from_nanos(10), 99);
        q.push(SimTime::from_nanos(300), 50);
        assert_eq!(q.pop().unwrap().1, 99);

        let mut w = SnapWriter::new();
        q.save_into(&mut w);
        let bytes = w.into_bytes();

        // The save itself is invisible: the original keeps running.
        let mut r = EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(r.now(), q.now());
        assert_eq!(r.len(), q.len());
        assert_eq!(r.scheduled_total(), q.scheduled_total());
        assert_eq!(r.peak_pending(), q.peak_pending());
        // A post-restore push must order AFTER the pending ties.
        q.push(far, 2);
        r.push(far, 2);
        loop {
            let (a, c) = (q.pop(), r.pop());
            assert_eq!(a, c);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q.scheduled_total(), r.scheduled_total());
    }

    #[test]
    fn snapshot_taken_mid_window_pops_identically() {
        // One 256 ns window with ties, half popped (the wheel's cursor
        // is mid-run), and later windows and levels behind it.
        let mut q = EventQueue::new();
        for (i, at) in [1030, 1100, 1040, 1100, 1200, 1100, 2000, 70_000]
            .into_iter()
            .enumerate()
        {
            q.push(SimTime::from_nanos(at), i as u64);
        }
        for _ in 0..3 {
            q.pop();
        }
        assert_eq!(q.now(), SimTime::from_nanos(1100));
        // Pushed into the open window (the wheel's side run), pending
        // when the snapshot is taken: a tie at the clock's own instant
        // and one with what the cascade brought, out of time order.
        q.push(SimTime::from_nanos(1200), 8);
        q.push(SimTime::from_nanos(1100), 9);

        let mut w = SnapWriter::new();
        q.save_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes)).unwrap();
        // Behind the pending ties, restored from either run, and ahead
        // of the rest of the window.
        for (at, id) in [(1100, 10), (1200, 11), (1150, 12)] {
            q.push(SimTime::from_nanos(at), id);
            r.push(SimTime::from_nanos(at), id);
        }
        let order: Vec<u64> = std::iter::from_fn(|| {
            let (a, c) = (q.pop(), r.pop());
            assert_eq!(a, c);
            a.map(|(_, id)| id)
        })
        .collect();
        assert_eq!(order, [3, 5, 9, 10, 12, 4, 8, 11, 6, 7]);
    }

    #[test]
    fn snapshot_restores_pop_order() {
        // The payload is the clock, the counters and the events in pop
        // order, nothing of the layout of the queue that wrote it: written
        // here by hand, it restores onto the wheel and pops in exactly
        // that order.
        let pending = [
            (1000u64, 7u64),
            (1000, 3),
            (1200, 9),
            (70_000, 1),
            (70_000, 0),
        ];
        let mut w = SnapWriter::new();
        w.put_u64(900);
        w.put_u64(12);
        w.put_usize(6);
        w.put_usize(pending.len());
        for (at, ev) in pending {
            w.put_u64(at);
            ev.save(&mut w);
        }
        let bytes = w.into_bytes();
        let mut q = EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            (q.now(), q.len(), q.scheduled_total(), q.peak_pending()),
            (SimTime::from_nanos(900), 5, 12, 6)
        );
        // A push after the restore orders behind the restored ties.
        q.push(SimTime::from_nanos(1000), 42);
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, ev)| (t.as_nanos(), ev))).collect();
        assert_eq!(
            order,
            [
                (1000, 7),
                (1000, 3),
                (1000, 42),
                (1200, 9),
                (70_000, 1),
                (70_000, 0)
            ]
        );
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert!(EventQueue::<u64>::restore_from(&mut r).is_err());
    }
}
