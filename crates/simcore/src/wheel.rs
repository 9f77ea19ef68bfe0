//! A hierarchical timing wheel: the O(1) backend of [`EventQueue`].
//!
//! [`EventQueue`]: crate::EventQueue
//!
//! ## Layout
//!
//! Eight wheels ("levels") of 256 slots each. A slot on level `l` spans
//! `256^l` nanoseconds, so level 0 resolves single nanoseconds over a
//! 256 ns window, level 1 spans 65.5 µs, level 2 ≈ 16.8 ms, and so on up
//! to level 7, whose 256 slots cover the entire remaining `u64` range —
//! the top wheel is the overflow level, so every representable timestamp
//! (including `u64::MAX`) maps to exactly one slot and no auxiliary
//! sorted structure is needed.
//!
//! An event scheduled for `at` lives on the level of the highest bit in
//! which `at` differs from the current clock (`level = highest_diff_bit /
//! 8`), in slot `(at >> 8·level) & 255`. Each level keeps a 256-bit
//! occupancy bitmap, so "earliest pending slot" is four `u64` words and a
//! `trailing_zeros` per level instead of a scan.
//!
//! ## Cost model
//!
//! `push` is O(1): one XOR + `leading_zeros` to pick the slot, one `Vec`
//! append. `pop` is amortized O(1): advancing the clock to the next event
//! cascades at most the 7 higher-level slots that contain it, and every
//! event moves down a strictly decreasing sequence of levels, so each is
//! touched at most 8 times over its lifetime regardless of queue depth.
//! Contrast the `BinaryHeap` backend's O(log n) sift per operation with a
//! pointer-free but comparison-heavy layout.
//!
//! ## Memory
//!
//! Slot buffers follow what is pending, not what was ever touched. Level 0
//! is the exception: its 256 buffers hold the few events of one nanosecond
//! each, sit on every event's path, and keep their capacity. A level-1
//! slot (256 ns) gives its drained buffer to a LIFO pool and the next
//! level-1 slot to fill takes one from there, so level 1 owns as many
//! buffers as it ever had slots occupied at one time — the occupied part
//! of the 65.5 µs window — rather than one, grown to its largest burst,
//! per slot. From level 2 up a slot is used once per lap of at least
//! 16.8 ms and is simply freed when it cascades.
//!
//! ## Determinism contract (identical to the heap backend)
//!
//! Events pop in `(timestamp, insertion sequence)` order: time order
//! first, FIFO among ties. Slot vectors only ever append, and cascading a
//! slot redistributes its entries in insertion order (stable), so two
//! events with equal timestamps can never swap — the property every
//! end-to-end reproducibility test in this workspace leans on. Scheduling
//! into the past is a debug panic (clamped to `now` in release), and
//! `pop_until` never advances the clock past its horizon. The proptest
//! differential suite (`tests/event_differential.rs`) drives this wheel
//! and [`HeapEventQueue`](crate::HeapEventQueue) in lockstep to assert
//! the two backends are observationally identical.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels; 8 × 8 bits covers the full 64-bit nanosecond clock.
const LEVELS: usize = 8;
/// Words of the per-level occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

/// A pending event: absolute timestamp and payload. FIFO among ties needs
/// no stored sequence number: slots only append and cascades are stable.
type Pending<E> = (u64, E);

/// The hierarchical timing wheel. See the module docs for the invariants.
pub(crate) struct TimingWheel<E> {
    /// `LEVELS * SLOTS` append-only slot vectors, indexed `level * 256 + slot`.
    slots: Vec<Vec<Pending<E>>>,
    /// Buffers of drained level-1 slots, taken LIFO by the next level-1
    /// slot that fills from empty, so the buffers that cover the occupied
    /// part of the 65.5 µs window circulate instead of all 256 slots
    /// growing one each. A buffer is only allocated while this is empty,
    /// so level 1 never owns more buffers than it had slots occupied at
    /// one time.
    spare: Vec<Vec<Pending<E>>>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; OCC_WORDS]; LEVELS],
    /// Events staged out of the current level-0 slot, all at `ready_at`,
    /// in FIFO order. Popping drains this before touching the wheel again.
    ready: VecDeque<E>,
    /// Timestamp shared by everything in `ready`.
    ready_at: u64,
    /// Current clock in nanoseconds (timestamp of the last popped event).
    now: u64,
    /// Events ever pushed (the scheduled-total counter).
    seq: u64,
    /// Pending events (wheel + ready).
    len: usize,
    /// High-water mark of `len`.
    peak: usize,
}

/// Level an event at `at` belongs to when the clock reads `now`.
#[inline(always)]
fn level_of(now: u64, at: u64) -> usize {
    // `| 1` keeps leading_zeros in range when at == now (level 0 either way).
    ((63 - ((now ^ at) | 1).leading_zeros()) / SLOT_BITS) as usize
}

/// Slot index of `at` within `level`.
#[inline(always)]
fn slot_of(level: usize, at: u64) -> usize {
    ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

/// First occupied slot index in a level's bitmap, if any.
#[inline]
fn first_occupied(occ: &[u64; OCC_WORDS]) -> Option<usize> {
    for (w, &bits) in occ.iter().enumerate() {
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
    }
    None
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            occ: [[0; OCC_WORDS]; LEVELS],
            ready: VecDeque::new(),
            ready_at: 0,
            now: 0,
            seq: 0,
            len: 0,
            peak: 0,
        }
    }

    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Files one event into its slot per the level invariant.
    #[inline]
    fn place(&mut self, at: u64, ev: E) {
        let l = level_of(self.now, at);
        let s = slot_of(l, at);
        let slot = &mut self.slots[l * SLOTS + s];
        if l == 1 && slot.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *slot = buf;
            }
        }
        slot.push((at, ev));
        self.occ[l][s / 64] |= 1 << (s % 64);
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.now(),
            "scheduled an event in the past: {at:?} < {:?}",
            self.now()
        );
        let at = at.as_nanos().max(self.now);
        self.seq += 1;
        self.place(at, ev);
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    #[inline]
    pub(crate) fn push_after(&mut self, delay: SimDuration, ev: E) {
        // now + delay saturates via SimTime arithmetic, and is >= now by
        // construction — no past-scheduling check needed.
        let at = (self.now() + delay).as_nanos();
        self.seq += 1;
        self.place(at, ev);
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Timestamp of the earliest pending event without disturbing the
    /// wheel. O(1) in bitmap words plus, when only upper levels are
    /// occupied, one scan of the single first slot.
    fn earliest(&self) -> Option<u64> {
        if !self.ready.is_empty() {
            return Some(self.ready_at);
        }
        if self.len == 0 {
            return None;
        }
        for l in 0..LEVELS {
            let Some(s) = first_occupied(&self.occ[l]) else {
                continue;
            };
            if l == 0 {
                // Level-0 slots hold exactly one timestamp: the slot's.
                return Some((self.now & !(SLOTS as u64 - 1)) | s as u64);
            }
            // Upper-level slots mix timestamps; the earliest is the min.
            let evs = &self.slots[l * SLOTS + s];
            debug_assert!(!evs.is_empty());
            return evs.iter().map(|e| e.0).min();
        }
        unreachable!("len > 0 but no occupied slot");
    }

    /// Advances the clock to `t` (the earliest pending timestamp),
    /// cascading every higher-level slot on the path so the event lands
    /// in its level-0 slot. Stable: redistribution preserves insertion
    /// order, so FIFO-on-tie survives every cascade.
    fn advance_to(&mut self, t: u64) {
        loop {
            let l = level_of(self.now, t);
            if l == 0 {
                break;
            }
            let s = slot_of(l, t);
            // Jump to the start of that slot's window; everything in the
            // slot re-files relative to the new clock, one level (or more)
            // down.
            self.now = t & !((1u64 << (SLOT_BITS * l as u32)) - 1);
            let mut evs = std::mem::take(&mut self.slots[l * SLOTS + s]);
            self.occ[l][s / 64] &= !(1 << (s % 64));
            for (at, ev) in evs.drain(..) {
                debug_assert!(at >= self.now);
                self.place(at, ev);
            }
            // Re-filed events always land on a strictly lower level, so the
            // slot stays empty until its next lap. A level-1 buffer goes to
            // the spare pool; one from level 2 up (used once per >= 65.5 µs
            // of simulated time) is freed here.
            if l == 1 {
                self.spare.push(evs);
            }
        }
        self.now = t;
    }

    /// Drains the level-0 slot holding timestamp `t`: returns its first
    /// event and stages any remaining ties into `ready`, in insertion
    /// order. Precondition: `advance_to(t)` has run, so the slot holds
    /// exactly the events at `t`.
    fn stage(&mut self, t: u64) -> E {
        let s = slot_of(0, t);
        let mut evs = std::mem::take(&mut self.slots[s]);
        self.occ[0][s / 64] &= !(1 << (s % 64));
        debug_assert!(!evs.is_empty(), "staged an empty slot");
        let mut drain = evs.drain(..);
        let (at, first) = drain.next().expect("staged slot is nonempty");
        debug_assert_eq!(at, t, "level-0 slot mixed timestamps");
        // The common case is a single event per instant; ties go through
        // the ready stage (usually untouched).
        for (at, ev) in drain {
            debug_assert_eq!(at, t, "level-0 slot mixed timestamps");
            self.ready.push_back(ev);
        }
        self.slots[s] = evs; // keep the slot's buffer capacity
        self.ready_at = t;
        first
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = match self.ready.pop_front() {
            Some(ev) => ev,
            None => {
                let t = self.earliest()?;
                self.advance_to(t);
                self.stage(t)
            }
        };
        self.len -= 1;
        self.now = self.ready_at;
        Some((SimTime::from_nanos(self.ready_at), ev))
    }

    #[inline]
    pub(crate) fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let ev = if self.ready.is_empty() {
            let t = self.earliest()?;
            if t > limit.as_nanos() {
                // Beyond the horizon: stays queued, clock does not move.
                return None;
            }
            self.advance_to(t);
            self.stage(t)
        } else {
            if self.ready_at > limit.as_nanos() {
                return None;
            }
            self.ready.pop_front().expect("ready is nonempty")
        };
        self.len -= 1;
        self.now = self.ready_at;
        Some((SimTime::from_nanos(self.ready_at), ev))
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(SimTime::from_nanos)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn scheduled_total(&self) -> u64 {
        self.seq
    }

    pub(crate) fn peak_pending(&self) -> usize {
        self.peak
    }

    /// Buffers held above level 0 — slots with capacity plus the spare
    /// pool — and the entries they have room for.
    #[cfg(test)]
    pub(crate) fn retained_above_level0(&self) -> (usize, usize) {
        let held = self.slots[SLOTS..].iter().chain(&self.spare);
        let caps = held.map(Vec::capacity).filter(|&c| c > 0);
        caps.fold((0, 0), |(n, room), c| (n + 1, room + c))
    }

    /// Reconstructs a wheel from snapshot state: the clock, the lifetime
    /// counters, and every pending event in *pop order*.
    ///
    /// Re-filing in pop order is all FIFO ties need: slots append, so a
    /// restored tie pops before any event pushed later. The insertion
    /// counter is set back to `scheduled_total` so the `events_scheduled`
    /// diagnostic stays byte-identical.
    pub(crate) fn rebuild(
        now: u64,
        scheduled_total: u64,
        peak: usize,
        events: Vec<(u64, E)>,
    ) -> Self {
        let mut w = TimingWheel::new();
        w.now = now;
        let n = events.len();
        debug_assert!(scheduled_total >= n as u64);
        for (at, ev) in events {
            debug_assert!(at >= now, "snapshot held an event in the past");
            w.place(at.max(now), ev);
        }
        w.seq = scheduled_total;
        w.len = n;
        w.peak = peak.max(n);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_math() {
        assert_eq!(level_of(0, 0), 0);
        assert_eq!(level_of(0, 255), 0);
        assert_eq!(level_of(0, 256), 1);
        assert_eq!(level_of(0, 65_535), 1);
        assert_eq!(level_of(0, 65_536), 2);
        assert_eq!(level_of(0, u64::MAX), 7);
        assert_eq!(level_of(u64::MAX - 1, u64::MAX), 0);
        assert_eq!(slot_of(0, 0x1234), 0x34);
        assert_eq!(slot_of(1, 0x1234), 0x12);
        assert_eq!(slot_of(7, u64::MAX), 255);
    }

    #[test]
    fn far_future_and_max_timestamps() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(SimTime::from_nanos(u64::MAX), 3);
        w.push(SimTime::from_nanos(u64::MAX - 1), 2);
        w.push(SimTime::from_nanos(5), 1);
        assert_eq!(w.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(5), 1)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(u64::MAX - 1), 2)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(u64::MAX), 3)));
        assert_eq!(w.pop(), None);
        assert_eq!(w.now(), SimTime::from_nanos(u64::MAX));
    }

    #[test]
    fn cascades_preserve_fifo_ties() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        // Two ties parked far out (level >= 1 initially), plus one pushed
        // after the clock advances next to them (level 0 directly): the
        // pop order must follow insertion sequence.
        let t = SimTime::from_nanos(1_000_000);
        w.push(t, 0);
        w.push(t, 1);
        w.push(SimTime::from_nanos(10), 99);
        assert_eq!(w.pop(), Some((SimTime::from_nanos(10), 99)));
        w.push(t, 2);
        assert_eq!(w.pop(), Some((t, 0)));
        // Mid-drain push at the ready timestamp lands behind the ties.
        w.push(t, 3);
        assert_eq!(w.pop(), Some((t, 1)));
        assert_eq!(w.pop(), Some((t, 2)));
        assert_eq!(w.pop(), Some((t, 3)));
        assert_eq!(w.pop(), None);
    }

    /// Three laps of level 2 (50 ms) of a bursty stream: every 30 µs a
    /// burst of 200 events over the next 20 µs, one timer 1 ms out, and
    /// the next burst. Every level-1 and level-2 slot is used many times
    /// over, under a hundred at a time; what the wheel keeps must follow
    /// the latter.
    #[test]
    fn buffers_follow_occupied_slots_not_touched_slots() {
        const BURST: u64 = u64::MAX;
        let occupied = |w: &TimingWheel<u64>, levels: std::ops::Range<usize>| -> usize {
            let words = w.occ[levels].iter().flatten();
            words.map(|word| word.count_ones() as usize).sum()
        };
        let mut w: TimingWheel<u64> = TimingWheel::new();
        w.push(SimTime::ZERO, BURST);
        // Stop mid-burst, clear of the level-3 boundary at three laps.
        let end = 3 * (1u64 << (3 * SLOT_BITS)) + 40_000;
        let (mut popped, mut peak_level1) = (0u64, 0);
        while let Some((t, ev)) = w.pop_until(SimTime::from_nanos(end)) {
            popped += 1;
            if ev == BURST {
                for i in 0..200 {
                    w.push_after(SimDuration::from_nanos(100 * (i + 1)), i);
                }
                w.push_after(SimDuration::from_nanos(1_000_000), 1_000);
                w.push(t + SimDuration::from_nanos(30_000), BURST);
            }
            peak_level1 = peak_level1.max(occupied(&w, 1..2));
        }
        assert!(popped > 300_000 && w.len() > 0);
        assert!(peak_level1 < 128, "{peak_level1} level-1 slots at once");
        // Level 1 owns a buffer per slot it ever had occupied at one time;
        // higher levels only where events are pending now. All 512 slots
        // of levels 1 and 2 have been used.
        let (buffers, room) = w.retained_above_level0();
        let bound = peak_level1 + occupied(&w, 2..LEVELS);
        assert!(buffers <= bound, "{buffers} buffers, bound {bound}");
        // No slot ever held 256 events, so no buffer grew past 256.
        assert!(room <= bound * 256, "room for {room}");
    }

    #[test]
    fn pop_until_does_not_advance_past_horizon() {
        let mut w: TimingWheel<&str> = TimingWheel::new();
        w.push(SimTime::from_nanos(100_000), "later");
        assert_eq!(w.pop_until(SimTime::from_nanos(99_999)), None);
        assert_eq!(w.now(), SimTime::ZERO);
        // Exact boundary is inclusive.
        assert_eq!(
            w.pop_until(SimTime::from_nanos(100_000)),
            Some((SimTime::from_nanos(100_000), "later"))
        );
    }

    #[test]
    fn counters_track_wheel_and_ready() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        let t = SimTime::from_nanos(7);
        for i in 0..5 {
            w.push(t, i);
        }
        assert_eq!(w.len(), 5);
        assert_eq!(w.peak_pending(), 5);
        // First pop stages the slot; len must count staged events.
        assert_eq!(w.pop(), Some((t, 0)));
        assert_eq!(w.len(), 4);
        assert_eq!(w.peek_time(), Some(t));
        assert!(w.len() > 0);
        while w.pop().is_some() {}
        assert_eq!(w.len(), 0);
        assert_eq!(w.scheduled_total(), 5);
        assert_eq!(w.peak_pending(), 5);
    }
}
