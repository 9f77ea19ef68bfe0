//! A hierarchical timing wheel: what [`EventQueue`] runs on, O(1).
//!
//! [`EventQueue`]: crate::EventQueue
//!
//! ## Layout
//!
//! Seven wheels ("levels" 1 to 7) of 256 slots each over two sorted *runs*.
//! A slot on level `l` spans `256^l` nanoseconds, so a level-1 slot is a
//! 256 ns window, level 1 spans 65.5 µs, level 2 ≈ 16.8 ms, and so on up
//! to level 7, whose 256 slots cover the entire remaining `u64` range —
//! the top wheel is the overflow level, so every representable timestamp
//! (including `u64::MAX`) maps to exactly one slot and no auxiliary
//! structure is needed.
//!
//! An event scheduled for `at` lives on the level of the highest bit in
//! which `at` differs from the current clock (`level = highest_diff_bit /
//! 8`), in slot `(at >> 8·level) & 255`. Each level keeps a 256-bit
//! occupancy bitmap, so "earliest pending slot" is four `u64` words and a
//! `trailing_zeros` per level instead of a scan.
//!
//! Level 0 — the 256 ns window the clock is in — is not a wheel. When the
//! clock enters a level-1 slot's window, the slot's entries are stable
//! counting-sorted on the low 8 bits of their timestamp into one buffer,
//! the run, which is then only read, front to back behind a cursor. A
//! push that lands inside the open window goes to a second, small buffer,
//! the side run, behind every pending entry of it that is not later: an
//! append when the push is not earlier than the side run's last entry,
//! else a binary search over its pending part and a `Vec::insert`. Popping
//! is a two-way merge of the heads of the two, the run's entry first on a
//! tie, and the window closes when both are spent. A window too small to
//! be worth the sort's 256 counters, and what a slot of level 2 or above
//! holds for its own first 256 ns, go through the side run one by one
//! instead; the run is then empty, so the order is the same.
//!
//! ## Cost model
//!
//! `push` is O(1): one XOR + `leading_zeros` to pick the slot, one `Vec`
//! append. `pop` is amortized O(1): advancing the clock to the next event
//! cascades at most the 7 higher-level slots that contain it, and every
//! event moves down a strictly decreasing sequence of levels, so each is
//! touched at most 8 times over its lifetime regardless of queue depth.
//! An event that is pushed more than 256 ns and less than 65.5 µs ahead —
//! a packet's serialization or wire time — is written twice, once into
//! its level-1 slot and once into the run, and read sequentially both
//! times. One pushed into the open window — an ACK's serialization — is
//! written once, into the side run, at a cost in the entries of the side
//! run due after it (a handful: those pushed in the last few tens of
//! nanoseconds), whatever the run holds. Contrast a binary heap's
//! O(log n) sift per operation with a pointer-free but comparison-heavy
//! layout.
//!
//! ## Memory
//!
//! Slot buffers follow what is pending, not what was ever touched. The run
//! is one buffer, as large as the fullest 256 ns window so far, and the
//! side run another, as large as the most pushes one window took. A level-1
//! slot gives its drained buffer to a LIFO pool and the next level-1 slot
//! to fill takes one from there, so level 1 owns as many buffers as it
//! ever had slots occupied at one time — the occupied part of the 65.5 µs
//! window — rather than one, grown to its largest burst, per slot. From
//! level 2 up a slot is used once per lap of at least 16.8 ms and is
//! simply freed when it cascades.
//!
//! ## Determinism contract (identical to a binary heap's)
//!
//! Events pop in `(timestamp, insertion sequence)` order: time order
//! first, FIFO among ties. Slot vectors only ever append, cascading a slot
//! redistributes its entries in insertion order, the sort into the run is
//! stable, and the side run takes an entry behind its ties. Between the
//! two, the merge takes the run's entry on a tie, and everything a cascade
//! sorted into the run was pushed before the window opened, which is
//! before anything in the side run was. So two events with equal
//! timestamps can never swap — the property every end-to-end
//! reproducibility test in this workspace leans on. Scheduling into the
//! past is a debug panic (clamped to `now` in release), and `pop_until`
//! never advances the clock past its horizon. The proptest differential
//! suite (`tests/event_differential.rs`) drives this wheel and a binary
//! heap in lockstep to assert the two are observationally identical.

use crate::time::{SimDuration, SimTime};

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels, the run being level 0; 8 × 8 bits covers the full 64-bit
/// nanosecond clock.
const LEVELS: usize = 8;
/// Words of the per-level occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;
/// Entries from which a window is counting-sorted into the run. A quiet
/// stretch has a timer or a flow start per window, and clearing and
/// summing 256 counters costs as much as inserting about this many one by
/// one.
const SORT_FROM: usize = 8;

/// A pending event: absolute timestamp and payload. FIFO among ties needs
/// no stored sequence number: slots only append and cascades are stable.
type Pending<E> = (u64, E);

/// Entries in pop order behind a cursor: `entries[..cur]` has been popped
/// (`None`), `entries[cur..]` is pending (`Some`) and sorted by timestamp,
/// FIFO among ties.
struct Run<E> {
    entries: Vec<Option<Pending<E>>>,
    /// The next entry to pop.
    cur: usize,
}

impl<E> Run<E> {
    fn new() -> Self {
        Run {
            entries: Vec::new(),
            cur: 0,
        }
    }

    /// Timestamp of the next entry to pop, if any is pending.
    #[inline]
    fn head(&self) -> Option<u64> {
        match self.entries.get(self.cur) {
            Some(Some((at, _))) => Some(*at),
            _ => None,
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.cur = 0;
    }

    /// Puts an entry behind every pending one that is not later than it:
    /// FIFO among ties, as long as callers insert in push order. The
    /// append is inlined into the push path; the rest is out of line.
    #[inline(always)]
    fn insert(&mut self, at: u64, ev: E) {
        if self.cur == self.entries.len() {
            self.clear();
        } else if matches!(self.entries.last(), Some(Some((last, _))) if *last > at) {
            return self.insert_before_last(at, ev);
        }
        self.entries.push(Some((at, ev)));
    }

    /// The insertion that is not an append: a binary search over the
    /// pending part and a `memmove` of what is due later.
    #[inline(never)]
    fn insert_before_last(&mut self, at: u64, ev: E) {
        let due_first = |e: &Option<Pending<E>>| matches!(e, Some((t, _)) if *t <= at);
        let i = self.cur + self.entries[self.cur..].partition_point(due_first);
        self.entries.insert(i, Some((at, ev)));
    }
}

/// The hierarchical timing wheel. See the module docs for the invariants.
pub(crate) struct TimingWheel<E> {
    /// What the cascade that opened the 256 ns window the clock is in
    /// sorted into it. Never inserted into: it is written whole, with the
    /// cursor at 0, and read front to back.
    run: Run<E>,
    /// The side run: what was put into the open window one entry at a
    /// time, which is every push since it opened (and the whole of a
    /// window too small to sort). Everything in `run` was pushed before
    /// anything in here.
    side: Run<E>,
    /// Append-only slot vectors of levels 1 and up; see [`upper`].
    slots: Vec<Vec<Pending<E>>>,
    /// Buffers of drained level-1 slots, taken LIFO by the next level-1
    /// slot that fills from empty, so the buffers that cover the occupied
    /// part of the 65.5 µs window circulate instead of all 256 slots
    /// growing one each. A buffer is only allocated while this is empty,
    /// so level 1 never owns more buffers than it had slots occupied at
    /// one time.
    spare: Vec<Vec<Pending<E>>>,
    /// Slot-occupancy bitmaps of levels 1 and up (`occ[level - 1]`).
    occ: [[u64; OCC_WORDS]; LEVELS - 1],
    /// Current clock in nanoseconds (timestamp of the last popped event).
    now: u64,
    /// Events ever pushed (the scheduled-total counter).
    seq: u64,
    /// Pending events (wheel + both runs).
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

/// Index into `slots` of slot `slot` on `level` (1 and up).
#[inline(always)]
fn upper(level: usize, slot: usize) -> usize {
    (level - 1) * SLOTS + slot
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
            run: Run::new(),
            side: Run::new(),
            slots: (0..(LEVELS - 1) * SLOTS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            occ: [[0; OCC_WORDS]; LEVELS - 1],
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

    /// Files one event per the level invariant: into the side run when it
    /// is due inside the clock's 256 ns window, else into its slot.
    ///
    /// Inlined into every push down to the two appends a packet's `TxDone`
    /// and `Arrive` take — the side run's and a level-1 slot's — so that a
    /// handler's event goes from its registers into the entry with no call
    /// and no copy on the stack. What is rarer stays out of line, so that
    /// the scheduler's loop stays small: a slot that takes a buffer from
    /// the pool, levels 2 and up, and the side run's insertion before its
    /// last entry.
    #[inline(always)]
    fn place(&mut self, at: u64, ev: E) {
        let l = level_of(self.now, at);
        if l == 0 {
            return self.side.insert(at, ev);
        }
        if l > 1 {
            return self.place_far(l, at, ev);
        }
        let s = slot_of(1, at);
        let slot = &mut self.slots[upper(1, s)];
        if slot.capacity() == 0 {
            return self.place_in_empty_slot(s, at, ev);
        }
        slot.push((at, ev));
        self.occ[0][s / 64] |= 1 << (s % 64);
    }

    /// Level 1, into slot `s` that has no buffer: it takes the last one a
    /// drained slot gave back, if any.
    #[inline(never)]
    fn place_in_empty_slot(&mut self, s: usize, at: u64, ev: E) {
        let slot = &mut self.slots[upper(1, s)];
        if let Some(buf) = self.spare.pop() {
            *slot = buf;
        }
        slot.push((at, ev));
        self.occ[0][s / 64] |= 1 << (s % 64);
    }

    /// Levels 2 and up: at least 65.5 µs ahead of the clock.
    #[inline(never)]
    fn place_far(&mut self, l: usize, at: u64, ev: E) {
        let s = slot_of(l, at);
        self.slots[upper(l, s)].push((at, ev));
        self.occ[l - 1][s / 64] |= 1 << (s % 64);
    }

    /// Opens the clock's 256 ns window with `evs`, which are all due in
    /// it: a stable counting sort on the low 8 bits of their timestamps
    /// into the run (a handful go through the side run instead). `evs` is
    /// left empty.
    fn fill_run(&mut self, evs: &mut Vec<Pending<E>>) {
        debug_assert!(
            self.run.head().is_none() && self.side.head().is_none(),
            "opened a window with entries of the last one pending"
        );
        self.run.clear();
        if evs.len() < SORT_FROM {
            for (at, ev) in evs.drain(..) {
                self.side.insert(at, ev);
            }
            return;
        }
        // Nothing bounds a tie storm to 65 535 entries, hence `u32`.
        assert!(
            u32::try_from(evs.len()).is_ok(),
            "one slot holds over 2^32 events"
        );
        let mut next = [0u32; SLOTS];
        for (at, _) in evs.iter() {
            next[slot_of(0, *at)] += 1;
        }
        let mut start = 0;
        for n in &mut next {
            start += std::mem::replace(n, start);
        }
        self.run.entries.resize_with(evs.len(), || None);
        for (at, ev) in evs.drain(..) {
            debug_assert_eq!(level_of(self.now, at), 0);
            let n = &mut next[slot_of(0, at)];
            self.run.entries[*n as usize] = Some((at, ev));
            *n += 1;
        }
    }

    #[inline(always)]
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

    #[inline(always)]
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
    /// wheel: a look at the two run heads while the window is open, else
    /// [`Self::earliest_slotted`].
    #[inline]
    fn earliest(&self) -> Option<u64> {
        match (self.run.head(), self.side.head()) {
            (Some(r), Some(s)) => Some(r.min(s)),
            (Some(t), None) | (None, Some(t)) => Some(t),
            (None, None) => self.earliest_slotted(),
        }
    }

    /// With the window spent: O(1) in bitmap words plus one scan of the
    /// single first slot.
    fn earliest_slotted(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        for l in 1..LEVELS {
            let Some(s) = first_occupied(&self.occ[l - 1]) else {
                continue;
            };
            // Slots mix timestamps; the earliest is the min.
            let evs = &self.slots[upper(l, s)];
            debug_assert!(!evs.is_empty());
            return evs.iter().map(|e| e.0).min();
        }
        unreachable!("len > 0 but no occupied slot");
    }

    /// With the window spent, advances the clock to the start of the
    /// 256 ns window of `t` (the earliest pending timestamp), cascading
    /// every higher-level slot on the path so the events of that window
    /// land in the runs. Stable: redistribution preserves insertion order,
    /// so FIFO-on-tie survives every cascade.
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
            let mut evs = std::mem::take(&mut self.slots[upper(l, s)]);
            self.occ[l - 1][s / 64] &= !(1 << (s % 64));
            if l == 1 {
                // A level-1 slot is the new window, and its buffer goes to
                // the spare pool.
                self.fill_run(&mut evs);
                self.spare.push(evs);
                continue;
            }
            // From level 2 up every entry goes to a strictly lower level, so
            // the slot stays empty until its next lap, and its buffer (used
            // once per >= 65.5 µs of simulated time) is freed here. What is
            // due in the slot's first 256 ns is inserted into the side run
            // one by one, a window's worth once per 256 windows.
            for (at, ev) in evs {
                debug_assert!(at >= self.now);
                self.place(at, ev);
            }
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::from_nanos(u64::MAX))
    }

    /// The two-way merge of the run and the side run, the run first on a
    /// tie. Small and inlined into the scheduler's loop, so that the popped
    /// event goes from its entry to the handler in registers; what happens
    /// once per window is out of line in [`Self::open_window`].
    #[inline]
    pub(crate) fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = limit.as_nanos();
        let from = loop {
            match (self.run.head(), self.side.head()) {
                (Some(r), Some(s)) if s < r => break &mut self.side,
                (Some(_), _) => break &mut self.run,
                (None, Some(_)) => break &mut self.side,
                (None, None) if self.open_window(limit) => {}
                (None, None) => return None,
            }
        };
        let next = &mut from.entries[from.cur];
        if matches!(next, Some((at, _)) if *at > limit) {
            // Beyond the horizon: stays queued, clock does not move.
            return None;
        }
        let (at, ev) = next.take().expect("a run is pending from its cursor on");
        from.cur += 1;
        self.len -= 1;
        self.now = at;
        Some((SimTime::from_nanos(at), ev))
    }

    /// With the window spent, opens the one of the earliest pending event
    /// if that event is due by `limit`; says whether it did.
    #[inline(never)]
    fn open_window(&mut self, limit: u64) -> bool {
        match self.earliest() {
            Some(t) if t <= limit => {
                self.advance_to(t);
                true
            }
            _ => false,
        }
    }

    #[inline]
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

    /// Buffers held by the wheels — slots with capacity plus the spare
    /// pool — and the entries they have room for.
    #[cfg(test)]
    pub(crate) fn retained_slot_buffers(&self) -> (usize, usize) {
        let held = self.slots.iter().chain(&self.spare);
        let caps = held.map(Vec::capacity).filter(|&c| c > 0);
        caps.fold((0, 0), |(n, room), c| (n + 1, room + c))
    }

    /// Reconstructs a wheel from snapshot state: the clock, the lifetime
    /// counters, and every pending event in *pop order*.
    ///
    /// Re-filing in pop order is all FIFO ties need: slots and the side
    /// run append, so a restored tie pops before any event pushed later. The
    /// insertion counter is set back to `scheduled_total` so the
    /// `events_scheduled` diagnostic stays byte-identical.
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

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Pops everything, as `(timestamp, payload)`.
    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| w.pop().map(|(t, ev)| (t.as_nanos(), ev))).collect()
    }

    /// A wheel with `stamps` pending (payloads 0, 1, ...) and the clock at
    /// 1024, the start of the open window [1024, 1280). What that window
    /// holds of them came in by a cascade: sorted into the run if `sorted`,
    /// and if not inserted one by one through the side run, as a window of
    /// fewer than `SORT_FROM` is. Every order below must hold both ways.
    fn window_of(stamps: &[u64], sorted: bool) -> TimingWheel<u32> {
        let pad = if sorted { SORT_FROM as u32 } else { 1 };
        let mut w = TimingWheel::new();
        for i in 0..pad {
            w.push(at(1024), 100 + i);
        }
        for (i, &t) in stamps.iter().enumerate() {
            w.push(at(t), i as u32);
        }
        for i in 0..pad {
            assert_eq!(w.pop(), Some((at(1024), 100 + i)));
        }
        let in_window = stamps.iter().filter(|&&t| t < 1280).count();
        let in_run = if sorted { pad as usize + in_window } else { 0 };
        assert_eq!(w.run.entries.len(), in_run);
        w
    }

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
        w.push(at(u64::MAX), 3);
        w.push(at(u64::MAX - 1), 2);
        w.push(at(5), 1);
        assert_eq!(w.peek_time(), Some(at(5)));
        assert_eq!(w.pop(), Some((at(5), 1)));
        assert_eq!(w.pop(), Some((at(u64::MAX - 1), 2)));
        assert_eq!(w.pop(), Some((at(u64::MAX), 3)));
        assert_eq!(w.pop(), None);
        assert_eq!(w.now(), at(u64::MAX));
    }

    #[test]
    fn cascades_preserve_fifo_ties() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        // Two ties parked far out (level >= 1 initially), plus one pushed
        // after the clock advances next to them (a lower level): the pop
        // order must follow insertion sequence.
        let t = at(1_000_000);
        w.push(t, 0);
        w.push(t, 1);
        w.push(at(10), 99);
        assert_eq!(w.pop(), Some((at(10), 99)));
        w.push(t, 2);
        assert_eq!(w.pop(), Some((t, 0)));
        // Mid-drain push at the clock's own instant lands behind the ties.
        w.push(t, 3);
        assert_eq!(w.pop(), Some((t, 1)));
        assert_eq!(w.pop(), Some((t, 2)));
        assert_eq!(w.pop(), Some((t, 3)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn in_window_pushes_sort_into_the_run() {
        // Pushes alone build the window [0, 256).
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(at(50), 0);
        w.push(at(100), 1);
        w.push(at(20), 2); // ahead of every pending entry
        w.push(at(70), 3); // between two
        w.push(at(200), 4); // behind: an append
        w.push(at(50), 5); // a tie goes behind its elder
        let order = [(20, 2), (50, 0), (50, 5), (70, 3), (100, 1), (200, 4)];
        assert_eq!(drain(&mut w), order);

        // A cascade fills the window, two pops, and pushes on every side
        // of what is left of it.
        for sorted in [true, false] {
            let mut w = window_of(&[1030, 1040, 1100, 1100, 1200], sorted);
            assert_eq!(w.pop(), Some((at(1030), 0)));
            assert_eq!(w.pop(), Some((at(1040), 1)));
            w.push(at(1050), 10); // ahead
            w.push(at(1150), 11); // between
            w.push(at(1100), 12); // behind both ties
            w.push(at(1250), 13); // behind everything
            assert_eq!(w.len(), 7);
            assert_eq!(w.peek_time(), Some(at(1050)));
            let order = [
                (1050, 10),
                (1100, 2),
                (1100, 3),
                (1100, 12),
                (1150, 11),
                (1200, 4),
                (1250, 13),
            ];
            assert_eq!(drain(&mut w), order);
        }
    }

    #[test]
    fn a_window_sorts_stably_on_both_sides_of_the_sort_threshold() {
        for n in [SORT_FROM - 1, SORT_FROM, 40 * SORT_FROM] {
            // Scattered over the window [1024, 1280), two to a timestamp.
            let stamps: Vec<u64> = (0..n as u64).map(|i| 1024 + i / 2 * 37 % 256).collect();
            let mut w: TimingWheel<u32> = TimingWheel::new();
            for (i, &t) in stamps.iter().enumerate() {
                w.push(at(t), i as u32);
            }
            let mut sorted: Vec<(u64, u32)> = stamps.iter().copied().zip(0..).collect();
            sorted.sort(); // by timestamp, then by push order
            assert_eq!(drain(&mut w), sorted, "{n} entries");
        }
    }

    #[test]
    fn cascaded_entry_pops_before_a_later_in_window_tie() {
        for sorted in [true, false] {
            let mut w = window_of(&[1030, 1100, 1200], sorted);
            assert_eq!(w.pop(), Some((at(1030), 0)));
            // The window holds (1100, 1); the same instant pushed now is
            // younger, though it goes in ahead of (1200, 2).
            w.push(at(1100), 3);
            assert_eq!(drain(&mut w), [(1100, 1), (1100, 3), (1200, 2)]);
        }
    }

    #[test]
    fn side_run_ties_go_behind_the_run_and_behind_their_elders() {
        for sorted in [true, false] {
            let mut w = window_of(&[1030, 1100, 1200, 1300], sorted);
            assert_eq!(w.pop(), Some((at(1030), 0)));
            // The cascade brought (1100, 1) and (1200, 2); all of these
            // go to the side run.
            w.push(at(1200), 10); // ties with a cascaded entry: that one first
            w.push(at(1200), 11); // and with an older side-run entry: FIFO
            w.push(at(1100), 12); // the same, sorted in ahead of both
            w.push(at(1150), 13);
            w.push(at(1100), 14);
            assert_eq!(w.peek_time(), Some(at(1100)));
            let window = [
                (1100, 1),
                (1100, 12),
                (1100, 14),
                (1150, 13),
                (1200, 2),
                (1200, 10),
                (1200, 11),
            ];
            for expected in window {
                assert_eq!(w.pop().map(|(t, ev)| (t.as_nanos(), ev)), Some(expected));
            }
            // (1300, 3) was pushed before its window opened and is cascaded
            // into it: it pops ahead of a tie that was pushed, into the
            // window before, later than it, and of one pushed now.
            w.push(at(1300), 20);
            assert_eq!(w.pop(), Some((at(1300), 3)));
            w.push(at(1400), 21);
            w.push(at(1300), 22);
            assert_eq!(drain(&mut w), [(1300, 20), (1300, 22), (1400, 21)]);

            // Earlier than everything the cascade brought, all of which is
            // still pending.
            let mut w = window_of(&[1100, 1100, 1200], sorted);
            w.push(at(1030), 10);
            w.push(at(1026), 11);
            assert_eq!(w.peek_time(), Some(at(1026)));
            let order = [(1026, 11), (1030, 10), (1100, 0), (1100, 1), (1200, 2)];
            assert_eq!(drain(&mut w), order);
        }
    }

    #[test]
    fn the_window_closes_only_when_both_runs_are_spent() {
        let next_window_waits = |w: &TimingWheel<u32>| w.occ[0][0] == 1 << slot_of(1, 1300);
        for sorted in [true, false] {
            // What the cascade brought spent, the side run not.
            let mut w = window_of(&[1030, 1300], sorted);
            assert_eq!(w.pop(), Some((at(1030), 0)));
            w.push(at(1100), 2);
            assert_eq!(w.pop(), Some((at(1100), 2)));
            // Both spent, and the clock is still in the window: it takes
            // more.
            assert!(next_window_waits(&w));
            w.push(at(1100), 3);
            w.push(at(1279), 4);
            assert_eq!(w.peek_time(), Some(at(1100)));
            assert_eq!(w.pop(), Some((at(1100), 3)));
            assert_eq!(w.pop(), Some((at(1279), 4)));
            assert!(next_window_waits(&w));
            assert_eq!(w.pop(), Some((at(1300), 1)));
            assert_eq!((w.occ[0][0], w.len()), (0, 0));

            // The side run spent, what the cascade brought not.
            let mut w = window_of(&[1030, 1200, 1300], sorted);
            assert_eq!(w.pop(), Some((at(1030), 0)));
            w.push(at(1040), 3);
            assert_eq!(w.pop(), Some((at(1040), 3)));
            assert!(next_window_waits(&w));
            assert_eq!(drain(&mut w), [(1200, 1), (1300, 2)]);
        }
    }

    #[test]
    fn level2_cascade_fills_the_run_only_from_its_first_window() {
        const L2: u64 = 1 << (2 * SLOT_BITS);
        // Earliest entry in the first 256 ns of the level-2 slot: it and
        // its window mates go straight to the run, sorted; the rest of the
        // slot goes down to level 1.
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(at(L2 + 100), 0);
        w.push(at(L2 + 300), 1);
        w.push(at(L2 + 50), 2);
        w.push(at(L2 + 100), 3);
        assert_eq!(w.pop(), Some((at(L2 + 50), 2)));
        assert_eq!(w.occ[0][0], 0b10, "only +300 is on level 1");
        assert_eq!(drain(&mut w), [(L2 + 100, 0), (L2 + 100, 3), (L2 + 300, 1)]);

        // Earliest entry past the first 256 ns: the level-2 cascade leaves
        // the run empty and the level-1 slot of that entry fills it.
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(at(2 * L2 + 9_000), 0);
        w.push(at(2 * L2 + 5_010), 1);
        w.push(at(2 * L2 + 5_000), 2);
        assert_eq!(w.peek_time(), Some(at(2 * L2 + 5_000)));
        assert_eq!(w.pop(), Some((at(2 * L2 + 5_000), 2)));
        assert_eq!(drain(&mut w), [(2 * L2 + 5_010, 1), (2 * L2 + 9_000, 0)]);
        assert_eq!(w.now(), at(2 * L2 + 9_000));
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
            let words = w.occ[levels.start - 1..levels.end - 1].iter().flatten();
            words.map(|word| word.count_ones() as usize).sum()
        };
        let mut w: TimingWheel<u64> = TimingWheel::new();
        w.push(SimTime::ZERO, BURST);
        // Stop mid-burst, clear of the level-3 boundary at three laps.
        let end = 3 * (1u64 << (3 * SLOT_BITS)) + 40_000;
        let (mut popped, mut peak_level1) = (0u64, 0);
        while let Some((t, ev)) = w.pop_until(at(end)) {
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
        let (buffers, room) = w.retained_slot_buffers();
        let bound = peak_level1 + occupied(&w, 2..LEVELS);
        assert!(buffers <= bound, "{buffers} buffers, bound {bound}");
        // No slot ever held 256 events, so no buffer grew past 256, and
        // neither did the runs.
        assert!(room <= bound * 256, "room for {room}");
        for run in [&w.run, &w.side] {
            let room = run.entries.capacity();
            assert!(room <= 256, "a run of {room}");
        }
    }

    #[test]
    fn pop_until_does_not_advance_past_horizon() {
        let mut w: TimingWheel<&str> = TimingWheel::new();
        w.push(at(100_000), "later");
        assert_eq!(w.pop_until(at(99_999)), None);
        assert_eq!(w.now(), SimTime::ZERO);
        // Exact boundary is inclusive.
        assert_eq!(w.pop_until(at(100_000)), Some((at(100_000), "later")));
    }

    #[test]
    fn pop_until_stops_inside_the_run_and_before_an_unopened_window() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(at(1030), 0);
        w.push(at(1100), 1);
        w.push(at(2000), 2); // the level-1 window [1792, 2048)
        assert_eq!(w.pop_until(at(1029)), None);
        assert_eq!(w.now(), SimTime::ZERO);
        // A limit inside the open window: the run's head stays.
        assert_eq!(w.pop_until(at(1050)), Some((at(1030), 0)));
        assert_eq!(w.pop_until(at(1050)), None);
        assert_eq!(w.pop_until(at(1099)), None);
        assert_eq!((w.now(), w.len()), (at(1030), 2));
        assert_eq!(w.pop_until(at(1100)), Some((at(1100), 1)));
        // The run is spent; limits just before the next window, and inside
        // it but before its only entry, must leave it unopened.
        for limit in [1791, 1792, 1999] {
            assert_eq!(w.pop_until(at(limit)), None);
            assert_eq!(w.now(), at(1100));
        }
        // The clock did not move, so 1500 is still ahead of it.
        w.push(at(1500), 3);
        assert_eq!(w.pop_until(at(1999)), Some((at(1500), 3)));
        assert_eq!(w.pop_until(at(2000)), Some((at(2000), 2)));
        assert_eq!(w.pop_until(at(u64::MAX)), None);
    }

    #[test]
    fn pop_until_stops_between_the_run_and_the_side_run() {
        for sorted in [true, false] {
            let mut w = window_of(&[1030, 1100, 1200], sorted);
            assert_eq!(w.pop(), Some((at(1030), 0)));
            w.push(at(1150), 3);
            w.push(at(1250), 4);
            // From the cascade 1100, 1200; in the side run 1150, 1250. Each
            // limit falls between an entry and the next, which is of the
            // other origin.
            let steps = [
                (1099, None),
                (1149, Some((1100, 1))),
                (1149, None),
                (1199, Some((1150, 3))),
                (1199, None),
                (1249, Some((1200, 2))),
                (1249, None),
                (1250, Some((1250, 4))),
                (u64::MAX, None),
            ];
            let mut clock = 1030;
            for (limit, expected) in steps {
                let head = w.peek_time();
                let popped = w.pop_until(at(limit)).map(|(t, ev)| (t.as_nanos(), ev));
                assert_eq!(popped, expected, "limit {limit}");
                match popped {
                    Some((t, _)) => {
                        assert_eq!(head, Some(at(t)));
                        clock = t;
                    }
                    None => assert_eq!(w.peek_time(), head, "a refusal moves nothing"),
                }
                assert_eq!(w.now(), at(clock), "limit {limit}");
            }
            assert_eq!(w.len(), 0);
        }
    }

    #[test]
    fn a_tie_storm_wider_than_u16_keeps_fifo() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(at(999), u32::MAX);
        for i in 0..70_000 {
            w.push(at(1000), i);
        }
        assert_eq!(w.pop(), Some((at(999), u32::MAX)));
        for i in 0..70_000 {
            assert_eq!(w.pop(), Some((at(1000), i)));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn counters_track_wheel_and_run() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        let t = at(700);
        for i in 0..5 {
            w.push(t, i);
        }
        assert_eq!(w.len(), 5);
        assert_eq!(w.peak_pending(), 5);
        // First pop sorts the slot into the run; len must count the run.
        assert_eq!(w.pop(), Some((t, 0)));
        assert_eq!(w.len(), 4);
        assert_eq!(w.peek_time(), Some(t));
        while w.pop().is_some() {}
        assert_eq!(w.len(), 0);
        assert_eq!(w.scheduled_total(), 5);
        assert_eq!(w.peak_pending(), 5);
    }
}
