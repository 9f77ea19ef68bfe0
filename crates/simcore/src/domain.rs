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
//! * [`WindowQueue`] — what a domain pops a window's events from. Its
//!   deliveries wait in a calendar inbox, a ring of batches with one per
//!   grid slot: pushing is O(1), and when a window opens the slots that
//!   came due leave as one run in canonical `(arrival, send time, uid)`
//!   order, independent of which domain produced them or in what order
//!   threads finished. Popping merges that run with the domain's event
//!   queue and with what handlers schedule into the open window, so a
//!   delivery is written once and read once and no queue ever sorts it.
//!
//! All are deliberately dumb data structures: the driving loop (who
//! opens which window, when threads run) belongs to the model layer.

use crate::{EventQueue, SimTime};
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
    /// `ceil(2^64 / quantum)`, or 0 where that has no 64-bit value
    /// (a quantum of 1) or is no use (one of 2^32 or more).
    reciprocal: u64,
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
        let reciprocal = match quantum_ns {
            2..=0xFFFF_FFFF => u64::MAX / quantum_ns + 1,
            _ => 0,
        };
        LookaheadGrid {
            quantum_ns,
            reciprocal,
        }
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

    /// Quanta it takes to cover `ns` nanoseconds: `ns.div_ceil(quantum)`.
    ///
    /// Once per buffered delivery, and a delivery lands a few quanta out:
    /// short spans take a multiplication by the reciprocal where the
    /// division costs ten times that. With `m = ceil(2^64 / q)` the high
    /// word of `x * m` is `floor(x / q)` as long as `x * (m * q - 2^64)`
    /// stays under 2^64, which `x, q < 2^32` guarantees.
    #[inline]
    fn quanta_covering(&self, ns: u64) -> u64 {
        let x = ns.saturating_add(self.quantum_ns - 1);
        if self.reciprocal != 0 && x < 1 << 32 {
            ((u128::from(x) * u128::from(self.reciprocal)) >> 64) as u64
        } else {
            ns.div_ceil(self.quantum_ns)
        }
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
    /// The buffered event.
    pub ev: E,
}

/// A buffered delivery in its slot: `None` once it has been popped. The
/// event's own spare tag values hold the `None`, so this is no larger.
type Entry<E> = Option<Delivery<E>>;

/// The canonical merge key of a pending entry.
#[inline(always)]
fn key<E>(e: &Entry<E>) -> (SimTime, SimTime, u64) {
    let d = e.as_ref().expect("a pending entry");
    (d.at, d.sent, d.uid)
}

/// What ranks a pending entry among those landing at its instant.
#[inline(always)]
fn rank<E>(e: &Entry<E>) -> (SimTime, u64) {
    let d = e.as_ref().expect("a pending entry");
    (d.sent, d.uid)
}

/// An unsorted bag of deliveries whose earliest arrival is tracked on
/// push: a domain's outbox towards one other domain, and one slot of a
/// domain's calendar inbox. Emptying it keeps the allocation.
#[derive(Debug)]
pub struct Batch<E> {
    entries: Vec<Entry<E>>,
    min_at: SimTime,
    /// Send time of the last push.
    last_sent: SimTime,
    /// Whether some push was sent *before* the push ahead of it (a run
    /// handed over by another domain). Until one is, the entries are in
    /// `(sent, uid)` order.
    tied: bool,
}

impl<E> Default for Batch<E> {
    fn default() -> Self {
        Batch {
            entries: Vec::new(),
            min_at: SimTime::MAX,
            last_sent: SimTime::ZERO,
            tied: false,
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
    ///
    /// Inlined all the way into the handlers' sink, like the calls on the
    /// way here: out of line the delivery is assembled on the caller's
    /// stack and copied into its slot, two writes where one will do.
    #[inline(always)]
    pub fn push(&mut self, d: Delivery<E>) {
        self.min_at = self.min_at.min(d.at);
        let (sent, last) = (d.sent, self.last_sent);
        self.last_sent = sent;
        self.entries.push(Some(d));
        // A domain's clock only moves forward, so its own pushes are out
        // of `(sent, uid)` order only within one nanosecond.
        match sent.cmp(&last) {
            std::cmp::Ordering::Greater => {}
            std::cmp::Ordering::Equal => self.order_last(),
            std::cmp::Ordering::Less => self.tied = true,
        }
    }

    /// Earliest buffered arrival time, if any.
    pub fn min_time(&self) -> Option<SimTime> {
        (!self.entries.is_empty()).then_some(self.min_at)
    }

    /// Back to the state of a new batch, allocation kept.
    fn reset(&mut self) {
        debug_assert!(self.entries.is_empty());
        self.min_at = SimTime::MAX;
        self.last_sent = SimTime::ZERO;
        self.tied = false;
    }

    /// Steps the last push back over the larger uids of its nanosecond.
    fn order_last(&mut self) {
        let v = &mut self.entries[..];
        let mut i = v.len() - 1;
        while i > 0 && rank(&v[i - 1]) > rank(&v[i]) {
            v.swap(i - 1, i);
            i -= 1;
        }
    }

    /// Puts the entries in `(sent, uid)` order, which a stable sort on the
    /// arrival time then turns into the canonical one.
    ///
    /// Batches absorbed from other domains are whole runs out of place:
    /// an insertion sort while the swaps do not outnumber the entries,
    /// then the general sort.
    fn settle_ties(&mut self) {
        let v = &mut self.entries[..];
        let mut budget = v.len();
        'sorted: for i in 1..v.len() {
            let mut j = i;
            while j > 0 && rank(&v[j - 1]) > rank(&v[j]) {
                if budget == 0 {
                    v.sort_unstable_by_key(rank);
                    break 'sorted;
                }
                budget -= 1;
                v.swap(j - 1, j);
                j -= 1;
            }
        }
        self.tied = false;
    }

    /// Lists in `order` the indices of the entries in canonical order, if
    /// the batch is worth counting over: all entries land in `(start,
    /// start + counts.len()]` and there are enough of them to pay for
    /// clearing and summing the counters. Says whether it did.
    ///
    /// A stable counting sort on the arrival times (the timing wheel's
    /// `fill_run` idiom) over entries in `(sent, uid)` order — but of their
    /// indices: the entries stay where they were pushed.
    fn count_into(&mut self, start: u64, counts: &mut [u32], order: &mut Vec<u32>) -> bool {
        let n = self.entries.len();
        if n < COUNT_FROM.max(counts.len() / 16)
            || counts.is_empty()
            || self.min_at.as_nanos() <= start
        {
            return false;
        }
        if self.tied {
            self.settle_ties();
        }
        assert!(
            u32::try_from(n).is_ok(),
            "one slot holds over 2^32 deliveries"
        );
        let bucket = |e: &Entry<E>| {
            let at = e.as_ref().expect("a pending entry").at;
            (at.as_nanos() - start - 1) as usize
        };
        counts.fill(0);
        for e in &self.entries {
            counts[bucket(e)] += 1;
        }
        let mut next = 0;
        for c in counts.iter_mut() {
            next += std::mem::replace(c, next);
        }
        order.clear();
        order.resize(n, 0);
        for (i, e) in self.entries.iter().enumerate() {
            let c = &mut counts[bucket(e)];
            order[*c as usize] = i as u32;
            *c += 1;
        }
        true
    }

    /// Moves the entries landing at or before `limit` to the back of
    /// `run`; the rest keep theirs, and their order.
    fn take_due(&mut self, limit: SimTime, run: &mut Vec<Entry<E>>) {
        let due = |e: &mut Entry<E>| e.as_ref().is_some_and(|d| d.at <= limit);
        run.extend(self.entries.extract_if(.., due));
        let at = |e: &Entry<E>| e.as_ref().map(|d| d.at);
        match self.entries.iter().filter_map(at).min() {
            Some(min) => self.min_at = min,
            None => self.reset(),
        }
    }
}

/// Slot size from which a due slot is counting-sorted however small the
/// quantum (the wheel's `SORT_FROM`); a slot also has to hold a sixteenth
/// of the quantum, or clearing and summing the counters costs more than
/// comparing the entries does.
const COUNT_FROM: usize = 8;
/// Largest quantum a slot is counting-sorted over (16 KiB of counters).
const MAX_COUNTERS: u64 = 4096;

/// In debug and `audit` builds, panics unless `run`, read in `order`, is
/// strictly ascending in `(at, sent, uid)`: keys must be unique or the
/// merge order would be ambiguous.
#[inline]
fn assert_canonical<E>(_run: &[Entry<E>], _order: &[u32]) {
    #[cfg(any(debug_assertions, feature = "audit"))]
    for w in _order.windows(2) {
        let (a, b) = (key(&_run[w[0] as usize]), key(&_run[w[1] as usize]));
        assert!(
            a < b,
            "inbox key collision at t={:?} uid={}: cross-domain merge order \
             would be ambiguous",
            b.0,
            b.2
        );
    }
}

/// One domain's buffer of deliveries that are not due yet, bucketed by
/// lookahead-grid slot.
///
/// Slot `s` covers `((s-1)·quantum, s·quantum]`, and `ring[i]` holds the
/// `i`-th slot from the front one. Barrier windows end on grid points, so
/// a take normally lifts one whole slot off the front; a window that ends
/// off the grid (horizon, telemetry sample) splits the front slot. Emptied
/// batches go to the back of the ring, so once the ring spans the longest
/// latency in the model nothing allocates. The ring grows to reach the
/// furthest pending slot, which suits deliveries a bounded number of
/// quanta ahead (wire latencies), not arbitrary timers.
///
/// [`CalendarInbox::take_until`] yields the deliveries that came due and
/// their `(at, sent, uid)` order. As long as `uid` is unique and derived
/// from content (not from partition layout), that order is the same for
/// any domain count.
#[derive(Debug)]
struct CalendarInbox<E> {
    grid: LookaheadGrid,
    /// Last instant of the slot `ring[0]` holds. Every slot before it has
    /// been taken; a delivery that lands in one anyway joins `ring[0]` and
    /// leaves with the next take.
    front_end: u64,
    ring: VecDeque<Batch<E>>,
    len: usize,
    /// One counting-sort counter per nanosecond of a slot; empty when the
    /// quantum is over [`MAX_COUNTERS`].
    counts: Vec<u32>,
}

impl<E> CalendarInbox<E> {
    /// An empty inbox on `grid`.
    fn new(grid: LookaheadGrid) -> Self {
        let counters = if grid.quantum_ns <= MAX_COUNTERS {
            grid.quantum_ns as usize
        } else {
            0
        };
        CalendarInbox {
            grid,
            front_end: 0,
            ring: VecDeque::new(),
            len: 0,
            counts: vec![0; counters],
        }
    }

    /// Number of buffered deliveries.
    fn len(&self) -> usize {
        self.len
    }

    /// Ring index of the slot `at` falls in; what is late joins the front.
    #[inline]
    fn index_of(&self, at: SimTime) -> usize {
        let past_front = at.as_nanos().saturating_sub(self.front_end);
        self.grid.quanta_covering(past_front) as usize
    }

    /// Buffers a delivery.
    #[inline(always)]
    fn push(&mut self, d: Delivery<E>) {
        let i = self.index_of(d.at);
        if i >= self.ring.len() {
            self.grow_to(i);
        }
        self.ring[i].push(d);
        self.len += 1;
    }

    /// Lengthens the ring to reach slot `i`.
    #[cold]
    fn grow_to(&mut self, i: usize) {
        self.ring.resize_with(i + 1, Batch::default);
    }

    /// Moves every delivery of `from` in, leaving it empty.
    fn absorb(&mut self, from: &mut Batch<E>) {
        for d in from.entries.drain(..).flatten() {
            self.push(d);
        }
        from.reset();
    }

    /// Earliest buffered arrival time, if any.
    fn min_time(&self) -> Option<SimTime> {
        // Slots are disjoint ascending ranges, so the first occupied one
        // holds the minimum.
        self.ring.iter().find_map(Batch::min_time)
    }

    /// Moves every delivery with `at <= limit` into `run`, which comes in
    /// empty, and lists in `order` the indices of `run` in `(at, sent,
    /// uid)` order.
    ///
    /// The round this is built for takes one slot, whole: the slot's
    /// buffer *becomes* the run (the run's goes back into the ring), and
    /// only the indices are sorted, by counting. Anything else — several
    /// occupied slots due at once, a slot an off-grid `limit` splits, a
    /// late or a sparse one — is gathered into `run` and compared.
    fn take_until(&mut self, limit: SimTime, run: &mut Vec<Entry<E>>, order: &mut Vec<u32>) {
        debug_assert!(run.is_empty());
        let (q, limit_ns) = (self.grid.quantum_ns, limit.as_nanos());
        let mut counted = false;
        // Slots that lie wholly at or before `limit`.
        while self.front_end <= limit_ns {
            if self.len == 0 {
                // Nothing to walk past but empties.
                self.front_end = (limit_ns / q).saturating_add(1).saturating_mul(q);
                break;
            }
            let mut slot = self.ring.pop_front().expect("len > 0 implies a slot");
            self.len -= slot.len();
            let start = self.front_end.saturating_sub(q);
            if run.is_empty() && slot.count_into(start, &mut self.counts, order) {
                std::mem::swap(run, &mut slot.entries);
                counted = true;
            } else if !slot.is_empty() {
                counted = false;
                run.append(&mut slot.entries);
            }
            slot.reset();
            self.ring.push_back(slot);
            self.front_end = self.front_end.saturating_add(q);
        }
        // The slot an off-grid `limit` cuts through (and late arrivals).
        if let Some(front) = self.ring.front_mut() {
            if front.min_at <= limit {
                counted = false;
                let before = front.len();
                front.take_due(limit, run);
                self.len -= before - front.len();
            }
        }
        if !counted {
            run.sort_unstable_by_key(key);
            order.clear();
            order.extend(0..run.len() as u32);
        }
        assert_canonical(run, order);
    }
}

/// What one domain pops a window's events from.
///
/// A domain keeps three kinds of pending event apart, because their order
/// at one instant is fixed by *when* they were scheduled and by nothing a
/// partition could move:
///
/// 1. what its [`EventQueue`] holds — everything scheduled for a later
///    window than the one that was open at the time, popped first-in
///    first-out among ties;
/// 2. wire deliveries ([`WindowQueue::deliver`]), which wait in a calendar
///    inbox until the window they land in opens and then form one run in
///    canonical `(at, sent, uid)` order;
/// 3. what a handler schedules into the window that is open
///    ([`WindowQueue::push`] with `at <= limit`), kept in push order among
///    ties.
///
/// [`WindowQueue::pop`] merges the three by time and takes them in that
/// order on a tie. That is the order one queue would pop them in had the
/// run been pushed into it when the window opened — after everything
/// scheduled in earlier windows, before everything scheduled in this one —
/// but a delivery is stored once, in its inbox slot, and the queue never
/// sorts it. The queue itself stays with the caller, who hands it to each
/// call: between windows it may be pushed to directly.
pub struct WindowQueue<E> {
    inbox: CalendarInbox<E>,
    /// The deliveries of the open window where the inbox held them, and
    /// their indices in pop order; pending from `order[cur]` on.
    arrivals: Vec<Entry<E>>,
    order: Vec<u32>,
    cur: usize,
    /// When `arrivals[order[cur]]` lands (`u64::MAX`: none pending).
    next_arrival: u64,
    /// What was scheduled into the open window since it opened, latest
    /// first and a tie ahead of its elders: the next to pop is the last.
    /// A handful of entries (an ACK's serialization, a timer at `now`), so
    /// a sorted vector popped from the back beats anything cleverer.
    late: Vec<(SimTime, E)>,
    /// Time of the last popped event.
    now: SimTime,
    /// Last instant of the open window.
    limit: SimTime,
    /// Timestamp of the queue's earliest event (`u64::MAX`: none), while
    /// known. Pushes into a later window cannot move it to this side of
    /// `limit`, so only a pop from the queue forgets it.
    queue_head: Option<u64>,
    /// Deliveries taken out of the inbox plus pushes into an open window:
    /// what the queue would have counted had they gone through it.
    merged: u64,
}

impl<E> WindowQueue<E> {
    /// An empty window queue whose inbox is bucketed on `grid`.
    pub fn new(grid: LookaheadGrid) -> Self {
        WindowQueue {
            inbox: CalendarInbox::new(grid),
            arrivals: Vec::new(),
            order: Vec::new(),
            cur: 0,
            next_arrival: u64::MAX,
            late: Vec::new(),
            now: SimTime::ZERO,
            limit: SimTime::ZERO,
            queue_head: None,
            merged: 0,
        }
    }

    /// The current clock: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pending events outside the caller's queue: buffered deliveries plus
    /// what is left of the open window.
    pub fn len(&self) -> usize {
        self.inbox.len() + (self.order.len() - self.cur) + self.late.len()
    }

    /// True if nothing is pending outside the caller's queue.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Earliest time any of them is due.
    pub fn min_time(&self) -> Option<SimTime> {
        let arrival = (self.cur < self.order.len()).then_some(self.next_arrival);
        let late = self.late.last().map(|e| e.0);
        [
            arrival.map(SimTime::from_nanos),
            late,
            self.inbox.min_time(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Events that went through this queue rather than the caller's:
    /// deliveries whose window opened, and pushes into an open window.
    /// With the caller's queue's own total, every event ever scheduled.
    pub fn merged_total(&self) -> u64 {
        self.merged
    }

    /// Buffers a wire delivery until the window it lands in opens. The
    /// lookahead contract puts that after the open window.
    #[inline(always)]
    pub fn deliver(&mut self, d: Delivery<E>) {
        self.inbox.push(d);
    }

    /// Takes delivery of everything in `from`, leaving it empty.
    pub fn absorb(&mut self, from: &mut Batch<E>) {
        self.inbox.absorb(from);
    }

    /// Schedules `ev` at `at` from a handler running inside the open
    /// window: into that window if it is due by its end, else into `queue`.
    ///
    /// `at` must not be earlier than [`WindowQueue::now`]; as with
    /// [`EventQueue::push`] that is a panic in debug and `audit` builds
    /// and clamped in release.
    #[inline(always)]
    pub fn push(&mut self, queue: &mut EventQueue<E>, at: SimTime, ev: E) {
        if at > self.limit {
            return queue.push(at, ev);
        }
        #[cfg(any(debug_assertions, feature = "audit"))]
        assert!(
            at >= self.now,
            "scheduled an event in the past: {at:?} < {:?}",
            self.now
        );
        self.merged += 1;
        let at = at.max(self.now);
        let behind = self.late.iter().take_while(|e| e.0 > at).count();
        self.late.insert(behind, (at, ev));
    }

    /// Opens the window that ends at `limit`: the deliveries landing in
    /// it leave the inbox as one run, and pops stop at `limit`. The window
    /// before it must have been popped dry.
    pub fn open(&mut self, limit: SimTime) {
        debug_assert!(
            self.cur == self.order.len() && self.late.is_empty(),
            "opened a window with events of the last one pending"
        );
        self.arrivals.clear();
        self.cur = 0;
        self.inbox
            .take_until(limit, &mut self.arrivals, &mut self.order);
        self.merged += self.order.len() as u64;
        self.next_arrival = self.arrival_at(0);
        self.limit = limit;
        self.queue_head = None;
    }

    /// When the `cur`-th delivery of the open window lands.
    #[inline]
    fn arrival_at(&self, cur: usize) -> u64 {
        let entry = self.order.get(cur).map(|&i| &self.arrivals[i as usize]);
        match entry {
            Some(Some(d)) => d.at.as_nanos(),
            _ => u64::MAX,
        }
    }

    /// Removes and returns the earliest event due by the end of the open
    /// window, from `queue` or from the window's own runs; on a tie the
    /// queue's, then a delivery, then a push into the open window.
    ///
    /// Small and inlined into the scheduler's loop so that, as with
    /// [`EventQueue::pop_until`], the event goes from its entry to the
    /// handler in registers.
    #[inline]
    pub fn pop(&mut self, queue: &mut EventQueue<E>) -> Option<(SimTime, E)> {
        let arrival = self.next_arrival;
        let late = self.late.last().map_or(u64::MAX, |e| e.0.as_nanos());
        let merged = arrival.min(late);
        let head = match self.queue_head {
            Some(head) => head,
            None => self.peek(queue),
        };
        if head <= merged {
            if let Some((at, ev)) = queue.pop_until(self.limit) {
                self.queue_head = None;
                self.now = at;
                return Some((at, ev));
            }
        }
        let (at, ev) = if arrival <= late {
            let i = *self.order.get(self.cur)? as usize;
            let d = self.arrivals[i].take()?;
            self.cur += 1;
            self.next_arrival = self.arrival_at(self.cur);
            (d.at, d.ev)
        } else {
            self.late.pop()?
        };
        self.now = at;
        Some((at, ev))
    }

    /// Looks up and remembers the queue's earliest timestamp.
    fn peek(&mut self, queue: &EventQueue<E>) -> u64 {
        let head = queue.peek_time().map_or(u64::MAX, SimTime::as_nanos);
        self.queue_head = Some(head);
        head
    }
}

/// The `BTreeMap` mailbox the calendar replaced, kept as the reference
/// the differential tests below compare against: one global ordered map,
/// drained from the front.
#[cfg(test)]
struct BTreeMailbox<E> {
    entries: std::collections::BTreeMap<(SimTime, SimTime, u64), E>,
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
        let prev = self.entries.insert((d.at, d.sent, d.uid), d.ev);
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
            let ev = e.remove();
            sink(Delivery { at, sent, uid, ev });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventBackend;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn d<E>(at: u64, sent: u64, uid: u64, ev: E) -> Delivery<E> {
        Delivery {
            at: t(at),
            sent: t(sent),
            uid,
            ev,
        }
    }

    #[test]
    fn grid_ceil_is_strictly_after() {
        let g = LookaheadGrid::new(500);
        assert_eq!(g.ceil_after(SimTime::ZERO), t(500));
        assert_eq!(g.ceil_after(t(499)), t(500));
        // Exactly on a grid point -> next point, never the same one.
        assert_eq!(g.ceil_after(t(500)), t(1000));
        assert_eq!(g.ceil_after(t(501)), t(1000));
    }

    #[test]
    fn slots_end_on_grid_points() {
        let mut m = CalendarInbox::<u8>::new(LookaheadGrid::new(500));
        let slots = |m: &CalendarInbox<u8>, ts: &[u64]| -> Vec<usize> {
            ts.iter().map(|&at| m.index_of(t(at))).collect()
        };
        assert_eq!(slots(&m, &[0, 1, 500, 501, 1000]), [0, 1, 1, 2, 2]);
        assert_eq!(
            slots(&m, &[4000, 4001, 4500, 4501, 10_000]),
            [8, 9, 9, 10, 20]
        );
        assert_eq!(m.index_of(SimTime::MAX), (u64::MAX / 500 + 1) as usize);
        // Slots count from the front one; what is late joins it.
        taken(&mut m, 1000);
        assert_eq!(slots(&m, &[700, 1001, 1500, 1501, 6000]), [0, 0, 0, 1, 9]);
    }

    #[test]
    fn quanta_are_counted_like_a_division() {
        // Both sides of every edge near zero, near the reciprocal's range
        // and past it, for quanta with and without a reciprocal.
        let quanta = [
            1,
            2,
            3,
            7,
            500,
            512,
            4096,
            999_983,
            u32::MAX as u64,
            1 << 32,
            1 << 40,
        ];
        for q in quanta {
            let g = LookaheadGrid::new(q);
            let near = |c: u64| (c.saturating_sub(2)..=c.saturating_add(2)).collect::<Vec<_>>();
            let mut spans = near(0);
            for k in [1, 2, 3, 1000, 4_294_967] {
                spans.extend(near(q.saturating_mul(k)));
            }
            for c in [
                1 << 31,
                (1 << 32) - q.min(1 << 32),
                1 << 32,
                1 << 33,
                u64::MAX,
            ] {
                spans.extend(near(c));
            }
            for ns in spans {
                assert_eq!(g.quanta_covering(ns), ns.div_ceil(q), "{ns} over {q}");
            }
        }
    }

    proptest! {
        #[test]
        fn any_span_is_counted_like_a_division(q in 1u64..(1 << 33), ns: u64, small in 0u64..(1 << 33)) {
            let g = LookaheadGrid::new(q);
            prop_assert_eq!(g.quanta_covering(ns), ns.div_ceil(q));
            prop_assert_eq!(g.quanta_covering(small), small.div_ceil(q));
        }
    }

    #[test]
    #[should_panic(expected = "lookahead quantum must be positive")]
    fn zero_quantum_rejected() {
        let _ = LookaheadGrid::new(0);
    }

    /// What came due by `limit`, in the order the inbox hands it over.
    fn taken<E>(m: &mut CalendarInbox<E>, limit: u64) -> Vec<Delivery<E>> {
        let (mut run, mut order) = (Vec::new(), Vec::new());
        m.take_until(t(limit), &mut run, &mut order);
        assert_eq!(run.len(), order.len());
        let next = |&i: &u32| run[i as usize].take().expect("each index once");
        order.iter().map(next).collect()
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
        assert_eq!(events(taken(&mut m, 200)), vec!["a", "b", "c"]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.min_time(), Some(t(300)));
        assert_eq!(events(taken(&mut m, 300)), vec!["d"]);
        assert_eq!(m.len(), 0);
        assert_eq!(m.min_time(), None);
    }

    #[test]
    fn off_grid_limit_splits_the_front_slot() {
        let mut m = CalendarInbox::new(LookaheadGrid::new(500));
        for (uid, at) in [(1, 990), (2, 510), (3, 750), (4, 1000), (5, 1001)] {
            m.push(d(at, 0, uid, uid));
        }
        assert_eq!(events(taken(&mut m, 750)), vec![2, 3]);
        assert_eq!(m.min_time(), Some(t(990)));
        // A late arrival (at or before the last limit) still comes out,
        // with the slot it joined.
        m.push(d(750, 700, 6, 6));
        assert_eq!(events(taken(&mut m, 995)), vec![6, 1]);
        assert_eq!(events(taken(&mut m, 1000)), vec![4]);
        assert_eq!(events(taken(&mut m, 1500)), vec![5]);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn a_slot_is_counted_or_compared_into_the_same_order() {
        // 60 deliveries over the slot (500, 1000], three to an instant and
        // sent in the same nanosecond pairwise, pushed in an order that is
        // neither by arrival nor by uid; a late one on top.
        let entries = |late: bool| {
            let body = (0..60u64).map(|i| d(501 + i / 3 * 24, i / 2, (i * 37) % 60, i));
            body.chain(late.then(|| d(400, 0, 99, 99)))
        };
        for (quantum, late, counted) in
            [(500, false, true), (500, true, false), (5000, false, false)]
        {
            let mut m = CalendarInbox::new(LookaheadGrid::new(quantum));
            taken(&mut m, 500);
            entries(late).for_each(|e| m.push(e));
            assert_eq!(m.counts.iter().sum::<u32>(), 0);
            let flat = |e: Delivery<u64>| (e.at, e.sent, e.uid);
            let got: Vec<_> = taken(&mut m, 5000).into_iter().map(flat).collect();
            let mut want: Vec<_> = entries(late).map(flat).collect();
            want.sort_unstable();
            assert_eq!(got, want, "quantum {quantum}, late {late}");
            assert_eq!(m.counts.iter().any(|&c| c > 0), counted);
        }
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
            assert_eq!(batch.min_time(), None);
        }
        let got = events(taken(&mut m, 1000));
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
            taken(m, now + 10);
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
        taken(&mut m, 10);
    }

    #[cfg(any(debug_assertions, feature = "audit"))]
    #[test]
    #[should_panic(expected = "inbox key collision")]
    fn duplicate_key_is_a_bug_in_a_counted_slot() {
        let mut m = CalendarInbox::new(LookaheadGrid::new(10));
        for uid in (0..20).chain([7]) {
            m.push(d(1 + uid % 10, 0, uid, uid));
        }
        taken(&mut m, 10);
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
        /// Any schedule of pushes and takes yields the same sequence, `len`
        /// and `min_time` from the calendar as from the ordered map it
        /// replaced: small quanta fill slots past the counting threshold,
        /// the largest is never counted.
        #[test]
        fn calendar_matches_btree_mailbox(
            quantum in prop_oneof![Just(1u64), Just(7), Just(64), Just(500), Just(512), Just(5000)],
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
                        cal.push(d(at, sent, uid, i));
                        oracle.push(d(at, sent, uid, i));
                    }
                    Op::Drain { .. } | Op::Redrain => {
                        if let Op::Drain { by } = *op {
                            clock += by;
                        }
                        let flat = |e: Delivery<usize>| (e.at, e.sent, e.uid, e.ev);
                        let got: Vec<_> = taken(&mut cal, clock).into_iter().map(flat).collect();
                        let mut want = Vec::new();
                        oracle.drain_until(t(clock), |e| want.push(flat(e)));
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(cal.len(), oracle.len());
                prop_assert_eq!(cal.min_time(), oracle.min_time());
            }
        }
    }

    #[test]
    fn ties_pop_queue_first_then_deliveries_then_pushes_into_the_window() {
        for backend in [EventBackend::Wheel, EventBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            let mut w = WindowQueue::new(LookaheadGrid::new(100));
            // Scheduled before the window opens: the queue's.
            q.push(t(150), "queued");
            q.push(t(150), "queued later");
            w.deliver(d(150, 40, 2, "delivery b"));
            w.deliver(d(150, 40, 1, "delivery a"));
            w.deliver(d(201, 60, 3, "next window"));
            w.open(t(200));
            assert_eq!((w.len(), w.min_time()), (3, Some(t(150))));
            assert_eq!(w.pop(&mut q), Some((t(150), "queued")));
            assert_eq!(w.now(), t(150));
            // From a handler at 150: now, later in the window, past its end.
            w.push(&mut q, t(150), "pushed");
            w.push(&mut q, t(200), "pushed at the limit");
            w.push(&mut q, t(150), "pushed again");
            w.push(&mut q, t(201), "pushed past the limit");
            assert_eq!((w.len(), q.len()), (6, 2));
            let order: Vec<_> = std::iter::from_fn(|| w.pop(&mut q)).collect();
            assert_eq!(
                order,
                [
                    (t(150), "queued later"),
                    (t(150), "delivery a"),
                    (t(150), "delivery b"),
                    (t(150), "pushed"),
                    (t(150), "pushed again"),
                    (t(200), "pushed at the limit"),
                ]
            );
            assert_eq!((w.len(), q.len(), w.now()), (1, 1, t(200)));
            // What went past the limit is the queue's in the next window,
            // so ahead of the delivery at its instant.
            w.open(t(300));
            assert_eq!(w.pop(&mut q), Some((t(201), "pushed past the limit")));
            assert_eq!(w.pop(&mut q), Some((t(201), "next window")));
            assert_eq!(w.pop(&mut q), None);
            assert!(w.is_empty());
            // Two queued, three taken out of the inbox, three into a window.
            assert_eq!((q.scheduled_total(), w.merged_total()), (3, 6));
        }
    }

    /// One step of a window-queue schedule. Distances are drawn raw and
    /// cut to a span that depends on the quantum when the step runs.
    #[derive(Debug, Clone)]
    enum Step {
        /// A wire delivery `ahead` past the open window's end (between
        /// windows: past the clock, so possibly late), sent `ago` ago;
        /// `foreign` ones wait in a batch that is absorbed at the next open.
        Deliver {
            ahead: Span,
            ago: u64,
            foreign: bool,
        },
        /// A handler's push at `clock + ahead`, or at the open window's
        /// `limit + ahead` (0: its last instant, 1: the first past it).
        Push { ahead: Span, from_limit: bool },
        /// Pops one event.
        Pop,
        /// Pops the open window dry, then opens the next, `by` longer.
        Open { by: Span },
    }

    /// A distance in time: a few nanoseconds (ties, and reopening at the
    /// same limit), up to a slot and a bit (the same slot or the next, off
    /// the grid), exactly a quantum (grid-aligned from zero until an odd
    /// step), several slots, or (not drawn) as many nanoseconds as it says.
    #[derive(Debug, Clone, Copy)]
    struct Span(u8, u64);

    impl Span {
        fn ns(self, quantum: u64) -> u64 {
            match self.0 {
                0 => self.1 % 3,
                1 => self.1 % (quantum + 2),
                2 => quantum,
                3 => self.1 % (5 * quantum),
                _ => self.1,
            }
        }
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        let span = || (0u8..4, any::<u64>()).prop_map(|(kind, raw)| Span(kind, raw));
        (0u8..10, span(), 0u64..3, any::<bool>()).prop_map(|(kind, span, ago, flag)| match kind {
            0..=2 => Step::Deliver {
                ahead: span,
                ago,
                foreign: flag,
            },
            3..=4 => Step::Push {
                ahead: span,
                from_limit: flag,
            },
            5..=7 => Step::Pop,
            _ => Step::Open { by: span },
        })
    }

    /// The window queue under test beside the step it replaced: a mailbox
    /// drained into the event queue when a window opens, and every other
    /// event pushed straight in.
    struct Lockstep {
        quantum: u64,
        queue: EventQueue<usize>,
        window: WindowQueue<usize>,
        handed_over: Batch<usize>,
        oracle_queue: EventQueue<usize>,
        oracle_mailbox: BTreeMailbox<usize>,
        clock: u64,
        limit: u64,
        open: bool,
    }

    impl Lockstep {
        fn new(quantum: u64, backend: EventBackend) -> Self {
            Lockstep {
                quantum,
                queue: EventQueue::with_backend(backend),
                window: WindowQueue::new(LookaheadGrid::new(quantum)),
                handed_over: Batch::default(),
                oracle_queue: EventQueue::with_backend(backend),
                oracle_mailbox: BTreeMailbox::new(),
                clock: 0,
                limit: 0,
                open: false,
            }
        }

        /// Pops one event from both; says whether there was one.
        fn pop(&mut self) -> bool {
            let got = self.window.pop(&mut self.queue);
            assert_eq!(got, self.oracle_queue.pop_until(t(self.limit)));
            match got {
                Some((at, _)) => self.clock = at.as_nanos(),
                None => self.open = false,
            }
            got.is_some()
        }

        fn step(&mut self, id: usize, step: &Step) {
            let q = self.quantum;
            match *step {
                Step::Deliver {
                    ahead,
                    ago,
                    foreign,
                } => {
                    // The lookahead contract holds inside a window only.
                    let floor = if self.open {
                        self.limit + 1
                    } else {
                        self.clock
                    };
                    let uid = (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mk = || d(floor + ahead.ns(q), self.clock.saturating_sub(ago), uid, id);
                    self.oracle_mailbox.push(mk());
                    if foreign {
                        self.handed_over.push(mk());
                    } else {
                        self.window.deliver(mk());
                    }
                }
                Step::Push { ahead, from_limit } => {
                    let base = if from_limit { self.limit } else { self.clock };
                    let at = t(base + ahead.ns(q));
                    self.oracle_queue.push(at, id);
                    if self.open {
                        self.window.push(&mut self.queue, at, id);
                    } else {
                        // Between windows the driver owns the queue.
                        self.queue.push(at, id);
                    }
                }
                Step::Pop => {
                    if self.open {
                        self.pop();
                    }
                }
                Step::Open { by } => {
                    while self.open && self.pop() {}
                    self.limit += by.ns(q);
                    self.window.absorb(&mut self.handed_over);
                    self.window.open(t(self.limit));
                    let Lockstep {
                        oracle_queue,
                        oracle_mailbox,
                        ..
                    } = self;
                    oracle_mailbox.drain_until(t(self.limit), |e| oracle_queue.push(e.at, e.ev));
                    self.open = true;
                }
            }
            let pending = self.window.len() + self.handed_over.len() + self.queue.len();
            assert_eq!(pending, self.oracle_mailbox.len() + self.oracle_queue.len());
            let earliest = [
                self.window.min_time(),
                self.handed_over.min_time(),
                self.queue.peek_time(),
            ];
            let want = [
                self.oracle_mailbox.min_time(),
                self.oracle_queue.peek_time(),
            ];
            assert_eq!(
                earliest.into_iter().flatten().min(),
                want.into_iter().flatten().min()
            );
            assert_eq!(
                self.queue.scheduled_total() + self.window.merged_total(),
                self.oracle_queue.scheduled_total()
            );
        }
    }

    proptest! {
        /// Merging at pop time is unobservable: over any schedule, on both
        /// backends, the window queue pops the `(time, event)` sequence the
        /// inject-at-the-barrier step did, and agrees with it on what is
        /// pending, what is due first and how much was ever scheduled after
        /// every step.
        #[test]
        fn window_queue_matches_injecting_at_the_barrier(
            quantum in prop_oneof![Just(1u64), Just(4), Just(7), Just(500)],
            backend in prop_oneof![Just(EventBackend::Wheel), Just(EventBackend::Heap)],
            steps in proptest::collection::vec(step_strategy(), 1..300),
        ) {
            let mut pair = Lockstep::new(quantum, backend);
            for (id, step) in steps.iter().enumerate() {
                pair.step(id, step);
            }
            // Everything still pending comes out the same way, too.
            pair.step(steps.len(), &Step::Open { by: Span(4, 1 << 40) });
            while pair.pop() {}
            prop_assert_eq!(pair.window.len() + pair.queue.len(), 0);
        }
    }
}
