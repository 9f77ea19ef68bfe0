//! The RX-path ordering component (paper §3.3, Fig. 4).
//!
//! Deflection makes packets take detours, so they arrive out of order. The
//! ordering component is the first software entity on the receive path: it
//! recovers each packet's original RFS (undoing retransmission boosting
//! with `retcnt` left-rotations), detects out-of-order arrivals, buffers
//! them, and waits up to a timeout **τ** for the in-transit stragglers
//! before releasing — so the transport above sees (mostly) in-order
//! delivery and its fast-retransmit machinery is not spuriously triggered.
//!
//! State machine per flow (paper Fig. 4):
//!
//! * **Waiting for a new flow** — until the packet flagged `first` arrives.
//! * **In-order receive** — arrivals match the expected RFS and are flushed
//!   straight up; the expectation advances past each one.
//! * **Out-of-order receive** — a gap exists; early packets are buffered
//!   with their arrival timestamps and a timer (τ past the oldest buffered
//!   arrival) is armed. Gap-filling arrivals advance the window; a timeout
//!   releases everything up to the next gap (triggering the transport's own
//!   loss handling — this is how Vertigo keeps fast retransmit *working*,
//!   unlike DIBS which must disable it).
//!
//! Late packets (already released past) are delivered immediately at the
//! head of the ready queue; duplicates of buffered packets are dropped.
//!
//! The component is generic over the buffered item `T` so it can carry the
//! simulator's packets, a real stack's mbuf pointers, or test tokens.
//!
//! No per-packet operation walks a tree. The flows are a [`FlowTable`]
//! (sorted parallel vectors, one binary search per packet); a flow's early
//! packets are a ring ascending by recovered RFS, where arrivals and
//! releases happen at the ends — the next early packet of a flow sorts
//! in front of everything buffered under SRPT (behind it under LAS) and
//! the next release leaves from the other end — so both ends are compared
//! before any search; and the armed deadlines are one sorted vector whose
//! first entry is the host's next wake-up.

use std::collections::VecDeque;
use vertigo_pkt::{FlowId, FlowInfo, FlowTable};
use vertigo_simcore::{release_if_drained, SimDuration, SimTime};

use crate::boost::unboost;
use crate::marking::MarkingDiscipline;

/// Configuration for the ordering component.
#[derive(Debug, Clone)]
pub struct OrderingConfig {
    /// τ — how long to wait for a delayed packet before releasing the
    /// packets behind it (paper default 360 µs).
    pub timeout: SimDuration,
    /// Per-retransmission rotation (bits) used by the peer's marking
    /// component; needed to recover original RFS values.
    pub boost_shift: u32,
    /// The peer's marking discipline, which fixes how the RFS field
    /// orders a flow's packets: under SRPT it counts *down* by the payload
    /// size per packet, and the flow is complete when a packet's RFS
    /// equals its payload; under LAS (§4.3) it is a packet counter
    /// counting *up* by one, and flow completion is signalled out of band
    /// (`purge_flow`).
    pub discipline: MarkingDiscipline,
    /// Upper bound on buffered packets per flow; exceeding it forces an
    /// immediate release (bounds memory under pathological reordering).
    pub max_buffered_per_flow: usize,
}

impl Default for OrderingConfig {
    fn default() -> Self {
        OrderingConfig {
            timeout: SimDuration::from_micros(360),
            boost_shift: 1,
            discipline: MarkingDiscipline::Srpt,
            max_buffered_per_flow: 1024,
        }
    }
}

/// Why a packet was handed up to the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverReason {
    /// Arrived exactly in order.
    InOrder,
    /// Was buffered and a later arrival filled the gap before it.
    GapFilled,
    /// Released by the τ timeout (the gap in front of it was abandoned).
    TimeoutRelease,
    /// Arrived behind the release window (late retransmission or
    /// duplicate of delivered data); passed straight up.
    LateOrDuplicate,
    /// Flushed because the flow was purged or its buffer overflowed.
    Flush,
}

/// A packet handed up to the transport.
#[derive(Debug)]
pub struct Delivered<T> {
    /// The buffered item (e.g. the packet).
    pub item: T,
    /// Why it was released now.
    pub reason: DeliverReason,
}

/// Counters for experiments and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct OrderingStats {
    /// Packets that arrived exactly in order.
    pub in_order: u64,
    /// Packets buffered on arrival (out of order).
    pub buffered: u64,
    /// Packets released because a gap was filled.
    pub gap_filled: u64,
    /// Packets released by timeout.
    pub timeout_released: u64,
    /// Timeout events fired.
    pub timeouts: u64,
    /// Late/duplicate packets passed straight through.
    pub late_or_dup: u64,
    /// Duplicates of *buffered* packets dropped.
    pub dup_dropped: u64,
    /// High-water mark of any flow's OOO buffer.
    pub max_depth: usize,
}

/// Sums two hosts' counters; the high-water mark is the larger one.
impl std::ops::AddAssign for OrderingStats {
    fn add_assign(&mut self, s: OrderingStats) {
        self.in_order += s.in_order;
        self.buffered += s.buffered;
        self.gap_filled += s.gap_filled;
        self.timeout_released += s.timeout_released;
        self.timeouts += s.timeouts;
        self.late_or_dup += s.late_or_dup;
        self.dup_dropped += s.dup_dropped;
        self.max_depth = self.max_depth.max(s.max_depth);
    }
}

#[derive(Debug)]
struct OooEntry<T> {
    /// Original (un-boosted) RFS: the buffer's sort key.
    rfs: u64,
    item: T,
    payload: u32,
    arrived: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Waiting for the packet flagged as the flow's first.
    AwaitFirst,
    /// Next expected original RFS value.
    At(u64),
}

#[derive(Debug)]
struct FlowRx<T> {
    expect: Expect,
    /// Buffered early packets, ascending by original RFS, no two alike.
    /// Drained by arrivals, it keeps a small buffer for the next gap
    /// ([`release_if_drained`]); drained by a release, none.
    ooo: VecDeque<OooEntry<T>>,
    /// Armed release deadline: τ past the oldest buffered arrival.
    deadline: Option<SimTime>,
}

impl<T> FlowRx<T> {
    fn new() -> Self {
        FlowRx {
            expect: Expect::AwaitFirst,
            ooo: VecDeque::new(),
            deadline: None,
        }
    }

    /// Where `rfs` is (`Ok`), or would go (`Err`), in the buffer: the two
    /// ends, where arrivals and releases happen, before the binary search.
    fn find(&self, rfs: u64) -> Result<usize, usize> {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let (Some(front), Some(back)) = (self.ooo.front(), self.ooo.back()) else {
            return Err(0);
        };
        match (rfs.cmp(&front.rfs), rfs.cmp(&back.rfs)) {
            (Less, _) => Err(0),
            (Equal, _) => Ok(0),
            (_, Greater) => Err(self.ooo.len()),
            (_, Equal) => Ok(self.ooo.len() - 1),
            _ => self.ooo.binary_search_by_key(&rfs, |e| e.rfs),
        }
    }

    /// Re-arms the deadline to τ past the oldest still-buffered arrival, or
    /// disarms it if the buffer emptied. One rearm in 7 to 17 finds a buffer
    /// to scan, 5 to 8 entries long at the median (DESIGN §5j).
    fn rearm(&mut self, armed: &mut Vec<(SimTime, FlowId)>, flow: FlowId, timeout: SimDuration) {
        let oldest = self.ooo.iter().map(|e| e.arrived).min();
        self.set_deadline(armed, flow, oldest.map(|at| at + timeout));
    }

    /// The single place a flow's deadline changes, keeping `armed` in step.
    fn set_deadline(
        &mut self,
        armed: &mut Vec<(SimTime, FlowId)>,
        flow: FlowId,
        deadline: Option<SimTime>,
    ) {
        if self.deadline == deadline {
            return;
        }
        if let Some(old) = self.deadline {
            disarm(armed, old, flow);
        }
        if let Some(new) = deadline {
            let at = armed.partition_point(|&e| e < (new, flow));
            armed.insert(at, (new, flow));
        }
        self.deadline = deadline;
    }
}

/// Takes `(deadline, flow)` out of the armed index.
fn disarm(armed: &mut Vec<(SimTime, FlowId)>, deadline: SimTime, flow: FlowId) {
    let at = armed
        .binary_search(&(deadline, flow))
        .expect("every armed flow is in the index");
    armed.remove(at);
}

/// The receive-side re-sequencing shim. One instance per host.
pub struct OrderingComponent<T> {
    cfg: OrderingConfig,
    flows: FlowTable<FlowRx<T>>,
    /// Every armed `(deadline, flow)`, ascending, so the earliest one is
    /// `first()` rather than a scan over `flows`. Derived from the per-flow
    /// deadlines (every write goes through [`FlowRx::set_deadline`]); not
    /// serialized, rebuilt on restore.
    armed: Vec<(SimTime, FlowId)>,
    stats: OrderingStats,
}

impl<T> OrderingComponent<T> {
    /// Creates an ordering component.
    pub fn new(cfg: OrderingConfig) -> Self {
        OrderingComponent {
            cfg,
            flows: FlowTable::new(),
            armed: Vec::new(),
            stats: OrderingStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> OrderingStats {
        self.stats
    }

    /// Flows with live ordering state.
    pub fn flows_tracked(&self) -> usize {
        self.flows.len()
    }

    /// Total packets currently buffered across flows.
    pub fn buffered_packets(&self) -> usize {
        self.flows.values().map(|f| f.ooo.len()).sum()
    }

    /// The earliest armed release deadline across all flows, if any. The
    /// host arms a simulation timer at this instant and calls
    /// [`OrderingComponent::on_timer`] when it fires.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let next = self.armed.first().map(|&(deadline, _)| deadline);
        // The scan over all flows this index replaces, as its oracle.
        debug_assert_eq!(
            next,
            self.flows.values().filter_map(|f| f.deadline).min(),
            "armed-deadline index out of step with the per-flow deadlines"
        );
        next
    }

    /// Forgets a flow, disarming its deadline first.
    fn drop_flow(&mut self, flow: FlowId) -> Option<FlowRx<T>> {
        let st = self.flows.remove(flow)?;
        if let Some(deadline) = st.deadline {
            disarm(&mut self.armed, deadline, flow);
        }
        Some(st)
    }

    /// The armed τ release deadline for one flow, if any (provenance
    /// tracing reads this to record the deadline a buffered packet waits
    /// on; `None` = disarmed or flow untracked).
    pub fn flow_deadline(&self, flow: FlowId) -> Option<SimTime> {
        self.flows.get(flow).and_then(|f| f.deadline)
    }

    /// Advances the expectation past a delivered packet.
    fn advance(discipline: MarkingDiscipline, rfs: u64, payload: u32) -> Expect {
        match discipline {
            MarkingDiscipline::Srpt => {
                let next = rfs.saturating_sub(payload as u64);
                if next == 0 {
                    // Flow fully delivered.
                    Expect::AwaitFirst
                } else {
                    Expect::At(next)
                }
            }
            MarkingDiscipline::Las => Expect::At(rfs + 1),
        }
    }

    /// Is `rfs` *early* (beyond the expected packet) under this discipline?
    fn is_early(discipline: MarkingDiscipline, rfs: u64, expected: u64) -> bool {
        match discipline {
            MarkingDiscipline::Srpt => rfs < expected,
            MarkingDiscipline::Las => rfs > expected,
        }
    }

    /// Processes one arriving packet, pushing any packets that become
    /// deliverable onto `out` in the exact order the transport should see
    /// them. Returns `true` iff the flow's delivery window is now closed
    /// (SRPT mode: the last byte was released in order).
    pub fn on_packet(
        &mut self,
        now: SimTime,
        flow: FlowId,
        info: FlowInfo,
        payload: u32,
        item: T,
        out: &mut Vec<Delivered<T>>,
    ) -> bool {
        let discipline = self.cfg.discipline;
        let timeout = self.cfg.timeout;
        let rfs = unboost(info.rfs, info.retcnt, self.cfg.boost_shift) as u64;
        let st = self.flows.get_or_insert_with(flow, FlowRx::new);
        let expected = match st.expect {
            Expect::At(e) => Some(e),
            // The packet flagged first defines the expectation directly;
            // while it is in flight (or lost) everything else is early.
            Expect::AwaitFirst => info.first.then_some(rfs),
        };

        if expected == Some(rfs) {
            // In-order: flush up, then drain any now-contiguous buffer.
            self.stats.in_order += 1;
            out.push(Delivered {
                item,
                reason: DeliverReason::InOrder,
            });
            st.expect = Self::advance(discipline, rfs, payload);
            let done = Self::drain_contiguous(discipline, &mut self.stats, st, out);
            release_if_drained(&mut st.ooo);
            st.rearm(&mut self.armed, flow, timeout);
            if done || st.expect == Expect::AwaitFirst && st.ooo.is_empty() {
                self.drop_flow(flow);
                return true;
            }
        } else if expected.is_none_or(|e| Self::is_early(discipline, rfs, e)) {
            // Early: a gap is in front of it. Buffer (dropping duplicates).
            let Err(at) = st.find(rfs) else {
                self.stats.dup_dropped += 1;
                return false;
            };
            self.stats.buffered += 1;
            st.ooo.insert(
                at,
                OooEntry {
                    rfs,
                    item,
                    payload,
                    arrived: now,
                },
            );
            self.stats.max_depth = self.stats.max_depth.max(st.ooo.len());
            if st.deadline.is_none() {
                st.set_deadline(&mut self.armed, flow, Some(now + timeout));
            }
            if st.ooo.len() > self.cfg.max_buffered_per_flow {
                // Over the cap: force an immediate release up to the next gap.
                Self::release_to_next_gap(discipline, &mut self.stats, st, out);
                st.rearm(&mut self.armed, flow, timeout);
            }
        } else {
            // Late: behind the release window. Hand it up immediately so
            // the transport can use it (delayed retransmission) or discard
            // it (duplicate).
            self.stats.late_or_dup += 1;
            out.push(Delivered {
                item,
                reason: DeliverReason::LateOrDuplicate,
            });
        }
        false
    }

    /// Delivers buffered packets that are now contiguous with the
    /// expectation. Returns `true` if the flow completed (SRPT).
    fn drain_contiguous(
        discipline: MarkingDiscipline,
        stats: &mut OrderingStats,
        st: &mut FlowRx<T>,
        out: &mut Vec<Delivered<T>>,
    ) -> bool {
        loop {
            let expected = match st.expect {
                Expect::At(e) => e,
                Expect::AwaitFirst => {
                    // SRPT: expectation hit zero — flow done.
                    return matches!(discipline, MarkingDiscipline::Srpt);
                }
            };
            let Ok(at) = st.find(expected) else {
                return false;
            };
            let entry = st.ooo.remove(at).expect("found at this index");
            stats.gap_filled += 1;
            out.push(Delivered {
                item: entry.item,
                reason: DeliverReason::GapFilled,
            });
            st.expect = Self::advance(discipline, expected, entry.payload);
        }
    }

    /// Timeout action (paper §3.3.2 event 4): jump the expectation to the
    /// first buffered packet and release the contiguous run behind it.
    fn release_to_next_gap(
        discipline: MarkingDiscipline,
        stats: &mut OrderingStats,
        st: &mut FlowRx<T>,
        out: &mut Vec<Delivered<T>>,
    ) {
        // The "earliest missing packet" is followed by the *largest* RFS in
        // the buffer in SRPT mode, by the smallest in LAS mode.
        let head = match discipline {
            MarkingDiscipline::Srpt => st.ooo.pop_back(),
            MarkingDiscipline::Las => st.ooo.pop_front(),
        };
        let Some(entry) = head else {
            return;
        };
        stats.timeout_released += 1;
        out.push(Delivered {
            item: entry.item,
            reason: DeliverReason::TimeoutRelease,
        });
        st.expect = Self::advance(discipline, entry.rfs, entry.payload);
        // Anything contiguous behind the released head goes up too.
        let before = out.len();
        Self::drain_contiguous(discipline, stats, st, out);
        // Recategorize those as timeout releases for accounting.
        for d in out[before..].iter_mut() {
            d.reason = DeliverReason::TimeoutRelease;
            stats.timeout_released += 1;
            stats.gap_filled -= 1;
        }
        // Whatever its size: see `on_timer`. Over the cap it held more than
        // the floor anyway.
        if st.ooo.is_empty() {
            st.ooo = VecDeque::new();
        }
    }

    /// Fires all expired release timers. The host calls this when the timer
    /// armed at [`OrderingComponent::next_deadline`] fires. A buffer the
    /// timeout empties is freed whatever its size: the flow's next gap, if
    /// it has one, is at least τ away, and a flow that stays tracked after
    /// it completed (a late duplicate released by τ, DESIGN §5j) never has
    /// another.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Vec<Delivered<T>>) {
        let timeout = self.cfg.timeout;
        let discipline = self.cfg.discipline;
        let mut done_flows = Vec::new();
        for (flow, st) in self.flows.iter_mut() {
            while st.deadline.is_some_and(|dl| dl <= now) {
                self.stats.timeouts += 1;
                Self::release_to_next_gap(discipline, &mut self.stats, st, out);
                st.rearm(&mut self.armed, *flow, timeout);
                if st.ooo.is_empty() {
                    if st.expect == Expect::AwaitFirst {
                        done_flows.push(*flow);
                    }
                    break;
                }
            }
        }
        for f in done_flows {
            self.drop_flow(f);
        }
    }

    /// Serializes all mutable state: per-flow expectations, buffered
    /// out-of-order entries with their arrival timestamps, armed τ
    /// deadlines, and the counters. The config is not saved (resume rebuilds
    /// the component from the run spec before calling
    /// [`OrderingComponent::snap_restore`]).
    pub fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter)
    where
        T: vertigo_simcore::Snapshot,
    {
        use vertigo_simcore::Snapshot;
        w.put_usize(self.flows.len());
        for (flow, st) in self.flows.iter() {
            flow.save(w);
            match st.expect {
                Expect::AwaitFirst => w.put_u8(0),
                Expect::At(rfs) => {
                    w.put_u8(1);
                    w.put_u64(rfs);
                }
            }
            w.put_usize(st.ooo.len());
            for entry in &st.ooo {
                w.put_u64(entry.rfs);
                entry.item.save(w);
                w.put_u32(entry.payload);
                entry.arrived.save(w);
            }
            st.deadline.save(w);
        }
        w.put_u64(self.stats.in_order);
        w.put_u64(self.stats.buffered);
        w.put_u64(self.stats.gap_filled);
        w.put_u64(self.stats.timeout_released);
        w.put_u64(self.stats.timeouts);
        w.put_u64(self.stats.late_or_dup);
        w.put_u64(self.stats.dup_dropped);
        w.put_usize(self.stats.max_depth);
    }

    /// Restores state written by [`OrderingComponent::snap_save`] into a
    /// component freshly built with the same config. Flow ids, and each
    /// flow's RFS keys, must ascend strictly as `snap_save` writes them:
    /// the lookups are binary searches, and a flow named twice would leave
    /// an armed deadline nothing can disarm.
    pub fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError>
    where
        T: vertigo_simcore::Snapshot,
    {
        use vertigo_simcore::{SnapError, SnapReader, Snapshot};
        self.flows.clear();
        self.armed.clear();
        // A flow record opens with its id and `Expect` tag, a buffered
        // packet with its RFS.
        r.ascending(9, "ordering flow", FlowId::restore, |r, flow| {
            let mut st = FlowRx::new();
            st.expect = match r.get_u8()? {
                0 => Expect::AwaitFirst,
                1 => Expect::At(r.get_u64()?),
                tag => {
                    return Err(SnapError::new(format!(
                        "ordering snapshot: bad Expect tag {tag}"
                    )))
                }
            };
            r.ascending(8, "ordering RFS", SnapReader::get_u64, |r, rfs| {
                st.ooo.push_back(OooEntry {
                    rfs,
                    item: T::restore(r)?,
                    payload: r.get_u32()?,
                    arrived: SimTime::restore(r)?,
                });
                Ok(())
            })?;
            st.set_deadline(&mut self.armed, flow, Option::restore(r)?);
            self.flows.insert(flow, st);
            Ok(())
        })?;
        self.stats.in_order = r.get_u64()?;
        self.stats.buffered = r.get_u64()?;
        self.stats.gap_filled = r.get_u64()?;
        self.stats.timeout_released = r.get_u64()?;
        self.stats.timeouts = r.get_u64()?;
        self.stats.late_or_dup = r.get_u64()?;
        self.stats.dup_dropped = r.get_u64()?;
        self.stats.max_depth = r.get_usize()?;
        Ok(())
    }

    /// Drops all state for a flow, flushing any buffered packets up (used
    /// when the transport reports the flow finished or aborted).
    pub fn purge_flow(&mut self, flow: FlowId, out: &mut Vec<Delivered<T>>) {
        if let Some(st) = self.drop_flow(flow) {
            let flush = |e: OooEntry<T>| Delivered {
                item: e.item,
                reason: DeliverReason::Flush,
            };
            // Deliver in flow order: decreasing RFS under SRPT.
            match self.cfg.discipline {
                MarkingDiscipline::Srpt => out.extend(st.ooo.into_iter().rev().map(flush)),
                MarkingDiscipline::Las => out.extend(st.ooo.into_iter().map(flush)),
            }
        }
    }
}

impl<T> std::fmt::Debug for OrderingComponent<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderingComponent")
            .field("flows", &self.flows.len())
            .field("buffered", &self.buffered_packets())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    fn cfg() -> OrderingConfig {
        OrderingConfig::default()
    }

    fn comp() -> OrderingComponent<u64> {
        OrderingComponent::new(cfg())
    }

    /// Builds the flowinfo for packet `k` of a flow of `n` MSS packets.
    fn info(k: u32, n: u32) -> FlowInfo {
        FlowInfo {
            rfs: (n - k) * MSS,
            retcnt: 0,
            flow_seq: 0,
            first: k == 0,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn in_order_flow_passes_straight_through() {
        let mut o = comp();
        let f = FlowId(1);
        let mut out = Vec::new();
        for k in 0..5u32 {
            let done = o.on_packet(t(k as u64), f, info(k, 5), MSS, k as u64, &mut out);
            assert_eq!(done, k == 4, "done only on last packet");
        }
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|d| d.reason == DeliverReason::InOrder));
        let order: Vec<u64> = out.iter().map(|d| d.item).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(o.flows_tracked(), 0, "state freed after completion");
        assert_eq!(o.next_deadline(), None);
    }

    #[test]
    fn single_swap_is_resequenced() {
        let mut o = comp();
        let f = FlowId(2);
        let mut out = Vec::new();
        // Arrivals: 0, 2, 1, 3  (packets of a 4-packet flow)
        o.on_packet(t(0), f, info(0, 4), MSS, 0, &mut out);
        o.on_packet(t(1), f, info(2, 4), MSS, 2, &mut out);
        assert_eq!(out.len(), 1, "packet 2 must be held");
        assert!(o.next_deadline().is_some(), "timer armed for the gap");
        o.on_packet(t(2), f, info(1, 4), MSS, 1, &mut out);
        // Gap filled: 1 then 2 delivered.
        let order: Vec<u64> = out.iter().map(|d| d.item).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(out[1].reason, DeliverReason::InOrder);
        assert_eq!(out[2].reason, DeliverReason::GapFilled);
        assert_eq!(o.next_deadline(), None, "timer disarmed once contiguous");
        let done = o.on_packet(t(3), f, info(3, 4), MSS, 3, &mut out);
        assert!(done);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn timeout_releases_up_to_next_gap() {
        let mut o = comp();
        let f = FlowId(3);
        let mut out = Vec::new();
        // Flow of 5; packet 1 never arrives. Receive 0, 2, 3 — 4 still out.
        o.on_packet(t(0), f, info(0, 5), MSS, 0, &mut out);
        o.on_packet(t(1), f, info(2, 5), MSS, 2, &mut out);
        o.on_packet(t(2), f, info(3, 5), MSS, 3, &mut out);
        assert_eq!(out.len(), 1);
        let dl = o.next_deadline().unwrap();
        assert_eq!(
            dl,
            t(1) + cfg().timeout,
            "τ past the oldest buffered arrival"
        );
        o.on_timer(dl, &mut out);
        // Released: 2 and 3 (contiguous run after the abandoned gap).
        let order: Vec<u64> = out.iter().map(|d| d.item).collect();
        assert_eq!(order, vec![0, 2, 3]);
        assert!(out[1..]
            .iter()
            .all(|d| d.reason == DeliverReason::TimeoutRelease));
        assert_eq!(o.next_deadline(), None);
        // Packet 4 now arrives in order relative to the advanced window.
        let done = o.on_packet(t(900), f, info(4, 5), MSS, 4, &mut out);
        assert!(done);
        assert_eq!(out.last().unwrap().reason, DeliverReason::InOrder);
    }

    /// A duplicate of an early segment that arrives after its flow
    /// completed finds no state, so it is buffered as the early packet of a
    /// new flow, and τ hands it up and leaves the flow expecting the
    /// segment after it: the flow stays tracked for good (forgetting it is
    /// a behaviour change, see DESIGN §5j), but its ring holds nothing.
    #[test]
    fn a_late_duplicate_after_completion_stays_tracked_and_holds_no_buffer() {
        let mut o = comp();
        let f = FlowId(13);
        let mut out = Vec::new();
        for k in 0..4u32 {
            o.on_packet(t(k as u64), f, info(k, 4), MSS, k as u64, &mut out);
        }
        assert_eq!(o.flows_tracked(), 0, "completed");
        o.on_packet(t(10), f, info(1, 4), MSS, 11, &mut out);
        assert_eq!((out.len(), o.flows_tracked()), (4, 1), "buffered");
        o.on_timer(o.next_deadline().unwrap(), &mut out);
        assert_eq!(out[4].item, 11);
        assert_eq!(out[4].reason, DeliverReason::TimeoutRelease);
        assert_eq!(o.flows_tracked(), 1);
        let st = o.flows.get(f).unwrap();
        assert_eq!(st.expect, Expect::At(2 * MSS as u64));
        assert_eq!((st.deadline, st.ooo.len()), (None, 0));
        assert_eq!(st.ooo.capacity(), 0, "τ frees the ring it empties");
    }

    /// A gap of 20 filled: the ring that held the burst keeps no more than
    /// the drained floor.
    #[test]
    fn a_filled_gap_gives_the_burst_room_back() {
        let mut o = comp();
        let f = FlowId(14);
        let mut out = Vec::new();
        o.on_packet(t(0), f, info(0, 30), MSS, 0, &mut out);
        for k in 2..22u32 {
            o.on_packet(t(k as u64), f, info(k, 30), MSS, k as u64, &mut out);
        }
        assert!(o.flows.get(f).unwrap().ooo.capacity() >= 20);
        o.on_packet(t(30), f, info(1, 30), MSS, 1, &mut out);
        assert_eq!(out.len(), 22);
        let held = o.flows.get(f).unwrap().ooo.capacity() * std::mem::size_of::<OooEntry<u64>>();
        assert!(held <= vertigo_simcore::RING_KEEP_BYTES, "{held} B held");
    }

    #[test]
    fn late_retransmission_passes_through_immediately() {
        let mut o = comp();
        let f = FlowId(4);
        let mut out = Vec::new();
        o.on_packet(t(0), f, info(0, 5), MSS, 0, &mut out);
        o.on_packet(t(1), f, info(2, 5), MSS, 2, &mut out);
        let dl = o.next_deadline().unwrap();
        o.on_timer(dl, &mut out); // abandons packet 1
        out.clear();
        // Packet 1's retransmission limps in after the window moved past.
        let mut late = info(1, 5);
        late.retcnt = 1;
        late.rfs = late.rfs.rotate_right(1);
        o.on_packet(t(800), f, late, MSS, 1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].reason, DeliverReason::LateOrDuplicate);
        assert_eq!(out[0].item, 1);
    }

    #[test]
    fn boosted_rfs_is_unrotated_before_sequencing() {
        let mut o = comp();
        let f = FlowId(5);
        let mut out = Vec::new();
        o.on_packet(t(0), f, info(0, 3), MSS, 0, &mut out);
        // Packet 1 arrives as a twice-retransmitted (boosted) copy.
        let mut b = info(1, 3);
        b.retcnt = 2;
        b.rfs = b.rfs.rotate_right(2);
        o.on_packet(t(1), f, b, MSS, 1, &mut out);
        let done = o.on_packet(t(2), f, info(2, 3), MSS, 2, &mut out);
        assert!(done);
        let order: Vec<u64> = out.iter().map(|d| d.item).collect();
        assert_eq!(order, vec![0, 1, 2], "boosting must be transparent");
    }

    #[test]
    fn duplicate_of_buffered_packet_dropped() {
        let mut o = comp();
        let f = FlowId(6);
        let mut out = Vec::new();
        o.on_packet(t(0), f, info(0, 4), MSS, 0, &mut out);
        o.on_packet(t(1), f, info(2, 4), MSS, 2, &mut out);
        o.on_packet(t(2), f, info(2, 4), MSS, 22, &mut out); // dup of buffered
        assert_eq!(o.stats().dup_dropped, 1);
        o.on_packet(t(3), f, info(1, 4), MSS, 1, &mut out);
        let order: Vec<u64> = out.iter().map(|d| d.item).collect();
        assert_eq!(order, vec![0, 1, 2], "the dup never surfaces twice");
    }

    #[test]
    fn missing_first_packet_buffers_then_releases() {
        let mut o = comp();
        let f = FlowId(7);
        let mut out = Vec::new();
        // First packet delayed; 1 and 2 arrive first.
        o.on_packet(t(0), f, info(1, 3), MSS, 1, &mut out);
        o.on_packet(t(1), f, info(2, 3), MSS, 2, &mut out);
        assert!(out.is_empty(), "nothing released before the first packet");
        // First packet arrives before τ: everything flushes in order.
        let done = o.on_packet(t(5), f, info(0, 3), MSS, 0, &mut out);
        assert!(done);
        let order: Vec<u64> = out.iter().map(|d| d.item).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn missing_first_packet_times_out() {
        let mut o = comp();
        let f = FlowId(8);
        let mut out = Vec::new();
        o.on_packet(t(0), f, info(1, 3), MSS, 1, &mut out);
        let dl = o.next_deadline().unwrap();
        o.on_timer(dl, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].reason, DeliverReason::TimeoutRelease);
        assert_eq!(o.stats().timeouts, 1);
    }

    #[test]
    fn buffer_cap_forces_release() {
        let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig {
            max_buffered_per_flow: 4,
            ..cfg()
        });
        let f = FlowId(9);
        let mut out = Vec::new();
        o.on_packet(t(0), f, info(0, 20), MSS, 0, &mut out);
        // Packet 1 missing; buffer 2..=7 (6 > cap of 4 forces a release).
        for k in 2..8u32 {
            o.on_packet(t(k as u64), f, info(k, 20), MSS, k as u64, &mut out);
        }
        assert!(
            out.len() > 1,
            "cap must have forced some delivery, got {}",
            out.len()
        );
        assert!(o.buffered_packets() <= 5);
    }

    #[test]
    fn las_mode_orders_by_ascending_counter() {
        let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig {
            discipline: MarkingDiscipline::Las,
            ..cfg()
        });
        let f = FlowId(10);
        let las = |age: u32| FlowInfo {
            rfs: age,
            retcnt: 0,
            flow_seq: 0,
            first: age == 0,
        };
        let mut out = Vec::new();
        o.on_packet(t(0), f, las(0), MSS, 0, &mut out);
        o.on_packet(t(1), f, las(2), MSS, 2, &mut out);
        o.on_packet(t(2), f, las(1), MSS, 1, &mut out);
        let order: Vec<u64> = out.iter().map(|d| d.item).collect();
        assert_eq!(order, vec![0, 1, 2]);
        // LAS flows are closed explicitly.
        o.purge_flow(f, &mut out);
        assert_eq!(o.flows_tracked(), 0);
    }

    #[test]
    fn purge_flushes_buffered_packets_in_flow_order() {
        let mut o = comp();
        let f = FlowId(11);
        let mut out = Vec::new();
        o.on_packet(t(0), f, info(0, 6), MSS, 0, &mut out);
        o.on_packet(t(1), f, info(3, 6), MSS, 3, &mut out);
        o.on_packet(t(2), f, info(2, 6), MSS, 2, &mut out);
        out.clear();
        o.purge_flow(f, &mut out);
        let order: Vec<u64> = out.iter().map(|d| d.item).collect();
        assert_eq!(order, vec![2, 3]);
        assert!(out.iter().all(|d| d.reason == DeliverReason::Flush));
    }

    #[test]
    fn interleaved_flows_are_independent() {
        let mut o = comp();
        let a = FlowId(20);
        let b = FlowId(21);
        let mut out = Vec::new();
        o.on_packet(t(0), a, info(0, 2), MSS, 100, &mut out);
        o.on_packet(t(0), b, info(1, 2), MSS, 201, &mut out); // b's first missing
        o.on_packet(t(1), a, info(1, 2), MSS, 101, &mut out);
        assert_eq!(
            out.iter().map(|d| d.item).collect::<Vec<_>>(),
            vec![100, 101]
        );
        o.on_packet(t(2), b, info(0, 2), MSS, 200, &mut out);
        assert_eq!(
            out.iter().map(|d| d.item).collect::<Vec<_>>(),
            vec![100, 101, 200, 201]
        );
    }

    #[test]
    fn snapshot_round_trip_with_buffered_gap() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let mut o = comp();
        let f = FlowId(40);
        let mut out = Vec::new();
        // Packet 1 missing: 2 and 3 buffered with an armed τ deadline.
        o.on_packet(t(0), f, info(0, 5), MSS, 0, &mut out);
        o.on_packet(t(1), f, info(2, 5), MSS, 2, &mut out);
        o.on_packet(t(2), f, info(3, 5), MSS, 3, &mut out);
        let mut w = SnapWriter::new();
        o.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut o2: OrderingComponent<u64> = OrderingComponent::new(cfg());
        let mut r = SnapReader::new(&bytes);
        o2.snap_restore(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(o2.flows_tracked(), 1);
        assert_eq!(o2.buffered_packets(), 2);
        assert_eq!(o2.next_deadline(), o.next_deadline());
        assert_eq!(o2.stats().buffered, o.stats().buffered);
        // The restored component times out identically: same items, same
        // reasons, same order.
        let dl = o.next_deadline().unwrap();
        let mut out2 = Vec::new();
        out.clear();
        o.on_timer(dl, &mut out);
        o2.on_timer(dl, &mut out2);
        assert_eq!(
            out.iter().map(|d| (d.item, d.reason)).collect::<Vec<_>>(),
            out2.iter().map(|d| (d.item, d.reason)).collect::<Vec<_>>()
        );
        // And the straggler's eventual arrival behaves the same.
        out.clear();
        out2.clear();
        let a = o.on_packet(t(900), f, info(4, 5), MSS, 4, &mut out);
        let b = o2.on_packet(t(900), f, info(4, 5), MSS, 4, &mut out2);
        assert_eq!(a, b);
    }

    /// The scan `next_deadline` used to be: the oracle for the index.
    fn armed_by_scan(o: &OrderingComponent<u64>) -> Vec<(SimTime, FlowId)> {
        let mut v: Vec<_> = o
            .flows
            .iter()
            .filter_map(|(&f, st)| st.deadline.map(|d| (d, f)))
            .collect();
        v.sort_unstable();
        v
    }

    proptest::proptest! {
        /// Over random multi-flow streams of arrivals, timer firings,
        /// purges and snapshot round trips, the armed-deadline index holds
        /// exactly the per-flow deadlines a scan finds, after every step.
        #[test]
        fn armed_index_equals_scan(
            ops in proptest::collection::vec((0u8..10, 0u64..4, 0u32..12), 1..300),
        ) {
            use vertigo_simcore::{SnapReader, SnapWriter};
            let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig {
                max_buffered_per_flow: 4, // small: forced releases happen
                ..cfg()
            });
            let mut out = Vec::new();
            for (i, &(op, flow, k)) in ops.iter().enumerate() {
                let now = t(i as u64 * 40);
                let flow = FlowId(flow);
                match op {
                    0..=6 => {
                        o.on_packet(now, flow, info(k, 12), MSS, k as u64, &mut out);
                    }
                    7 => o.on_timer(now, &mut out),
                    8 => o.purge_flow(flow, &mut out),
                    _ => {
                        let mut w = SnapWriter::new();
                        o.snap_save(&mut w);
                        let bytes = w.into_bytes();
                        o.snap_restore(&mut SnapReader::new(&bytes)).unwrap();
                    }
                }
                let scan = armed_by_scan(&o);
                proptest::prop_assert_eq!(&o.armed[..], &scan[..]);
                proptest::prop_assert_eq!(o.next_deadline(), scan.first().map(|e| e.0));
                out.clear();
            }
        }
    }

    /// The deadline follows the oldest buffered arrival: an early packet
    /// does not re-arm it, an in-order arrival that releases nothing from
    /// the buffer re-arms it from the same anchor, and a gap fill moves
    /// the anchor to the oldest arrival left.
    #[test]
    fn timeout_rearms_on_the_next_in_order_arrival() {
        for (tau, discipline) in [
            (SimDuration::from_micros(100), MarkingDiscipline::Srpt),
            (SimDuration::from_micros(900), MarkingDiscipline::Las),
        ] {
            let mut o: OrderingComponent<u64> = OrderingComponent::new(OrderingConfig {
                discipline,
                timeout: tau,
                ..cfg()
            });
            let f = FlowId(12);
            let pkt = |k: u32| match discipline {
                MarkingDiscipline::Srpt => info(k, 8),
                MarkingDiscipline::Las => FlowInfo {
                    rfs: k,
                    retcnt: 0,
                    flow_seq: 0,
                    first: k == 0,
                },
            };
            let mut out = Vec::new();
            o.on_packet(t(0), f, pkt(0), MSS, 0, &mut out);
            // 1 and 2 missing; 4 arrives before 3, so the oldest buffered
            // arrival sits at neither end of the buffer's RFS order alone.
            o.on_packet(t(5), f, pkt(4), MSS, 4, &mut out);
            o.on_packet(t(7), f, pkt(3), MSS, 3, &mut out);
            o.on_packet(t(9), f, pkt(6), MSS, 6, &mut out);
            assert_eq!(o.next_deadline(), Some(t(5) + tau));
            // A further early packet does not re-arm.
            o.on_packet(t(11), f, pkt(7), MSS, 7, &mut out);
            assert_eq!(o.flow_deadline(f), Some(t(5) + tau));
            // In order, nothing released (2 still missing): same anchor.
            o.on_packet(t(20), f, pkt(1), MSS, 1, &mut out);
            assert_eq!(out.len(), 2);
            assert_eq!(o.next_deadline(), Some(t(5) + tau));
            // 2 fills the gap up to 5: the anchor moves to the oldest left.
            o.on_packet(t(30), f, pkt(2), MSS, 2, &mut out);
            assert_eq!(out.len(), 5);
            assert_eq!(o.next_deadline(), Some(t(9) + tau));
            assert_eq!(o.buffered_packets(), 2);
        }
    }

    /// One ordering record by hand, with the counts it claims beside what
    /// it holds: `flows` of `(flow, claimed packets, buffered RFS keys)`,
    /// each flow expecting RFS 9 000, the i-th armed at 500 + i ns.
    fn record(nflows: u64, flows: &[(u64, u64, &[u64])]) -> Vec<u8> {
        let mut w = vertigo_simcore::SnapWriter::new();
        w.put_u64(nflows);
        for (i, &(flow, nbuf, keys)) in flows.iter().enumerate() {
            w.put_u64(flow);
            w.put_u8(1);
            w.put_u64(9_000);
            w.put_u64(nbuf);
            for &rfs in keys {
                w.put_u64(rfs);
                w.put_u64(rfs + 1); // item
                w.put_u32(MSS);
                w.put_u64(140); // arrived
            }
            w.put_u8(1);
            w.put_u64(500 + i as u64);
        }
        for _ in 0..8 {
            w.put_u64(0);
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_hostile_records() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let restored = |bytes: &[u8]| {
            let mut o = comp();
            o.snap_restore(&mut SnapReader::new(bytes)).map(|()| o)
        };
        // A valid mid-run record — two flows with gaps, one of them still
        // waiting for its first packet — round-trips byte for byte and
        // keeps running in step with the component it was taken from.
        let mut o = comp();
        let mut out = Vec::new();
        o.on_packet(t(0), FlowId(3), info(0, 9), MSS, 0, &mut out);
        for (at, k) in [(1, 4u32), (2, 2), (3, 7), (4, 5)] {
            o.on_packet(t(at), FlowId(3), info(k, 9), MSS, k as u64, &mut out);
        }
        o.on_packet(t(5), FlowId(1), info(2, 4), MSS, 12, &mut out);
        let saved = |o: &OrderingComponent<u64>| {
            let mut w = SnapWriter::new();
            o.snap_save(&mut w);
            w.into_bytes()
        };
        let ok = saved(&o);
        let mut o2 = restored(&ok).unwrap();
        assert_eq!(saved(&o2), ok);
        let mut out2 = Vec::new();
        out.clear();
        for (at, flow, k, n) in [(6, 3, 1u32, 9u32), (7, 1, 0, 4), (8, 3, 3, 9), (9, 1, 1, 4)] {
            let a = o.on_packet(t(at), FlowId(flow), info(k, n), MSS, k as u64, &mut out);
            let b = o2.on_packet(t(at), FlowId(flow), info(k, n), MSS, k as u64, &mut out2);
            assert_eq!(a, b);
            assert_eq!(o.next_deadline(), o2.next_deadline());
        }
        let dl = o.next_deadline().unwrap();
        o.on_timer(dl, &mut out);
        o2.on_timer(dl, &mut out2);
        let seen =
            |out: &[Delivered<u64>]| -> Vec<_> { out.iter().map(|d| (d.item, d.reason)).collect() };
        assert_eq!(seen(&out), seen(&out2));
        assert_eq!(saved(&o), saved(&o2));

        let valid = record(2, &[(1, 2, &[1_460, 2_920]), (4, 1, &[4_380])]);
        assert_eq!(restored(&valid).unwrap().buffered_packets(), 3);
        for (what, bytes) in [
            // Both occurrences would arm a deadline; only one could ever be
            // disarmed, and `next_deadline` would answer the other for ever.
            (
                "flow named twice",
                record(2, &[(4, 1, &[1_460]), (4, 1, &[2_920])]),
            ),
            (
                "descending flows",
                record(2, &[(4, 1, &[1_460]), (1, 1, &[1_460])]),
            ),
            ("RFS repeated", record(1, &[(1, 2, &[1_460, 1_460])])),
            ("descending RFS", record(1, &[(1, 2, &[2_920, 1_460])])),
            ("more flows than records", record(3, &[(1, 1, &[1_460])])),
            ("more packets than records", record(1, &[(1, 3, &[1_460])])),
            // Counts no input of this size could back.
            ("flow count beyond the input", record(1 << 40, &[])),
            (
                "packet count beyond the input",
                record(1, &[(1, 1 << 40, &[])]),
            ),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        for cut in 0..ok.len() {
            assert!(
                restored(&ok[..cut]).is_err(),
                "accepted {cut} of {} bytes",
                ok.len()
            );
        }
    }

    proptest::proptest! {
        /// The early-packet buffer against a `BTreeMap` keyed by RFS, over
        /// a key range narrow enough that duplicates, misses and hits at
        /// the two ends (where `find` answers without searching) dominate.
        /// The two pops are the head under each `MarkingDiscipline`.
        #[test]
        fn ooo_buffer_indistinguishable_from_a_btreemap(
            ops in proptest::collection::vec((0u8..8, 0u64..24), 1..400),
        ) {
            let mut st: FlowRx<usize> = FlowRx::new();
            let mut model: std::collections::BTreeMap<u64, usize> = Default::default();
            for (tag, &(op, rfs)) in ops.iter().enumerate() {
                match op {
                    // Insert, refusing a duplicate as `on_packet` does.
                    0..=3 => {
                        let vacant = st.find(rfs).err();
                        proptest::prop_assert_eq!(vacant.is_some(), !model.contains_key(&rfs));
                        if let Some(at) = vacant {
                            let entry = OooEntry { rfs, item: tag, payload: MSS, arrived: t(0) };
                            st.ooo.insert(at, entry);
                            model.insert(rfs, tag);
                        }
                    }
                    // Remove, present or not, as `drain_contiguous` does.
                    4 | 5 => {
                        let gone = st.find(rfs).ok().and_then(|at| st.ooo.remove(at));
                        proptest::prop_assert_eq!(gone.map(|e| e.item), model.remove(&rfs));
                    }
                    6 => {
                        let head = st.ooo.pop_back().map(|e| (e.rfs, e.item));
                        proptest::prop_assert_eq!(head, model.pop_last());
                    }
                    _ => {
                        let head = st.ooo.pop_front().map(|e| (e.rfs, e.item));
                        proptest::prop_assert_eq!(head, model.pop_first());
                    }
                }
                proptest::prop_assert!(st
                    .ooo
                    .iter()
                    .map(|e| (e.rfs, e.item))
                    .eq(model.iter().map(|(&k, &v)| (k, v))));
            }
        }
    }

    #[test]
    fn stats_track_reordering_degree() {
        let mut o = comp();
        let f = FlowId(30);
        let mut out = Vec::new();
        o.on_packet(t(0), f, info(0, 4), MSS, 0, &mut out);
        o.on_packet(t(1), f, info(2, 4), MSS, 2, &mut out);
        o.on_packet(t(2), f, info(3, 4), MSS, 3, &mut out);
        o.on_packet(t(3), f, info(1, 4), MSS, 1, &mut out);
        let s = o.stats();
        assert_eq!(s.in_order, 2); // packets 0 and 1
        assert_eq!(s.buffered, 2); // packets 2 and 3
        assert_eq!(s.gap_filled, 2);
        assert_eq!(s.max_depth, 2);
    }
}
