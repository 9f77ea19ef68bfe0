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

use std::collections::{BTreeMap, BTreeSet};
use vertigo_pkt::{FlowId, FlowInfo};
use vertigo_simcore::{SimDuration, SimTime};

use crate::boost::unboost;

/// How the RFS field orders packets within a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMode {
    /// SRPT marking: RFS counts *down* by the payload size per packet; the
    /// flow is complete when a packet's RFS equals its payload.
    SrptBytes,
    /// LAS marking (§4.3): RFS is a packet counter counting *up* by one;
    /// flow completion is signalled out of band (`purge_flow`).
    LasPackets,
}

/// Configuration for the ordering component.
#[derive(Debug, Clone)]
pub struct OrderingConfig {
    /// τ — how long to wait for a delayed packet before releasing the
    /// packets behind it (paper default 360 µs).
    pub timeout: SimDuration,
    /// Per-retransmission rotation (bits) used by the peer's marking
    /// component; needed to recover original RFS values.
    pub boost_shift: u32,
    /// Ordering semantics, matching the peer's marking discipline.
    pub mode: OrderingMode,
    /// Upper bound on buffered packets per flow; exceeding it forces an
    /// immediate release (bounds memory under pathological reordering).
    pub max_buffered_per_flow: usize,
}

impl Default for OrderingConfig {
    fn default() -> Self {
        OrderingConfig {
            timeout: SimDuration::from_micros(360),
            boost_shift: 1,
            mode: OrderingMode::SrptBytes,
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

#[derive(Debug)]
struct OooEntry<T> {
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
    /// Buffered early packets keyed by original RFS.
    ooo: BTreeMap<u64, OooEntry<T>>,
    /// Armed release deadline: τ past the oldest buffered arrival.
    deadline: Option<SimTime>,
}

impl<T> FlowRx<T> {
    fn new() -> Self {
        FlowRx {
            expect: Expect::AwaitFirst,
            ooo: BTreeMap::new(),
            deadline: None,
        }
    }
}

/// The receive-side re-sequencing shim. One instance per host.
pub struct OrderingComponent<T> {
    cfg: OrderingConfig,
    flows: BTreeMap<FlowId, FlowRx<T>>,
    /// Every armed `(deadline, flow)`, ordered by deadline, so the earliest
    /// one is `first()` rather than a scan over `flows`. Derived from the
    /// per-flow deadlines (every write goes through [`Self::set_deadline`]);
    /// not serialized, rebuilt on restore.
    armed: BTreeSet<(SimTime, FlowId)>,
    stats: OrderingStats,
}

impl<T> OrderingComponent<T> {
    /// Creates an ordering component.
    pub fn new(cfg: OrderingConfig) -> Self {
        OrderingComponent {
            cfg,
            flows: BTreeMap::new(),
            armed: BTreeSet::new(),
            stats: OrderingStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> OrderingStats {
        self.stats
    }

    /// Retunes τ in place. Deadlines already armed keep the value they
    /// were computed with; only future arms/rearms use the new τ. This is
    /// the hook warm-started sweeps use to apply a candidate τ at the
    /// fork horizon without rebuilding the host.
    pub fn set_timeout(&mut self, timeout: SimDuration) {
        self.cfg.timeout = timeout;
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
        #[cfg(any(debug_assertions, feature = "audit"))]
        assert_eq!(
            next,
            self.flows.values().filter_map(|f| f.deadline).min(),
            "armed-deadline index out of step with the per-flow deadlines"
        );
        next
    }

    /// The single place a flow's deadline changes, keeping `armed` in step.
    fn set_deadline(
        armed: &mut BTreeSet<(SimTime, FlowId)>,
        flow: FlowId,
        st: &mut FlowRx<T>,
        deadline: Option<SimTime>,
    ) {
        if st.deadline == deadline {
            return;
        }
        if let Some(old) = st.deadline {
            armed.remove(&(old, flow));
        }
        if let Some(new) = deadline {
            armed.insert((new, flow));
        }
        st.deadline = deadline;
    }

    /// Forgets a flow, disarming its deadline first.
    fn drop_flow(&mut self, flow: FlowId) -> Option<FlowRx<T>> {
        let st = self.flows.remove(&flow)?;
        if let Some(deadline) = st.deadline {
            self.armed.remove(&(deadline, flow));
        }
        Some(st)
    }

    /// The armed τ release deadline for one flow, if any (provenance
    /// tracing reads this to record the deadline a buffered packet waits
    /// on; `None` = disarmed or flow untracked).
    pub fn flow_deadline(&self, flow: FlowId) -> Option<SimTime> {
        self.flows.get(&flow).and_then(|f| f.deadline)
    }

    /// In SRPT mode the "earliest missing packet" has the *largest* RFS in
    /// the buffer; in LAS mode the smallest.
    fn head_key(mode: OrderingMode, ooo: &BTreeMap<u64, OooEntry<T>>) -> Option<u64> {
        match mode {
            OrderingMode::SrptBytes => ooo.keys().next_back().copied(),
            OrderingMode::LasPackets => ooo.keys().next().copied(),
        }
    }

    /// Advances the expectation past a delivered packet.
    fn advance(mode: OrderingMode, rfs: u64, payload: u32) -> Expect {
        match mode {
            OrderingMode::SrptBytes => {
                let next = rfs.saturating_sub(payload as u64);
                if next == 0 {
                    // Flow fully delivered.
                    Expect::AwaitFirst
                } else {
                    Expect::At(next)
                }
            }
            OrderingMode::LasPackets => Expect::At(rfs + 1),
        }
    }

    /// Is `rfs` *early* (beyond the expected packet) under this mode?
    fn is_early(mode: OrderingMode, rfs: u64, expected: u64) -> bool {
        match mode {
            OrderingMode::SrptBytes => rfs < expected,
            OrderingMode::LasPackets => rfs > expected,
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
        let mode = self.cfg.mode;
        let shift = self.cfg.boost_shift;
        let rfs = unboost(info.rfs, info.retcnt, shift) as u64;
        let st = self.flows.entry(flow).or_insert_with(FlowRx::new);

        let expected = match st.expect {
            Expect::AwaitFirst => {
                if info.first {
                    // First packet defines the expectation directly.
                    rfs
                } else {
                    // First packet still in flight (or lost): buffer.
                    Self::buffer_early(
                        &mut self.stats,
                        &mut self.armed,
                        flow,
                        st,
                        now,
                        rfs,
                        payload,
                        item,
                        self.cfg.timeout,
                    );
                    Self::maybe_force_release(
                        &self.cfg,
                        &mut self.stats,
                        &mut self.armed,
                        flow,
                        st,
                        out,
                    );
                    return false;
                }
            }
            Expect::At(e) => e,
        };

        if rfs == expected {
            // In-order: flush up, then drain any now-contiguous buffer.
            self.stats.in_order += 1;
            out.push(Delivered {
                item,
                reason: DeliverReason::InOrder,
            });
            st.expect = Self::advance(mode, rfs, payload);
            let done = Self::drain_contiguous(mode, &mut self.stats, st, out);
            Self::rearm(&mut self.armed, flow, st, self.cfg.timeout);
            if done || st.expect == Expect::AwaitFirst && st.ooo.is_empty() {
                self.drop_flow(flow);
                return true;
            }
            return false;
        }

        if Self::is_early(mode, rfs, expected) {
            // Early: a gap is in front of it. Buffer (dropping duplicates).
            Self::buffer_early(
                &mut self.stats,
                &mut self.armed,
                flow,
                st,
                now,
                rfs,
                payload,
                item,
                self.cfg.timeout,
            );
            Self::maybe_force_release(&self.cfg, &mut self.stats, &mut self.armed, flow, st, out);
            false
        } else {
            // Late: behind the release window. Hand it up immediately so
            // the transport can use it (delayed retransmission) or discard
            // it (duplicate).
            self.stats.late_or_dup += 1;
            out.push(Delivered {
                item,
                reason: DeliverReason::LateOrDuplicate,
            });
            false
        }
    }

    #[allow(clippy::too_many_arguments)] // disjoint borrows of `self`, spelled out
    fn buffer_early(
        stats: &mut OrderingStats,
        armed: &mut BTreeSet<(SimTime, FlowId)>,
        flow: FlowId,
        st: &mut FlowRx<T>,
        now: SimTime,
        rfs: u64,
        payload: u32,
        item: T,
        timeout: SimDuration,
    ) {
        if st.ooo.contains_key(&rfs) {
            stats.dup_dropped += 1;
            return;
        }
        stats.buffered += 1;
        st.ooo.insert(
            rfs,
            OooEntry {
                item,
                payload,
                arrived: now,
            },
        );
        stats.max_depth = stats.max_depth.max(st.ooo.len());
        if st.deadline.is_none() {
            Self::set_deadline(armed, flow, st, Some(now + timeout));
        }
    }

    /// Delivers buffered packets that are now contiguous with the
    /// expectation. Returns `true` if the flow completed (SRPT).
    fn drain_contiguous(
        mode: OrderingMode,
        stats: &mut OrderingStats,
        st: &mut FlowRx<T>,
        out: &mut Vec<Delivered<T>>,
    ) -> bool {
        loop {
            let expected = match st.expect {
                Expect::At(e) => e,
                Expect::AwaitFirst => {
                    // SRPT: expectation hit zero — flow done.
                    return matches!(mode, OrderingMode::SrptBytes);
                }
            };
            match st.ooo.remove(&expected) {
                Some(entry) => {
                    stats.gap_filled += 1;
                    out.push(Delivered {
                        item: entry.item,
                        reason: DeliverReason::GapFilled,
                    });
                    st.expect = Self::advance(mode, expected, entry.payload);
                }
                None => return false,
            }
        }
    }

    /// Re-arms the deadline to τ past the oldest still-buffered arrival, or
    /// disarms it if the buffer emptied.
    fn rearm(
        armed: &mut BTreeSet<(SimTime, FlowId)>,
        flow: FlowId,
        st: &mut FlowRx<T>,
        timeout: SimDuration,
    ) {
        let oldest = st.ooo.values().map(|e| e.arrived).min();
        Self::set_deadline(armed, flow, st, oldest.map(|at| at + timeout));
    }

    /// If the buffer exceeds its cap, force an immediate release up to the
    /// next gap.
    fn maybe_force_release(
        cfg: &OrderingConfig,
        stats: &mut OrderingStats,
        armed: &mut BTreeSet<(SimTime, FlowId)>,
        flow: FlowId,
        st: &mut FlowRx<T>,
        out: &mut Vec<Delivered<T>>,
    ) {
        if st.ooo.len() > cfg.max_buffered_per_flow {
            Self::release_to_next_gap(cfg.mode, stats, st, out);
            Self::rearm(armed, flow, st, cfg.timeout);
        }
    }

    /// Timeout action (paper §3.3.2 event 4): jump the expectation to the
    /// first buffered packet and release the contiguous run behind it.
    fn release_to_next_gap(
        mode: OrderingMode,
        stats: &mut OrderingStats,
        st: &mut FlowRx<T>,
        out: &mut Vec<Delivered<T>>,
    ) {
        let Some(head) = Self::head_key(mode, &st.ooo) else {
            return;
        };
        let entry = st.ooo.remove(&head).expect("head key present");
        stats.timeout_released += 1;
        out.push(Delivered {
            item: entry.item,
            reason: DeliverReason::TimeoutRelease,
        });
        st.expect = Self::advance(mode, head, entry.payload);
        // Anything contiguous behind the released head goes up too.
        let before = out.len();
        Self::drain_contiguous(mode, stats, st, out);
        // Recategorize those as timeout releases for accounting.
        for d in out[before..].iter_mut() {
            d.reason = DeliverReason::TimeoutRelease;
            stats.timeout_released += 1;
            stats.gap_filled -= 1;
        }
    }

    /// Fires all expired release timers. The host calls this when the timer
    /// armed at [`OrderingComponent::next_deadline`] fires.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Vec<Delivered<T>>) {
        let cfg_timeout = self.cfg.timeout;
        let mode = self.cfg.mode;
        let mut done_flows = Vec::new();
        for (flow, st) in self.flows.iter_mut() {
            while let Some(dl) = st.deadline {
                if dl > now {
                    break;
                }
                self.stats.timeouts += 1;
                Self::release_to_next_gap(mode, &mut self.stats, st, out);
                Self::rearm(&mut self.armed, *flow, st, cfg_timeout);
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
        for (flow, st) in &self.flows {
            flow.save(w);
            match st.expect {
                Expect::AwaitFirst => w.put_u8(0),
                Expect::At(rfs) => {
                    w.put_u8(1);
                    w.put_u64(rfs);
                }
            }
            w.put_usize(st.ooo.len());
            for (rfs, entry) in &st.ooo {
                w.put_u64(*rfs);
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
    /// component freshly built with the same config.
    pub fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError>
    where
        T: vertigo_simcore::Snapshot,
    {
        use vertigo_simcore::{SnapError, Snapshot};
        self.flows.clear();
        self.armed.clear();
        let nflows = r.get_usize()?;
        for _ in 0..nflows {
            let flow = FlowId::restore(r)?;
            let expect = match r.get_u8()? {
                0 => Expect::AwaitFirst,
                1 => Expect::At(r.get_u64()?),
                tag => {
                    return Err(SnapError::new(format!(
                        "ordering snapshot: bad Expect tag {tag}"
                    )))
                }
            };
            let mut st = FlowRx::new();
            st.expect = expect;
            let nbuf = r.get_usize()?;
            for _ in 0..nbuf {
                let rfs = r.get_u64()?;
                let item = T::restore(r)?;
                let payload = r.get_u32()?;
                let arrived = SimTime::restore(r)?;
                st.ooo.insert(
                    rfs,
                    OooEntry {
                        item,
                        payload,
                        arrived,
                    },
                );
            }
            st.deadline = Option::restore(r)?;
            if let Some(deadline) = st.deadline {
                self.armed.insert((deadline, flow));
            }
            self.flows.insert(flow, st);
        }
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
            let mode = self.cfg.mode;
            let mut entries: Vec<(u64, OooEntry<T>)> = st.ooo.into_iter().collect();
            if matches!(mode, OrderingMode::SrptBytes) {
                entries.reverse(); // deliver in decreasing-RFS (flow) order
            }
            for (_, e) in entries {
                out.push(Delivered {
                    item: e.item,
                    reason: DeliverReason::Flush,
                });
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
            mode: OrderingMode::LasPackets,
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
                proptest::prop_assert_eq!(o.armed.iter().copied().collect::<Vec<_>>(), &scan[..]);
                proptest::prop_assert_eq!(o.next_deadline(), scan.first().map(|e| e.0));
                out.clear();
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
