//! The end host: transport flows, the Vertigo marking and ordering
//! components, and a NIC egress queue.
//!
//! Packet path on TX: transport window releases a segment → the marking
//! component tags it with RFS (if deployed) → NIC FIFO → link. On RX:
//! NIC → ordering component (if deployed) → transport receiver → ACK back
//! through the NIC. Hosts drive all their timers (RTO, Swift pacing,
//! ordering τ) through one consolidated wakeup.
//!
//! Timer scheme: the host tracks the earliest outstanding `HostTimer`
//! event it has scheduled (`wake_scheduled`) and keeps it at or before
//! every live deadline — each sender's RTO / pacer release and each
//! ordering flow's τ. A deadline can only move when an event touches its
//! owner, so `Host::rearm_timer` is handed just the deadlines that moved
//! in this event and pushes a wakeup only when one of them is *earlier*
//! than anything outstanding; deadlines it is not shown are already
//! covered. When a wakeup fires, every due timer is processed and the next
//! wakeup is computed over all deadlines (the one place that looks at
//! all of them). Early or redundant wakeups are harmless (processing
//! checks deadlines), and this keeps the event queue free of
//! one-event-per-ACK churn.
//!
//! Pump scheme: [`FlowSender::poll_segment`] returning `None` changes
//! nothing, and only three things can turn that `None` into `Some`: a call
//! into the sender (`on_ack`, `on_timer`), the pacer's release instant
//! passing, or room appearing in a NIC that was full. So the host keeps a
//! ready set — senders started, ACKed, timer-fired, released by the pacer
//! or left unpolled by a full NIC since their last `None` — and `pump`
//! polls only those, in ascending flow order. Every sender it skips would
//! have answered `None`. Both schemes are derived state: not in snapshots,
//! rebuilt conservatively (everyone ready) on restore, and checked against
//! the poll-everyone / scan-everything behaviour they replace under
//! `debug_assertions`.

use crate::events::{Ctx, Event};
use crate::link::LinkParams;
use crate::trace::deliver_reason_code;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use vertigo_core::boost::unboost;
use vertigo_core::{Delivered, MarkingComponent, MarkingConfig, OrderingComponent, OrderingConfig};
use vertigo_pkt::{
    pool, AckSeg, FlowId, FlowInfo, FlowTable, NodeId, Packet, PacketKind, PortId, QueryId,
};
use vertigo_simcore::{
    release_if_drained, strictly_ascending, SimDuration, SimTime, SnapError, SnapReader,
    SnapWriter, Snapshot,
};
use vertigo_stats::{DropCause, TraceKind, TraceRecord, TRACE_NO_RANK};
use vertigo_transport::{FinishedReceiver, FlowReceiver, FlowSender, TransportConfig};

/// Host-side configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Transport parameters (congestion control, RTO, MSS).
    pub transport: TransportConfig,
    /// TX-path marking component; `None` disables Vertigo tagging.
    pub marking: Option<MarkingConfig>,
    /// RX-path ordering component; `None` disables re-sequencing.
    pub ordering: Option<OrderingConfig>,
    /// NIC egress buffer in bytes.
    pub nic_buffer_bytes: u64,
}

impl HostConfig {
    /// Plain host: chosen transport, no Vertigo components.
    pub fn plain(transport: TransportConfig) -> Self {
        HostConfig {
            transport,
            marking: None,
            ordering: None,
            nic_buffer_bytes: 2 * 1024 * 1024,
        }
    }

    /// Vertigo host: marking + ordering with defaults.
    pub fn vertigo(transport: TransportConfig) -> Self {
        HostConfig {
            transport,
            marking: Some(MarkingConfig::default()),
            ordering: Some(OrderingConfig::default()),
            nic_buffer_bytes: 2 * 1024 * 1024,
        }
    }
}

struct SendState {
    sender: FlowSender,
    dst: NodeId,
    query: QueryId,
}

struct RecvState {
    recv: FlowReceiver,
    src: NodeId,
    query: QueryId,
    /// reorder_events already exported to the recorder.
    reported_reorders: u64,
    /// contiguous bytes already counted toward goodput.
    reported_bytes: u64,
}

/// Counters accumulated as flows come and go (senders are dropped on
/// completion, so their stats are banked here).
#[derive(Debug, Default, Clone, Copy)]
pub struct HostStats {
    /// Data segments sent (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO firings.
    pub rtos: u64,
    /// Fast-retransmit episodes.
    pub fast_retransmits: u64,
}

/// An end host.
pub struct Host {
    /// This host's node id.
    pub id: NodeId,
    peer: NodeId,
    peer_port: PortId,
    link: LinkParams,
    cfg: HostConfig,

    /// A pop that empties it frees a buffer a burst grew
    /// ([`release_if_drained`]).
    nic_q: VecDeque<Box<Packet>>,
    nic_bytes: u64,
    nic_busy: bool,

    senders: FlowTable<SendState>,
    receivers: FlowTable<RecvState>,
    /// Flows received to completion, as the 16 bytes their late segments
    /// still read. A flow is here or in `receivers`, never both.
    finished: FlowTable<FinishedReceiver>,
    marking: Option<MarkingComponent>,
    ordering: Option<OrderingComponent<Box<Packet>>>,

    /// Earliest outstanding HostTimer event, if any.
    wake_scheduled: Option<SimTime>,
    uid: u64,
    stats: HostStats,
    /// Senders whose next `poll_segment` may return a segment: ascending,
    /// no duplicates. Anything not listed would answer `None`.
    ready: Vec<FlowId>,
    /// Pacer-blocked senders with pending work, by release instant; an
    /// entry moves its sender into `ready` once due. Stale entries (the
    /// sender has since sent, or finished) cost one idle poll.
    paced: BinaryHeap<Reverse<(SimTime, FlowId)>>,
    /// Scratch buffer reused across events to avoid per-packet allocation.
    deliveries: Vec<Delivered<Box<Packet>>>,
}

/// The earlier of two optional deadlines.
pub(crate) fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Provenance: a cuckoo-detected retransmission left the marker boosted
/// (`a` = retransmission count, `b` = the rotated, boosted RFS on the wire).
#[cold]
#[inline(never)]
fn trace_boost(host: NodeId, pkt: &Packet, info: FlowInfo, ctx: &mut Ctx) {
    let (a, b) = (info.retcnt as u64, info.rfs as u64);
    ctx.trace(host, TraceKind::Boost, pkt, a, b, 0, 0);
}

impl Host {
    /// Creates a host attached to `peer` (its ToR) via `link`.
    pub fn new(
        id: NodeId,
        peer: NodeId,
        peer_port: PortId,
        link: LinkParams,
        cfg: HostConfig,
    ) -> Self {
        let marking = cfg.marking.clone().map(MarkingComponent::new);
        let ordering = cfg.ordering.clone().map(OrderingComponent::new);
        Host {
            id,
            peer,
            peer_port,
            link,
            cfg,
            nic_q: VecDeque::new(),
            nic_bytes: 0,
            nic_busy: false,
            senders: FlowTable::new(),
            receivers: FlowTable::new(),
            finished: FlowTable::new(),
            marking,
            ordering,
            wake_scheduled: None,
            uid: (id.0 as u64) << 40,
            stats: HostStats::default(),
            ready: Vec::new(),
            paced: BinaryHeap::new(),
            deliveries: Vec::new(),
        }
    }

    /// Banked + live sender counters.
    pub fn stats(&self) -> HostStats {
        let mut s = self.stats;
        for st in self.senders.values() {
            let x = st.sender.stats();
            s.segments_sent += x.segments_sent;
            s.retransmits += x.retransmits;
            s.rtos += x.rtos;
            s.fast_retransmits += x.fast_retransmits;
        }
        s
    }

    /// The ordering component's counters, if deployed.
    pub fn ordering_stats(&self) -> Option<vertigo_core::OrderingStats> {
        self.ordering.as_ref().map(|o| o.stats())
    }

    /// The marking component's counters, if deployed.
    pub fn marking_stats(&self) -> Option<vertigo_core::MarkingStats> {
        self.marking.as_ref().map(|m| m.stats())
    }

    /// Heap held by the marking component's retransmission filter (0 when
    /// none is deployed).
    pub fn filter_heap_bytes(&self) -> usize {
        self.marking.as_ref().map_or(0, |m| m.filter_heap_bytes())
    }

    /// Retunes the ordering τ mid-run (warm-start fork override). No-op
    /// on hosts without an ordering component deployed.
    pub fn override_ordering_timeout(&mut self, timeout: SimDuration) {
        if let Some(cfg) = self.cfg.ordering.as_mut() {
            cfg.timeout = timeout;
        }
        if let Some(o) = self.ordering.as_mut() {
            o.set_timeout(timeout);
        }
    }

    /// Number of flows currently sending.
    pub fn active_senders(&self) -> usize {
        self.senders.len()
    }

    /// Flows with a receiver held whole, and flows received to completion
    /// and held as their finished record.
    pub fn receiving(&self) -> (usize, usize) {
        (self.receivers.len(), self.finished.len())
    }

    /// Packets waiting in the NIC egress queue (conservation audit).
    pub fn nic_queued_pkts(&self) -> u64 {
        self.nic_q.len() as u64
    }

    /// Packets the NIC egress ring has room for without allocating.
    pub fn nic_capacity(&self) -> usize {
        self.nic_q.capacity()
    }

    /// Provenance: one RX-ordering record. `a` = recovered (un-boosted)
    /// RFS, `b` = the flow's armed τ deadline *after* processing
    /// ([`TRACE_NO_RANK`] when disarmed).
    fn trace_rx(
        &self,
        kind: TraceKind,
        uid: u64,
        flow: FlowId,
        rfs: u64,
        flags: u8,
        ctx: &mut Ctx,
    ) {
        let deadline = self
            .ordering
            .as_ref()
            .and_then(|o| o.flow_deadline(flow))
            .map_or(TRACE_NO_RANK, |d| d.as_nanos());
        ctx.rec.trace.record(TraceRecord {
            time_ns: ctx.now.as_nanos(),
            uid,
            flow: flow.0,
            a: rfs,
            b: deadline,
            node: self.id.0,
            kind: kind.code(),
            flags,
            port: 0,
        });
    }

    /// `pkt` through the RX ordering shim, as the untraced arrival does,
    /// with its provenance records: the arriving packet's transition, then
    /// an RxDeliver per packet released into `out`. In the released set
    /// the arriving packet yields only its RxDeliver; otherwise the shim's
    /// stats delta says whether it was buffered or dropped as a duplicate
    /// (flag bit 0). Out of line, so that an untraced arrival keeps
    /// nothing live across the shim for the records.
    #[cold]
    #[inline(never)]
    fn order_traced(
        &mut self,
        pkt: Box<Packet>,
        out: &mut Vec<Delivered<Box<Packet>>>,
        ctx: &mut Ctx,
    ) {
        let ordering = self.ordering.as_mut().expect("present");
        let (uid, flow, info) = (pkt.uid, pkt.flow, pkt.flowinfo.expect("tagged"));
        let payload = pkt.data_seg().expect("data packet").payload;
        let before = ordering.stats();
        ordering.on_packet(ctx.now, flow, info, payload, pkt, out);
        let after = ordering.stats();
        let rfs = self.unboosted_rfs(Some(info));
        if after.buffered > before.buffered {
            self.trace_rx(TraceKind::RxBuffer, uid, flow, rfs, 0, ctx);
        } else if after.dup_dropped > before.dup_dropped {
            self.trace_rx(TraceKind::RxBuffer, uid, flow, rfs, 1, ctx);
        }
        self.trace_deliveries(out, ctx);
    }

    /// The ordering shim's timer, as the untraced wakeup runs it, with an
    /// RxDeliver record per packet it releases into `out`. Out of line like
    /// [`Host::order_traced`]: with the records after an inline timer call,
    /// untraced `ls_burst_vertigo` ran about 1 % slower (perfbench, 2-core
    /// Xeon at 2.1 GHz).
    #[cold]
    #[inline(never)]
    fn timer_traced(&mut self, out: &mut Vec<Delivered<Box<Packet>>>, ctx: &mut Ctx) {
        let ordering = self.ordering.as_mut().expect("present");
        ordering.on_timer(ctx.now, out);
        self.trace_deliveries(out, ctx);
    }

    /// Provenance: an RxDeliver record per packet the ordering shim
    /// released.
    #[cold]
    #[inline(never)]
    fn trace_deliveries(&self, out: &[Delivered<Box<Packet>>], ctx: &mut Ctx) {
        for d in out {
            let rfs = self.unboosted_rfs(d.item.flowinfo);
            let reason = deliver_reason_code(d.reason);
            self.trace_rx(
                TraceKind::RxDeliver,
                d.item.uid,
                d.item.flow,
                rfs,
                reason,
                ctx,
            );
        }
    }

    /// Recovered (un-boosted) RFS of a packet, for provenance records.
    fn unboosted_rfs(&self, info: Option<vertigo_pkt::FlowInfo>) -> u64 {
        let shift = self.cfg.ordering.as_ref().map_or(1, |c| c.boost_shift);
        info.map_or(TRACE_NO_RANK, |i| unboost(i.rfs, i.retcnt, shift) as u64)
    }

    /// Opens a new outgoing flow.
    pub fn start_flow(
        &mut self,
        flow: FlowId,
        dst: NodeId,
        bytes: u64,
        query: QueryId,
        ctx: &mut Ctx,
    ) {
        debug_assert_ne!(dst, self.id, "flow to self");
        ctx.rec
            .flow_started(flow, query, self.id, dst, bytes, ctx.now);
        if let Some(m) = &mut self.marking {
            m.register_flow(flow, dst, bytes);
        }
        let sender = FlowSender::new(flow, bytes, self.cfg.transport);
        self.senders.insert(flow, SendState { sender, dst, query });
        self.mark_ready(flow);
        let moved = self.pump(ctx);
        self.rearm_timer(moved, ctx);
    }

    /// A packet arrived from the network.
    pub fn on_arrive(&mut self, pkt: Box<Packet>, ctx: &mut Ctx) {
        debug_assert_eq!(pkt.dst, self.id, "mis-delivered packet");
        // Custody transfer: the host now owns this packet (packets parked
        // in the ordering buffer count as consumed).
        ctx.rec.audit.on_host_consumed();
        // The earliest deadline this arrival moved, for `rearm_timer`.
        let mut moved = None;
        match pkt.kind {
            PacketKind::Data(_) if pkt.is_trimmed() => {
                // A header stub: explicit loss notice, bypasses ordering.
                self.on_trim_notice(pkt, ctx);
            }
            PacketKind::Data(_) => {
                if let (Some(ordering), Some(info)) = (self.ordering.as_mut(), pkt.flowinfo) {
                    let mut out = std::mem::take(&mut self.deliveries);
                    if ctx.rec.trace.enabled() {
                        self.order_traced(pkt, &mut out, ctx);
                    } else {
                        let seg = *pkt.data_seg().expect("data packet");
                        ordering.on_packet(ctx.now, pkt.flow, info, seg.payload, pkt, &mut out);
                    }
                    for d in out.drain(..) {
                        self.deliver_data(d.item, ctx);
                    }
                    self.deliveries = out;
                    // Only this flow's τ can have been armed or re-armed, and
                    // every other flow's is covered by the outstanding wakeup:
                    // the earliest τ of all asks for a new wakeup exactly when
                    // this flow's would, and is the armed index's first entry
                    // where this flow's is a second search of the flow table.
                    moved = self.ordering.as_ref().and_then(|o| o.next_deadline());
                } else {
                    self.deliver_data(pkt, ctx);
                }
            }
            PacketKind::Ack(ack) => {
                let completed = self
                    .senders
                    .get_mut(pkt.flow)
                    .map(|st| st.sender.on_ack(ctx.now, &ack).completed);
                match completed {
                    Some(true) => {
                        // Bank the finished sender's stats and free its state.
                        if let Some(st) = self.senders.remove(pkt.flow) {
                            let x = st.sender.stats();
                            self.stats.segments_sent += x.segments_sent;
                            self.stats.retransmits += x.retransmits;
                            self.stats.rtos += x.rtos;
                            self.stats.fast_retransmits += x.fast_retransmits;
                        }
                        if let Some(m) = &mut self.marking {
                            m.complete_flow(pkt.flow);
                        }
                    }
                    // The window may have opened, or a hole been marked lost.
                    Some(false) => self.mark_ready(pkt.flow),
                    // A stray ACK for a flow that already finished.
                    None => {}
                }
                pool::recycle(pkt);
                moved = self.pump(ctx);
            }
        }
        self.rearm_timer(moved, ctx);
    }

    /// Processes a trimmed header stub: the receiver answers with an
    /// immediate duplicate ACK (the NdpTrim extension's loss signal).
    fn on_trim_notice(&mut self, pkt: Box<Packet>, ctx: &mut Ctx) {
        let seg = *pkt.data_seg().expect("data packet");
        let (flow, ce, sent_at) = (pkt.flow, pkt.ecn.is_ce(), pkt.sent_at);
        let (ack, src, query) = match self.receivers.index_of(flow) {
            Some(i) => {
                let st = self.receivers.value_at_mut(i);
                (st.recv.on_trim(ctx.now, ce, sent_at), st.src, st.query)
            }
            None => match self.finished.get(flow) {
                Some(fin) => (fin.on_trim(ce, sent_at), pkt.src, pkt.query),
                None => {
                    let i = self.open_receiver(&pkt, seg.flow_bytes);
                    let st = self.receivers.value_at_mut(i);
                    (st.recv.on_trim(ctx.now, ce, sent_at), st.src, st.query)
                }
            },
        };
        pool::recycle(pkt);
        self.send_ack(flow, query, src, ack, ctx);
    }

    /// Files a receiver for `pkt`'s flow and returns its position in
    /// `receivers`: a fresh one, or, for a segment past the prefix of a
    /// finished flow (no `FlowSender` sends one), the complete receiver
    /// that flow's record stands for.
    fn open_receiver(&mut self, pkt: &Packet, flow_bytes: u64) -> usize {
        let flow = pkt.flow;
        let (recv, reported_reorders, reported_bytes) = match self.finished.remove(flow) {
            Some(fin) => (fin.revive(flow), fin.reorder_events(), fin.contiguous()),
            None => (FlowReceiver::new(flow, flow_bytes), 0, 0),
        };
        let st = RecvState {
            recv,
            src: pkt.src,
            query: pkt.query,
            reported_reorders,
            reported_bytes,
        };
        self.receivers.insert(flow, st);
        self.receivers.index_of(flow).expect("just filed")
    }

    /// Sends `ack` for `flow` back to its data sender `dst`.
    #[inline]
    fn send_ack(&mut self, flow: FlowId, query: QueryId, dst: NodeId, ack: AckSeg, ctx: &mut Ctx) {
        self.uid += 1;
        let ack_pkt = pool::boxed(Packet::ack(
            self.uid, flow, query, self.id, dst, ack, ctx.now,
        ));
        self.enqueue_nic(ack_pkt, ctx);
    }

    /// Hands one data packet to the transport receiver and emits the ACK.
    fn deliver_data(&mut self, pkt: Box<Packet>, ctx: &mut Ctx) {
        let seg = *pkt.data_seg().expect("data packet");
        let (flow, ce, sent_at) = (pkt.flow, pkt.ecn.is_ce(), pkt.sent_at);
        ctx.rec.data_delivered += 1;
        ctx.rec.hops_delivered += pkt.hops as u64;
        let i = match self.receivers.index_of(flow) {
            Some(i) => i,
            None => {
                // A late copy for a finished flow: the complete receiver's
                // ACK, with no goodput, reorder or second completion.
                let late = self.finished.get_mut(flow);
                if let Some(ack) = late.and_then(|fin| fin.on_data(&seg, ce, sent_at)) {
                    let (src, query) = (pkt.src, pkt.query);
                    pool::recycle(pkt);
                    return self.send_ack(flow, query, src, ack, ctx);
                }
                self.open_receiver(&pkt, seg.flow_bytes)
            }
        };
        let st = self.receivers.value_at_mut(i);
        let was_complete = st.recv.is_complete();
        let ack = st.recv.on_data(ctx.now, &seg, ce, sent_at);
        pool::recycle(pkt);
        // Export reorder and goodput deltas.
        let reorders = st.recv.stats().reorder_events;
        ctx.rec.transport_reorders += reorders - st.reported_reorders;
        st.reported_reorders = reorders;
        let contiguous = st.recv.contiguous().min(st.recv.size);
        let delta = contiguous - st.reported_bytes;
        st.reported_bytes = contiguous;
        let src = st.src;
        let query = st.query;
        ctx.rec.flow_progress(flow, delta);
        if st.recv.is_complete() && !was_complete {
            ctx.rec.flow_finished(flow, ctx.now);
            // From here on the flow holds its finished record only.
            if let Some(fin) = st.recv.finished() {
                self.receivers.remove(flow);
                self.finished.insert(flow, fin);
            }
            if let Some(o) = &mut self.ordering {
                // LAS flows (and any stragglers) are purged explicitly.
                let mut out = std::mem::take(&mut self.deliveries);
                o.purge_flow(flow, &mut out);
                // Flow is complete; buffered leftovers are dups.
                for d in out.drain(..) {
                    pool::recycle(d.item);
                }
                self.deliveries = out;
            }
        }
        self.send_ack(flow, query, src, ack, ctx);
    }

    /// A consolidated wakeup fired: process every due timer. Redundant
    /// wakeups are harmless.
    pub fn on_timer(&mut self, ctx: &mut Ctx) {
        if self.wake_scheduled.is_some_and(|w| w <= ctx.now) {
            self.wake_scheduled = None;
        }
        for st in self.senders.values_mut() {
            st.sender.on_timer(ctx.now);
        }
        if let Some(o) = &mut self.ordering {
            let mut out = std::mem::take(&mut self.deliveries);
            if ctx.rec.trace.enabled() {
                self.timer_traced(&mut out, ctx);
            } else {
                o.on_timer(ctx.now, &mut out);
            }
            for d in out.drain(..) {
                self.deliver_data(d.item, ctx);
            }
            self.deliveries = out;
        }
        // Any sender's RTO may have fired: poll them all. That also makes
        // `pump` report the earliest deadline over *all* senders, so with
        // the ordering component's earliest τ this is the full recompute.
        self.mark_all_ready();
        let senders_next = self.pump(ctx);
        let ordering_next = self.ordering.as_ref().and_then(|o| o.next_deadline());
        self.rearm_timer(earlier(senders_next, ordering_next), ctx);
    }

    /// Adds `flow` to the ready set.
    fn mark_ready(&mut self, flow: FlowId) {
        if let Err(at) = self.ready.binary_search(&flow) {
            self.ready.insert(at, flow);
        }
    }

    /// Makes every sender ready. Always a valid ready set: an idle poll
    /// changes nothing.
    fn mark_all_ready(&mut self) {
        self.ready.clear();
        self.ready.extend(self.senders.keys());
    }

    /// Releases transmittable segments from the ready senders into the NIC.
    /// Returns the earliest deadline among the senders it looked at — the
    /// only senders whose deadlines can have moved in this event.
    fn pump(&mut self, ctx: &mut Ctx) -> Option<SimTime> {
        let mss_wire = (self.cfg.transport.mss
            + vertigo_pkt::DATA_HEADER_BYTES
            + vertigo_pkt::FLOWINFO_OVERHEAD_BYTES) as u64;
        while let Some(&Reverse((release, flow))) = self.paced.peek() {
            if release > ctx.now {
                break;
            }
            self.paced.pop();
            self.mark_ready(flow);
        }
        let mut ready = std::mem::take(&mut self.ready);
        let mut moved = None;
        // Entries of `ready` dealt with: polled to `None`, or gone.
        let mut settled = 0;
        'outer: for &flow in &ready {
            let Some(i) = self.senders.index_of(flow) else {
                settled += 1; // finished since it was marked
                continue;
            };
            loop {
                if self.nic_bytes + mss_wire > self.cfg.nic_buffer_bytes {
                    break 'outer; // NIC full: stop generating
                }
                let st = self.senders.value_at_mut(i);
                let Some(seg) = st.sender.poll_segment(ctx.now) else {
                    break;
                };
                let ecn = st.sender.ecn_capable();
                let dst = st.dst;
                let query = st.query;
                self.uid += 1;
                let mut pkt = pool::boxed(Packet::data(
                    self.uid, flow, query, self.id, dst, seg, ecn, ctx.now,
                ));
                if let Some(m) = &mut self.marking {
                    let info = m.mark(flow, seg.seq, seg.payload);
                    pkt.tag_flowinfo(info);
                    if info.retcnt > 0 && ctx.rec.trace.enabled() {
                        trace_boost(self.id, &pkt, info, ctx);
                    }
                }
                ctx.rec.data_sent += 1;
                self.enqueue_nic(pkt, ctx);
            }
            settled += 1;
            let sender = &self.senders.value_at(i).sender;
            if let Some(release) = sender.pacer_release(ctx.now) {
                self.paced.push(Reverse((release, flow)));
            }
            moved = earlier(moved, sender.next_deadline(ctx.now));
        }
        // Senders a full NIC kept us from reaching stay ready. One of them
        // may be the sender this event ACKed, so their deadlines count too.
        for &flow in &ready[settled..] {
            if let Some(st) = self.senders.get(flow) {
                moved = earlier(moved, st.sender.next_deadline(ctx.now));
            }
        }
        ready.drain(..settled);
        self.ready = ready;
        self.start_tx(ctx);
        #[cfg(debug_assertions)]
        for (flow, st) in self.senders.iter_mut() {
            // What polling every sender, as this loop once did, would find.
            assert!(
                self.ready.binary_search(flow).is_ok() || st.sender.poll_segment(ctx.now).is_none(),
                "host {:?}: pump skipped {flow:?}, which had a segment to send",
                self.id
            );
        }
        moved
    }

    fn enqueue_nic(&mut self, pkt: Box<Packet>, ctx: &mut Ctx) {
        // Single packet-creation site: every data and ACK packet a host
        // materializes passes through here (the conservation audit's
        // `created` tally; an immediate overflow drop still counts — it
        // shows up on the `drops` side of the ledger).
        ctx.rec.audit.on_packet_created();
        if self.nic_bytes + pkt.wire_size as u64 > self.cfg.nic_buffer_bytes {
            return ctx.drop_pkt(self.id, 0, DropCause::HostQueue, pkt);
        }
        self.nic_bytes += pkt.wire_size as u64;
        self.nic_q.push_back(pkt);
        self.start_tx(ctx);
    }

    fn start_tx(&mut self, ctx: &mut Ctx) {
        if self.nic_busy {
            return;
        }
        let Some(mut pkt) = self.nic_q.pop_front() else {
            return;
        };
        release_if_drained(&mut self.nic_q);
        self.nic_bytes -= pkt.wire_size as u64;
        self.nic_busy = true;
        // Timestamp at the moment the packet hits the wire (Swift-style
        // NIC hardware timestamping).
        pkt.sent_at = ctx.now;
        pkt.prev_hop = self.id;
        ctx.transmit(
            self.id,
            PortId(0),
            self.link,
            self.peer,
            self.peer_port,
            pkt,
        );
    }

    /// NIC finished serializing; send the next queued packet.
    pub fn on_tx_done(&mut self, ctx: &mut Ctx) {
        self.nic_busy = false;
        self.start_tx(ctx);
        // A sender may have been left ready behind a full NIC.
        let moved = self.pump(ctx);
        self.rearm_timer(moved, ctx);
    }

    /// Serializes the mutable host state: the NIC queue, every live
    /// sender and receiver, the finished flows' records (each table in
    /// ascending id order), the marking and ordering components, the
    /// wakeup cursor, the uid counter, and banked stats. The config and
    /// link come from the run spec. `deliveries` is drained within every
    /// event, and the ready set and pacer heap are derived state that
    /// `snap_restore` rebuilds, so none of them is saved.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        debug_assert!(self.deliveries.is_empty());
        w.put_usize(self.nic_q.len());
        for pkt in &self.nic_q {
            pkt.save(w);
        }
        w.put_u64(self.nic_bytes);
        w.put_bool(self.nic_busy);
        w.put_usize(self.senders.len());
        for (flow, st) in self.senders.iter() {
            flow.save(w);
            st.dst.save(w);
            st.query.save(w);
            st.sender.snap_save(w);
        }
        w.put_usize(self.receivers.len());
        for (flow, st) in self.receivers.iter() {
            flow.save(w);
            st.src.save(w);
            st.query.save(w);
            w.put_u64(st.reported_reorders);
            w.put_u64(st.reported_bytes);
            st.recv.snap_save(w);
        }
        w.put_usize(self.finished.len());
        for (flow, fin) in self.finished.iter() {
            flow.save(w);
            fin.snap_save(w);
        }
        w.put_bool(self.marking.is_some());
        if let Some(m) = &self.marking {
            m.snap_save(w);
        }
        w.put_bool(self.ordering.is_some());
        if let Some(o) = &self.ordering {
            o.snap_save(w);
        }
        self.wake_scheduled.save(w);
        w.put_u64(self.uid);
        w.put_u64(self.stats.segments_sent);
        w.put_u64(self.stats.retransmits);
        w.put_u64(self.stats.rtos);
        w.put_u64(self.stats.fast_retransmits);
    }

    /// Restores state written by [`Host::snap_save`] into a host freshly
    /// built from the same run spec.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(SnapError::new(format!(
                "corrupt NIC queue length {n} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        self.nic_q.clear();
        for _ in 0..n {
            self.nic_q.push_back(<Box<Packet>>::restore(r)?);
        }
        self.nic_bytes =
            crate::queue::restore_bytes(r, "NIC queue", self.nic_q.iter().map(|p| p.wire_size))?;
        self.nic_busy = r.get_bool()?;
        // Every table is read one record at a time, so a count the input
        // cannot back runs out of bytes before it sizes anything.
        self.senders.clear();
        let (n, mut prev) = (r.get_usize()?, None);
        for _ in 0..n {
            let flow = strictly_ascending(&mut prev, FlowId::restore(r)?, "sender")?;
            let dst = NodeId::restore(r)?;
            let query = QueryId::restore(r)?;
            let sender = FlowSender::snap_restore(self.cfg.transport, r)?;
            self.senders.insert(flow, SendState { sender, dst, query });
        }
        self.receivers.clear();
        let (n, mut prev) = (r.get_usize()?, None);
        for _ in 0..n {
            let flow = strictly_ascending(&mut prev, FlowId::restore(r)?, "receiver")?;
            let src = NodeId::restore(r)?;
            let query = QueryId::restore(r)?;
            let reported_reorders = r.get_u64()?;
            let reported_bytes = r.get_u64()?;
            let recv = FlowReceiver::snap_restore(r)?;
            // `deliver_data` exports the difference to these on the next
            // packet: a claim above what the receiver holds underflows it.
            let (bytes, reorders) = (
                recv.contiguous().min(recv.size),
                recv.stats().reorder_events,
            );
            if reported_bytes > bytes || reported_reorders > reorders {
                return Err(SnapError::new(format!(
                    "receiver of {flow:?}: reported {reported_bytes} bytes and \
                     {reported_reorders} reorders of {bytes} and {reorders} received"
                )));
            }
            self.receivers.insert(
                flow,
                RecvState {
                    recv,
                    src,
                    query,
                    reported_reorders,
                    reported_bytes,
                },
            );
        }
        self.finished.clear();
        let (n, mut prev) = (r.get_usize()?, None);
        for _ in 0..n {
            let flow = strictly_ascending(&mut prev, FlowId::restore(r)?, "finished flow")?;
            if self.receivers.index_of(flow).is_some() {
                return Err(SnapError::new(format!(
                    "finished flow {flow:?} also has a live receiver"
                )));
            }
            self.finished
                .insert(flow, FinishedReceiver::snap_restore(r)?);
        }
        let had_marking = r.get_bool()?;
        if had_marking != self.marking.is_some() {
            return Err(SnapError::new(
                "marking-component deployment mismatch between snapshot and run spec",
            ));
        }
        if let Some(m) = &mut self.marking {
            m.snap_restore(r)?;
        }
        let had_ordering = r.get_bool()?;
        if had_ordering != self.ordering.is_some() {
            return Err(SnapError::new(
                "ordering-component deployment mismatch between snapshot and run spec",
            ));
        }
        if let Some(o) = &mut self.ordering {
            o.snap_restore(r)?;
        }
        self.wake_scheduled = Option::restore(r)?;
        self.uid = r.get_u64()?;
        self.stats.segments_sent = r.get_u64()?;
        self.stats.retransmits = r.get_u64()?;
        self.stats.rtos = r.get_u64()?;
        self.stats.fast_retransmits = r.get_u64()?;
        // Rebuild the derived state: pacer-blocked senders re-enter the
        // heap as they answer the next pump.
        self.mark_all_ready();
        self.paced.clear();
        Ok(())
    }

    /// Schedules a wakeup at `moved` — the earliest deadline this event
    /// armed or moved — unless an outstanding wakeup already covers it.
    /// Deadlines the event did not touch are covered by construction.
    fn rearm_timer(&mut self, moved: Option<SimTime>, ctx: &mut Ctx) {
        if let Some(d) = moved {
            let d = d.max(ctx.now);
            if self.wake_scheduled.is_none_or(|w| w > d) {
                self.wake_scheduled = Some(d);
                ctx.events.push(d, Event::HostTimer { node: self.id });
            }
        }
        #[cfg(debug_assertions)]
        {
            // The scan over every sender and ordering flow this replaces
            // must find nothing left to schedule.
            let senders_next = self
                .senders
                .values()
                .filter_map(|st| st.sender.next_deadline(ctx.now))
                .min();
            let ordering_next = self.ordering.as_ref().and_then(|o| o.next_deadline());
            if let Some(d) = earlier(senders_next, ordering_next) {
                let d = d.max(ctx.now);
                assert!(
                    self.wake_scheduled.is_some_and(|w| w <= d),
                    "host {:?}: deadline {d:?} not covered by wakeup {:?}",
                    self.id,
                    self.wake_scheduled
                );
            }
        }
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("senders", &self.senders.len())
            .field("receivers", &self.receivers.len())
            .field("finished", &self.finished.len())
            .field("nic_bytes", &self.nic_bytes)
            .finish()
    }
}
