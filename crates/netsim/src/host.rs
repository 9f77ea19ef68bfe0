//! The end host: transport flows, the Vertigo marking and ordering
//! components, and a NIC: a FIFO [`Port`] onto the link to its ToR.
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
use crate::queue::Port;
use crate::trace::deliver_reason_code;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vertigo_core::boost::unboost;
use vertigo_core::{Delivered, MarkingComponent, MarkingConfig, OrderingComponent, OrderingConfig};
use vertigo_pkt::{
    pool, AckSeg, DataSeg, FlowId, FlowInfo, FlowTable, NodeId, Packet, PacketKind, PortId, QueryId,
};
use vertigo_simcore::{SimTime, SnapError, SnapReader, SnapWriter, Snapshot};
use vertigo_stats::{DropCause, TraceKind, TraceRecord, TRACE_NO_RANK};
use vertigo_transport::{FlowReceiver, FlowSender, SenderStats, TransportConfig};

/// Host-side configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Transport parameters (congestion control, fast retransmit).
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
            marking: Some(MarkingConfig::default()),
            ordering: Some(OrderingConfig::default()),
            ..HostConfig::plain(transport)
        }
    }
}

#[derive(Clone)]
struct SendState {
    sender: FlowSender,
    dst: NodeId,
    query: QueryId,
}

/// A host's sender counters: its finished flows', banked as each
/// completes, plus its live senders'.
pub type HostStats = SenderStats;

/// An end host.
#[derive(Clone)]
pub struct Host {
    /// This host's node id.
    pub id: NodeId,
    cfg: HostConfig,
    /// The NIC: a FIFO bounded by `cfg.nic_buffer_bytes`.
    nic: Port,

    /// Live senders and receivers, held out of line: a table keeps spare
    /// slots after a burst, 8 bytes each instead of a whole state's. A
    /// receiver leaves its table the moment it completes.
    senders: FlowTable<Box<SendState>>,
    receivers: FlowTable<Box<FlowReceiver>>,
    /// Flows received to completion: their ids alone, since a late segment
    /// carries the flow's size that its ACK repeats. A flow is here or in
    /// `receivers`, never both.
    finished: FlowTable<()>,
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

/// The ACK for a later segment or trim notice of a flow received to
/// completion: cumulative through the flow's last byte, as its complete
/// receiver's was.
fn finished_ack(seg: &DataSeg, ce: bool, sent_at: SimTime) -> AckSeg {
    AckSeg {
        cum_ack: seg.flow_bytes,
        ecn_echo: ce,
        ts_echo: sent_at,
    }
}

impl Host {
    /// Creates a host whose NIC is `nic`, a FIFO port onto the link to
    /// its ToR.
    pub fn new(id: NodeId, nic: Port, cfg: HostConfig) -> Self {
        let marking = cfg.marking.clone().map(MarkingComponent::new);
        let ordering = cfg.ordering.clone().map(OrderingComponent::new);
        Host {
            id,
            cfg,
            nic,
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
            s += st.sender.stats();
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

    /// Fingerprints the marking component's filter holds (0 when none is
    /// deployed).
    pub fn filter_entries(&self) -> usize {
        self.marking.as_ref().map_or(0, |m| m.filter_entries())
    }

    /// Retransmission counters the marking component holds (0 when none
    /// is deployed).
    pub fn retx_entries(&self) -> usize {
        self.marking.as_ref().map_or(0, |m| m.retx_entries())
    }

    /// Number of flows currently sending.
    pub fn active_senders(&self) -> usize {
        self.senders.len()
    }

    /// Flows being received, and flows received to completion.
    pub fn receiving(&self) -> (usize, usize) {
        (self.receivers.len(), self.finished.len())
    }

    /// Packets waiting in the NIC egress queue (conservation audit).
    pub fn nic_queued_pkts(&self) -> u64 {
        self.nic.queue.len() as u64
    }

    /// Packets the NIC egress ring has room for without allocating.
    pub fn nic_capacity(&self) -> usize {
        self.nic.queue.capacity()
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
        self.senders
            .insert(flow, Box::new(SendState { sender, dst, query }));
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
                let outcome = self
                    .senders
                    .get_mut(pkt.flow)
                    .map(|st| st.sender.on_ack(ctx.now, &ack));
                if let (Some(o), Some(m)) = (outcome, &mut self.marking) {
                    // Segments below the ACK are never sent again, so their
                    // fingerprints and retransmission counters go; a
                    // completing ACK reaches the flow's size.
                    let to = ack.cum_ack;
                    m.cum_ack_advanced(pkt.flow, to - o.newly_acked, to);
                }
                match outcome {
                    Some(o) if o.completed => {
                        // Bank the finished sender's stats and free its state.
                        if let Some(st) = self.senders.remove(pkt.flow) {
                            self.stats += st.sender.stats();
                        }
                        if let Some(m) = &mut self.marking {
                            m.complete_flow(pkt.flow);
                        }
                    }
                    // The window may have opened, or a hole been marked lost.
                    Some(_) => self.mark_ready(pkt.flow),
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
        let (flow, query, src) = (pkt.flow, pkt.query, pkt.src);
        let (ce, sent_at) = (pkt.ecn.is_ce(), pkt.sent_at);
        pool::recycle(pkt);
        let ack = match self.receivers.index_of(flow) {
            Some(i) => self.receivers.value_at(i).on_trim(ce, sent_at),
            None if self.finished.index_of(flow).is_some() => finished_ack(&seg, ce, sent_at),
            None => {
                let i = self.open_receiver(flow, seg.flow_bytes);
                self.receivers.value_at(i).on_trim(ce, sent_at)
            }
        };
        self.send_ack(flow, query, src, ack, ctx);
    }

    /// Files a fresh receiver for `flow` and returns its position in
    /// `receivers`.
    fn open_receiver(&mut self, flow: FlowId, flow_bytes: u64) -> usize {
        let recv = Box::new(FlowReceiver::new(flow, flow_bytes));
        self.receivers.insert(flow, recv);
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
        // Every segment a `FlowSender` cuts is on the grid. So a receiver
        // knows a segment by its index, it completes at exactly the flow's
        // size, and a finished flow's ACK is that size.
        debug_assert!(
            seg.is_on_grid(),
            "host {:?}: {seg:?} off the grid or outside a flow",
            self.id
        );
        let (flow, query, src) = (pkt.flow, pkt.query, pkt.src);
        let (ce, sent_at) = (pkt.ecn.is_ce(), pkt.sent_at);
        ctx.rec.data_delivered += 1;
        ctx.rec.hops_delivered += pkt.hops as u64;
        pool::recycle(pkt);
        let i = match self.receivers.index_of(flow) {
            Some(i) => i,
            // A late copy for a finished flow: the complete receiver's
            // ACK, with no goodput, reorder or second completion.
            None if self.finished.index_of(flow).is_some() => {
                return self.send_ack(flow, query, src, finished_ack(&seg, ce, sent_at), ctx);
            }
            None => self.open_receiver(flow, seg.flow_bytes),
        };
        let recv = self.receivers.value_at_mut(i);
        let (bytes, reorders) = (recv.contiguous(), recv.reorder_events());
        let ack = recv.on_data(ctx.now, &seg, ce, sent_at);
        ctx.rec.transport_reorders += recv.reorder_events() - reorders;
        ctx.rec.flow_progress(flow, recv.contiguous() - bytes);
        if recv.is_complete() {
            ctx.rec.flow_finished(flow, ctx.now);
            // From here on the flow is its id in `finished`.
            self.receivers.remove(flow);
            self.finished.insert(flow, ());
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
        let mss_wire = (vertigo_pkt::MAX_PAYLOAD
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
                if self.nic.queue.bytes() + mss_wire > self.cfg.nic_buffer_bytes {
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
        if !self.nic.queue.fits(&pkt, self.cfg.nic_buffer_bytes) {
            return ctx.drop_pkt(self.id, 0, DropCause::HostQueue, pkt);
        }
        self.nic.queue.push(pkt);
        self.start_tx(ctx);
    }

    fn start_tx(&mut self, ctx: &mut Ctx) {
        let Some(mut pkt) = self.nic.next_tx() else {
            return;
        };
        // Timestamp at the moment the packet hits the wire (Swift-style
        // NIC hardware timestamping).
        pkt.sent_at = ctx.now;
        ctx.transmit(self.id, PortId(0), &self.nic, pkt);
    }

    /// NIC finished serializing; send the next queued packet.
    pub fn on_tx_done(&mut self, ctx: &mut Ctx) {
        self.nic.busy = false;
        self.start_tx(ctx);
        // A sender may have been left ready behind a full NIC.
        let moved = self.pump(ctx);
        self.rearm_timer(moved, ctx);
    }

    /// Serializes the mutable host state: the NIC queue, every live
    /// sender and receiver, the finished flows' ids (each table in
    /// ascending id order), the marking and ordering components, the
    /// wakeup cursor, the uid counter, and banked stats. The config and
    /// link come from the run spec. `deliveries` is drained within every
    /// event, and the ready set and pacer heap are derived state that
    /// `snap_restore` rebuilds, so none of them is saved.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        debug_assert!(self.deliveries.is_empty());
        self.nic.snap_save(w);
        w.put_usize(self.senders.len());
        for (flow, st) in self.senders.iter() {
            flow.save(w);
            st.dst.save(w);
            st.query.save(w);
            st.sender.snap_save(w);
        }
        w.put_usize(self.receivers.len());
        for (flow, recv) in self.receivers.iter() {
            flow.save(w);
            recv.snap_save(w);
        }
        w.put_usize(self.finished.len());
        for flow in self.finished.keys() {
            flow.save(w);
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
        self.nic.snap_restore(r, "NIC queue")?;
        // A sender record opens with its flow, peer and query, then the
        // sender's size.
        self.senders.clear();
        r.ascending(28, "sender", FlowId::restore, |r, flow| {
            let dst = NodeId::restore(r)?;
            let query = QueryId::restore(r)?;
            let sender = FlowSender::snap_restore(flow, self.cfg.transport, r)?;
            self.senders
                .insert(flow, Box::new(SendState { sender, dst, query }));
            Ok(())
        })?;
        // A receiver record opens with its flow, then the receiver's size,
        // prefix and flag count.
        self.receivers.clear();
        r.ascending(32, "receiver", FlowId::restore, |r, flow| {
            let recv = FlowReceiver::snap_restore(flow, r)?;
            if recv.is_complete() {
                return Err(SnapError::new(format!(
                    "receiver of {flow:?} is complete but still live"
                )));
            }
            self.receivers.insert(flow, Box::new(recv));
            Ok(())
        })?;
        // A finished record is its flow.
        self.finished.clear();
        r.ascending(8, "finished flow", FlowId::restore, |_, flow| {
            if self.receivers.index_of(flow).is_some() {
                return Err(SnapError::new(format!(
                    "finished flow {flow:?} also has a live receiver"
                )));
            }
            self.finished.insert(flow, ());
            Ok(())
        })?;
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
        // A sender with bytes in flight has its RTO armed, and every event
        // leaves a wakeup at or before each armed deadline.
        if self.wake_scheduled.is_none()
            && self.senders.values().any(|st| st.sender.flight_bytes() > 0)
        {
            return Err(SnapError::new(
                "a sender has bytes in flight but no wakeup is scheduled",
            ));
        }
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
            .field("nic_queued_bytes", &self.nic.queue.bytes())
            .finish()
    }
}
