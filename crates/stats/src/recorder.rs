//! The metrics recorder threaded through a simulation run.
//!
//! Every component reports here: hosts record flow lifecycles, switches
//! record drops/deflections/ECN marks, receivers record delivery and
//! reordering. [`crate::report::Report`] turns the raw records into the
//! quantities the paper plots (FCT, QCT, completion ratios, goodput,
//! drop and reorder rates, hop inflation).

use std::collections::BTreeMap;
use std::fmt;
use vertigo_pkt::{FlowId, NodeId, QueryId};
use vertigo_simcore::{SimTime, SnapError, SnapReader, SnapWriter};

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Output queue full and the policy does not deflect (or the victim had
    /// nowhere to go under Vertigo's eviction).
    QueueFull,
    /// Deflection attempted but the sampled deflection queue(s) were full.
    DeflectionFull,
    /// Hop budget exceeded (routing loop guard).
    TtlExceeded,
    /// A host NIC queue overflowed.
    HostQueue,
    /// Injected fault: the packet traversed a link administratively down.
    LinkDown,
    /// Injected fault: the packet was lost in a probabilistic loss window.
    LinkLoss,
    /// Injected fault: the packet was corrupted in flight and discarded by
    /// the receiving node's CRC check.
    LinkCorrupt,
    /// Injected fault: the packet arrived at a blackholed node.
    Blackhole,
}

/// Number of drop causes (array sizing).
pub const DROP_CAUSES: usize = 8;

impl DropCause {
    /// All causes in [`DropCause::index`] order.
    pub const ALL: [DropCause; DROP_CAUSES] = [
        DropCause::QueueFull,
        DropCause::DeflectionFull,
        DropCause::TtlExceeded,
        DropCause::HostQueue,
        DropCause::LinkDown,
        DropCause::LinkLoss,
        DropCause::LinkCorrupt,
        DropCause::Blackhole,
    ];

    /// Stable index for counters.
    pub fn index(self) -> usize {
        match self {
            DropCause::QueueFull => 0,
            DropCause::DeflectionFull => 1,
            DropCause::TtlExceeded => 2,
            DropCause::HostQueue => 3,
            DropCause::LinkDown => 4,
            DropCause::LinkLoss => 5,
            DropCause::LinkCorrupt => 6,
            DropCause::Blackhole => 7,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::QueueFull => "queue-full",
            DropCause::DeflectionFull => "deflection-full",
            DropCause::TtlExceeded => "ttl-exceeded",
            DropCause::HostQueue => "host-queue",
            DropCause::LinkDown => "link-down",
            DropCause::LinkLoss => "link-loss",
            DropCause::LinkCorrupt => "link-corrupt",
            DropCause::Blackhole => "blackhole",
        }
    }

    /// True for the causes produced only by injected faults.
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            DropCause::LinkDown
                | DropCause::LinkLoss
                | DropCause::LinkCorrupt
                | DropCause::Blackhole
        )
    }
}

/// Lifecycle record of one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Flow id.
    pub flow: FlowId,
    /// Query the flow belongs to (`QueryId::NONE` for background traffic).
    pub query: QueryId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Flow size in bytes.
    pub bytes: u64,
    /// When the application opened the flow.
    pub start: SimTime,
    /// When the receiver application had every byte (None: never finished).
    pub finished: Option<SimTime>,
    /// Unique bytes delivered to the receiver so far (equals `bytes` once
    /// finished; partial progress for flows cut off by the horizon).
    pub delivered_bytes: u64,
}

impl FlowRecord {
    /// Flow completion time in seconds, if completed.
    pub fn fct_secs(&self) -> Option<f64> {
        self.finished
            .map(|f| f.saturating_since(self.start).as_secs_f64())
    }
}

/// The flow records of a run, indexed by the simulator-assigned
/// [`FlowId`]: `Simulation::schedule_flow` hands ids out densely in order,
/// so the record a delivered packet updates is one indexed load away. Reads
/// see the records in id order, as a `BTreeMap<FlowId, FlowRecord>` gave
/// them (reports, snapshot bytes, [`Recorder::absorb`]); an id without a
/// record is a hole.
#[derive(Clone, Default)]
pub struct FlowLedger {
    slots: Vec<Option<FlowRecord>>,
    /// Records held (slots that are not holes).
    len: usize,
}

impl FlowLedger {
    /// Records held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record of `flow`, if one is held.
    #[inline]
    pub fn get(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.slots.get(slot_of(flow))?.as_ref()
    }

    #[inline]
    fn get_mut(&mut self, flow: FlowId) -> Option<&mut FlowRecord> {
        self.slots.get_mut(slot_of(flow))?.as_mut()
    }

    /// Every record, in id order.
    pub fn values(&self) -> impl Iterator<Item = &FlowRecord> {
        self.slots.iter().flatten()
    }

    fn into_values(self) -> impl Iterator<Item = FlowRecord> {
        self.slots.into_iter().flatten()
    }

    /// Files `rec` under its id, replacing what was there.
    fn insert(&mut self, rec: FlowRecord) {
        let i = slot_of(rec.flow);
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].replace(rec).is_none() {
            self.len += 1;
        }
    }
}

/// A flow id's slot. Ids count flows, so one that does not fit a `usize`
/// has no slot to be in.
#[inline]
fn slot_of(flow: FlowId) -> usize {
    usize::try_from(flow.0).expect("flow id beyond the address space")
}

impl std::ops::Index<&FlowId> for FlowLedger {
    type Output = FlowRecord;

    fn index(&self, flow: &FlowId) -> &FlowRecord {
        self.get(*flow)
            .unwrap_or_else(|| panic!("no record of {flow:?}"))
    }
}

/// As a map from id to record, the holes left out.
impl fmt::Debug for FlowLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.values().map(|r| (r.flow, r)))
            .finish()
    }
}

/// Lifecycle record of one incast query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Query id.
    pub query: QueryId,
    /// When the query was issued.
    pub start: SimTime,
    /// Reply flows the query fans out to.
    pub expected_flows: u32,
    /// Reply flows completed so far.
    pub done_flows: u32,
    /// When the last reply finished (None: incomplete at horizon).
    pub finished: Option<SimTime>,
}

impl QueryRecord {
    /// Query completion time in seconds, if completed.
    pub fn qct_secs(&self) -> Option<f64> {
        self.finished
            .map(|f| f.saturating_since(self.start).as_secs_f64())
    }
}

/// Central metrics sink for one simulation run.
#[derive(Debug, Default)]
pub struct Recorder {
    /// All flows ever started.
    pub flows: FlowLedger,
    /// All queries ever issued.
    pub queries: BTreeMap<QueryId, QueryRecord>,
    /// Packet drops by cause.
    pub drops: [u64; DROP_CAUSES],
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// Deflection events.
    pub deflections: u64,
    /// PABO backward bounces to the upstream hop (a subset of
    /// `deflections`).
    pub pabo_bounces: u64,
    /// Hybrid-policy overflows resolved by deflection (subset of
    /// `deflections`).
    pub hybrid_deflects: u64,
    /// Hybrid-policy overflows resolved by dropping so the transport
    /// retransmits (heavy-load branch; a subset of queue-full drops).
    pub hybrid_retx_drops: u64,
    /// Bounce-bounded packets dropped exactly at the bounce cap (a subset
    /// of deflection-full drops).
    pub bounded_cap_drops: u64,
    /// Packets trimmed to header-only stubs (NdpTrim extension policy).
    pub trims: u64,
    /// ECN CE marks applied by switches.
    pub ecn_marks: u64,
    /// Data packets handed to a destination host.
    pub data_delivered: u64,
    /// Sum of switch hops over delivered data packets.
    pub hops_delivered: u64,
    /// Unique application bytes delivered (goodput numerator).
    pub goodput_bytes: u64,
    /// Out-of-order arrivals as seen by the transport (post-shim).
    pub transport_reorders: u64,
    /// Data packets transmitted by hosts (including retransmissions).
    pub data_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO firings across all senders.
    pub rtos: u64,
    /// Sum of per-packet queueing delay in seconds for mice flows
    /// (< 100 KB), and their packet count, for the §2 queueing statistic.
    pub mice_queueing_secs: f64,
    /// Packets behind `mice_queueing_secs`.
    pub mice_queueing_pkts: u64,
    /// Fault-injection interventions: fault drops plus stall/pause
    /// deferrals. Zero on fault-free runs.
    pub fault_events: u64,
    /// Conservation-audit custody tallies (counted in every build;
    /// checked in debug-assertion builds).
    pub audit: crate::audit::AuditHooks,
    /// Per-packet provenance sink (records only once armed).
    pub trace: crate::trace::TraceSink,
    /// Scenario-component tag per flow (tag 0 / absent = base workload).
    /// Kept out of [`FlowRecord`] because tags are assigned at *schedule*
    /// time while `flow_started` fires at dispatch.
    pub flow_tags: BTreeMap<FlowId, u8>,
    /// Scenario-component tag per query (see `flow_tags`).
    pub query_tags: BTreeMap<QueryId, u8>,
}

impl Recorder {
    /// Fresh recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Registers a flow opening.
    pub fn flow_started(
        &mut self,
        flow: FlowId,
        query: QueryId,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        at: SimTime,
    ) {
        self.flows.insert(FlowRecord {
            flow,
            query,
            src,
            dst,
            bytes,
            start: at,
            finished: None,
            delivered_bytes: 0,
        });
    }

    /// Records `delta` newly delivered unique bytes for `flow` (goodput
    /// numerator + per-flow progress for elephant-goodput accounting).
    ///
    /// In the domain-partitioned engine the receiver's recorder may not
    /// hold the flow's metadata (the sender registered it in another
    /// domain); progress then accrues on a placeholder record that
    /// [`Recorder::absorb`] reconciles with the real one at merge time.
    pub fn flow_progress(&mut self, flow: FlowId, delta: u64) {
        self.goodput_bytes += delta;
        self.flow_stub(flow).delivered_bytes += delta;
    }

    /// The record for `flow`, creating a placeholder (recognizable by
    /// `src == NodeId(u32::MAX)`) if the metadata lives in another
    /// domain's recorder. The classic engine never takes the placeholder
    /// path: every `flow_started` precedes any progress/finish.
    #[inline]
    fn flow_stub(&mut self, flow: FlowId) -> &mut FlowRecord {
        if self.flows.get(flow).is_none() {
            self.add_stub(flow);
        }
        self.flows.get_mut(flow).expect("a record was just filed")
    }

    #[cold]
    #[inline(never)]
    fn add_stub(&mut self, flow: FlowId) {
        self.flows.insert(FlowRecord {
            flow,
            query: QueryId::NONE,
            src: NodeId(u32::MAX),
            dst: NodeId(u32::MAX),
            bytes: 0,
            start: SimTime::ZERO,
            finished: None,
            delivered_bytes: 0,
        });
    }

    /// Tags `flow` as belonging to scenario component `tag` (1-based;
    /// untagged flows implicitly carry tag 0).
    pub fn tag_flow(&mut self, flow: FlowId, tag: u8) {
        self.flow_tags.insert(flow, tag);
    }

    /// Tags `query` as belonging to scenario component `tag`.
    pub fn tag_query(&mut self, query: QueryId, tag: u8) {
        self.query_tags.insert(query, tag);
    }

    /// The tag of `flow` (0 when untagged).
    pub fn flow_tag(&self, flow: FlowId) -> u8 {
        self.flow_tags.get(&flow).copied().unwrap_or(0)
    }

    /// The tag of `query` (0 when untagged).
    pub fn query_tag(&self, query: QueryId) -> u8 {
        self.query_tags.get(&query).copied().unwrap_or(0)
    }

    /// Registers a query fan-out (call before starting its flows).
    pub fn query_started(&mut self, query: QueryId, expected_flows: u32, at: SimTime) {
        self.queries.insert(
            query,
            QueryRecord {
                query,
                start: at,
                expected_flows,
                done_flows: 0,
                finished: None,
            },
        );
    }

    /// Marks a flow finished (receiver has every byte), updating its query.
    pub fn flow_finished(&mut self, flow: FlowId, at: SimTime) {
        let rec = self.flow_stub(flow);
        if rec.finished.is_some() {
            return;
        }
        rec.finished = Some(at);
        let q = rec.query;
        if q.is_query() {
            if let Some(qr) = self.queries.get_mut(&q) {
                qr.done_flows += 1;
                if qr.done_flows >= qr.expected_flows && qr.finished.is_none() {
                    qr.finished = Some(at);
                }
            }
        }
    }

    /// Merges a domain recorder into this one. Every counter is a sum and
    /// flow records reconcile symmetrically (metadata from whichever side
    /// registered the flow, progress summed, earliest finish wins — with
    /// per-flow state owned by exactly one domain there is never a
    /// conflicting pair), so absorbing domain recorders in any order
    /// yields the same result. Query completion state is *not* rebuilt
    /// here; call [`Recorder::recompute_queries`] once after the last
    /// absorb.
    ///
    /// The trace sink is intentionally untouched: tracing and the domain
    /// engine are mutually exclusive.
    pub fn absorb(&mut self, mut other: Recorder) {
        if self.flows.is_empty() {
            // Nothing to reconcile: the first domain's ledger is taken
            // whole rather than copied record by record.
            std::mem::swap(&mut self.flows, &mut other.flows);
        }
        for o in other.flows.into_values() {
            let Some(a) = self.flows.get_mut(o.flow) else {
                self.flows.insert(o);
                continue;
            };
            if a.src == NodeId(u32::MAX) {
                // `a` is a placeholder: adopt `o`'s identity.
                a.query = o.query;
                a.src = o.src;
                a.dst = o.dst;
                a.bytes = o.bytes;
                a.start = o.start;
            }
            a.delivered_bytes += o.delivered_bytes;
            a.finished = a.finished.or(o.finished);
        }
        for (id, o) in other.queries {
            self.queries.entry(id).or_insert(o);
        }
        for (d, o) in self.drops.iter_mut().zip(other.drops) {
            *d += o;
        }
        self.dropped_bytes += other.dropped_bytes;
        self.deflections += other.deflections;
        self.pabo_bounces += other.pabo_bounces;
        self.hybrid_deflects += other.hybrid_deflects;
        self.hybrid_retx_drops += other.hybrid_retx_drops;
        self.bounded_cap_drops += other.bounded_cap_drops;
        self.trims += other.trims;
        self.ecn_marks += other.ecn_marks;
        self.data_delivered += other.data_delivered;
        self.hops_delivered += other.hops_delivered;
        self.goodput_bytes += other.goodput_bytes;
        self.transport_reorders += other.transport_reorders;
        self.data_sent += other.data_sent;
        self.retransmits += other.retransmits;
        self.rtos += other.rtos;
        self.mice_queueing_secs += other.mice_queueing_secs;
        self.mice_queueing_pkts += other.mice_queueing_pkts;
        self.fault_events += other.fault_events;
        self.audit.absorb(&other.audit);
        self.flow_tags.extend(other.flow_tags);
        self.query_tags.extend(other.query_tags);
    }

    /// Rebuilds every query's `done_flows`/`finished` from the flow
    /// records — the merge-order-independent replacement for the
    /// incremental bookkeeping [`Recorder::flow_finished`] does when flow
    /// and query live in the same recorder.
    pub fn recompute_queries(&mut self) {
        let mut finished: BTreeMap<QueryId, Vec<SimTime>> = BTreeMap::new();
        for f in self.flows.values() {
            if f.query.is_query() {
                if let Some(t) = f.finished {
                    finished.entry(f.query).or_default().push(t);
                }
            }
        }
        for qr in self.queries.values_mut() {
            let mut times = finished.remove(&qr.query).unwrap_or_default();
            times.sort_unstable();
            qr.done_flows = times.len() as u32;
            // The query finishes at its expected_flows-th reply (the
            // incremental path triggers on the finish that reaches the
            // threshold, i.e. the first finish for a zero-fan-out query).
            let need = qr.expected_flows.max(1) as usize;
            qr.finished = (times.len() >= need).then(|| times[need - 1]);
        }
    }

    /// Records a packet drop.
    pub fn on_drop(&mut self, cause: DropCause, wire_bytes: u32) {
        self.drops[cause.index()] += 1;
        self.dropped_bytes += wire_bytes as u64;
    }

    /// Total drops across causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Serializes every accumulator: flow and query lifecycles, drop/
    /// deflection/ECN/goodput counters, and the embedded audit and trace
    /// state, then `next_flow`, the simulator's flow-id counter: every id
    /// the ledger holds is below it, and [`Recorder::snap_restore`] checks
    /// that before the ledger grows. Flows, queries and tags are written
    /// in id order, so the stream is deterministic.
    pub fn snap_save(&self, w: &mut SnapWriter, next_flow: u64) {
        use vertigo_simcore::Snapshot;
        w.put_usize(self.flows.len());
        for rec in self.flows.values() {
            w.put_u64(rec.flow.0);
            w.put_u64(rec.query.0);
            w.put_u32(rec.src.0);
            w.put_u32(rec.dst.0);
            w.put_u64(rec.bytes);
            rec.start.save(w);
            rec.finished.save(w);
            w.put_u64(rec.delivered_bytes);
        }
        w.put_usize(self.queries.len());
        for rec in self.queries.values() {
            w.put_u64(rec.query.0);
            rec.start.save(w);
            w.put_u32(rec.expected_flows);
            w.put_u32(rec.done_flows);
            rec.finished.save(w);
        }
        for d in &self.drops {
            w.put_u64(*d);
        }
        w.put_u64(self.dropped_bytes);
        w.put_u64(self.deflections);
        w.put_u64(self.pabo_bounces);
        w.put_u64(self.hybrid_deflects);
        w.put_u64(self.hybrid_retx_drops);
        w.put_u64(self.bounded_cap_drops);
        w.put_u64(self.trims);
        w.put_u64(self.ecn_marks);
        w.put_u64(self.data_delivered);
        w.put_u64(self.hops_delivered);
        w.put_u64(self.goodput_bytes);
        w.put_u64(self.transport_reorders);
        w.put_u64(self.data_sent);
        w.put_u64(self.retransmits);
        w.put_u64(self.rtos);
        w.put_f64(self.mice_queueing_secs);
        w.put_u64(self.mice_queueing_pkts);
        w.put_u64(self.fault_events);
        self.audit.snap_save(w);
        self.trace.snap_save(w);
        w.put_usize(self.flow_tags.len());
        for (f, tag) in &self.flow_tags {
            w.put_u64(f.0);
            w.put_u32(*tag as u32);
        }
        w.put_usize(self.query_tags.len());
        for (q, tag) in &self.query_tags {
            w.put_u64(q.0);
            w.put_u32(*tag as u32);
        }
        w.put_u64(next_flow);
    }

    /// Restores state written by [`Recorder::snap_save`], replacing the
    /// recorder's entire contents, and returns the `next_flow` saved with
    /// it. Refuses what `snap_save` never writes: flows, queries or tags
    /// whose ids do not strictly ascend (named twice, or out of order), a
    /// tag above 255, and a flow id at or above `next_flow` — checked
    /// before the ledger, which a flow id sizes, grows.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<u64, SnapError> {
        use vertigo_simcore::Snapshot;
        // Read before they are filed: the last id is checked against
        // `next_flow`, which ends the record.
        let mut flows = Vec::new();
        // A flow record opens with its ids, size and start.
        r.ascending(40, "flow", SnapReader::get_u64, |r, flow| {
            flows.push(FlowRecord {
                flow: FlowId(flow),
                query: QueryId(r.get_u64()?),
                src: NodeId(r.get_u32()?),
                dst: NodeId(r.get_u32()?),
                bytes: r.get_u64()?,
                start: SimTime::restore(r)?,
                finished: Option::restore(r)?,
                delivered_bytes: r.get_u64()?,
            });
            Ok(())
        })?;
        self.queries.clear();
        // A query record opens with its id, start and two flow counts.
        r.ascending(24, "query", SnapReader::get_u64, |r, id| {
            let query = QueryId(id);
            let rec = QueryRecord {
                query,
                start: SimTime::restore(r)?,
                expected_flows: r.get_u32()?,
                done_flows: r.get_u32()?,
                finished: Option::restore(r)?,
            };
            self.queries.insert(query, rec);
            Ok(())
        })?;
        for d in self.drops.iter_mut() {
            *d = r.get_u64()?;
        }
        // `total_drops` sums them, and no writer's tallies overflow it.
        let total = self.drops.iter().try_fold(0u64, |s, &d| s.checked_add(d));
        if total.is_none() {
            let drops = self.drops;
            return Err(SnapError::new(format!(
                "drops by cause {drops:?} sum past u64"
            )));
        }
        self.dropped_bytes = r.get_u64()?;
        self.deflections = r.get_u64()?;
        self.pabo_bounces = r.get_u64()?;
        self.hybrid_deflects = r.get_u64()?;
        self.hybrid_retx_drops = r.get_u64()?;
        self.bounded_cap_drops = r.get_u64()?;
        self.trims = r.get_u64()?;
        self.ecn_marks = r.get_u64()?;
        self.data_delivered = r.get_u64()?;
        self.hops_delivered = r.get_u64()?;
        self.goodput_bytes = r.get_u64()?;
        self.transport_reorders = r.get_u64()?;
        self.data_sent = r.get_u64()?;
        self.retransmits = r.get_u64()?;
        self.rtos = r.get_u64()?;
        self.mice_queueing_secs = r.get_f64()?;
        self.mice_queueing_pkts = r.get_u64()?;
        self.fault_events = r.get_u64()?;
        self.audit.snap_restore(r)?;
        self.trace.snap_restore(r)?;
        let flow_tags = tags(r, "flow")?;
        self.flow_tags = flow_tags.iter().map(|&(f, t)| (FlowId(f), t)).collect();
        self.query_tags = (tags(r, "query")?.into_iter())
            .map(|(q, t)| (QueryId(q), t))
            .collect();
        let next_flow = r.get_u64()?;
        let last_flow = flows.last().map(|f| f.flow.0);
        let last_tagged = flow_tags.last().map(|&(f, _)| f);
        if let Some(id) = last_flow.max(last_tagged).filter(|&id| id >= next_flow) {
            return Err(SnapError::new(format!(
                "flow {id} at or above the flow-id counter {next_flow}"
            )));
        }
        self.flows = FlowLedger::default();
        if let Some(id) = last_flow {
            (self.flows.slots.try_reserve_exact(slot_of(FlowId(id)) + 1))
                .map_err(|e| SnapError::new(format!("no room for flow {id}: {e}")))?;
        }
        for rec in flows {
            self.flows.insert(rec);
        }
        Ok(next_flow)
    }
}

/// A list of `(id, tag)` in ascending id order, each tag a `u8` written
/// as a `u32`.
fn tags(r: &mut SnapReader<'_>, what: &str) -> Result<Vec<(u64, u8)>, SnapError> {
    let mut out = Vec::new();
    r.ascending(8 + 4, what, SnapReader::get_u64, |r, id| {
        let tag = r.get_u32()?;
        let tag = u8::try_from(tag)
            .map_err(|_| SnapError::new(format!("{what} {id} tagged {tag}, above 255")))?;
        out.push((id, tag));
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Report;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn flow_lifecycle() {
        let mut r = Recorder::new();
        r.flow_started(FlowId(1), QueryId::NONE, NodeId(0), NodeId(1), 1000, t(10));
        r.flow_finished(FlowId(1), t(110));
        let rec = &r.flows[&FlowId(1)];
        assert_eq!(rec.fct_secs(), Some(100e-6));
        // Double-finish is idempotent.
        r.flow_finished(FlowId(1), t(999));
        assert_eq!(r.flows[&FlowId(1)].finished, Some(t(110)));
    }

    #[test]
    fn query_completes_when_all_flows_do() {
        let mut r = Recorder::new();
        let q = QueryId(1);
        r.query_started(q, 3, t(0));
        for i in 0..3u64 {
            r.flow_started(FlowId(i), q, NodeId(9), NodeId(0), 500, t(0));
        }
        r.flow_finished(FlowId(0), t(50));
        r.flow_finished(FlowId(1), t(70));
        assert_eq!(r.queries[&q].finished, None);
        r.flow_finished(FlowId(2), t(90));
        assert_eq!(r.queries[&q].finished, Some(t(90)));
        assert_eq!(r.queries[&q].qct_secs(), Some(90e-6));
    }

    #[test]
    fn background_flows_do_not_touch_queries() {
        let mut r = Recorder::new();
        r.flow_started(FlowId(1), QueryId::NONE, NodeId(0), NodeId(1), 10, t(0));
        r.flow_finished(FlowId(1), t(5));
        assert!(r.queries.is_empty());
    }

    #[test]
    fn drop_accounting() {
        let mut r = Recorder::new();
        r.on_drop(DropCause::QueueFull, 1500);
        r.on_drop(DropCause::QueueFull, 1500);
        r.on_drop(DropCause::TtlExceeded, 64);
        assert_eq!(r.total_drops(), 3);
        assert_eq!(r.drops[DropCause::QueueFull.index()], 2);
        assert_eq!(r.dropped_bytes, 3064);
    }

    #[test]
    fn drop_cause_labels_unique() {
        let causes = DropCause::ALL;
        for (i, c) in causes.iter().enumerate() {
            assert_eq!(c.index(), i, "ALL must be in index order");
        }
        let mut idx: Vec<usize> = causes.iter().map(|c| c.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), DROP_CAUSES);
        let mut labels: Vec<&str> = causes.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), DROP_CAUSES);
    }

    #[test]
    fn snapshot_round_trip_restores_all_counters() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let mut r = Recorder::new();
        let q = QueryId(1);
        r.query_started(q, 2, t(0));
        r.flow_started(FlowId(1), q, NodeId(0), NodeId(1), 1000, t(10));
        r.flow_started(FlowId(2), QueryId::NONE, NodeId(2), NodeId(3), 500, t(20));
        r.flow_progress(FlowId(1), 400);
        r.flow_finished(FlowId(1), t(110));
        r.on_drop(DropCause::DeflectionFull, 1500);
        r.deflections = 7;
        r.mice_queueing_secs = 0.125;
        r.fault_events = 3;
        r.tag_flow(FlowId(1), 2);
        r.tag_query(q, 1);
        let mut w = SnapWriter::new();
        r.snap_save(&mut w, 4);
        let bytes = w.into_bytes();
        let mut r2 = Recorder::new();
        let mut reader = SnapReader::new(&bytes);
        assert_eq!(r2.snap_restore(&mut reader), Ok(4));
        assert_eq!(reader.remaining(), 0);
        assert_eq!(format!("{:?}", r2.flows), format!("{:?}", r.flows));
        assert_eq!(format!("{:?}", r2.queries), format!("{:?}", r.queries));
        assert_eq!(r2.drops, r.drops);
        assert_eq!(r2.deflections, 7);
        assert_eq!(r2.goodput_bytes, 400);
        assert_eq!(r2.mice_queueing_secs, 0.125);
        assert_eq!(r2.fault_events, 3);
        assert_eq!(r2.flow_tag(FlowId(1)), 2);
        assert_eq!(r2.flow_tag(FlowId(2)), 0);
        assert_eq!(r2.query_tag(q), 1);
        // Future behavior identical: finishing the second query flow closes
        // the query the same way in both.
        r.flow_started(FlowId(3), q, NodeId(4), NodeId(0), 200, t(200));
        r2.flow_started(FlowId(3), q, NodeId(4), NodeId(0), 200, t(200));
        r.flow_finished(FlowId(3), t(300));
        r2.flow_finished(FlowId(3), t(300));
        assert_eq!(r2.queries[&q].done_flows, r.queries[&q].done_flows);
    }

    fn saved(r: &Recorder, next_flow: u64) -> Vec<u8> {
        let mut w = SnapWriter::new();
        r.snap_save(&mut w, next_flow);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> Result<(Recorder, u64), SnapError> {
        let mut r = Recorder::new();
        let next_flow = r.snap_restore(&mut SnapReader::new(bytes))?;
        Ok((r, next_flow))
    }

    fn report(r: &Recorder) -> String {
        format!("{:?}", Report::from_recorder(r, t(1_000)))
    }

    /// A recorder record as `snap_save` lays it out, from its four id
    /// lists — flows and queries with fixed contents, tags as given — and
    /// the counters of an empty recorder.
    fn record(
        flows: &[u64],
        queries: &[u64],
        flow_tags: &[(u64, u32)],
        query_tags: &[(u64, u32)],
        next_flow: u64,
    ) -> Vec<u8> {
        use vertigo_simcore::Snapshot;
        let empty = saved(&Recorder::new(), 0);
        let counters = &empty[16..empty.len() - 24];
        let mut w = SnapWriter::new();
        w.put_usize(flows.len());
        for &id in flows {
            for v in [id, QueryId::NONE.0] {
                w.put_u64(v);
            }
            w.put_u32(0);
            w.put_u32(1);
            w.put_u64(1_000);
            t(1).save(&mut w);
            None::<SimTime>.save(&mut w);
            w.put_u64(0);
        }
        w.put_usize(queries.len());
        for &id in queries {
            w.put_u64(id);
            t(1).save(&mut w);
            w.put_u32(1);
            w.put_u32(0);
            None::<SimTime>.save(&mut w);
        }
        w.put_bytes(counters);
        for list in [flow_tags, query_tags] {
            w.put_usize(list.len());
            for &(id, tag) in list {
                w.put_u64(id);
                w.put_u32(tag);
            }
        }
        w.put_u64(next_flow);
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_hostile_records() {
        // A valid mid-run record: a query half done, a finished flow, one
        // in progress and one only tagged yet, a hole below the counter.
        let mut r = Recorder::new();
        let q = QueryId(3);
        r.query_started(q, 2, t(0));
        r.tag_query(q, 255);
        r.flow_started(FlowId(2), q, NodeId(0), NodeId(9), 1_000, t(1));
        r.flow_started(FlowId(4), q, NodeId(1), NodeId(9), 1_000, t(1));
        r.flow_started(FlowId(5), QueryId::NONE, NodeId(2), NodeId(3), 5_000, t(2));
        r.flow_progress(FlowId(2), 1_000);
        r.flow_finished(FlowId(2), t(40));
        r.flow_progress(FlowId(5), 1_460);
        for (f, tag) in [(2, 1), (5, 2), (6, 2)] {
            r.tag_flow(FlowId(f), tag);
        }
        let ok = saved(&r, 7);
        let (mut back, next_flow) = restored(&ok).unwrap();
        assert_eq!((saved(&back, next_flow), next_flow), (ok.clone(), 7));
        // And the restored recorder keeps in step with the original.
        for rec in [&mut r, &mut back] {
            rec.flow_started(FlowId(6), QueryId::NONE, NodeId(4), NodeId(3), 900, t(50));
            rec.flow_progress(FlowId(4), 1_000);
            rec.flow_finished(FlowId(4), t(60));
            rec.flow_progress(FlowId(5), 3_540);
            rec.flow_finished(FlowId(5), t(70));
        }
        assert_eq!(saved(&back, 7), saved(&r, 7));
        assert_eq!(report(&back), report(&r));
        assert_eq!(back.queries[&q].finished, Some(t(60)));

        let good = record(&[1, 3], &[1, 2], &[(1, 255), (5, 0)], &[(2, 7)], 6);
        let (g, next_flow) = restored(&good).unwrap();
        assert_eq!(
            (g.flows.len(), g.flow_tag(FlowId(1)), next_flow),
            (2, 255, 6)
        );
        for (what, bytes) in [
            // What used to restore as another tenant's flow: 256 as u8 is 0.
            ("flow tag 256", record(&[1], &[], &[(1, 256)], &[], 2)),
            ("query tag 256", record(&[], &[1], &[], &[(1, 256)], 1)),
            (
                "query tag u32::MAX",
                record(&[], &[1], &[], &[(1, u32::MAX)], 1),
            ),
            // What used to restore with the second entry winning.
            ("flow named twice", record(&[1, 1], &[], &[], &[], 2)),
            ("query named twice", record(&[], &[4, 4], &[], &[], 1)),
            (
                "flow tag named twice",
                record(&[], &[], &[(1, 1), (1, 2)], &[], 2),
            ),
            (
                "query tag named twice",
                record(&[], &[], &[], &[(1, 1), (1, 1)], 1),
            ),
            // What `snap_save` never writes.
            ("flows descend", record(&[3, 1], &[], &[], &[], 4)),
            ("queries descend", record(&[], &[3, 1], &[], &[], 1)),
            (
                "flow tags descend",
                record(&[], &[], &[(3, 1), (1, 1)], &[], 4),
            ),
            (
                "query tags descend",
                record(&[], &[], &[], &[(3, 1), (1, 1)], 1),
            ),
            // Ids the flow-id counter never handed out.
            ("flow at the counter", record(&[1, 4], &[], &[], &[], 4)),
            (
                "flow past the counter",
                record(&[1 << 40], &[], &[], &[], 1),
            ),
            (
                "flow tag at the counter",
                record(&[], &[], &[(4, 1)], &[], 4),
            ),
            // Below the counter, and more slots than any machine has.
            ("flow at 2^60", record(&[1 << 60], &[], &[], &[], u64::MAX)),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        let mut huge_count = record(&[1], &[], &[], &[], 2);
        huge_count[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(
            restored(&huge_count).is_err(),
            "a flow count past the input"
        );
        for cut in 0..ok.len() {
            assert!(restored(&ok[..cut]).is_err(), "accepted {cut} bytes");
        }
    }

    /// One step of the flow bookkeeping, in one of two recorders (two
    /// domains of the domain engine).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Start {
            flow: u64,
            query: u64,
            bytes: u64,
            at: u64,
        },
        Progress {
            flow: u64,
            delta: u64,
        },
        Finish {
            flow: u64,
            at: u64,
        },
        Query {
            query: u64,
            expected: u32,
            at: u64,
        },
    }

    fn op() -> impl Strategy<Value = (bool, Op)> {
        // Few ids, so that flows collide, holes open and stubs form.
        let flow = 0..24u64;
        let kind = prop_oneof![
            (flow.clone(), 0..3u64, 1..50_000u64, 0..100u64).prop_map(
                |(flow, query, bytes, at)| Op::Start {
                    flow,
                    query,
                    bytes,
                    at
                }
            ),
            (flow.clone(), 1..2_000u64).prop_map(|(flow, delta)| Op::Progress { flow, delta }),
            (flow, 0..200u64).prop_map(|(flow, at)| Op::Finish { flow, at }),
            (1..3u64, 0..4u32, 0..100u64).prop_map(|(query, expected, at)| Op::Query {
                query,
                expected,
                at
            }),
        ];
        (any::<bool>(), kind)
    }

    /// The flow bookkeeping on the `BTreeMap` it used to be, beside a
    /// recorder that keeps everything else (queries, counters) and no
    /// flows: the oracle the ledger must be indistinguishable from.
    #[derive(Default)]
    struct Oracle {
        flows: BTreeMap<FlowId, FlowRecord>,
        rest: Recorder,
    }

    impl Oracle {
        fn stub(&mut self, flow: FlowId) -> &mut FlowRecord {
            self.flows.entry(flow).or_insert_with(|| FlowRecord {
                flow,
                query: QueryId::NONE,
                src: NodeId(u32::MAX),
                dst: NodeId(u32::MAX),
                bytes: 0,
                start: SimTime::ZERO,
                finished: None,
                delivered_bytes: 0,
            })
        }

        fn apply(&mut self, op: Op) {
            match op {
                Op::Start {
                    flow,
                    query,
                    bytes,
                    at,
                } => {
                    let flow = FlowId(flow);
                    let rec = FlowRecord {
                        flow,
                        query: QueryId(query),
                        src: NodeId(flow.0 as u32),
                        dst: NodeId(99),
                        bytes,
                        start: t(at),
                        finished: None,
                        delivered_bytes: 0,
                    };
                    self.flows.insert(flow, rec);
                }
                Op::Progress { flow, delta } => {
                    self.rest.goodput_bytes += delta;
                    self.stub(FlowId(flow)).delivered_bytes += delta;
                }
                Op::Finish { flow, at } => {
                    let rec = self.stub(FlowId(flow));
                    if rec.finished.is_some() {
                        return;
                    }
                    rec.finished = Some(t(at));
                    let q = rec.query;
                    if let Some(qr) = self.rest.queries.get_mut(&q).filter(|_| q.is_query()) {
                        qr.done_flows += 1;
                        if qr.done_flows >= qr.expected_flows && qr.finished.is_none() {
                            qr.finished = Some(t(at));
                        }
                    }
                }
                Op::Query {
                    query,
                    expected,
                    at,
                } => self.rest.query_started(QueryId(query), expected, t(at)),
            }
        }

        fn absorb(&mut self, other: Oracle) {
            for (id, o) in other.flows {
                match self.flows.entry(id) {
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert(o);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let a = e.get_mut();
                        if a.src == NodeId(u32::MAX) {
                            a.query = o.query;
                            a.src = o.src;
                            a.dst = o.dst;
                            a.bytes = o.bytes;
                            a.start = o.start;
                        }
                        a.delivered_bytes += o.delivered_bytes;
                        a.finished = a.finished.or(o.finished);
                    }
                }
            }
            self.rest.absorb(other.rest);
        }

        /// The oracle's flows filed into its recorder, which then reports
        /// and saves what a recorder on the map did.
        fn into_recorder(mut self) -> Recorder {
            for rec in self.flows.into_values() {
                self.rest.flows.insert(rec);
            }
            self.rest
        }
    }

    fn apply(r: &mut Recorder, op: Op) {
        match op {
            Op::Start {
                flow,
                query,
                bytes,
                at,
            } => {
                let src = NodeId(flow as u32);
                r.flow_started(FlowId(flow), QueryId(query), src, NodeId(99), bytes, t(at))
            }
            Op::Progress { flow, delta } => r.flow_progress(FlowId(flow), delta),
            Op::Finish { flow, at } => r.flow_finished(FlowId(flow), t(at)),
            Op::Query {
                query,
                expected,
                at,
            } => r.query_started(QueryId(query), expected, t(at)),
        }
    }

    /// Recorders `a` and `b` and their oracles after `ops`.
    fn replay(ops: &[(bool, Op)]) -> ([Recorder; 2], [Oracle; 2]) {
        let mut recs = [Recorder::new(), Recorder::new()];
        let mut oracles = [Oracle::default(), Oracle::default()];
        for &(in_b, op) in ops {
            apply(&mut recs[in_b as usize], op);
            oracles[in_b as usize].apply(op);
        }
        (recs, oracles)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        #[test]
        fn ledger_matches_a_btree_map(ops in proptest::collection::vec(op(), 0..80)) {
            for first in [0, 1] {
                let ([a, b], [oa, ob]) = replay(&ops);
                let (mut rec, other, mut oracle, other_oracle) = match first {
                    0 => (a, b, oa, ob),
                    _ => (b, a, ob, oa),
                };
                rec.absorb(other);
                rec.recompute_queries();
                oracle.absorb(other_oracle);
                let mut oracle = oracle.into_recorder();
                oracle.recompute_queries();
                prop_assert_eq!(report(&rec), report(&oracle));
                prop_assert_eq!(format!("{:?}", rec.flows), format!("{:?}", oracle.flows));
                let bytes = saved(&rec, 24);
                prop_assert_eq!(&bytes, &saved(&oracle, 24));
                let (back, _) = restored(&bytes).expect("a saved record restores");
                prop_assert_eq!(saved(&back, 24), bytes);
                prop_assert_eq!(report(&back), report(&rec));
            }
        }
    }

    #[test]
    fn fault_causes_are_flagged() {
        assert!(!DropCause::QueueFull.is_fault());
        assert!(!DropCause::HostQueue.is_fault());
        assert!(DropCause::LinkDown.is_fault());
        assert!(DropCause::LinkLoss.is_fault());
        assert!(DropCause::LinkCorrupt.is_fault());
        assert!(DropCause::Blackhole.is_fault());
    }
}
