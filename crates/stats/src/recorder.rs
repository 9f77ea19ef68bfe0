//! The metrics recorder threaded through a simulation run.
//!
//! Every component reports here: hosts record flow lifecycles, switches
//! record drops/deflections/ECN marks, receivers record delivery and
//! reordering. A flow's record lives while the flow runs; when it
//! finishes, what [`crate::report::Report`] reads of it (its FCT sample,
//! bytes, counts and, for an elephant, goodput share) is folded into
//! [`Folded`] and the record dropped. The report turns the folded and the
//! live records into the quantities the paper plots (FCT, QCT, completion
//! ratios, goodput, drop and reorder rates, hop inflation).

use crate::report::{ELEPHANT_BYTES, MICE_BYTES};
use std::collections::{BTreeMap, HashMap};
use vertigo_pkt::{FlowId, Mix64Build, NodeId, QueryId};
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
    /// Scenario-component tag (0: the base workload).
    pub tag: u8,
}

/// The `src` of a placeholder record.
const PLACEHOLDER: NodeId = NodeId(u32::MAX);

impl FlowRecord {
    /// Flow completion time in seconds, if completed.
    pub fn fct_secs(&self) -> Option<f64> {
        self.finished
            .map(|f| f.saturating_since(self.start).as_secs_f64())
    }

    /// A record for progress whose metadata lives in another domain's
    /// recorder, recognizable by `src == NodeId(u32::MAX)`.
    fn placeholder(flow: FlowId) -> FlowRecord {
        FlowRecord {
            flow,
            query: QueryId::NONE,
            src: PLACEHOLDER,
            dst: PLACEHOLDER,
            bytes: 0,
            start: SimTime::ZERO,
            finished: None,
            delivered_bytes: 0,
            tag: 0,
        }
    }

    /// Whether the record has its sender's metadata (a placeholder has not).
    pub fn is_whole(&self) -> bool {
        self.src != PLACEHOLDER
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
    /// Scenario-component tag (0: the base workload).
    pub tag: u8,
}

impl QueryRecord {
    /// Query completion time in seconds, if completed.
    pub fn qct_secs(&self) -> Option<f64> {
        self.finished
            .map(|f| f.saturating_since(self.start).as_secs_f64())
    }
}

/// Central metrics sink for one simulation run.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    /// The records of the flows still running, plus, in the recorder of
    /// one of two or more domains, the placeholders and finished records
    /// that wait for [`Recorder::absorb`]. A finished flow's record is
    /// folded into [`Recorder::folded`] and dropped. Boxed, so a slot the
    /// map keeps room for costs its key and a pointer; in no particular
    /// order, so reads that need one (snapshot bytes) sort by id.
    pub flows: HashMap<FlowId, Box<FlowRecord>, Mix64Build>,
    /// Queries issued and not yet complete, and, in the domain engine with
    /// two or more domains, every query until
    /// [`Recorder::recompute_queries`].
    pub queries: BTreeMap<QueryId, QueryRecord>,
    /// What finished flows and queries left for the report.
    pub folded: Folded,
    /// Packet drops by cause.
    pub drops: [u64; DROP_CAUSES],
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
    /// Fault-injection interventions: fault drops plus stall/pause
    /// deferrals. Zero on fault-free runs.
    pub fault_events: u64,
    /// Conservation-audit custody tallies (counted in every build;
    /// checked in debug-assertion builds).
    pub audit: crate::audit::AuditHooks,
    /// Per-packet provenance sink (records only once armed).
    pub trace: crate::trace::TraceSink,
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
        let rec = FlowRecord {
            flow,
            query,
            src,
            dst,
            bytes,
            start: at,
            finished: None,
            delivered_bytes: 0,
            tag: 0,
        };
        self.flows.insert(flow, Box::new(rec));
    }

    /// Tags the running `flow` as belonging to scenario component `tag`
    /// (1-based; untagged flows carry tag 0).
    pub fn tag_flow(&mut self, flow: FlowId, tag: u8) {
        if let Some(rec) = self.flows.get_mut(&flow) {
            rec.tag = tag;
        }
    }

    /// Tags the issued `query` as belonging to scenario component `tag`.
    pub fn tag_query(&mut self, query: QueryId, tag: u8) {
        if let Some(rec) = self.queries.get_mut(&query) {
            rec.tag = tag;
        }
    }

    /// Records `delta` newly delivered unique bytes for `flow` (goodput
    /// numerator + per-flow progress for elephant-goodput accounting).
    ///
    /// In the domain-partitioned engine the receiver's recorder may not
    /// hold the flow's metadata (the sender registered it in another
    /// domain); progress then accrues on a placeholder record that
    /// [`Recorder::absorb`] reconciles with the real one at merge time.
    /// A zero delta with no record held files nothing: it is what a late
    /// copy of a finished flow reports, the only progress a folded flow
    /// ever has.
    #[inline]
    pub fn flow_progress(&mut self, flow: FlowId, delta: u64) {
        self.goodput_bytes += delta;
        match self.flows.get_mut(&flow) {
            Some(rec) => rec.delivered_bytes += delta,
            None if delta == 0 => {}
            None => {
                let stub = FlowRecord {
                    delivered_bytes: delta,
                    ..FlowRecord::placeholder(flow)
                };
                self.flows.insert(flow, Box::new(stub));
            }
        }
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
                tag: 0,
            },
        );
    }

    /// Marks a flow finished (receiver has every byte), updating its query,
    /// and folds what the report reads of a whole record into
    /// [`Recorder::folded`], dropping the record. A query folds the same
    /// way when its last reply finishes. A placeholder waits for
    /// [`Recorder::absorb`], and so does a reply whose query another
    /// recorder holds, for [`Recorder::recompute_queries`].
    ///
    /// Call it once per flow, as the host does. A second call on a folded
    /// flow files a finished placeholder, which the end-of-run audit
    /// reports.
    pub fn flow_finished(&mut self, flow: FlowId, at: SimTime) {
        let rec =
            (self.flows.entry(flow)).or_insert_with(|| Box::new(FlowRecord::placeholder(flow)));
        rec.finished = Some(at);
        let (q, whole) = (rec.query, rec.is_whole());
        let query_here = !q.is_query() || self.reply_finished(q, at);
        if whole && query_here {
            let rec = self.flows.remove(&flow).expect("just finished");
            self.folded.add_flow(&rec, at);
        }
    }

    /// Counts a reply of `q` finished at `at`, folding the query at its
    /// last reply; false when this recorder does not hold `q`.
    fn reply_finished(&mut self, q: QueryId, at: SimTime) -> bool {
        let Some(qr) = self.queries.get_mut(&q) else {
            return false;
        };
        qr.done_flows += 1;
        if qr.done_flows >= qr.expected_flows && qr.finished.is_none() {
            qr.finished = Some(at);
            let qr = self.queries.remove(&q).expect("just counted");
            self.folded.add_query(&qr);
        }
        true
    }

    /// Flows started: folded and live records, as the report counts them.
    pub fn flows_started(&self) -> u64 {
        self.folded.flows() + self.flows.len() as u64
    }

    /// Flows completed: folded records and finished live ones.
    pub fn flows_completed(&self) -> u64 {
        let live = self.flows.values().filter(|f| f.finished.is_some());
        self.folded.flows() + live.count() as u64
    }

    /// Bytes offered: the sizes of the flows started, folded and live.
    pub fn bytes_offered(&self) -> u64 {
        let folded: u64 = self.folded.tenants.values().map(|t| t.bytes_offered).sum();
        folded + self.flows.values().map(|f| f.bytes).sum::<u64>()
    }

    /// Merges a domain recorder into this one. Every counter is a sum,
    /// folded samples are pooled, and flow records reconcile symmetrically
    /// (metadata from whichever side registered the flow, progress summed,
    /// earliest finish wins — with per-flow state owned by exactly one
    /// domain there is never a conflicting pair), so absorbing domain
    /// recorders in any order yields the same report. Query completion
    /// state is *not* rebuilt here; call [`Recorder::recompute_queries`]
    /// once after the last absorb.
    ///
    /// The trace sink is intentionally untouched: tracing and the domain
    /// engine are mutually exclusive.
    pub fn absorb(&mut self, mut other: Recorder) {
        if self.flows.is_empty() {
            // Nothing to reconcile: the first domain's records are taken
            // whole rather than copied one by one.
            std::mem::swap(&mut self.flows, &mut other.flows);
        }
        for (flow, o) in other.flows {
            let Some(a) = self.flows.get_mut(&flow) else {
                self.flows.insert(flow, o);
                continue;
            };
            if !a.is_whole() {
                // `a` is a placeholder: adopt `o`'s identity.
                a.query = o.query;
                a.src = o.src;
                a.dst = o.dst;
                a.bytes = o.bytes;
                a.start = o.start;
                a.tag = o.tag;
            }
            a.delivered_bytes += o.delivered_bytes;
            a.finished = a.finished.or(o.finished);
        }
        self.folded.absorb(other.folded);
        for (id, o) in other.queries {
            self.queries.entry(id).or_insert(o);
        }
        for (d, o) in self.drops.iter_mut().zip(other.drops) {
            *d += o;
        }
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
        self.fault_events += other.fault_events;
        self.audit.absorb(&other.audit);
    }

    /// Rebuilds every open query's `done_flows`/`finished` from the live
    /// flow records — the merge-order-independent replacement for the
    /// incremental bookkeeping [`Recorder::flow_finished`] does when flow
    /// and query live in the same recorder. The recorders of two or more
    /// domains hold no queries, so they fold no reply and every reply is
    /// still a record here.
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
    pub fn on_drop(&mut self, cause: DropCause) {
        self.drops[cause.index()] += 1;
    }

    /// Total drops across causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Serializes every accumulator: live flow records, open queries, the
    /// folded samples, drop/deflection/ECN/goodput counters, and the
    /// embedded audit and trace state, then `next_flow`, the simulator's
    /// flow-id counter: every id the recorder names is below it, which
    /// [`Recorder::snap_restore`] checks. Records and queries are written
    /// in id order, so the stream is deterministic.
    pub fn snap_save(&self, w: &mut SnapWriter, next_flow: u64) {
        use vertigo_simcore::Snapshot;
        let mut flows: Vec<&FlowRecord> = self.flows.values().map(|r| &**r).collect();
        flows.sort_unstable_by_key(|r| r.flow);
        w.put_usize(flows.len());
        for rec in flows {
            w.put_u64(rec.flow.0);
            w.put_u64(rec.query.0);
            w.put_u32(rec.src.0);
            w.put_u32(rec.dst.0);
            w.put_u64(rec.bytes);
            rec.start.save(w);
            rec.finished.save(w);
            w.put_u64(rec.delivered_bytes);
            w.put_u32(rec.tag as u32);
        }
        w.put_usize(self.queries.len());
        for rec in self.queries.values() {
            w.put_u64(rec.query.0);
            rec.start.save(w);
            w.put_u32(rec.expected_flows);
            w.put_u32(rec.done_flows);
            rec.finished.save(w);
            w.put_u32(rec.tag as u32);
        }
        self.folded.snap_save(w);
        for d in &self.drops {
            w.put_u64(*d);
        }
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
        w.put_u64(self.fault_events);
        self.audit.snap_save(w);
        self.trace.snap_save(w);
        w.put_u64(next_flow);
    }

    /// Restores state written by [`Recorder::snap_save`], replacing the
    /// recorder's entire contents, and returns the `next_flow` saved with
    /// it. Refuses what `snap_save` never writes: records, queries,
    /// tenants or elephants whose ids do not strictly ascend (named twice,
    /// or out of order), a tag above 255, a sample that is not a finite
    /// count of seconds, an elephant that still has a live record, and a
    /// flow or elephant id at or above `next_flow`.
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
                tag: tag(r, "flow", flow)?,
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
                tag: tag(r, "query", id)?,
            };
            self.queries.insert(query, rec);
            Ok(())
        })?;
        self.folded = Folded::snap_restore(r)?;
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
        self.fault_events = r.get_u64()?;
        self.audit.snap_restore(r)?;
        self.trace.snap_restore(r)?;
        let next_flow = r.get_u64()?;
        let last_flow = flows.last().map(|f: &FlowRecord| f.flow.0);
        let last_elephant = self.folded.elephants.last().map(|e| e.flow.0);
        if let Some(id) = last_flow.max(last_elephant).filter(|&id| id >= next_flow) {
            return Err(SnapError::new(format!(
                "flow {id} at or above the flow-id counter {next_flow}"
            )));
        }
        self.flows = (flows.into_iter())
            .map(|rec| (rec.flow, Box::new(rec)))
            .collect();
        if let Some(e) = (self.folded.elephants.iter()).find(|e| self.flows.contains_key(&e.flow)) {
            let id = e.flow.0;
            return Err(SnapError::new(format!(
                "elephant {id} still has a live record"
            )));
        }
        Ok(next_flow)
    }
}

/// A tag, a `u8` written as a `u32`, of the `what` record `id`.
fn tag(r: &mut SnapReader<'_>, what: &str, id: u64) -> Result<u8, SnapError> {
    let tag = r.get_u32()?;
    u8::try_from(tag).map_err(|_| SnapError::new(format!("{what} {id} tagged {tag}, above 255")))
}

/// A finished elephant's share of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Elephant {
    /// Flow id: the goodput's sum runs in id order.
    pub flow: FlowId,
    /// Unique bytes delivered.
    pub delivered_bytes: u64,
    /// Seconds from start to finish.
    pub active_secs: f64,
}

/// What one scenario tag's flows and queries leave in a [`Folded`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Flows added.
    pub flows_started: u64,
    /// Sizes of the flows added, summed.
    pub bytes_offered: u64,
    /// Unique bytes those flows delivered, summed.
    pub bytes_delivered: u64,
    /// FCTs (seconds) of the completed mice (< [`MICE_BYTES`]), in the
    /// order they were added.
    pub fct_mice: Vec<f64>,
    /// FCTs of the other completed flows.
    pub fct_rest: Vec<f64>,
    /// Queries added.
    pub queries_started: u64,
    /// QCTs (seconds) of the completed queries.
    pub qct: Vec<f64>,
}

impl Tally {
    /// FCT samples: one per completed flow.
    pub fn flows_completed(&self) -> u64 {
        (self.fct_mice.len() + self.fct_rest.len()) as u64
    }
}

/// Flows and queries reduced to what [`crate::Report`] reads of them: per
/// scenario tag, the counts, byte sums and FCT/QCT samples, and each
/// elephant's bytes and active time. The recorder folds a flow here when
/// it finishes and a query when its last reply does; a report adds the
/// live records to a copy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Folded {
    /// Per tag present, its tally.
    pub tenants: BTreeMap<u8, Tally>,
    /// Finished elephants (> [`ELEPHANT_BYTES`]) in the order they were
    /// added.
    pub elephants: Vec<Elephant>,
}

impl Folded {
    /// Adds `f`: started and its bytes, its FCT if it finished, and, for an
    /// elephant, its delivered bytes and active time up to its finish, or
    /// up to `horizon` while it runs.
    pub(crate) fn add_flow(&mut self, f: &FlowRecord, horizon: SimTime) {
        let t = self.tenants.entry(f.tag).or_default();
        t.flows_started += 1;
        t.bytes_offered += f.bytes;
        t.bytes_delivered += f.delivered_bytes;
        if let Some(s) = f.fct_secs() {
            if f.bytes < MICE_BYTES {
                t.fct_mice.push(s);
            } else {
                t.fct_rest.push(s);
            }
        }
        if f.bytes > ELEPHANT_BYTES {
            let end = f.finished.unwrap_or(horizon);
            self.elephants.push(Elephant {
                flow: f.flow,
                delivered_bytes: f.delivered_bytes,
                active_secs: end.saturating_since(f.start).as_secs_f64(),
            });
        }
    }

    /// Adds `q`: issued, and its QCT if it completed.
    pub(crate) fn add_query(&mut self, q: &QueryRecord) {
        let t = self.tenants.entry(q.tag).or_default();
        t.queries_started += 1;
        t.qct.extend(q.qct_secs());
    }

    /// Flows added.
    pub fn flows(&self) -> u64 {
        self.tenants.values().map(|t| t.flows_started).sum()
    }

    /// Pools `other`'s tallies and elephants into these.
    fn absorb(&mut self, other: Folded) {
        for (tag, o) in other.tenants {
            let t = self.tenants.entry(tag).or_default();
            t.flows_started += o.flows_started;
            t.bytes_offered += o.bytes_offered;
            t.bytes_delivered += o.bytes_delivered;
            t.fct_mice.extend(o.fct_mice);
            t.fct_rest.extend(o.fct_rest);
            t.queries_started += o.queries_started;
            t.qct.extend(o.qct);
        }
        self.elephants.extend(other.elephants);
    }

    /// Heap bytes held by the tallies, their samples and the elephants.
    pub fn heap_bytes(&self) -> usize {
        let tally = std::mem::size_of::<(u8, Tally)>();
        let samples = |t: &Tally| t.fct_mice.capacity() + t.fct_rest.capacity() + t.qct.capacity();
        self.tenants
            .values()
            .map(|t| tally + 8 * samples(t))
            .sum::<usize>()
            + self.elephants.capacity() * std::mem::size_of::<Elephant>()
    }

    /// Writes the tallies in tag order, then the elephants in id order. A
    /// recorder's tallies hold finished flows and queries only, so their
    /// counts are their sample counts and are not written.
    fn snap_save(&self, w: &mut SnapWriter) {
        w.put_usize(self.tenants.len());
        for (&tag, t) in &self.tenants {
            debug_assert_eq!(t.flows_started, t.flows_completed());
            debug_assert_eq!(t.queries_started, t.qct.len() as u64);
            w.put_u64(tag as u64);
            w.put_u64(t.bytes_offered);
            w.put_u64(t.bytes_delivered);
            for samples in [&t.fct_mice, &t.fct_rest, &t.qct] {
                w.put_usize(samples.len());
                for &s in samples {
                    w.put_f64(s);
                }
            }
        }
        let mut elephants: Vec<&Elephant> = self.elephants.iter().collect();
        elephants.sort_unstable_by_key(|e| e.flow);
        w.put_usize(elephants.len());
        for e in elephants {
            w.put_u64(e.flow.0);
            w.put_u64(e.delivered_bytes);
            w.put_f64(e.active_secs);
        }
    }

    /// Reads what [`Folded::snap_save`] wrote.
    fn snap_restore(r: &mut SnapReader<'_>) -> Result<Folded, SnapError> {
        fn secs(r: &mut SnapReader<'_>, what: &str) -> Result<f64, SnapError> {
            let s = r.get_f64()?;
            if !(s.is_finite() && s >= 0.0) {
                return Err(SnapError::new(format!("{what} sample {s} is no time")));
            }
            Ok(s)
        }
        let mut out = Folded::default();
        // A tally opens with its tag, two byte sums and three list counts.
        r.ascending(48, "tenant", SnapReader::get_u64, |r, id| {
            let tag = u8::try_from(id)
                .map_err(|_| SnapError::new(format!("tenant {id} above tag 255")))?;
            let mut t = Tally {
                bytes_offered: r.get_u64()?,
                bytes_delivered: r.get_u64()?,
                ..Tally::default()
            };
            for (samples, what) in [
                (&mut t.fct_mice, "mice FCT"),
                (&mut t.fct_rest, "FCT"),
                (&mut t.qct, "QCT"),
            ] {
                for _ in 0..r.count(8, what)? {
                    samples.push(secs(r, what)?);
                }
            }
            t.flows_started = t.flows_completed();
            t.queries_started = t.qct.len() as u64;
            out.tenants.insert(tag, t);
            Ok(())
        })?;
        r.ascending(24, "elephant", SnapReader::get_u64, |r, flow| {
            out.elephants.push(Elephant {
                flow: FlowId(flow),
                delivered_bytes: r.get_u64()?,
                active_secs: secs(r, "elephant active-time")?,
            });
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::TenantReport;
    use crate::summary::summarize;
    use crate::Report;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn flow_lifecycle() {
        let mut r = Recorder::new();
        r.flow_started(FlowId(1), QueryId::NONE, NodeId(0), NodeId(1), 1000, t(10));
        assert_eq!(r.flows[&FlowId(1)].finished, None);
        r.flow_progress(FlowId(1), 1000);
        r.flow_finished(FlowId(1), t(110));
        // Finished, the record is folded: its FCT sample stays.
        assert!(r.flows.is_empty());
        assert_eq!(r.folded.tenants[&0].fct_mice, [100e-6]);
        assert_eq!((r.flows_started(), r.flows_completed()), (1, 1));
        // A late copy's zero progress files nothing.
        r.flow_progress(FlowId(1), 0);
        assert!(r.flows.is_empty());
        assert_eq!(r.folded.tenants[&0].fct_mice, [100e-6]);
        assert_eq!((r.flows_started(), r.flows_completed()), (1, 1));
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
        assert_eq!(r.queries[&q].done_flows, 2);
        r.flow_finished(FlowId(2), t(90));
        // Complete, the query is folded into its QCT sample.
        assert!(r.queries.is_empty());
        assert_eq!(r.folded.tenants[&0].qct, [90e-6]);
        assert_eq!(Report::from_recorder(&r, t(100)).qct_mean, 90e-6);
    }

    #[test]
    fn background_flows_do_not_touch_queries() {
        let mut r = Recorder::new();
        r.flow_started(FlowId(1), QueryId::NONE, NodeId(0), NodeId(1), 10, t(0));
        r.flow_finished(FlowId(1), t(5));
        assert!(r.queries.is_empty());
        assert_eq!(r.folded.tenants[&0].queries_started, 0);
    }

    #[test]
    fn drop_accounting() {
        let mut r = Recorder::new();
        r.on_drop(DropCause::QueueFull);
        r.on_drop(DropCause::QueueFull);
        r.on_drop(DropCause::TtlExceeded);
        assert_eq!(r.total_drops(), 3);
        assert_eq!(r.drops[DropCause::QueueFull.index()], 2);
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
        r.tag_query(q, 1);
        r.flow_started(FlowId(1), q, NodeId(0), NodeId(1), 1000, t(10));
        r.tag_flow(FlowId(1), 2);
        r.flow_started(FlowId(2), QueryId::NONE, NodeId(2), NodeId(3), 500, t(20));
        r.flow_progress(FlowId(1), 400);
        r.flow_finished(FlowId(1), t(110));
        r.on_drop(DropCause::DeflectionFull);
        r.deflections = 7;
        r.fault_events = 3;
        let mut w = SnapWriter::new();
        r.snap_save(&mut w, 4);
        let bytes = w.into_bytes();
        let mut r2 = Recorder::new();
        let mut reader = SnapReader::new(&bytes);
        assert_eq!(r2.snap_restore(&mut reader), Ok(4));
        assert_eq!(reader.remaining(), 0);
        assert_eq!(saved(&r2, 4), bytes);
        assert_eq!(format!("{:?}", r2.queries), format!("{:?}", r.queries));
        assert_eq!(r2.folded, r.folded);
        assert!(!r2.flows.contains_key(&FlowId(1)) && r2.flows.contains_key(&FlowId(2)));
        assert_eq!(r2.drops, r.drops);
        assert_eq!(r2.deflections, 7);
        assert_eq!(r2.goodput_bytes, 400);
        assert_eq!(r2.fault_events, 3);
        assert_eq!(r2.folded.tenants[&2].bytes_delivered, 400);
        assert_eq!(r2.queries[&q].tag, 1);
        // Future behavior identical: finishing the second query flow closes
        // the query the same way in both.
        for rec in [&mut r, &mut r2] {
            rec.flow_started(FlowId(3), q, NodeId(4), NodeId(0), 200, t(200));
            rec.flow_finished(FlowId(3), t(300));
            assert!(rec.queries.is_empty());
        }
        assert_eq!(r2.folded, r.folded);
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

    fn report(r: &Recorder) -> Vec<u64> {
        bits(&Report::from_recorder(r, t(1_000)))
    }

    /// The parts of a recorder record, each as `snap_save` lays it out.
    #[derive(Clone)]
    struct Parts {
        flows: Vec<(u64, u32)>,
        queries: Vec<(u64, u32)>,
        tenants: Vec<(u64, f64)>,
        elephants: Vec<(u64, f64)>,
        next_flow: u64,
    }

    impl Parts {
        /// A live record per `(id, tag)`, a query per `(id, tag)`, a tenant per `(tag, mice FCT sample)`, an elephant
        /// per `(id, active seconds)`, and the counters of an empty
        /// recorder.
        fn bytes(&self) -> Vec<u8> {
            use vertigo_simcore::Snapshot;
            let empty = saved(&Recorder::new(), 0);
            // Behind four empty lists, before the counter.
            let counters = &empty[32..empty.len() - 8];
            let mut w = SnapWriter::new();
            w.put_usize(self.flows.len());
            for &(id, tag) in &self.flows {
                for v in [id, QueryId::NONE.0] {
                    w.put_u64(v);
                }
                w.put_u32(0);
                w.put_u32(1);
                w.put_u64(1_000);
                t(1).save(&mut w);
                None::<SimTime>.save(&mut w);
                w.put_u64(0);
                w.put_u32(tag);
            }
            w.put_usize(self.queries.len());
            for &(id, tag) in &self.queries {
                w.put_u64(id);
                t(1).save(&mut w);
                w.put_u32(1);
                w.put_u32(0);
                None::<SimTime>.save(&mut w);
                w.put_u32(tag);
            }
            w.put_usize(self.tenants.len());
            for &(tag, sample) in &self.tenants {
                for v in [tag, 1_000, 1_000, 1] {
                    w.put_u64(v);
                }
                w.put_f64(sample);
                w.put_usize(0);
                w.put_usize(0);
            }
            w.put_usize(self.elephants.len());
            for &(id, secs) in &self.elephants {
                w.put_u64(id);
                w.put_u64(20_000_000);
                w.put_f64(secs);
            }
            w.put_bytes(counters);
            w.put_u64(self.next_flow);
            w.into_bytes()
        }
    }

    #[test]
    fn restore_rejects_hostile_records() {
        // A valid mid-run record: a query half done, a finished flow, one
        // in progress and one not started yet, a hole below the counter.
        let mut r = Recorder::new();
        let q = QueryId(3);
        r.query_started(q, 2, t(0));
        r.tag_query(q, 255);
        r.flow_started(FlowId(2), q, NodeId(0), NodeId(9), 1_000, t(1));
        r.flow_started(FlowId(4), q, NodeId(1), NodeId(9), 1_000, t(1));
        r.flow_started(FlowId(5), QueryId::NONE, NodeId(2), NodeId(3), 5_000, t(2));
        r.tag_flow(FlowId(5), 2);
        r.flow_progress(FlowId(2), 1_000);
        r.flow_finished(FlowId(2), t(40));
        r.flow_progress(FlowId(5), 1_460);
        let ok = saved(&r, 7);
        let (mut back, next_flow) = restored(&ok).unwrap();
        assert_eq!((saved(&back, next_flow), next_flow), (ok.clone(), 7));
        // And the restored recorder keeps in step with the original.
        for rec in [&mut r, &mut back] {
            rec.flow_started(FlowId(6), QueryId::NONE, NodeId(4), NodeId(3), 900, t(50));
            rec.tag_flow(FlowId(6), 2);
            rec.flow_progress(FlowId(4), 1_000);
            rec.flow_finished(FlowId(4), t(60));
            rec.flow_progress(FlowId(5), 3_540);
            rec.flow_finished(FlowId(5), t(70));
        }
        assert_eq!(saved(&back, 7), saved(&r, 7));
        assert_eq!(report(&back), report(&r));
        assert!(back.queries.is_empty() && back.flows.len() == 1);

        let good = Parts {
            flows: vec![(1, 255), (3, 0)],
            queries: vec![(1, 0), (2, 7)],
            tenants: vec![(0, 1e-4), (9, 0.0)],
            elephants: vec![(5, 0.5)],
            next_flow: 6,
        };
        let (g, next_flow) = restored(&good.bytes()).unwrap();
        assert_eq!(
            (g.flows.len(), g.flows[&FlowId(1)].tag, next_flow),
            (2, 255, 6)
        );
        assert_eq!(g.folded.elephants[0].flow, FlowId(5));
        assert_eq!(g.folded.tenants[&9].flows_started, 1);
        let with = |edit: &dyn Fn(&mut Parts)| {
            let mut p = good.clone();
            edit(&mut p);
            p.bytes()
        };
        for (what, bytes) in [
            // What used to restore as another tenant's flow: 256 as u8 is 0.
            ("flow tag 256", with(&|p| p.flows[0].1 = 256)),
            ("query tag 256", with(&|p| p.queries[1].1 = 256)),
            ("query tag u32::MAX", with(&|p| p.queries[1].1 = u32::MAX)),
            ("tenant 256", with(&|p| p.tenants[1].0 = 256)),
            // What `snap_save` never writes.
            ("flow named twice", with(&|p| p.flows[1].0 = 1)),
            ("query named twice", with(&|p| p.queries[1].0 = 1)),
            ("tenant named twice", with(&|p| p.tenants[1].0 = 0)),
            (
                "elephant named twice",
                with(&|p| p.elephants = vec![(5, 0.5); 2]),
            ),
            ("flows descend", with(&|p| p.flows.reverse())),
            ("queries descend", with(&|p| p.queries.reverse())),
            ("tenants descend", with(&|p| p.tenants.reverse())),
            ("an elephant still live", with(&|p| p.elephants[0].0 = 3)),
            ("a NaN sample", with(&|p| p.tenants[0].1 = f64::NAN)),
            ("a negative sample", with(&|p| p.tenants[0].1 = -1.0)),
            (
                "an endless sample",
                with(&|p| p.elephants[0].1 = f64::INFINITY),
            ),
            // Ids the flow-id counter never handed out.
            ("flow at the counter", with(&|p| p.next_flow = 3)),
            ("elephant at the counter", with(&|p| p.next_flow = 5)),
            ("flow past the counter", with(&|p| p.flows[1].0 = 1 << 40)),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        // No room is sized by an id: one far below the counter restores.
        let far = with(&|p| {
            p.flows[1].0 = 1 << 60;
            p.next_flow = u64::MAX;
        });
        assert_eq!(restored(&far).unwrap().0.flows.len(), 2);
        let mut huge_count = good.bytes();
        huge_count[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(
            restored(&huge_count).is_err(),
            "a flow count past the input"
        );
        for cut in 0..ok.len() {
            assert!(restored(&ok[..cut]).is_err(), "accepted {cut} bytes");
        }
    }

    /// Every number a report holds, `f64`s by `to_bits`, tenants included.
    fn bits(r: &Report) -> Vec<u64> {
        let f = f64::to_bits;
        let mut v = vec![
            f(r.horizon_secs),
            r.flows_started,
            r.flows_completed,
            f(r.fct_mean),
            f(r.fct_p50),
            f(r.fct_p99),
            f(r.fct_mice_mean),
            f(r.fct_mice_p99),
            r.queries_started,
            r.queries_completed,
            f(r.qct_mean),
            f(r.qct_p50),
            f(r.qct_p99),
            f(r.goodput_gbps),
            f(r.elephant_goodput_mbps),
            r.tenants.len() as u64,
        ];
        v.extend(r.fct_samples.iter().map(|&s| f(s)));
        v.extend(r.qct_samples.iter().map(|&s| f(s)));
        for t in &r.tenants {
            let TenantReport {
                tag,
                label: _,
                flows_started,
                flows_completed,
                fct_mean,
                fct_p50,
                fct_p99,
                queries_started,
                queries_completed,
                qct_mean,
                qct_p99,
                bytes_offered,
                bytes_delivered,
                goodput_gbps,
            } = t;
            v.extend([*tag as u64, *flows_started, *flows_completed]);
            v.extend([*queries_started, *queries_completed]);
            v.extend([*bytes_offered, *bytes_delivered]);
            v.extend(
                [
                    *fct_mean,
                    *fct_p50,
                    *fct_p99,
                    *qct_mean,
                    *qct_p99,
                    *goodput_gbps,
                ]
                .map(f),
            );
        }
        v
    }

    /// Every flow and query record a run ever had, kept whole, and the
    /// report built from them as it was before records folded: flows
    /// and the elephant sum in id order, tenants from the records' tags.
    #[derive(Default)]
    struct Reference {
        flows: BTreeMap<FlowId, FlowRecord>,
        queries: BTreeMap<QueryId, QueryRecord>,
        goodput_bytes: u64,
    }

    impl Reference {
        fn record(&mut self, flow: FlowId) -> &mut FlowRecord {
            self.flows
                .entry(flow)
                .or_insert_with(|| FlowRecord::placeholder(flow))
        }

        /// As `flow_progress`, a zero delta files no record of its own.
        fn progress(&mut self, flow: FlowId, delta: u64) {
            self.goodput_bytes += delta;
            if delta > 0 || self.flows.contains_key(&flow) {
                self.record(flow).delivered_bytes += delta;
            }
        }

        /// `flow` finishes at `at`; with `incremental`, its query counts it
        /// as `flow_finished` does.
        fn finish(&mut self, flow: FlowId, at: SimTime, incremental: bool) {
            let rec = self.record(flow);
            rec.finished = Some(at);
            let q = rec.query;
            if let Some(qr) = self.queries.get_mut(&q).filter(|_| incremental) {
                qr.done_flows += 1;
                if qr.done_flows >= qr.expected_flows && qr.finished.is_none() {
                    qr.finished = Some(at);
                }
            }
        }

        /// Each query finishes at its `expected`-th reply (the first for
        /// a query that expects none), as `recompute_queries` rebuilds it.
        fn recompute_queries(&mut self) {
            for qr in self.queries.values_mut() {
                let replies = self.flows.values().filter(|f| f.query == qr.query);
                let mut times: Vec<SimTime> = replies.filter_map(|f| f.finished).collect();
                times.sort_unstable();
                qr.done_flows = times.len() as u32;
                let need = qr.expected_flows.max(1) as usize;
                qr.finished = times.get(need - 1).copied();
            }
        }

        fn report(&self, horizon: SimTime) -> Report {
            let mut rest = Recorder::new();
            rest.goodput_bytes = self.goodput_bytes;
            let mut r = Report::from_recorder(&rest, horizon);
            let (mut fct, mut mice, mut qct) = (vec![], vec![], vec![]);
            let (mut elephant_bytes, mut elephant_secs) = (0u64, 0.0f64);
            type Tenant = (TenantReport, Vec<f64>, Vec<f64>);
            let mut by_tag: BTreeMap<u8, Tenant> = BTreeMap::new();
            let entry = |by_tag: &mut BTreeMap<u8, Tenant>, tag: u8| {
                let label = format!("tag{tag}");
                let t = TenantReport {
                    tag,
                    label,
                    ..TenantReport::default()
                };
                by_tag.entry(tag).or_insert((t, vec![], vec![]));
            };
            for f in self.flows.values() {
                entry(&mut by_tag, f.tag);
                let e = by_tag.get_mut(&f.tag).expect("just filed");
                e.0.flows_started += 1;
                e.0.bytes_offered += f.bytes;
                e.0.bytes_delivered += f.delivered_bytes;
                if let Some(s) = f.fct_secs() {
                    fct.push(s);
                    e.1.push(s);
                    if f.bytes < MICE_BYTES {
                        mice.push(s);
                    }
                }
                if f.bytes > ELEPHANT_BYTES {
                    let end = f.finished.unwrap_or(horizon);
                    elephant_bytes += f.delivered_bytes;
                    elephant_secs += end.saturating_since(f.start).as_secs_f64().max(1e-9);
                }
            }
            for q in self.queries.values() {
                entry(&mut by_tag, q.tag);
                let e = by_tag.get_mut(&q.tag).expect("just filed");
                e.0.queries_started += 1;
                if let Some(s) = q.qct_secs() {
                    qct.push(s);
                    e.2.push(s);
                }
            }
            r.flows_started = self.flows.len() as u64;
            r.flows_completed = fct.len() as u64;
            (r.fct_mean, r.fct_p50, r.fct_p99) = summarize(&mut fct);
            (r.fct_mice_mean, _, r.fct_mice_p99) = summarize(&mut mice);
            r.queries_started = self.queries.len() as u64;
            r.queries_completed = qct.len() as u64;
            (r.qct_mean, r.qct_p50, r.qct_p99) = summarize(&mut qct);
            r.elephant_goodput_mbps = if elephant_secs > 0.0 {
                elephant_bytes as f64 * 8.0 / elephant_secs / 1e6
            } else {
                0.0
            };
            r.fct_samples = fct;
            r.qct_samples = qct;
            let tagged = self.flows.values().any(|f| f.tag != 0)
                || self.queries.values().any(|q| q.tag != 0);
            if tagged {
                for (_, (mut t, mut fct, mut qct)) in by_tag {
                    t.flows_completed = fct.len() as u64;
                    t.queries_completed = qct.len() as u64;
                    if !fct.is_empty() {
                        (t.fct_mean, t.fct_p50, t.fct_p99) = summarize(&mut fct);
                    }
                    if !qct.is_empty() {
                        (t.qct_mean, _, t.qct_p99) = summarize(&mut qct);
                    }
                    t.goodput_gbps = t.bytes_delivered as f64 * 8.0 / r.horizon_secs / 1e9;
                    r.tenants.push(t);
                }
            }
            r
        }
    }

    /// One flow's life: which scenario tag and query (0: none) it has,
    /// its size class and start, how many progress steps it takes and
    /// whether it finishes, the recorders (0 or 1) its sender and receiver
    /// report to, and whether its start comes after its receiver's steps
    /// (only in two recorders, as in the domain engine).
    #[derive(Debug, Clone, Copy)]
    struct Life {
        tag: u8,
        query: u64,
        size: u64,
        start: u64,
        steps: u64,
        finishes: bool,
        sides: (usize, usize),
        start_late: bool,
    }

    impl Life {
        fn bytes(&self) -> u64 {
            match self.size % 3 {
                0 => 1 + self.size % 49_999,
                1 => MICE_BYTES + self.size % 1_900_000,
                _ => ELEPHANT_BYTES + 1 + self.size % 20_000_000,
            }
        }

        /// The record its sender files.
        fn record(&self, flow: FlowId) -> FlowRecord {
            FlowRecord {
                flow,
                query: QueryId(self.query),
                src: NodeId(flow.0 as u32),
                dst: NodeId(99),
                bytes: self.bytes(),
                start: t(self.start),
                finished: None,
                delivered_bytes: 0,
                tag: self.tag,
            }
        }

        /// Step `k` of its script: a start, a progress of its share, a
        /// finish, or past the end a late copy (no bytes, as a finished
        /// host reports it); `None` for a late step of a flow that never
        /// finishes.
        fn step(&self, k: u64) -> Option<Step> {
            let start_at = if self.start_late { self.steps + 1 } else { 0 };
            let k = if self.start_late && k <= self.steps {
                k + 1
            } else {
                k
            };
            let k = if k == start_at {
                return Some(Step::Start);
            } else {
                k.min(self.steps + 2)
            };
            let at = t(self.start + 7 * k);
            let share = self.bytes() / (self.steps + 1);
            Some(match k {
                _ if k <= self.steps && self.finishes && k == self.steps => {
                    Step::Progress(self.bytes() - share * (self.steps - 1))
                }
                _ if k <= self.steps => Step::Progress(share),
                _ if k == self.steps + 1 && !self.finishes => return None,
                _ if k == self.steps + 1 => Step::Finish(at),
                _ => Step::Late,
            })
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Step {
        Start,
        Progress(u64),
        Finish(SimTime),
        Late,
    }

    fn life() -> impl Strategy<Value = Life> {
        (
            (0..3u8, 0..4u64, any::<u64>(), 0..100u64),
            (
                0..4u64,
                any::<bool>(),
                (0..2usize, 0..2usize),
                any::<bool>(),
            ),
        )
            .prop_map(
                |((tag, query, size, start), (steps, finishes, sides, late))| Life {
                    tag,
                    query,
                    size,
                    start,
                    steps,
                    finishes,
                    sides,
                    start_late: late && sides.0 != sides.1,
                },
            )
    }

    /// The three queries, `(expected replies, tag, issue time)`: fan-outs
    /// that no, some, all or fewer than all replies reach.
    fn queries() -> impl Strategy<Value = Vec<(u32, u8, u64)>> {
        proptest::collection::vec((0..4u32, 0..3u8, 0..50u64), 3..4)
    }

    /// Plays `picks`, each the next step of `lives[pick]` (flow `pick + 1`),
    /// into two recorders and the reference, which register `queries`
    /// first. With `one`, every step and query goes to the first recorder
    /// and the reference counts replies as they finish; without, the
    /// steps go to their sides and the queries to neither recorder.
    /// `before(n, recs)` runs ahead of the `n`-th pick.
    fn play(
        lives: &[Life],
        queries: &[(u32, u8, u64)],
        picks: &[usize],
        one: bool,
        mut before: impl FnMut(usize, &mut [Recorder; 2]),
    ) -> ([Recorder; 2], Reference) {
        let mut recs = [Recorder::new(), Recorder::new()];
        let mut reference = Reference::default();
        for (i, &(expected, tag, at)) in queries.iter().enumerate() {
            let query = QueryId(i as u64 + 1);
            if one {
                recs[0].query_started(query, expected, t(at));
                recs[0].tag_query(query, tag);
            }
            let qr = QueryRecord {
                query,
                start: t(at),
                expected_flows: expected,
                done_flows: 0,
                finished: None,
                tag,
            };
            reference.queries.insert(query, qr);
        }
        let mut next = vec![0u64; lives.len()];
        for (n, &pick) in picks.iter().enumerate() {
            before(n, &mut recs);
            let i = pick % lives.len();
            let life = Life {
                start_late: lives[i].start_late && !one,
                ..lives[i]
            };
            let flow = FlowId(i as u64 + 1);
            let Some(step) = life.step(next[i]) else {
                continue;
            };
            next[i] += 1;
            let (tx, rx) = if one { (0, 0) } else { life.sides };
            match step {
                Step::Start => {
                    let rec = life.record(flow);
                    let (q, src, dst) = (rec.query, rec.src, rec.dst);
                    recs[tx].flow_started(flow, q, src, dst, rec.bytes, rec.start);
                    recs[tx].tag_flow(flow, life.tag);
                    let r = reference.record(flow);
                    *r = FlowRecord {
                        finished: r.finished,
                        delivered_bytes: r.delivered_bytes,
                        ..rec
                    };
                }
                Step::Progress(delta) => {
                    recs[rx].flow_progress(flow, delta);
                    reference.progress(flow, delta);
                }
                Step::Finish(at) => {
                    recs[rx].flow_finished(flow, at);
                    reference.finish(flow, at, one);
                }
                Step::Late => {
                    recs[rx].flow_progress(flow, 0);
                    reference.progress(flow, 0);
                }
            }
        }
        (recs, reference)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// The classic engine: one recorder, queries issued before their
        /// replies start, a flow's steps in order, lives interleaved at
        /// random, and the recorder saved and restored at a random step.
        #[test]
        fn folded_report_matches_one_built_from_every_record(
            lives in proptest::collection::vec(life(), 1..16),
            qs in queries(),
            picks in proptest::collection::vec(0..16usize, 0..120),
            cut in 0..120usize,
        ) {
            let ([rec, _], reference) = play(&lives, &qs, &picks, true, |n, recs| {
                if n == cut {
                    let (back, _) = restored(&saved(&recs[0], 17)).expect("a saved record restores");
                    assert_eq!(report(&back), report(&recs[0]));
                    recs[0] = back;
                }
            });
            prop_assert_eq!(report(&rec), bits(&reference.report(t(1_000))));
            // What stays live: flows running, and replies that finished
            // after their query was complete.
            for f in rec.flows.values() {
                prop_assert!(f.finished.is_none() || !rec.queries.contains_key(&f.query));
            }
            let running = reference.flows.values().filter(|f| f.finished.is_none()).count();
            prop_assert!(rec.flows.values().filter(|f| f.finished.is_none()).count() == running);
            prop_assert_eq!(rec.flows_started(), reference.flows.len() as u64);
        }

        /// The domain engine: two domain recorders that hold no queries,
        /// restored from their snapshots into a base recorder that holds
        /// them, in either order.
        #[test]
        fn ledger_matches_a_btree_map(
            lives in proptest::collection::vec(life(), 1..16),
            qs in queries(),
            picks in proptest::collection::vec(0..16usize, 0..120),
        ) {
            let ([a, b], mut reference) = play(&lives, &qs, &picks, false, |_, _| {});
            reference.recompute_queries();
            let want = bits(&reference.report(t(1_000)));
            let bytes = [saved(&a, 17), saved(&b, 17)];
            for first in [0, 1] {
                let mut base = Recorder::new();
                for (i, &(expected, tag, at)) in qs.iter().enumerate() {
                    base.query_started(QueryId(i as u64 + 1), expected, t(at));
                    base.tag_query(QueryId(i as u64 + 1), tag);
                }
                for side in [first, 1 - first] {
                    base.absorb(restored(&bytes[side]).expect("a domain record restores").0);
                }
                base.recompute_queries();
                prop_assert_eq!(report(&base), want.clone());
                let merged = saved(&base, 17);
                let (back, _) = restored(&merged).expect("a merged record restores");
                prop_assert_eq!(saved(&back, 17), merged);
                prop_assert_eq!(report(&back), want.clone());
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
