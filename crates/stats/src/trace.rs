//! Per-packet provenance tracing.
//!
//! [`TraceSink`] rides inside [`crate::Recorder`] (exactly like the
//! conservation audit's [`crate::AuditHooks`]), so every component that
//! already reports metrics can also emit structured provenance events:
//! enqueue/dequeue with PIEO rank, the forwarding-policy decision taken,
//! deflections with their sampled candidate ports and victim rank, drops
//! with their [`crate::DropCause`], retransmission-boost rotations, and
//! RX-ordering state-machine transitions with their τ deadlines.
//!
//! Everything splits along one line:
//!
//! * The **record format** — [`TraceRecord`], [`TraceKind`],
//!   [`TraceFilter`], the on-disk encoding — which the `vtrace` dump/diff
//!   CLI decodes a `.vtrace` file with.
//! * The **recording machinery** — per-node ring buffers behind
//!   [`TraceSink`] — armed at run time. A disarmed sink costs each hook
//!   site one test of [`TraceSink::enabled`]; the hooks keep their
//!   record-building code out of line, and recording never feeds back
//!   into the simulation, so a traced run's report is identical to an
//!   untraced one's.
//!
//! Records land in fixed-capacity per-node rings tagged with a global
//! arrival sequence number; serialization merges the rings back into one
//! canonical, arrival-ordered stream. When a ring fills, the oldest record
//! in that ring is overwritten and the file header's `overwritten` count
//! says how many were lost — overflow truncates history per node, it never
//! reorders or corrupts what remains.
//!
//! The event loop is deterministic, so for a fixed spec + seed the byte
//! stream is identical on every run and at any `--jobs` count — which is
//! what lets golden `.vtrace` files act as regression tests and `vtrace
//! diff` act as a determinism check strictly stronger than comparing
//! `Report`s.

/// Whether this build can record traces: always. Kept for the benchmark's
/// result header, which lists it next to [`crate::AUDIT_AVAILABLE`].
pub const TRACE_AVAILABLE: bool = true;

/// Magic bytes opening every `.vtrace` file.
pub const TRACE_MAGIC: [u8; 4] = *b"VTRC";

/// On-disk format version.
pub const TRACE_VERSION: u16 = 1;

/// Size of one encoded [`TraceRecord`] in bytes.
pub const TRACE_RECORD_BYTES: usize = 48;

/// Size of the file header in bytes.
pub const TRACE_HEADER_BYTES: usize = 24;

/// Rank value recorded for queues that do not track ranks (FIFO).
pub const TRACE_NO_RANK: u64 = u64::MAX;

/// What a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A switch enqueued the packet on an output port.
    /// `a` = PIEO rank ([`TRACE_NO_RANK`] for FIFO), `b` = queue bytes
    /// after the push, `port` = output port.
    Enqueue,
    /// A switch dequeued the packet for transmission.
    /// `a` = PIEO rank, `b` = queue bytes after the pop, `port` = port.
    Dequeue,
    /// The forwarding policy picked an output port.
    /// `a` = policy code (see `ForwardPolicy::trace_code` in netsim),
    /// `b` = candidate count in the low 32 bits and DRILL's remembered
    /// port + 1 before the decision in the high 32 (0 = none),
    /// `port` = chosen port, `flags` bit 0 = the remembered port won.
    FwdDecision,
    /// A packet was deflected. `port` = the port it was deflected to,
    /// `a` = the victim's rank at victim-selection time, `b` = up to four
    /// sampled candidate ports (see [`pack_ports`]), `flags` bit 0 =
    /// forced insert (every sampled queue was full), bit 1 = the victim
    /// was the *arriving* packet (not a queue resident).
    Deflect,
    /// A packet was dropped. `a` = [`crate::DropCause`] index,
    /// `b` = wire bytes, `port` = attempted output (0xFFFF if unknown).
    Drop,
    /// A host's marking component boosted a retransmitted packet.
    /// `a` = retransmission count, `b` = the boosted (rotated) RFS.
    Boost,
    /// The RX ordering component released the packet to the transport.
    /// `a` = recovered (un-boosted) RFS, `b` = the flow's armed τ deadline
    /// in ns after processing ([`TRACE_NO_RANK`] = disarmed),
    /// `flags` = delivery-reason code (see netsim's `deliver_reason_code`).
    RxDeliver,
    /// The RX ordering component buffered the packet out-of-order (or
    /// dropped it as a duplicate of a buffered packet: `flags` bit 0).
    /// `a` = recovered RFS, `b` = armed τ deadline in ns.
    RxBuffer,
}

/// Number of trace kinds.
pub const TRACE_KINDS: usize = 8;

impl TraceKind {
    /// All kinds, in code order.
    pub const ALL: [TraceKind; TRACE_KINDS] = [
        TraceKind::Enqueue,
        TraceKind::Dequeue,
        TraceKind::FwdDecision,
        TraceKind::Deflect,
        TraceKind::Drop,
        TraceKind::Boost,
        TraceKind::RxDeliver,
        TraceKind::RxBuffer,
    ];

    /// Stable on-disk code.
    pub fn code(self) -> u8 {
        match self {
            TraceKind::Enqueue => 0,
            TraceKind::Dequeue => 1,
            TraceKind::FwdDecision => 2,
            TraceKind::Deflect => 3,
            TraceKind::Drop => 4,
            TraceKind::Boost => 5,
            TraceKind::RxDeliver => 6,
            TraceKind::RxBuffer => 7,
        }
    }

    /// Decodes an on-disk code.
    pub fn from_code(code: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(code as usize).copied()
    }

    /// Human-readable label (the `vtrace dump` column).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Enqueue => "enqueue",
            TraceKind::Dequeue => "dequeue",
            TraceKind::FwdDecision => "fwd",
            TraceKind::Deflect => "deflect",
            TraceKind::Drop => "drop",
            TraceKind::Boost => "boost",
            TraceKind::RxDeliver => "rx-deliver",
            TraceKind::RxBuffer => "rx-buffer",
        }
    }
}

/// One provenance event, 48 bytes on disk (little-endian, fixed layout:
/// `time_ns u64 | uid u64 | flow u64 | a u64 | b u64 | node u32 | kind u8
/// | flags u8 | port u16`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the event in nanoseconds.
    pub time_ns: u64,
    /// The packet's unique id.
    pub uid: u64,
    /// The packet's flow id.
    pub flow: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub b: u64,
    /// Node where the event happened.
    pub node: u32,
    /// Event kind code ([`TraceKind::code`]).
    pub kind: u8,
    /// Kind-specific flag bits.
    pub flags: u8,
    /// Port involved (0xFFFF when not applicable).
    pub port: u16,
}

impl TraceRecord {
    /// Encodes into the fixed 48-byte little-endian layout.
    pub fn encode(&self) -> [u8; TRACE_RECORD_BYTES] {
        let mut out = [0u8; TRACE_RECORD_BYTES];
        out[0..8].copy_from_slice(&self.time_ns.to_le_bytes());
        out[8..16].copy_from_slice(&self.uid.to_le_bytes());
        out[16..24].copy_from_slice(&self.flow.to_le_bytes());
        out[24..32].copy_from_slice(&self.a.to_le_bytes());
        out[32..40].copy_from_slice(&self.b.to_le_bytes());
        out[40..44].copy_from_slice(&self.node.to_le_bytes());
        out[44] = self.kind;
        out[45] = self.flags;
        out[46..48].copy_from_slice(&self.port.to_le_bytes());
        out
    }

    /// Decodes one record from its 48-byte layout.
    pub fn decode(buf: &[u8; TRACE_RECORD_BYTES]) -> TraceRecord {
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("8 bytes"));
        TraceRecord {
            time_ns: u64_at(0),
            uid: u64_at(8),
            flow: u64_at(16),
            a: u64_at(24),
            b: u64_at(32),
            node: u32::from_le_bytes(buf[40..44].try_into().expect("4 bytes")),
            kind: buf[44],
            flags: buf[45],
            port: u16::from_le_bytes(buf[46..48].try_into().expect("2 bytes")),
        }
    }

    /// The decoded kind, if the code is known.
    pub fn kind(&self) -> Option<TraceKind> {
        TraceKind::from_code(self.kind)
    }
}

/// Packs up to four port numbers into a `u64` (`b` field of deflection
/// records); empty slots hold 0xFFFF.
pub fn pack_ports(ports: &[u16]) -> u64 {
    let mut out = 0u64;
    for slot in 0..4 {
        let p = ports.get(slot).copied().unwrap_or(u16::MAX);
        out |= (p as u64) << (slot * 16);
    }
    out
}

/// Inverse of [`pack_ports`]: the non-empty slots.
pub fn unpack_ports(packed: u64) -> Vec<u16> {
    (0..4)
        .map(|slot| ((packed >> (slot * 16)) & 0xFFFF) as u16)
        .filter(|&p| p != u16::MAX)
        .collect()
}

/// Record-level filter applied *before* a record enters a ring. The
/// default passes everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    /// Keep only this flow's records.
    pub flow: Option<u64>,
    /// Keep only this node's records (a switch or host id).
    pub node: Option<u32>,
    /// Keep only records with `time_ns >= from_ns`.
    pub from_ns: u64,
    /// Keep only records with `time_ns < until_ns`.
    pub until_ns: u64,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            flow: None,
            node: None,
            from_ns: 0,
            until_ns: u64::MAX,
        }
    }
}

impl TraceFilter {
    /// Whether `rec` passes the filter.
    pub fn matches(&self, rec: &TraceRecord) -> bool {
        if let Some(f) = self.flow {
            if rec.flow != f {
                return false;
            }
        }
        if let Some(n) = self.node {
            if rec.node != n {
                return false;
            }
        }
        rec.time_ns >= self.from_ns && rec.time_ns < self.until_ns
    }
}

/// Parsed `.vtrace` file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version.
    pub version: u16,
    /// Records in the file.
    pub records: u64,
    /// Records lost to ring-buffer overflow during capture.
    pub overwritten: u64,
}

fn encode_header(h: &TraceHeader) -> [u8; TRACE_HEADER_BYTES] {
    let mut out = [0u8; TRACE_HEADER_BYTES];
    out[0..4].copy_from_slice(&TRACE_MAGIC);
    out[4..6].copy_from_slice(&h.version.to_le_bytes());
    // out[6..8] reserved, zero.
    out[8..16].copy_from_slice(&h.records.to_le_bytes());
    out[16..24].copy_from_slice(&h.overwritten.to_le_bytes());
    out
}

/// Parses a serialized trace (header + records). Returns the header and
/// the records in their canonical (arrival) order.
pub fn parse_trace(bytes: &[u8]) -> Result<(TraceHeader, Vec<TraceRecord>), String> {
    if bytes.len() < TRACE_HEADER_BYTES {
        return Err(format!(
            "trace too short: {} bytes (header is {TRACE_HEADER_BYTES})",
            bytes.len()
        ));
    }
    if bytes[0..4] != TRACE_MAGIC {
        return Err("bad magic: not a .vtrace file".into());
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != TRACE_VERSION {
        return Err(format!(
            "unsupported trace version {version} (expected {TRACE_VERSION})"
        ));
    }
    let records = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let overwritten = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let body = &bytes[TRACE_HEADER_BYTES..];
    if !body.len().is_multiple_of(TRACE_RECORD_BYTES) {
        return Err(format!(
            "trace body length {} is not a multiple of {TRACE_RECORD_BYTES}",
            body.len()
        ));
    }
    let n = body.len() / TRACE_RECORD_BYTES;
    if n as u64 != records {
        return Err(format!(
            "header claims {records} records but body holds {n}"
        ));
    }
    let mut out = Vec::with_capacity(n);
    for chunk in body.chunks_exact(TRACE_RECORD_BYTES) {
        out.push(TraceRecord::decode(chunk.try_into().expect("exact chunk")));
    }
    Ok((
        TraceHeader {
            version,
            records,
            overwritten,
        },
        out,
    ))
}

/// Per-node fixed-capacity ring of sequence-tagged records.
#[derive(Debug, Default, Clone)]
struct NodeRing {
    /// `(global sequence, record)`; once at capacity, `start` marks the
    /// oldest slot and pushes overwrite it.
    buf: Vec<(u64, TraceRecord)>,
    start: usize,
    overwritten: u64,
}

impl NodeRing {
    fn push(&mut self, seq: u64, rec: TraceRecord, capacity: usize) {
        if self.buf.len() < capacity {
            self.buf.push((seq, rec));
        } else {
            self.buf[self.start] = (seq, rec);
            self.start = (self.start + 1) % capacity;
            self.overwritten += 1;
        }
    }
}

/// The armed state of a recording sink.
#[derive(Debug, Clone)]
struct TraceInner {
    filter: TraceFilter,
    /// Per-node ring capacity in records.
    capacity: usize,
    /// Rings indexed by node id.
    rings: Vec<NodeRing>,
    /// Global arrival counter; tags every accepted record so serialization
    /// can merge the rings back into one canonical stream.
    seq: u64,
}

/// The provenance-event sink carried by [`crate::Recorder`].
///
/// All methods are safe to call unconditionally; a disarmed sink records
/// nothing and serializes to a valid, empty trace.
#[derive(Debug, Default, Clone)]
pub struct TraceSink {
    inner: Option<Box<TraceInner>>,
}

impl TraceSink {
    /// A disarmed sink (records nothing until [`TraceSink::arm`]).
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Arms the sink: record events passing `filter` into per-node rings
    /// of `capacity` records, for node ids `0..nodes`.
    pub fn arm(&mut self, filter: TraceFilter, nodes: usize, capacity: usize) {
        let mut rings = Vec::with_capacity(nodes);
        rings.resize_with(nodes, NodeRing::default);
        self.inner = Some(Box::new(TraceInner {
            filter,
            capacity: capacity.max(1),
            rings,
            seq: 0,
        }));
    }

    /// Whether recording is armed: the one test a disarmed hook site
    /// pays, its record-building code being out of line behind it.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event (filtered, sequence-tagged, ring-buffered).
    #[inline]
    pub fn record(&mut self, rec: TraceRecord) {
        if let Some(inner) = self.inner.as_deref_mut() {
            if !inner.filter.matches(&rec) {
                return;
            }
            let node = rec.node as usize;
            if node >= inner.rings.len() {
                inner.rings.resize_with(node + 1, NodeRing::default);
            }
            let seq = inner.seq;
            inner.seq += 1;
            inner.rings[node].push(seq, rec, inner.capacity);
        }
    }

    /// Records currently held, in canonical (arrival-sequence) order.
    /// Empty before arming.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.merged().into_iter().map(|(_, r)| r).collect()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.inner
            .as_deref()
            .map_or(0, |i| i.rings.iter().map(|r| r.buf.len()).sum())
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records lost to ring overflow so far.
    pub fn overwritten(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| i.rings.iter().map(|r| r.overwritten).sum())
    }

    /// Serializes header + records into the on-disk format. An unarmed
    /// sink serializes to a valid, empty trace.
    pub fn serialize(&self) -> Vec<u8> {
        let merged = self.merged();
        let header = TraceHeader {
            version: TRACE_VERSION,
            records: merged.len() as u64,
            overwritten: self.overwritten(),
        };
        let mut out = Vec::with_capacity(TRACE_HEADER_BYTES + merged.len() * TRACE_RECORD_BYTES);
        out.extend_from_slice(&encode_header(&header));
        for (_, rec) in &merged {
            out.extend_from_slice(&rec.encode());
        }
        out
    }

    /// Serializes the full recording state — filter, ring capacity, global
    /// sequence counter, and every ring's contents (including each ring's
    /// rotation point and overflow count) — so a resumed run's rings evolve
    /// exactly like the straight-through run's and the final `.vtrace`
    /// stream is byte-identical. A disarmed sink writes the armed byte
    /// alone.
    pub fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        if let Some(inner) = self.inner.as_deref() {
            use vertigo_simcore::Snapshot;
            w.put_bool(true);
            inner.filter.flow.save(w);
            inner.filter.node.save(w);
            w.put_u64(inner.filter.from_ns);
            w.put_u64(inner.filter.until_ns);
            w.put_usize(inner.capacity);
            w.put_u64(inner.seq);
            w.put_usize(inner.rings.len());
            for ring in &inner.rings {
                w.put_usize(ring.start);
                w.put_u64(ring.overwritten);
                w.put_usize(ring.buf.len());
                for (seq, rec) in &ring.buf {
                    w.put_u64(*seq);
                    w.put_bytes(&rec.encode());
                }
            }
            return;
        }
        w.put_bool(false);
    }

    /// Restores state written by [`TraceSink::snap_save`].
    pub fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        use vertigo_simcore::{SnapError, Snapshot};
        if !r.get_bool()? {
            *self = TraceSink::new();
            return Ok(());
        }
        let filter = TraceFilter {
            flow: Option::restore(r)?,
            node: Option::restore(r)?,
            from_ns: r.get_u64()?,
            until_ns: r.get_u64()?,
        };
        let capacity = r.get_usize()?;
        if capacity == 0 {
            return Err(SnapError::new("trace ring capacity 0"));
        }
        let seq = r.get_u64()?;
        // A ring record opens with its start, overwrite tally and count.
        let nrings = r.count(3 * 8, "trace rings")?;
        let mut rings = Vec::with_capacity(nrings);
        for i in 0..nrings {
            let start = r.get_usize()?;
            let overwritten = r.get_u64()?;
            let nbuf = r.count(8 + TRACE_RECORD_BYTES, "trace records")?;
            // What `NodeRing::push` and `merged` index by: a ring holds
            // at most `capacity` records and rotates only once full.
            if nbuf > capacity || start >= capacity || (start != 0 && nbuf < capacity) {
                return Err(SnapError::new(format!(
                    "trace ring {i}: start {start} with {nbuf} records at capacity {capacity}"
                )));
            }
            let mut buf = Vec::with_capacity(nbuf);
            for _ in 0..nbuf {
                let rec_seq = r.get_u64()?;
                let bytes: [u8; TRACE_RECORD_BYTES] = r
                    .get_bytes(TRACE_RECORD_BYTES)?
                    .try_into()
                    .expect("exact length");
                buf.push((rec_seq, TraceRecord::decode(&bytes)));
            }
            rings.push(NodeRing {
                buf,
                start,
                overwritten,
            });
        }
        self.inner = Some(Box::new(TraceInner {
            filter,
            capacity,
            rings,
            seq,
        }));
        Ok(())
    }

    /// All `(seq, record)` pairs across rings, sorted by sequence. Each
    /// ring is internally seq-ordered (oldest at `start`), so this is a
    /// k-way merge; a sort keeps it simple at bounded capacity.
    fn merged(&self) -> Vec<(u64, TraceRecord)> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        let mut all: Vec<(u64, TraceRecord)> = Vec::with_capacity(self.len());
        for ring in &inner.rings {
            let (tail, head) = ring.buf.split_at(ring.start);
            all.extend_from_slice(head);
            all.extend_from_slice(tail);
        }
        all.sort_unstable_by_key(|&(seq, _)| seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(time_ns: u64, node: u32, flow: u64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            time_ns,
            uid: 100 + time_ns,
            flow,
            a: 1,
            b: 2,
            node,
            kind: kind.code(),
            flags: 0,
            port: 3,
        }
    }

    #[test]
    fn record_roundtrips_through_encoding() {
        let r = TraceRecord {
            time_ns: u64::MAX - 1,
            uid: 0xDEAD_BEEF,
            flow: 42,
            a: TRACE_NO_RANK,
            b: pack_ports(&[1, 7, 300]),
            node: 0xFFFF_FFFE,
            kind: TraceKind::Deflect.code(),
            flags: 0b11,
            port: 0xFFFE,
        };
        assert_eq!(TraceRecord::decode(&r.encode()), r);
        assert_eq!(r.kind(), Some(TraceKind::Deflect));
        assert_eq!(unpack_ports(r.b), vec![1, 7, 300]);
    }

    #[test]
    fn kind_codes_are_stable_and_unique() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k.code() as usize, i, "ALL must be in code order");
            assert_eq!(TraceKind::from_code(k.code()), Some(*k));
        }
        assert_eq!(TraceKind::from_code(TRACE_KINDS as u8), None);
        let mut labels: Vec<&str> = TraceKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TRACE_KINDS);
    }

    #[test]
    fn filter_matches_flow_node_and_window() {
        let f = TraceFilter {
            flow: Some(5),
            node: Some(2),
            from_ns: 100,
            until_ns: 200,
        };
        assert!(f.matches(&rec(150, 2, 5, TraceKind::Enqueue)));
        assert!(!f.matches(&rec(150, 2, 6, TraceKind::Enqueue)), "flow");
        assert!(!f.matches(&rec(150, 3, 5, TraceKind::Enqueue)), "node");
        assert!(!f.matches(&rec(99, 2, 5, TraceKind::Enqueue)), "before");
        assert!(!f.matches(&rec(200, 2, 5, TraceKind::Enqueue)), "at end");
        assert!(TraceFilter::default().matches(&rec(0, 9, 9, TraceKind::Drop)));
    }

    #[test]
    fn empty_serialization_parses() {
        let sink = TraceSink::new();
        let bytes = sink.serialize();
        let (h, recs) = parse_trace(&bytes).unwrap();
        assert_eq!(h.records, 0);
        assert_eq!(h.overwritten, 0);
        assert!(recs.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace(b"nope").is_err());
        assert!(parse_trace(b"XXXX0123456789abcdef0123").is_err());
        let sink = TraceSink::new();
        let mut bytes = sink.serialize();
        bytes.push(0); // ragged body
        assert!(parse_trace(&bytes).is_err());
    }

    #[test]
    fn port_packing_roundtrips() {
        assert_eq!(unpack_ports(pack_ports(&[])), Vec::<u16>::new());
        assert_eq!(unpack_ports(pack_ports(&[0])), vec![0]);
        assert_eq!(unpack_ports(pack_ports(&[4, 2, 9, 1])), vec![4, 2, 9, 1]);
        // More than four ports: only the first four survive.
        assert_eq!(unpack_ports(pack_ports(&[1, 2, 3, 4, 5])), vec![1, 2, 3, 4]);
    }

    #[test]
    fn armed_sink_records_in_arrival_order() {
        let mut s = TraceSink::new();
        s.arm(TraceFilter::default(), 3, 16);
        assert!(s.enabled());
        s.record(rec(10, 2, 1, TraceKind::Enqueue));
        s.record(rec(11, 0, 1, TraceKind::Dequeue));
        s.record(rec(12, 2, 1, TraceKind::Drop));
        let recs = s.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.time_ns).collect::<Vec<_>>(),
            vec![10, 11, 12],
            "canonical order is arrival order, interleaved across nodes"
        );
        let (h, parsed) = parse_trace(&s.serialize()).unwrap();
        assert_eq!(h.records, 3);
        assert_eq!(parsed, recs);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut s = TraceSink::new();
        s.arm(TraceFilter::default(), 1, 4);
        for t in 0..10 {
            s.record(rec(t, 0, 1, TraceKind::Enqueue));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.overwritten(), 6);
        let times: Vec<u64> = s.records().iter().map(|r| r.time_ns).collect();
        assert_eq!(times, vec![6, 7, 8, 9], "oldest overwritten first");
        let (h, _) = parse_trace(&s.serialize()).unwrap();
        assert_eq!(h.overwritten, 6);
    }

    #[test]
    fn filter_applies_before_the_ring() {
        let mut s = TraceSink::new();
        s.arm(
            TraceFilter {
                flow: Some(7),
                ..TraceFilter::default()
            },
            2,
            16,
        );
        s.record(rec(1, 0, 7, TraceKind::Enqueue));
        s.record(rec(2, 0, 8, TraceKind::Enqueue));
        assert_eq!(s.len(), 1);
        assert_eq!(s.records()[0].flow, 7);
    }

    #[test]
    fn unknown_node_ids_grow_the_ring_set() {
        let mut s = TraceSink::new();
        s.arm(TraceFilter::default(), 1, 8);
        s.record(rec(1, 5, 1, TraceKind::Drop));
        assert_eq!(s.len(), 1);
        assert_eq!(s.records()[0].node, 5);
    }

    #[test]
    fn snapshot_round_trip_preserves_rings_and_serialization() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let mut s = TraceSink::new();
        s.arm(TraceFilter::default(), 2, 4);
        for t in 0..7 {
            s.record(rec(t, (t % 2) as u32, 1, TraceKind::Enqueue));
        }
        let mut w = SnapWriter::new();
        s.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut s2 = TraceSink::new();
        let mut r = SnapReader::new(&bytes);
        s2.snap_restore(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(s2.enabled());
        assert_eq!(s2.len(), s.len());
        assert_eq!(s2.overwritten(), s.overwritten());
        assert_eq!(s2.serialize(), s.serialize());
        // Future records land identically (same seq numbering, same ring
        // rotation through the overwrite path).
        for t in 7..12 {
            s.record(rec(t, 0, 1, TraceKind::Dequeue));
            s2.record(rec(t, 0, 1, TraceKind::Dequeue));
        }
        assert_eq!(s2.serialize(), s.serialize());
    }

    /// An armed-sink VSNP record with one ring per `(start, records held)`
    /// entry; record `j` of a ring carries sequence number `j`.
    fn armed_record(capacity: usize, rings: &[(usize, usize)]) -> Vec<u8> {
        use vertigo_simcore::{SnapWriter, Snapshot};
        let mut w = SnapWriter::new();
        w.put_bool(true);
        None::<u64>.save(&mut w);
        None::<u32>.save(&mut w);
        w.put_u64(0);
        w.put_u64(u64::MAX);
        w.put_usize(capacity);
        w.put_u64(rings.iter().map(|&(_, n)| n as u64).sum());
        w.put_usize(rings.len());
        for &(start, nbuf) in rings {
            w.put_usize(start);
            w.put_u64(0);
            w.put_usize(nbuf);
            for j in 0..nbuf as u64 {
                w.put_u64(j);
                w.put_bytes(&rec(j, 0, 1, TraceKind::Enqueue).encode());
            }
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_hostile_records() {
        use vertigo_simcore::SnapReader;
        let restored = |bytes: &[u8]| {
            let mut s = TraceSink::new();
            s.snap_restore(&mut SnapReader::new(bytes)).map(|()| s)
        };
        // A full ring rotated to slot 2 next to a part-filled one.
        let ok = armed_record(4, &[(2, 4), (0, 3)]);
        let mut s = restored(&ok).unwrap();
        assert_eq!(s.len(), 7);
        // What the unchecked fields used to reach: a push into each ring
        // and the merge.
        s.record(rec(9, 0, 1, TraceKind::Drop));
        s.record(rec(9, 1, 1, TraceKind::Drop));
        assert_eq!(s.records().len(), 8);
        for (what, bytes) in [
            ("capacity 0", armed_record(0, &[(0, 0)])),
            ("more records than capacity", armed_record(2, &[(0, 3)])),
            ("start == capacity", armed_record(4, &[(4, 4)])),
            (
                "start beyond the buffer",
                armed_record(4, &[(usize::MAX, 4)]),
            ),
            ("rotated before full", armed_record(4, &[(1, 3)])),
            ("rotated while empty", armed_record(4, &[(0, 4), (1, 0)])),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        // Truncated anywhere — in the filter, a ring header, a record.
        for cut in 0..ok.len() {
            assert!(
                restored(&ok[..cut]).is_err(),
                "accepted {cut} of {} bytes",
                ok.len()
            );
        }
    }

    #[test]
    fn disarmed_sink_snapshot_round_trips() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let s = TraceSink::new();
        let mut w = SnapWriter::new();
        s.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut s2 = TraceSink::new();
        let mut r = SnapReader::new(&bytes);
        s2.snap_restore(&mut r).unwrap();
        assert_eq!(bytes, [0], "the armed byte alone");
        assert_eq!(r.remaining(), 0);
        assert!(!s2.enabled());
    }
}
