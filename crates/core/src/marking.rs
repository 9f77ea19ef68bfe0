//! The TX-path marking component (paper §3.1).
//!
//! Sits between the transport and the NIC on the sender. For every outgoing
//! data packet it:
//!
//! 1. looks the packet up in a [`CuckooFilter`] keyed by (flow, sequence) —
//!    a hit means the packet was transmitted before, i.e. it is a
//!    retransmission;
//! 2. computes the packet's original RFS from the flow table (SRPT: bytes
//!    remaining including this packet; LAS: packets already sent by the
//!    flow);
//! 3. applies the boosting rotation `retcnt` times for retransmissions and
//!    emits the [`FlowInfo`] header to tag onto the packet.
//!
//! Flow state is registered when the application opens a flow (advance
//! flow-size knowledge; see the paper's §4.3 for the LAS fallback when
//! sizes are unknown) and removed when the flow completes. A segment's
//! fingerprint and retransmission counter leave earlier, once the flow's
//! cumulative ACK passes it: its sender never sends it again.

use crate::boost;
use crate::cuckoo::{shrink_if_sparse, CuckooFilter};
use std::collections::HashMap;
use vertigo_pkt::{mix64, FlowId, FlowInfo, Mix64Build, NodeId, MAX_PAYLOAD};
use vertigo_simcore::{SnapError, SnapReader};

/// Which quantity the RFS field carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkingDiscipline {
    /// Shortest Remaining Processing Time: RFS = bytes left in the flow,
    /// including the tagged packet. Requires flow sizes up front.
    Srpt,
    /// Least Attained Service ("flow aging", §4.3): RFS = number of packets
    /// the flow has already transmitted. No advance size knowledge needed.
    Las,
}

/// Marking component configuration.
#[derive(Debug, Clone)]
pub struct MarkingConfig {
    /// SRPT or LAS.
    pub discipline: MarkingDiscipline,
    /// Retransmission boosting factor (power of two ≥ 2), or `None` to
    /// disable boosting (paper Fig. 11b's leftmost columns).
    pub boost_factor: Option<u32>,
}

impl Default for MarkingConfig {
    fn default() -> Self {
        MarkingConfig {
            discipline: MarkingDiscipline::Srpt,
            boost_factor: Some(2),
        }
    }
}

#[derive(Debug)]
struct FlowTx {
    /// Total flow size in bytes.
    total: u64,
    /// The 3-bit rolling flow counter assigned to this flow.
    flow_seq: u8,
    /// Packets transmitted so far (fresh transmissions only) — the LAS age.
    age_pkts: u64,
}

/// Counters exposed for experiments and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct MarkingStats {
    /// Packets tagged in total.
    pub marked: u64,
    /// Retransmissions detected via the cuckoo filter.
    pub retransmissions: u64,
    /// Packets whose filter insert was rejected (filter past design load).
    pub filter_overflows: u64,
}

/// Sums two hosts' counters.
impl std::ops::AddAssign for MarkingStats {
    fn add_assign(&mut self, s: MarkingStats) {
        self.marked += s.marked;
        self.retransmissions += s.retransmissions;
        self.filter_overflows += s.filter_overflows;
    }
}

/// Refuses a value `mark` or `register_flow` cannot have left behind.
fn at_most(value: u8, max: u8, what: &str) -> Result<u8, SnapError> {
    if value > max {
        return Err(SnapError::new(format!(
            "marking {what} {value} exceeds {max}"
        )));
    }
    Ok(value)
}

/// Capacity of the retransmission-detection cuckoo filter, in packets.
const FILTER_CAPACITY: usize = 65_536;

/// The sender-side marking component. One instance per host.
pub struct MarkingComponent {
    cfg: MarkingConfig,
    /// Per-retransmission rotation in bits; 0 when boosting is disabled.
    shift: u32,
    flows: HashMap<FlowId, FlowTx, Mix64Build>,
    filter: CuckooFilter,
    /// retcnt per (flow, seq) — only populated once a retransmission is
    /// detected, and dropped once the flow's cumulative ACK passes the
    /// segment ([`MarkingComponent::cum_ack_advanced`]), so its footprint
    /// tracks unrepaired loss, not traffic.
    retx: HashMap<(FlowId, u64), u8, Mix64Build>,
    /// Rolling 3-bit flow counter per destination host.
    dst_counters: HashMap<NodeId, u8, Mix64Build>,
    stats: MarkingStats,
}

impl MarkingComponent {
    /// Creates a marking component.
    pub fn new(cfg: MarkingConfig) -> Self {
        let shift = cfg.boost_factor.map(boost::factor_to_shift).unwrap_or(0);
        let filter = CuckooFilter::with_capacity(FILTER_CAPACITY);
        MarkingComponent {
            cfg,
            shift,
            flows: HashMap::default(),
            filter,
            retx: HashMap::default(),
            dst_counters: HashMap::default(),
            stats: MarkingStats::default(),
        }
    }

    /// The per-retransmission rotation amount (bits).
    pub fn boost_shift(&self) -> u32 {
        self.shift
    }

    /// The active discipline.
    pub fn discipline(&self) -> MarkingDiscipline {
        self.cfg.discipline
    }

    /// Counters.
    pub fn stats(&self) -> MarkingStats {
        self.stats
    }

    /// Bytes of heap the retransmission filter holds now
    /// ([`CuckooFilter::heap_bytes`]).
    pub fn filter_heap_bytes(&self) -> usize {
        self.filter.heap_bytes()
    }

    /// Fingerprints held now: one per segment sent and not yet below its
    /// flow's cumulative ACK.
    pub fn filter_entries(&self) -> usize {
        self.filter.len()
    }

    /// Retransmission counters held now: one per segment that was sent
    /// again and is not yet below its flow's cumulative ACK.
    pub fn retx_entries(&self) -> usize {
        self.retx.len()
    }

    /// Number of flows currently tracked.
    pub fn flows_tracked(&self) -> usize {
        self.flows.len()
    }

    /// Registers an outgoing flow of `total` bytes toward `dst`, assigning
    /// its 3-bit flow counter. Must be called before the first `mark`.
    pub fn register_flow(&mut self, flow: FlowId, dst: NodeId, total: u64) -> u8 {
        let ctr = self.dst_counters.entry(dst).or_insert(0);
        let flow_seq = *ctr;
        *ctr = (*ctr + 1) & 0x7;
        self.flows.insert(
            flow,
            FlowTx {
                total,
                flow_seq,
                age_pkts: 0,
            },
        );
        flow_seq
    }

    #[inline]
    fn key(flow: FlowId, seq: u64) -> u64 {
        mix64(flow.0 ^ mix64(seq))
    }

    /// Tags one outgoing data segment, returning the flowinfo header to put
    /// on the wire.
    ///
    /// `seq` is the byte offset of the segment in the flow, `payload` its
    /// length. Retransmissions are detected internally; callers do not need
    /// to say whether this is a retransmission (that is the point of the
    /// cuckoo filter — the marking component is transport-independent).
    ///
    /// # Panics
    /// Panics if the flow was not registered.
    pub fn mark(&mut self, flow: FlowId, seq: u64, payload: u32) -> FlowInfo {
        debug_assert!(payload > 0 && payload <= MAX_PAYLOAD);
        let shift = self.shift;
        let fl = self
            .flows
            .get_mut(&flow)
            .expect("mark() on unregistered flow");
        self.stats.marked += 1;

        let key = Self::key(flow, seq);
        let retcnt = if self.filter.contains(key) {
            // Retransmission: bump its boost count (saturating at what the
            // 4-bit field and 32-bit rotation can absorb).
            self.stats.retransmissions += 1;
            let e = self.retx.entry((flow, seq)).or_insert(0);
            *e = (*e + 1).min(boost::max_boosts(shift));
            *e
        } else {
            if !self.filter.insert(key) {
                self.stats.filter_overflows += 1;
            }
            0
        };

        let orig_rfs: u32 = match self.cfg.discipline {
            MarkingDiscipline::Srpt => {
                // Remaining bytes including this packet. For the last packet
                // of a flow this equals the payload length (paper §3.1).
                let remaining = fl.total.saturating_sub(seq);
                u32::try_from(remaining).unwrap_or(u32::MAX)
            }
            MarkingDiscipline::Las => {
                // Flow age in packets: 0 for the first packet, growing.
                u32::try_from(fl.age_pkts).unwrap_or(u32::MAX)
            }
        };
        if retcnt == 0 {
            fl.age_pkts += 1;
        }

        let wire_rfs = if self.shift == 0 {
            orig_rfs
        } else {
            let mut v = orig_rfs;
            for _ in 0..retcnt {
                v = boost::boost_once(v, self.shift);
            }
            v
        };

        FlowInfo {
            rfs: wire_rfs,
            // With boosting disabled retcnt stays 0 on the wire so switches
            // and receivers apply no un-rotation.
            retcnt: if self.shift == 0 { 0 } else { retcnt },
            flow_seq: fl.flow_seq,
            first: seq == 0,
        }
    }

    /// Removes a completed flow's entry from the flow table. The ACK that
    /// completed it reached its size, so [`MarkingComponent::cum_ack_advanced`]
    /// has already removed every fingerprint and counter it had; the
    /// filter's bucket map, the counter map and the flow map then give back
    /// the room the live flows no longer need ([`shrink_if_sparse`]).
    pub fn complete_flow(&mut self, flow: FlowId) {
        if self.flows.remove(&flow).is_some() {
            self.filter.release_spare();
            shrink_if_sparse(&mut self.retx);
            shrink_if_sparse(&mut self.flows);
        }
    }

    /// `flow`'s cumulative ACK moved from `from` to `to` (`from == to` for
    /// an ACK that moved nothing): removes the fingerprint and the
    /// retransmission counter of each segment, cut at `MAX_PAYLOAD` as the
    /// sender cuts them, that starts in `[from, to)`. A sender never resends a
    /// segment that starts below its cumulative ACK, so `mark` would never
    /// ask for them again. Over a flow's ACKs the intervals tile
    /// `[0, size)`, so each key is removed exactly once. The maps' room
    /// goes back at the host's next completion; shrinking here would free
    /// and regrow them with every repaired loss, for no lower peak.
    #[inline]
    pub fn cum_ack_advanced(&mut self, flow: FlowId, from: u64, to: u64) {
        let mss = MAX_PAYLOAD as u64;
        let mut seq = from.div_ceil(mss) * mss;
        while seq < to {
            self.filter.remove(Self::key(flow, seq));
            if !self.retx.is_empty() {
                self.retx.remove(&(flow, seq));
            }
            seq += mss;
        }
    }

    /// Serializes all mutable state. Hash maps are written in sorted key
    /// order so the byte stream does not depend on the hasher;
    /// the config and boost shift are not saved (resume reconstructs the
    /// component from the run spec before calling
    /// [`MarkingComponent::snap_restore`]).
    pub fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        use vertigo_simcore::Snapshot;
        let mut flows: Vec<_> = self.flows.iter().collect();
        flows.sort_by_key(|(f, _)| f.0);
        w.put_usize(flows.len());
        for (flow, tx) in flows {
            w.put_u64(flow.0);
            w.put_u64(tx.total);
            w.put_u8(tx.flow_seq);
            w.put_u64(tx.age_pkts);
        }
        self.filter.save(w);
        let mut retx: Vec<_> = self.retx.iter().collect();
        retx.sort_by_key(|((f, s), _)| (f.0, *s));
        w.put_usize(retx.len());
        for ((flow, seq), retcnt) in retx {
            w.put_u64(flow.0);
            w.put_u64(*seq);
            w.put_u8(*retcnt);
        }
        let mut ctrs: Vec<_> = self.dst_counters.iter().collect();
        ctrs.sort_by_key(|(d, _)| d.0);
        w.put_usize(ctrs.len());
        for (dst, ctr) in ctrs {
            w.put_u32(dst.0);
            w.put_u8(*ctr);
        }
        w.put_u64(self.stats.marked);
        w.put_u64(self.stats.retransmissions);
        w.put_u64(self.stats.filter_overflows);
    }

    /// Restores state written by [`MarkingComponent::snap_save`] into a
    /// component freshly built with the same config. Refuses what that
    /// writer cannot produce: map keys out of ascending order, a flow or
    /// destination counter past its 3 bits, a retransmission count past
    /// the cap `mark` applies.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        use vertigo_simcore::Snapshot;
        self.flows.clear();
        r.ascending(25, "marking flow", FlowId::restore, |r, flow| {
            let total = r.get_u64()?;
            let flow_seq = at_most(r.get_u8()?, 7, "flow counter")?;
            let age_pkts = r.get_u64()?;
            let tx = FlowTx {
                total,
                flow_seq,
                age_pkts,
            };
            self.flows.insert(flow, tx);
            Ok(())
        })?;
        self.filter = CuckooFilter::restore(r)?;
        self.retx.clear();
        let flow_seq = |r: &mut SnapReader<'_>| Ok((FlowId::restore(r)?, r.get_u64()?));
        let max_boosts = boost::max_boosts(self.shift);
        r.ascending(17, "marking retx", flow_seq, |r, key| {
            let retcnt = at_most(r.get_u8()?, max_boosts, "retransmission count")?;
            self.retx.insert(key, retcnt);
            Ok(())
        })?;
        self.dst_counters.clear();
        r.ascending(5, "marking destination", NodeId::restore, |r, dst| {
            let ctr = at_most(r.get_u8()?, 7, "destination counter")?;
            self.dst_counters.insert(dst, ctr);
            Ok(())
        })?;
        self.stats.marked = r.get_u64()?;
        self.stats.retransmissions = r.get_u64()?;
        self.stats.filter_overflows = r.get_u64()?;
        Ok(())
    }
}

impl std::fmt::Debug for MarkingComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarkingComponent")
            .field("discipline", &self.cfg.discipline)
            .field("flows", &self.flows.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boost::unboost;
    use proptest::prelude::*;

    fn comp(discipline: MarkingDiscipline, factor: Option<u32>) -> MarkingComponent {
        MarkingComponent::new(MarkingConfig {
            discipline,
            boost_factor: factor,
        })
    }

    #[test]
    fn srpt_rfs_counts_down() {
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        let f = FlowId(1);
        m.register_flow(f, NodeId(9), 4000);
        let a = m.mark(f, 0, 1460);
        let b = m.mark(f, 1460, 1460);
        let c = m.mark(f, 2920, 1080);
        assert_eq!(a.rfs, 4000);
        assert!(a.first);
        assert_eq!(b.rfs, 4000 - 1460);
        assert!(!b.first);
        // Last packet: RFS equals its payload length (paper §3.1).
        assert_eq!(c.rfs, 1080);
    }

    #[test]
    fn las_rfs_counts_up() {
        let mut m = comp(MarkingDiscipline::Las, Some(2));
        let f = FlowId(2);
        m.register_flow(f, NodeId(9), 1 << 20);
        assert_eq!(m.mark(f, 0, 1460).rfs, 0);
        assert_eq!(m.mark(f, 1460, 1460).rfs, 1);
        assert_eq!(m.mark(f, 2920, 1460).rfs, 2);
    }

    #[test]
    fn retransmissions_detected_and_boosted() {
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        let f = FlowId(3);
        m.register_flow(f, NodeId(9), 20_000);
        let orig = m.mark(f, 0, 1460);
        assert_eq!(orig.retcnt, 0);
        let rtx1 = m.mark(f, 0, 1460);
        assert_eq!(rtx1.retcnt, 1);
        assert_eq!(unboost(rtx1.rfs, rtx1.retcnt, 1), orig.rfs);
        assert_eq!(
            rtx1.rank(1),
            (orig.rfs >> 1) as u64,
            "one boost halves the rank"
        );
        let rtx2 = m.mark(f, 0, 1460);
        assert_eq!(rtx2.retcnt, 2);
        assert_eq!(rtx2.rank(1), (orig.rfs >> 2) as u64);
        assert_eq!(m.stats().retransmissions, 2);
    }

    #[test]
    fn boosting_disabled_keeps_raw_rfs() {
        let mut m = comp(MarkingDiscipline::Srpt, None);
        let f = FlowId(4);
        m.register_flow(f, NodeId(9), 10_000);
        let a = m.mark(f, 0, 1460);
        let rtx = m.mark(f, 0, 1460);
        assert_eq!(rtx.rfs, a.rfs, "no rotation without boosting");
        assert_eq!(rtx.retcnt, 0);
        // Still *detected* (stat), just not boosted.
        assert_eq!(m.stats().retransmissions, 1);
    }

    #[test]
    fn flow_seq_rolls_per_destination() {
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        let d1 = NodeId(1);
        let d2 = NodeId(2);
        let seqs: Vec<u8> = (0..10)
            .map(|i| m.register_flow(FlowId(100 + i), d1, 1000))
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
        // Independent counter per destination.
        assert_eq!(m.register_flow(FlowId(999), d2, 1000), 0);
    }

    #[test]
    fn complete_flow_clears_filter() {
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        let f = FlowId(5);
        m.register_flow(f, NodeId(9), 5 * 1460);
        for k in 0..5u64 {
            m.mark(f, k * 1460, 1460);
        }
        m.cum_ack_advanced(f, 0, 5 * 1460);
        m.complete_flow(f);
        assert_eq!((m.flows_tracked(), m.filter_entries()), (0, 0));
        // Re-registering and re-sending the same offsets must NOT look like
        // retransmissions.
        m.register_flow(f, NodeId(9), 5 * 1460);
        let info = m.mark(f, 0, 1460);
        assert_eq!(info.retcnt, 0);
        assert_eq!(m.stats().retransmissions, 0);
    }

    #[test]
    fn retcnt_saturates_at_field_width() {
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        let f = FlowId(6);
        m.register_flow(f, NodeId(9), 1460);
        let mut last = 0;
        for _ in 0..40 {
            last = m.mark(f, 0, 1460).retcnt;
        }
        assert!(last <= boost::MAX_RETCNT);
        assert_eq!(last, boost::MAX_RETCNT);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unregistered_flow_panics() {
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        m.mark(FlowId(7), 0, 100);
    }

    #[test]
    fn snapshot_round_trip_mid_flows() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        let f1 = FlowId(1);
        let f2 = FlowId(2);
        m.register_flow(f1, NodeId(4), 10 * 1460);
        m.register_flow(f2, NodeId(5), 3 * 1460);
        m.mark(f1, 0, 1460);
        m.mark(f1, 1460, 1460);
        m.mark(f1, 0, 1460); // retransmission: populates retx + stats
        m.mark(f2, 0, 1460);
        let mut w = SnapWriter::new();
        m.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut m2 = comp(MarkingDiscipline::Srpt, Some(2));
        let mut r = SnapReader::new(&bytes);
        m2.snap_restore(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(m2.flows_tracked(), 2);
        assert_eq!(m2.stats().retransmissions, 1);
        // Identical future behavior: same retcnt escalation, same fresh
        // marks, same per-destination flow counters.
        assert_eq!(m2.mark(f1, 0, 1460), m.mark(f1, 0, 1460));
        assert_eq!(m2.mark(f1, 2920, 1460), m.mark(f1, 2920, 1460));
        assert_eq!(m2.mark(f2, 1460, 1460), m.mark(f2, 1460, 1460));
        assert_eq!(
            m2.register_flow(FlowId(3), NodeId(4), 1000),
            m.register_flow(FlowId(3), NodeId(4), 1000)
        );
    }

    #[test]
    fn completed_flows_give_the_filter_and_retx_room_back() {
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        let flows = 64u64;
        for f in 0..flows {
            m.register_flow(FlowId(f), NodeId(9), 20 * 1460);
            for k in 0..20 {
                m.mark(FlowId(f), k * 1460, 1460);
            }
            m.mark(FlowId(f), 0, 1460); // one retransmission each
        }
        let (filter, retx) = (m.filter_heap_bytes(), m.retx.capacity());
        assert!(filter > 0 && retx >= flows as usize);
        // Room follows the flows still live...
        for f in 0..flows - 8 {
            m.cum_ack_advanced(FlowId(f), 0, 20 * 1460);
            m.complete_flow(FlowId(f));
        }
        assert!(
            m.filter_heap_bytes() < filter / 2,
            "{} of {filter}",
            m.filter_heap_bytes()
        );
        assert!(m.retx.capacity() <= 4 * m.retx.len());
        assert!(m.flows.capacity() <= 4 * m.flows.len());
        // ...and the survivors are still told apart: a retransmission is
        // boosted again, a fresh offset is not.
        let f = FlowId(flows - 1);
        assert_eq!(m.mark(f, 0, 1460).retcnt, 2);
        assert_eq!(m.mark(f, 1460, 1460).retcnt, 1);
        // ...down to nothing once every flow is done.
        for f in flows - 8..flows {
            m.cum_ack_advanced(FlowId(f), 0, 20 * 1460);
            m.complete_flow(FlowId(f));
        }
        assert_eq!((m.filter_heap_bytes(), m.retx.capacity()), (0, 0));
        assert_eq!(m.flows.capacity(), 0);
    }

    /// A marking record as `snap_save` lays it out, around an empty filter:
    /// `flows` as (id, flow counter), `retx` as (flow, seq, count), and
    /// `ctrs` as (destination, counter).
    fn record(flows: &[(u64, u8)], retx: &[(u64, u64, u8)], ctrs: &[(u32, u8)]) -> Vec<u8> {
        use vertigo_simcore::Snapshot;
        let mut w = vertigo_simcore::SnapWriter::new();
        w.put_usize(flows.len());
        for &(flow, flow_seq) in flows {
            w.put_u64(flow);
            w.put_u64(10 * 1460);
            w.put_u8(flow_seq);
            w.put_u64(3);
        }
        CuckooFilter::with_capacity(4096).save(&mut w);
        w.put_usize(retx.len());
        for &(flow, seq, retcnt) in retx {
            w.put_u64(flow);
            w.put_u64(seq);
            w.put_u8(retcnt);
        }
        w.put_usize(ctrs.len());
        for &(dst, ctr) in ctrs {
            w.put_u32(dst);
            w.put_u8(ctr);
        }
        for stat in [8, 2, 0] {
            w.put_u64(stat);
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_hostile_records() {
        use vertigo_simcore::SnapReader;
        let restored = |bytes: &[u8]| {
            let mut m = comp(MarkingDiscipline::Srpt, Some(2));
            m.snap_restore(&mut SnapReader::new(bytes)).map(|()| m)
        };
        let cap = boost::max_boosts(comp(MarkingDiscipline::Srpt, Some(2)).boost_shift());
        let (flows, retx, ctrs) = (
            [(1, 0), (2, 7)],
            [(1, 0, 1), (1, 1460, cap), (2, 0, 1)],
            [(4, 2), (5, 7)],
        );
        let ok = record(&flows, &retx, &ctrs);
        let m = restored(&ok).unwrap();
        assert_eq!((m.flows_tracked(), m.retx.len()), (2, 3));
        for (what, bytes) in [
            ("flows descend", record(&[(2, 0), (1, 0)], &retx, &ctrs)),
            ("flow repeated", record(&[(1, 0), (1, 1)], &retx, &ctrs)),
            ("flow counter past 3 bits", record(&[(1, 8)], &retx, &ctrs)),
            (
                "retx descend",
                record(&flows, &[(1, 1460, 1), (1, 0, 1)], &ctrs),
            ),
            (
                "retx descend by flow",
                record(&flows, &[(2, 0, 1), (1, 1460, 1)], &ctrs),
            ),
            (
                "retx repeated",
                record(&flows, &[(1, 0, 1), (1, 0, 2)], &ctrs),
            ),
            (
                "retcnt past the cap",
                record(&flows, &[(1, 0, cap + 1)], &ctrs),
            ),
            ("retcnt of 255", record(&flows, &[(1, 0, u8::MAX)], &ctrs)),
            (
                "destinations descend",
                record(&flows, &retx, &[(5, 0), (4, 0)]),
            ),
            (
                "destination repeated",
                record(&flows, &retx, &[(4, 0), (4, 1)]),
            ),
            (
                "destination counter past 3 bits",
                record(&flows, &retx, &[(4, 8)]),
            ),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        for cut in 0..ok.len() {
            assert!(restored(&ok[..cut]).is_err(), "accepted {cut} bytes");
        }
    }

    /// A live flow as its sender sees it: size, bytes sent fresh, and the
    /// cumulative ACK.
    #[derive(Debug, Clone, Copy)]
    struct Live {
        total: u64,
        sent: u64,
        acked: u64,
    }

    /// Sends the rest of `l` fresh through both components, then ACKs it
    /// to its size and completes it: `told` hears the ACK from where the
    /// flow's last one left it, `untold` hears it from 0, as the one walk
    /// over the whole flow it never had.
    fn finish(
        told: &mut MarkingComponent,
        untold: &mut MarkingComponent,
        flow: FlowId,
        l: &mut Live,
    ) {
        while l.sent < l.total {
            let len = (l.total - l.sent).min(MAX_PAYLOAD as u64) as u32;
            assert_eq!(told.mark(flow, l.sent, len), untold.mark(flow, l.sent, len));
            l.sent += len as u64;
        }
        told.cum_ack_advanced(flow, l.acked, l.total);
        untold.cum_ack_advanced(flow, 0, l.total);
        told.complete_flow(flow);
        untold.complete_flow(flow);
    }

    proptest! {
        /// Two components run one script of opens, first sends,
        /// retransmissions, ACK advances and completions over four flows,
        /// cut at `MAX_PAYLOAD`. Only `told` hears the ACKs
        /// of a live flow; both hear the ACK that completes it. Every header
        /// and every counter is the same, `told` holds a fingerprint for
        /// exactly the segments sent at or above each live flow's ACK and
        /// never a counter below it, and once every flow is done neither
        /// holds a counter or a fingerprint.
        #[test]
        fn counters_leave_at_the_ack_and_no_answer_changes(
            script in proptest::collection::vec((0u8..5, 0u64..4, any::<u16>()), 1..400),
        ) {
            let seg = MAX_PAYLOAD as u64;
            let mut told = comp(MarkingDiscipline::Srpt, Some(2));
            let mut untold = comp(MarkingDiscipline::Srpt, Some(2));
            let mut live: [Option<Live>; 4] = [None; 4];
            for (op, f, arg) in script {
                let flow = FlowId(f);
                let arg = arg as u64;
                match (op, live[f as usize].as_mut()) {
                    (0, None) => {
                        let total = (1 + arg % 40) * seg - arg % 3 * 200;
                        let dst = NodeId(f as u32 % 2);
                        prop_assert_eq!(
                            told.register_flow(flow, dst, total),
                            untold.register_flow(flow, dst, total)
                        );
                        live[f as usize] = Some(Live { total, sent: 0, acked: 0 });
                    }
                    (1, Some(l)) if l.sent < l.total => {
                        let len = (l.total - l.sent).min(seg) as u32;
                        let a = told.mark(flow, l.sent, len);
                        prop_assert_eq!(a, untold.mark(flow, l.sent, len));
                        l.sent += len as u64;
                    }
                    (2, Some(l)) => {
                        // Only a segment that starts at or past the ACK is
                        // ever sent again.
                        let front = l.acked.div_ceil(seg) * seg;
                        let segs = l.sent.saturating_sub(front).div_ceil(seg);
                        if segs > 0 {
                            let seq = front + arg % segs * seg;
                            let len = (l.total - seq).min(seg) as u32;
                            let a = told.mark(flow, seq, len);
                            prop_assert_eq!(a, untold.mark(flow, seq, len));
                        }
                    }
                    (3, Some(l)) if l.acked < l.sent => {
                        // Mostly to a segment boundary, now and then into
                        // the middle of a segment; an ACK to the flow's
                        // size completes it.
                        let to = if arg.is_multiple_of(4) {
                            l.acked + 1 + arg % (l.sent - l.acked)
                        } else {
                            let segs = l.sent.div_ceil(seg) - l.acked / seg;
                            (l.acked / seg + 1 + arg / 4 % segs.max(1)) * seg
                        }
                        .min(l.sent);
                        if to < l.total {
                            told.cum_ack_advanced(flow, l.acked, to);
                            l.acked = to;
                        } else {
                            finish(&mut told, &mut untold, flow, l);
                            live[f as usize] = None;
                        }
                    }
                    (4, Some(l)) => {
                        finish(&mut told, &mut untold, flow, l);
                        live[f as usize] = None;
                    }
                    _ => {}
                }
                for &(f, seq) in told.retx.keys() {
                    let l = live[f.0 as usize].expect("a counter of a live flow");
                    prop_assert!(seq >= l.acked, "{f:?} holds {seq} below {}", l.acked);
                }
                let above_the_ack: u64 = live
                    .iter()
                    .flatten()
                    .map(|l| l.sent.saturating_sub(l.acked.div_ceil(seg) * seg).div_ceil(seg))
                    .sum();
                prop_assert_eq!(told.filter_entries() as u64, above_the_ack);
            }
            prop_assert_eq!(format!("{:?}", told.stats()), format!("{:?}", untold.stats()));
            for (key, n) in &told.retx {
                prop_assert_eq!(Some(n), untold.retx.get(key));
            }
            prop_assert!(told.retx_entries() <= untold.retx_entries());
            for (f, l) in live.iter_mut().enumerate() {
                if let Some(l) = l {
                    finish(&mut told, &mut untold, FlowId(f as u64), l);
                }
            }
            for m in [&told, &untold] {
                prop_assert_eq!((m.retx_entries(), m.filter_heap_bytes()), (0, 0));
            }
        }
    }

    #[test]
    fn srpt_rank_orders_flows_by_remaining() {
        // The whole point: a nearly-done elephant outranks a fresh mouse.
        let mut m = comp(MarkingDiscipline::Srpt, Some(2));
        let big = FlowId(10);
        let small = FlowId(11);
        m.register_flow(big, NodeId(1), 10_000_000);
        m.register_flow(small, NodeId(1), 3_000);
        let big_info = m.mark(big, 0, 1460);
        let small_info = m.mark(small, 0, 1460);
        assert!(big_info.rank(1) > small_info.rank(1));
        // Near the end of the elephant, its packets outrank a fresh mouse's.
        let big_tail = m.mark(big, 9_998_540, 1460);
        assert!(big_tail.rank(1) < small_info.rank(1));
    }
}
