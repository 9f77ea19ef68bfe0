//! Output ports and their queues: byte-bounded FIFO and RFS-sorted
//! priority queues.
//!
//! A [`Port`] is a switch's output port or a host's NIC: both queue packets
//! and serialize them onto one link, one at a time. Baselines (ECMP, DRILL,
//! DIBS) use FIFO tail-drop queues, as does every NIC; Vertigo uses a
//! [`PieoQueue`]-backed priority queue sorted by the packets' logical RFS
//! rank, which supports the *evict-worst* operation its deflection needs.
//! Both are bounded in **bytes** (paper: 300 KB per port) and count packets
//! for the DCTCP ECN threshold.

use crate::link::LinkParams;
use std::collections::VecDeque;
use vertigo_core::PieoQueue;
use vertigo_pkt::{NodeId, Packet, PortId, PACKET_RECORD_PREFIX};
use vertigo_simcore::{release_if_drained, SnapError, SnapReader, SnapWriter, Snapshot};

/// One output port: queue, link, and transmit state. A switch has one per
/// neighbour, a host one for its NIC.
#[derive(Debug)]
pub struct Port {
    /// Neighboring node.
    pub peer: NodeId,
    /// The neighbor's port this link lands on.
    pub peer_port: PortId,
    /// Link parameters.
    pub link: LinkParams,
    /// The output queue.
    pub queue: PortQueue,
    /// Whether a packet is currently being serialized.
    pub busy: bool,
    /// Whether the peer is a host.
    pub host_facing: bool,
}

impl Port {
    /// The packet to serialize next, if the port is idle and holds one;
    /// the port is busy from here until its `TxDone`.
    #[inline]
    pub(crate) fn next_tx(&mut self) -> Option<Box<Packet>> {
        if self.busy {
            return None;
        }
        let pkt = self.queue.pop_next()?;
        self.busy = true;
        Some(pkt)
    }

    /// Serializes the queue and the busy flag. Peer, link and discipline
    /// come from the run spec and are not saved.
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        self.queue.snap_save(w);
        w.put_bool(self.busy);
    }

    /// Restores state written by [`Port::snap_save`] into a port freshly
    /// built from the same run spec; `what` names the queue in a refusal.
    pub(crate) fn snap_restore(
        &mut self,
        r: &mut SnapReader<'_>,
        what: &str,
    ) -> Result<(), SnapError> {
        self.queue.snap_restore(r, what)?;
        self.busy = r.get_bool()?;
        Ok(())
    }
}

/// A byte-bounded FIFO queue.
#[derive(Debug, Default)]
pub struct FifoQueue {
    /// A pop that empties it frees a buffer a burst grew
    /// ([`release_if_drained`]).
    q: VecDeque<Box<Packet>>,
    bytes: u64,
}

/// A byte-bounded priority queue ordered by RFS rank.
#[derive(Debug)]
pub struct PrioQueue {
    q: PieoQueue<Box<Packet>>,
    bytes: u64,
    /// Per-retransmission boost rotation, needed to compute logical ranks.
    boost_shift: u32,
}

/// An output queue of any discipline.
#[derive(Debug)]
pub enum PortQueue {
    /// First-in first-out (baselines, and Vertigo's no-scheduling ablation).
    Fifo(FifoQueue),
    /// RFS-sorted SRPT order (Vertigo).
    Prio(PrioQueue),
    /// RFS-sorted with per-bounce escalation: a packet's rank is its
    /// logical RFS right-shifted once per deflection it has suffered, so
    /// every bounce moves it forward in the schedule (the bounce-bounded
    /// NoC protocol's starvation guard).
    PrioEsc(PrioQueue),
}

/// The escalated rank of `pkt` in a [`PortQueue::PrioEsc`] queue: base
/// RFS rank halved once per bounce (shift saturates at 63, where any
/// rank is already 0).
#[inline]
fn escalated_rank(pkt: &Packet, boost_shift: u32) -> u64 {
    pkt.rank(boost_shift) >> (pkt.deflections as u32).min(63)
}

impl PortQueue {
    /// Creates a FIFO queue.
    pub fn fifo() -> Self {
        PortQueue::Fifo(FifoQueue::default())
    }

    /// Creates a priority queue ranking packets by logical RFS.
    pub fn prio(boost_shift: u32) -> Self {
        PortQueue::Prio(PrioQueue {
            q: PieoQueue::new(),
            bytes: 0,
            boost_shift,
        })
    }

    /// Creates a priority queue whose ranks escalate per bounce (see
    /// [`PortQueue::PrioEsc`]).
    pub fn prio_escalating(boost_shift: u32) -> Self {
        PortQueue::PrioEsc(PrioQueue {
            q: PieoQueue::new(),
            bytes: 0,
            boost_shift,
        })
    }

    /// Queued bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            PortQueue::Fifo(f) => f.bytes,
            PortQueue::Prio(p) | PortQueue::PrioEsc(p) => p.bytes,
        }
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        match self {
            PortQueue::Fifo(f) => f.q.len(),
            PortQueue::Prio(p) | PortQueue::PrioEsc(p) => p.q.len(),
        }
    }

    /// Whether no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packets the ring has room for without allocating.
    pub fn capacity(&self) -> usize {
        match self {
            PortQueue::Fifo(f) => f.q.capacity(),
            PortQueue::Prio(p) | PortQueue::PrioEsc(p) => p.q.capacity(),
        }
    }

    /// Whether `pkt` fits within `capacity` bytes.
    ///
    /// Overflow-safe: a sum that exceeds `u64::MAX` cannot fit in any
    /// capacity, so `checked_add` returning `None` means "does not fit"
    /// (a plain `+` would wrap in release builds and spuriously accept).
    pub fn fits(&self, pkt: &Packet, capacity: u64) -> bool {
        self.bytes()
            .checked_add(pkt.wire_size as u64)
            .is_some_and(|total| total <= capacity)
    }

    /// Enqueues unconditionally (caller enforces capacity policy).
    pub fn push(&mut self, pkt: Box<Packet>) {
        match self {
            PortQueue::Fifo(f) => {
                f.bytes = f.bytes.saturating_add(pkt.wire_size as u64);
                f.q.push_back(pkt);
            }
            PortQueue::Prio(p) => {
                p.bytes = p.bytes.saturating_add(pkt.wire_size as u64);
                let rank = pkt.rank(p.boost_shift);
                p.q.push(rank, pkt);
            }
            PortQueue::PrioEsc(p) => {
                p.bytes = p.bytes.saturating_add(pkt.wire_size as u64);
                let rank = escalated_rank(&pkt, p.boost_shift);
                p.q.push(rank, pkt);
            }
        }
    }

    /// Dequeues the next packet to transmit (FIFO head / smallest rank).
    pub fn pop_next(&mut self) -> Option<Box<Packet>> {
        match self {
            PortQueue::Fifo(f) => {
                let pkt = f.q.pop_front()?;
                release_if_drained(&mut f.q);
                f.bytes = f.bytes.saturating_sub(pkt.wire_size as u64);
                Some(pkt)
            }
            PortQueue::Prio(p) | PortQueue::PrioEsc(p) => {
                let (_, pkt) = p.q.pop_min()?;
                p.bytes = p.bytes.saturating_sub(pkt.wire_size as u64);
                Some(pkt)
            }
        }
    }

    /// Removes the worst-ranked resident (Vertigo's tail extraction).
    /// FIFO queues have no rank order, so they evict from the tail
    /// (the most recent arrival) — only used by ablation configs.
    pub fn evict_worst(&mut self) -> Option<Box<Packet>> {
        match self {
            PortQueue::Fifo(f) => {
                let pkt = f.q.pop_back()?;
                release_if_drained(&mut f.q);
                f.bytes = f.bytes.saturating_sub(pkt.wire_size as u64);
                Some(pkt)
            }
            PortQueue::Prio(p) | PortQueue::PrioEsc(p) => {
                let (_, pkt) = p.q.pop_max()?;
                p.bytes = p.bytes.saturating_sub(pkt.wire_size as u64);
                Some(pkt)
            }
        }
    }

    /// Rank of the worst resident (`None` when empty, or for FIFO queues,
    /// which do not track ranks).
    pub fn worst_rank(&self) -> Option<u64> {
        match self {
            PortQueue::Fifo(_) => None,
            PortQueue::Prio(p) | PortQueue::PrioEsc(p) => p.q.peek_max_rank(),
        }
    }

    /// The rank this queue would assign (or assigned) to `pkt`: `None`
    /// for FIFO queues, which have no rank order. Valid before a push or
    /// after a pop — ranks derive only from the packet and the queue's
    /// boost shift, never from residency. Used by provenance tracing.
    pub fn rank_of(&self, pkt: &Packet) -> Option<u64> {
        match self {
            PortQueue::Fifo(_) => None,
            PortQueue::Prio(p) => Some(pkt.rank(p.boost_shift)),
            PortQueue::PrioEsc(p) => Some(escalated_rank(pkt, p.boost_shift)),
        }
    }

    /// Serializes resident packets and byte counters. The discipline and
    /// boost shift come from the run spec at build time, so only a
    /// one-byte tag is written to let restore verify the config matches.
    pub(crate) fn snap_save(&self, w: &mut SnapWriter) {
        match self {
            PortQueue::Fifo(f) => {
                w.put_u8(0);
                w.put_usize(f.q.len());
                for pkt in &f.q {
                    pkt.save(w);
                }
                w.put_u64(f.bytes);
            }
            PortQueue::Prio(p) => {
                w.put_u8(1);
                p.q.save(w);
                w.put_u64(p.bytes);
            }
            PortQueue::PrioEsc(p) => {
                w.put_u8(2);
                p.q.save(w);
                w.put_u64(p.bytes);
            }
        }
    }

    /// Restores resident packets into a queue freshly built from the same
    /// run spec; `what` names the queue in a refusal. Errors if the
    /// snapshot was taken under another queue discipline (the run spec
    /// changed between save and resume).
    pub(crate) fn snap_restore(
        &mut self,
        r: &mut SnapReader<'_>,
        what: &str,
    ) -> Result<(), SnapError> {
        let tag = r.get_u8()?;
        match (self, tag) {
            (PortQueue::Fifo(f), 0) => {
                let n = r.count(PACKET_RECORD_PREFIX, "FIFO packets")?;
                f.q.clear();
                for _ in 0..n {
                    f.q.push_back(<Box<Packet>>::restore(r)?);
                }
                f.bytes = restore_bytes(r, what, f.q.iter().map(|pkt| pkt.wire_size))?;
            }
            (PortQueue::Prio(p), 1) | (PortQueue::PrioEsc(p), 2) => {
                p.q = PieoQueue::restore(r)?;
                p.bytes = restore_bytes(r, what, p.q.iter().map(|(_, pkt)| pkt.wire_size))?;
            }
            (_, tag) => {
                return Err(SnapError::new(format!(
                    "port-queue discipline mismatch: snapshot tag {tag} does not \
                     match the discipline this run spec builds"
                )))
            }
        }
        Ok(())
    }
}

/// Reads a queue's byte counter, which must be what the packets just
/// restored add up to: capacity checks compare against it, so a smaller
/// value would silently enlarge the buffer, and dequeues subtract from it.
fn restore_bytes(
    r: &mut SnapReader<'_>,
    what: &str,
    wire_sizes: impl Iterator<Item = u32>,
) -> Result<u64, SnapError> {
    let bytes = r.get_u64()?;
    let held: u64 = wire_sizes.map(u64::from).sum();
    if bytes != held {
        return Err(SnapError::new(format!(
            "{what} claims {bytes} bytes, its packets hold {held}"
        )));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertigo_pkt::{DataSeg, FlowId, FlowInfo, NodeId, QueryId};
    use vertigo_simcore::SimTime;

    /// Flow `uid`'s one segment, `payload` bytes (at most an MSS, so a
    /// whole flow as a sender cuts it), tagged with `rfs` for ranking.
    fn pkt(uid: u64, rfs: u32, payload: u32) -> Box<Packet> {
        let mut p = Packet::data(
            uid,
            FlowId(uid),
            QueryId::NONE,
            NodeId(0),
            NodeId(1),
            DataSeg {
                seq: 0,
                payload,
                flow_bytes: payload as u64,
                retransmit: false,
                trimmed: false,
            },
            true,
            SimTime::ZERO,
        );
        p.tag_flowinfo(FlowInfo {
            rfs,
            retcnt: 0,
            flow_seq: 0,
            first: true,
        });
        Box::new(p)
    }

    #[test]
    fn fifo_order_and_bytes() {
        let mut q = PortQueue::fifo();
        q.push(pkt(1, 100, 1000));
        q.push(pkt(2, 50, 500));
        assert_eq!(q.len(), 2);
        assert_eq!(q.bytes(), 1048 + 548); // payload + 40 hdr + 8 flowinfo
        assert_eq!(q.pop_next().unwrap().uid, 1);
        assert_eq!(q.pop_next().unwrap().uid, 2);
        assert!(q.pop_next().is_none());
        assert_eq!(q.bytes(), 0);
    }

    /// A burst of 100 packets, then a drain: every discipline's ring ends
    /// holding no more than the drained floor.
    #[test]
    fn a_drained_burst_gives_its_room_back() {
        for (mk, entry) in [
            (PortQueue::fifo as fn() -> PortQueue, 8),
            (|| PortQueue::prio(1), 16),
            (|| PortQueue::prio_escalating(1), 16),
        ] {
            let mut q = mk();
            for uid in 0..100 {
                q.push(pkt(uid, 1_000 + uid as u32 % 9, 100));
            }
            q.evict_worst();
            while q.pop_next().is_some() {}
            let room = q.capacity();
            assert!(
                room * entry <= vertigo_simcore::RING_KEEP_BYTES,
                "room for {room}"
            );
        }
    }

    #[test]
    fn prio_orders_by_rank() {
        let mut q = PortQueue::prio(1);
        q.push(pkt(1, 20_000, 1000));
        q.push(pkt(2, 3_000, 1000));
        q.push(pkt(3, 7_000, 1000));
        assert_eq!(q.worst_rank(), Some(20_000));
        assert_eq!(q.pop_next().unwrap().uid, 2, "smallest RFS first");
        assert_eq!(q.pop_next().unwrap().uid, 3);
        assert_eq!(q.pop_next().unwrap().uid, 1);
    }

    #[test]
    fn prio_evicts_worst() {
        let mut q = PortQueue::prio(1);
        q.push(pkt(1, 20_000, 1000));
        q.push(pkt(2, 3_000, 1000));
        let victim = q.evict_worst().unwrap();
        assert_eq!(victim.uid, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fits_respects_byte_capacity() {
        let q = PortQueue::fifo();
        let p = pkt(1, 100, 1000); // wire = 1048
        assert!(q.fits(&p, 1048));
        assert!(!q.fits(&p, 1047));
    }

    #[test]
    fn fits_does_not_overflow_near_u64_max() {
        // A queue whose byte counter sits near u64::MAX must report "does
        // not fit" rather than wrapping bytes() + wire_size around zero.
        let q = PortQueue::Fifo(FifoQueue {
            q: VecDeque::new(),
            bytes: u64::MAX - 100,
        });
        let p = pkt(1, 100, 1000); // wire = 1048 > 100 headroom
        assert!(
            !q.fits(&p, u64::MAX),
            "wrapped sum must not pass as fitting"
        );
        assert!(!q.fits(&p, 1_000_000));
        // And a genuinely fitting packet at extreme capacity still passes.
        let empty = PortQueue::fifo();
        assert!(empty.fits(&p, u64::MAX));
    }

    #[test]
    fn fifo_evicts_from_tail() {
        let mut q = PortQueue::fifo();
        q.push(pkt(1, 1, 100));
        q.push(pkt(2, 1, 100));
        assert_eq!(q.evict_worst().unwrap().uid, 2);
        assert_eq!(q.worst_rank(), None);
    }

    #[test]
    fn escalating_rank_halves_per_bounce() {
        let mut q = PortQueue::prio_escalating(1);
        // Same flow/RFS, increasing bounce counts: rank strictly drops.
        let mut prev = u64::MAX;
        for d in 0..4u16 {
            let mut p = pkt(d as u64 + 1, 40_000, 1000);
            p.deflections = d;
            let r = q.rank_of(&p).unwrap();
            assert!(r < prev, "bounce {d}: rank {r} must drop below {prev}");
            assert_eq!(r, 40_000 >> d);
            prev = r;
            q.push(p);
        }
        // Pop order: most-bounced first (smallest escalated rank).
        assert_eq!(q.pop_next().unwrap().deflections, 3);
        assert_eq!(q.pop_next().unwrap().deflections, 2);
        // evict_worst takes the least-bounced (largest rank).
        assert_eq!(q.evict_worst().unwrap().deflections, 0);
    }

    #[test]
    fn escalating_shift_saturates() {
        let q = PortQueue::prio_escalating(1);
        let mut p = pkt(1, u32::MAX, 1000);
        p.deflections = u16::MAX; // absurd, but the shift must not panic
        assert_eq!(q.rank_of(&p).unwrap(), 0);
    }

    #[test]
    fn snapshot_round_trips_all_disciplines() {
        for mk in [
            PortQueue::fifo as fn() -> PortQueue,
            || PortQueue::prio(1),
            || PortQueue::prio_escalating(1),
        ] {
            let mut q = mk();
            q.push(pkt(1, 20_000, 1000));
            q.push(pkt(2, 3_000, 500));
            q.push(pkt(3, 7_000, 700));
            let mut w = SnapWriter::new();
            q.snap_save(&mut w);
            let bytes = w.into_bytes();
            let mut restored = mk();
            restored
                .snap_restore(&mut SnapReader::new(&bytes), "port queue")
                .unwrap();
            assert_eq!(restored.len(), q.len());
            assert_eq!(restored.bytes(), q.bytes());
            loop {
                let (a, b) = (q.pop_next(), restored.pop_next());
                match (a, b) {
                    (None, None) => break,
                    (Some(a), Some(b)) => assert_eq!(a.uid, b.uid),
                    _ => panic!("pop sequences diverge"),
                }
            }
        }
    }

    #[test]
    fn snapshot_restore_rejects_hostile_records() {
        // A priority-queue record by hand: the count it claims, the cells
        // it holds, the byte counter it claims.
        let prio_record = |n: u64, cells: &[(u64, Box<Packet>)], bytes: u64| {
            let mut w = SnapWriter::new();
            w.put_u8(1);
            w.put_u64(n);
            for (rank, pkt) in cells {
                w.put_u64(*rank);
                pkt.save(&mut w);
            }
            w.put_u64(bytes);
            w.into_bytes()
        };
        let cells = || vec![(3_000, pkt(2, 3_000, 500)), (7_000, pkt(3, 7_000, 700))];
        let restored = |mk: fn() -> PortQueue, bytes: &[u8]| {
            let mut q = mk();
            q.snap_restore(&mut SnapReader::new(bytes), "port queue")
                .map(|()| q)
        };
        let prio: fn() -> PortQueue = || PortQueue::prio(1);
        for mk in [PortQueue::fifo as fn() -> PortQueue, prio] {
            // Mid-run — pops at both ends behind it — the record round-trips
            // byte for byte and the restored queue keeps running in step.
            let mut q = mk();
            for (uid, rfs) in [(1, 20_000), (2, 3_000), (3, 7_000), (4, 7_000), (5, 900)] {
                q.push(pkt(uid, rfs, 100 * uid as u32));
            }
            q.pop_next();
            q.evict_worst();
            let saved = |q: &PortQueue| {
                let mut w = SnapWriter::new();
                q.snap_save(&mut w);
                w.into_bytes()
            };
            let ok = saved(&q);
            let mut q2 = restored(mk, &ok).unwrap();
            assert_eq!(saved(&q2), ok);
            q.push(pkt(6, 7_000, 600));
            q2.push(pkt(6, 7_000, 600));
            assert_eq!(q.evict_worst().unwrap().uid, q2.evict_worst().unwrap().uid);
            while let Some(a) = q.pop_next() {
                assert_eq!(a.uid, q2.pop_next().unwrap().uid);
                assert_eq!(q.bytes(), q2.bytes());
            }
            assert!(q2.is_empty());
            // The byte counter is the last field: one too few would enlarge
            // the port's buffer by a byte, one too many shrink it.
            let held = u64::from_le_bytes(ok[ok.len() - 8..].try_into().unwrap());
            for claimed in [held - 1, held + 1, 0, u64::MAX] {
                let mut bytes = ok.clone();
                let at = bytes.len() - 8;
                bytes[at..].copy_from_slice(&claimed.to_le_bytes());
                assert!(
                    restored(mk, &bytes).is_err(),
                    "accepted {claimed} for {held}"
                );
            }
            for cut in 0..ok.len() {
                assert!(restored(mk, &ok[..cut]).is_err(), "accepted {cut} bytes");
            }
        }
        assert_eq!(
            restored(prio, &prio_record(2, &cells(), 1_296))
                .unwrap()
                .len(),
            2
        );
        let mut descending = cells();
        descending.reverse();
        for (what, bytes) in [
            ("descending ranks", prio_record(2, &descending, 1_296)),
            ("count beyond the cells", prio_record(3, &cells(), 1_296)),
            (
                "count beyond the input",
                prio_record(1 << 40, &cells(), 1_296),
            ),
        ] {
            assert!(restored(prio, &bytes).is_err(), "accepted: {what}");
        }
    }

    #[test]
    fn snapshot_discipline_mismatch_is_rejected() {
        let mut w = SnapWriter::new();
        PortQueue::fifo().snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut prio = PortQueue::prio(1);
        assert!(prio
            .snap_restore(&mut SnapReader::new(&bytes), "port queue")
            .is_err());
        // Plain-prio and escalating-prio are distinct disciplines too: a
        // restore must not silently demote escalated ranks.
        let mut w = SnapWriter::new();
        PortQueue::prio(1).snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut esc = PortQueue::prio_escalating(1);
        assert!(esc
            .snap_restore(&mut SnapReader::new(&bytes), "port queue")
            .is_err());
    }

    #[test]
    fn acks_outrank_data_in_prio() {
        let mut q = PortQueue::prio(1);
        q.push(pkt(1, 500, 1000));
        let ack = Packet::ack(
            9,
            FlowId(9),
            QueryId::NONE,
            NodeId(1),
            NodeId(0),
            vertigo_pkt::AckSeg {
                cum_ack: 0,
                ecn_echo: false,
                ts_echo: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        q.push(Box::new(ack));
        assert_eq!(q.pop_next().unwrap().uid, 9, "ACKs (rank 0) go first");
    }
}
