//! The per-flow receiving machine: cumulative ACK generation.
//!
//! [`FlowReceiver`] reassembles the byte stream (tracking out-of-order
//! arrivals in a range map), acknowledges every data packet immediately
//! (no delayed ACKs — DCTCP-style per-packet ECN echo needs per-packet
//! feedback), and reports completion when the stream is contiguous through
//! the flow's last byte.
//!
//! Reordering visible *here* is reordering as seen by the transport — i.e.
//! after Vertigo's ordering shim, if one is deployed below. The §2 and
//! §4.3 reordering measurements read this counter.

use std::collections::BTreeMap;
use vertigo_pkt::{AckSeg, DataSeg, FlowId};
use vertigo_simcore::SimTime;

/// One flow's receive state.
#[derive(Debug)]
pub struct FlowReceiver {
    /// Flow id (diagnostics).
    pub flow: FlowId,
    /// Flow size in bytes, learned from the first data packet.
    pub size: u64,
    /// Contiguous prefix received.
    cum: u64,
    /// Out-of-order ranges: start → length.
    ooo: BTreeMap<u64, u32>,
    complete: bool,
    /// Data packets that arrived with a gap in front of them.
    reorder_events: u64,
}

impl FlowReceiver {
    /// Creates the receive state for a flow of `size` bytes.
    pub fn new(flow: FlowId, size: u64) -> Self {
        FlowReceiver {
            flow,
            size,
            cum: 0,
            ooo: BTreeMap::new(),
            complete: false,
            reorder_events: 0,
        }
    }

    /// Contiguous bytes received so far.
    pub fn contiguous(&self) -> u64 {
        self.cum
    }

    /// Whether the whole flow has been received.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Data packets that arrived with a gap in front of them.
    pub fn reorder_events(&self) -> u64 {
        self.reorder_events
    }

    /// Processes a data segment and produces the ACK to send back.
    ///
    /// * `_now` — the arrival time; the receiver keeps no clock.
    /// * `ce` — whether the packet arrived with ECN CE set (echoed).
    /// * `sent_at` — the packet's transmit timestamp (echoed for RTT).
    pub fn on_data(&mut self, _now: SimTime, seg: &DataSeg, ce: bool, sent_at: SimTime) -> AckSeg {
        let end = seg.seq + seg.payload as u64;
        if seg.seq > self.cum {
            // A gap precedes this segment.
            self.reorder_events += 1;
            self.ooo.entry(seg.seq).or_insert(seg.payload);
        } else if end > self.cum {
            // Advances the contiguous prefix (possibly partially
            // duplicate); a whole duplicate moves nothing.
            self.cum = end;
            self.drain_ooo();
        }
        self.complete |= self.cum >= self.size;
        self.on_trim(ce, sent_at)
    }

    /// Processes a trimmed header stub: the payload was cut off in the
    /// network, so nothing advances — but the stub still generates an
    /// immediate (duplicate) ACK, which is the explicit loss signal that
    /// lets the sender fast-retransmit without waiting for an RTO.
    pub fn on_trim(&self, ce: bool, sent_at: SimTime) -> AckSeg {
        AckSeg {
            cum_ack: self.cum,
            ecn_echo: ce,
            ts_echo: sent_at,
        }
    }

    /// Serializes the full receive state.
    pub fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        use vertigo_simcore::Snapshot;
        self.flow.save(w);
        w.put_u64(self.size);
        w.put_u64(self.cum);
        w.put_usize(self.ooo.len());
        for (&start, &len) in &self.ooo {
            w.put_u64(start);
            w.put_u32(len);
        }
        w.put_bool(self.complete);
        w.put_u64(self.reorder_events);
    }

    /// Reconstructs a receiver from a [`FlowReceiver::snap_save`] stream.
    ///
    /// Refuses a record [`FlowReceiver::on_data`] cannot have left behind
    /// from segments inside the flow: a prefix or an out-of-order range
    /// that ends past the flow's size, ranges that do not lie strictly
    /// above the prefix, one after the other without overlap, or a
    /// completion flag that disagrees with the prefix.
    pub fn snap_restore(
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<Self, vertigo_simcore::SnapError> {
        use vertigo_simcore::{SnapError, Snapshot};
        let flow = FlowId::restore(r)?;
        let size = r.get_u64()?;
        let mut rx = FlowReceiver::new(flow, size);
        rx.cum = r.get_u64()?;
        if rx.cum > size {
            return Err(SnapError::new(format!(
                "receiver of {flow:?}: prefix {} past its {size} bytes",
                rx.cum
            )));
        }
        let mut floor = rx.cum;
        // A range record is its start and length.
        for _ in 0..r.count(12, "out-of-order ranges")? {
            let start = r.get_u64()?;
            let len = r.get_u32()?;
            let end = start
                .checked_add(len as u64)
                .filter(|&end| len > 0 && end <= size);
            let above = if rx.ooo.is_empty() {
                start > floor
            } else {
                start >= floor
            };
            let (Some(end), true) = (end, above) else {
                return Err(SnapError::new(format!(
                    "receiver of {flow:?}: out-of-order range {start}+{len} is empty, \
                     ends past {size}, or does not lie above {floor}"
                )));
            };
            rx.ooo.insert(start, len);
            floor = end;
        }
        rx.complete = r.get_bool()?;
        if rx.complete != (rx.cum >= size) {
            return Err(SnapError::new(format!(
                "receiver of {flow:?}: complete = {} with {} of {size} bytes contiguous",
                rx.complete, rx.cum
            )));
        }
        rx.reorder_events = r.get_u64()?;
        Ok(rx)
    }

    fn drain_ooo(&mut self) {
        while let Some((&start, &len)) = self.ooo.first_key_value() {
            if start > self.cum {
                break;
            }
            self.ooo.remove(&start);
            self.cum = self.cum.max(start + len as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 1460;

    fn seg(k: u64, n: u64) -> DataSeg {
        DataSeg {
            seq: k * MSS as u64,
            payload: MSS,
            flow_bytes: n * MSS as u64,
            retransmit: false,
            trimmed: false,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn in_order_stream_acks_cumulatively() {
        let mut r = FlowReceiver::new(FlowId(1), 3 * MSS as u64);
        for k in 0..3 {
            let a = r.on_data(t(k), &seg(k, 3), false, t(0));
            assert_eq!(a.cum_ack, (k + 1) * MSS as u64);
        }
        assert!(r.is_complete());
        assert_eq!(r.reorder_events(), 0);
    }

    #[test]
    fn gap_produces_duplicate_acks() {
        let mut r = FlowReceiver::new(FlowId(1), 4 * MSS as u64);
        r.on_data(t(0), &seg(0, 4), false, t(0));
        // Packet 1 missing; 2 and 3 arrive.
        let a2 = r.on_data(t(1), &seg(2, 4), false, t(0));
        let a3 = r.on_data(t(2), &seg(3, 4), false, t(0));
        assert_eq!(a2.cum_ack, MSS as u64);
        assert_eq!(a3.cum_ack, MSS as u64);
        assert_eq!(r.reorder_events(), 2);
        // The hole fills: ACK jumps to the end.
        let a1 = r.on_data(t(3), &seg(1, 4), false, t(0));
        assert_eq!(a1.cum_ack, 4 * MSS as u64);
        assert!(r.is_complete());
    }

    #[test]
    fn duplicates_counted_not_fatal() {
        let mut r = FlowReceiver::new(FlowId(1), 2 * MSS as u64);
        r.on_data(t(0), &seg(0, 2), false, t(0));
        let dup = r.on_data(t(1), &seg(0, 2), false, t(0));
        assert_eq!((dup.cum_ack, r.reorder_events()), (MSS as u64, 0));
        r.on_data(t(2), &seg(1, 2), false, t(0));
        assert!(r.is_complete());
    }

    #[test]
    fn ecn_and_timestamp_echoed() {
        let mut r = FlowReceiver::new(FlowId(1), MSS as u64);
        let a = r.on_data(t(9), &seg(0, 1), true, t(5));
        assert!(a.ecn_echo);
        assert_eq!(a.ts_echo, t(5));
    }

    #[test]
    fn runt_final_segment() {
        let mut r = FlowReceiver::new(FlowId(1), MSS as u64 + 10);
        r.on_data(t(0), &seg(0, 1), false, t(0));
        let runt = DataSeg {
            seq: MSS as u64,
            payload: 10,
            flow_bytes: MSS as u64 + 10,
            retransmit: false,
            trimmed: false,
        };
        let a = r.on_data(t(1), &runt, false, t(0));
        assert_eq!(a.cum_ack, MSS as u64 + 10);
        assert!(r.is_complete());
    }

    #[test]
    fn trim_notice_generates_duplicate_ack() {
        let mut r = FlowReceiver::new(FlowId(1), 3 * MSS as u64);
        r.on_data(t(0), &seg(0, 3), false, t(0));
        // Packet 1 was trimmed in the network: the stub arrives.
        let a = r.on_trim(false, t(0));
        assert_eq!(a.cum_ack, MSS as u64, "duplicate ACK at the hole");
        assert!(!r.is_complete());
        // The retransmission fills the stream normally afterwards.
        r.on_data(t(2), &seg(1, 3), false, t(0));
        r.on_data(t(3), &seg(2, 3), false, t(0));
        assert!(r.is_complete());
    }

    #[test]
    fn snapshot_round_trip_with_ooo_ranges() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let mut r = FlowReceiver::new(FlowId(1), 5 * MSS as u64);
        r.on_data(t(0), &seg(0, 5), false, t(0));
        r.on_data(t(1), &seg(2, 5), true, t(0)); // gap at 1
        let mut w = SnapWriter::new();
        r.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut r2 = FlowReceiver::snap_restore(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(r2.contiguous(), r.contiguous());
        assert_eq!(r2.reorder_events(), r.reorder_events());
        // The hole fills identically: both jump straight to 3*MSS.
        let a = r.on_data(t(3), &seg(1, 5), false, t(0));
        let a2 = r2.on_data(t(3), &seg(1, 5), false, t(0));
        assert_eq!(a, a2);
        assert_eq!(a.cum_ack, 3 * MSS as u64);
    }

    /// A receiver record as `snap_save` lays it out.
    fn record(size: u64, cum: u64, ranges: &[(u64, u32)], complete: bool) -> Vec<u8> {
        record_counting(size, cum, ranges.len(), ranges, complete)
    }

    /// [`record`] with a range count of its own.
    fn record_counting(
        size: u64,
        cum: u64,
        count: usize,
        ranges: &[(u64, u32)],
        complete: bool,
    ) -> Vec<u8> {
        use vertigo_simcore::Snapshot;
        let mut w = vertigo_simcore::SnapWriter::new();
        FlowId(1).save(&mut w);
        w.put_u64(size);
        w.put_u64(cum);
        w.put_usize(count);
        for &(start, len) in ranges {
            w.put_u64(start);
            w.put_u32(len);
        }
        w.put_bool(complete);
        w.put_u64(ranges.len() as u64); // reorder_events
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_hostile_records() {
        use vertigo_simcore::{SnapReader, SnapWriter};
        let saved = |r: &FlowReceiver| {
            let mut w = SnapWriter::new();
            r.snap_save(&mut w);
            w.into_bytes()
        };
        let restored = |bytes: &[u8]| FlowReceiver::snap_restore(&mut SnapReader::new(bytes));

        // A valid mid-run record: a prefix, two holes, three ranges behind
        // them (two adjacent), and a duplicate on the books.
        let mut r = FlowReceiver::new(FlowId(1), 9 * MSS as u64);
        for k in [0, 2, 3, 6, 0] {
            r.on_data(t(k), &seg(k, 9), false, t(0));
        }
        assert_eq!((r.contiguous(), r.ooo.len()), (MSS as u64, 3));
        let ok = saved(&r);
        let mut back = restored(&ok).unwrap();
        assert_eq!(saved(&back), ok, "byte for byte");
        // And it keeps running in step: the holes fill, the tail arrives.
        for (now, k) in [(10, 1), (11, 5), (12, 4), (13, 7), (14, 8), (15, 8)] {
            let (a, b) = (
                r.on_data(t(now), &seg(k, 9), k == 4, t(now - 1)),
                back.on_data(t(now), &seg(k, 9), k == 4, t(now - 1)),
            );
            assert_eq!(a, b);
            assert_eq!(r.is_complete(), back.is_complete());
        }
        assert!(back.is_complete());
        assert_eq!(saved(&back), saved(&r));
        assert!(restored(&saved(&r)).is_ok(), "a completed record, too");

        let (m, size) = (MSS as u64, 9 * MSS as u64);
        let good = record(size, m, &[(2 * m, MSS), (3 * m, MSS), (6 * m, MSS)], false);
        assert_eq!(restored(&good).unwrap().contiguous(), m);
        assert!(restored(&record(size, size, &[], true)).is_ok());
        for (what, bytes) in [
            // What used to restore, and overflow in `drain_ooo` once the
            // hole in front of it filled.
            (
                "range ends past u64::MAX",
                record(size, m, &[(u64::MAX - 10, 11)], false),
            ),
            (
                "range ends past u64::MAX behind another",
                record(size, m, &[(2 * m, MSS), (u64::MAX, 1)], false),
            ),
            ("range starts at cum", record(size, m, &[(m, MSS)], false)),
            (
                "range starts below cum",
                record(size, 2 * m, &[(m, MSS)], false),
            ),
            (
                "ranges overlap",
                record(size, m, &[(2 * m, MSS), (3 * m - 1, MSS)], false),
            ),
            (
                "ranges descend",
                record(size, m, &[(4 * m, MSS), (2 * m, MSS)], false),
            ),
            (
                "range repeated",
                record(size, m, &[(2 * m, MSS), (2 * m, MSS)], false),
            ),
            ("empty range", record(size, m, &[(2 * m, 0)], false)),
            ("complete short of size", record(size, m, &[], true)),
            ("incomplete at size", record(size, size, &[], false)),
            ("incomplete past size", record(size, size + 1, &[], false)),
            ("complete past size", record(size, size + 1, &[], true)),
            (
                "range ends past size",
                record(size, m, &[(8 * m, MSS + 1)], false),
            ),
            (
                "range starts past size",
                record(size, m, &[(2 * m, MSS), (size, 1)], false),
            ),
            (
                "range count the input cannot hold",
                record_counting(size, m, 1 << 40, &[(2 * m, MSS)], false),
            ),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        for cut in 0..ok.len() {
            assert!(restored(&ok[..cut]).is_err(), "accepted {cut} bytes");
        }
    }

    /// A segment of a `size`-byte flow that starts `at` bytes in (taken
    /// modulo the size) and carries up to `payload` bytes: inside the flow,
    /// as every segment a sender cuts.
    fn inside(size: u64, at: u64, payload: u32) -> DataSeg {
        let seq = at % size;
        DataSeg {
            seq,
            payload: payload.min((size - seq).min(MSS as u64) as u32),
            flow_bytes: size,
            retransmit: false,
            trimmed: false,
        }
    }

    proptest::proptest! {
        /// A complete receiver answers every later segment of its flow and
        /// every trim notice with the ACK a host sends for a finished flow
        /// (the flow's size, the echoes), and neither moves its goodput,
        /// its reorder count or its completion.
        #[test]
        fn the_finished_form_answers_as_the_complete_receiver(
            size in 1u64..8 * MSS as u64,
            before in proptest::collection::vec((0u64..8 * MSS as u64, 1u32..=MSS), 0..8),
            ops in proptest::collection::vec((0u8..4, 0u64..8 * MSS as u64, 1u32..=MSS), 1..40),
        ) {
            let mut full = FlowReceiver::new(FlowId(1), size);
            for &(at, payload) in &before {
                full.on_data(t(0), &inside(size, at, payload), false, t(0));
            }
            while !full.is_complete() {
                full.on_data(t(1), &inside(size, full.contiguous(), MSS), false, t(0));
            }
            let (goodput, reorders) = (full.contiguous(), full.reorder_events());
            proptest::prop_assert_eq!(goodput, size);
            for (i, &(op, at, payload)) in ops.iter().enumerate() {
                let (now, ce, sent) = (t(10 + i as u64), op == 1, t(i as u64));
                let seg = inside(size, at, payload);
                let want = AckSeg {
                    cum_ack: seg.flow_bytes,
                    ecn_echo: ce,
                    ts_echo: sent,
                };
                let got = if op == 3 {
                    full.on_trim(ce, sent)
                } else {
                    full.on_data(now, &seg, ce, sent)
                };
                proptest::prop_assert_eq!(want, got);
                proptest::prop_assert!(full.is_complete());
                proptest::prop_assert_eq!(full.contiguous(), goodput);
                proptest::prop_assert_eq!(full.reorder_events(), reorders);
            }
        }
    }

    #[test]
    fn reverse_order_delivery_completes() {
        let mut r = FlowReceiver::new(FlowId(1), 5 * MSS as u64);
        for k in (1..5).rev() {
            r.on_data(t(5 - k), &seg(k, 5), false, t(0));
        }
        assert!(!r.is_complete());
        let a = r.on_data(t(10), &seg(0, 5), false, t(0));
        assert_eq!(a.cum_ack, 5 * MSS as u64);
        assert!(r.is_complete());
        assert_eq!(r.reorder_events(), 4);
    }
}
