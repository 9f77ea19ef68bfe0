//! The per-flow receiving machine: cumulative ACK generation.
//!
//! [`FlowReceiver`] reassembles the byte stream (a sender cuts every
//! segment on the [`MAX_PAYLOAD`] grid, so one flag per segment above the
//! contiguous prefix says which have arrived early), acknowledges every
//! data packet immediately (no delayed ACKs — DCTCP-style per-packet ECN
//! echo needs per-packet feedback), and reports completion when the stream
//! is contiguous through the flow's last byte.
//!
//! Reordering visible *here* is reordering as seen by the transport — i.e.
//! after Vertigo's ordering shim, if one is deployed below. The §2 and
//! §4.3 reordering measurements read this counter.

use std::collections::VecDeque;
use vertigo_pkt::{AckSeg, DataSeg, FlowId, MAX_PAYLOAD};
use vertigo_simcore::{release_if_drained, SimTime};

/// The segment size: every segment but a flow's last is this long.
const MSS: u64 = MAX_PAYLOAD as u64;

/// One flow's receive state.
#[derive(Debug)]
pub struct FlowReceiver {
    /// Flow id (diagnostics).
    pub flow: FlowId,
    /// Flow size in bytes, learned from the first data packet.
    pub size: u64,
    /// Contiguous prefix received: a multiple of `MSS`, or the size.
    cum: u64,
    /// Flag `i` says that segment `cum / MSS + 1 + i` has arrived. The
    /// segment at the prefix is never held (its arrival moves the prefix),
    /// and the last flag is set.
    early: VecDeque<bool>,
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
            early: VecDeque::new(),
            reorder_events: 0,
        }
    }

    /// Contiguous bytes received so far.
    pub fn contiguous(&self) -> u64 {
        self.cum
    }

    /// Whether the whole flow has been received.
    pub fn is_complete(&self) -> bool {
        self.cum >= self.size
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
            let i = ((seg.seq - self.cum) / MSS - 1) as usize;
            if i >= self.early.len() {
                self.early.resize(i + 1, false);
            }
            self.early[i] = true;
        } else if end > self.cum {
            // Advances the contiguous prefix; a duplicate moves nothing.
            // The flag of each segment the prefix reaches leaves, and the
            // prefix moves on past every one that has arrived.
            self.cum = end;
            while self.early.pop_front() == Some(true) {
                self.cum += (self.size - self.cum).min(MSS);
            }
            release_if_drained(&mut self.early);
        }
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

    /// Serializes the receive state. The flow id is not saved: the caller
    /// keys the record by it.
    pub fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        w.put_u64(self.size);
        w.put_u64(self.cum);
        w.put_usize(self.early.len());
        for &arrived in &self.early {
            w.put_bool(arrived);
        }
        w.put_u64(self.reorder_events);
    }

    /// Reconstructs `flow`'s receiver from a [`FlowReceiver::snap_save`]
    /// stream.
    ///
    /// Refuses a record [`FlowReceiver::on_data`] cannot have left behind
    /// from segments a sender cuts: a prefix off the segment grid or past
    /// the flow's size, a flag past the flow's last segment, or a clear
    /// last flag.
    pub fn snap_restore(
        flow: FlowId,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<Self, vertigo_simcore::SnapError> {
        use vertigo_simcore::SnapError;
        let size = r.get_u64()?;
        let mut rx = FlowReceiver::new(flow, size);
        rx.cum = r.get_u64()?;
        if rx.cum > size || !(rx.cum.is_multiple_of(MSS) || rx.cum == size) {
            return Err(SnapError::new(format!(
                "receiver of {flow:?}: prefix {} off the {MSS}-byte grid of {size} bytes",
                rx.cum
            )));
        }
        let n = r.count(1, "early segments")?;
        // Segments above the one at the prefix.
        let above = size.div_ceil(MSS).saturating_sub(rx.cum / MSS + 1);
        if n as u64 > above {
            return Err(SnapError::new(format!(
                "receiver of {flow:?}: {n} early flags, {above} segments above the prefix"
            )));
        }
        for _ in 0..n {
            rx.early.push_back(r.get_bool()?);
        }
        if rx.early.back() == Some(&false) {
            return Err(SnapError::new(format!(
                "receiver of {flow:?}: the last early flag is clear"
            )));
        }
        rx.reorder_events = r.get_u64()?;
        Ok(rx)
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
        let mut r2 = FlowReceiver::snap_restore(FlowId(1), &mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(r2.contiguous(), r.contiguous());
        assert_eq!(r2.reorder_events(), r.reorder_events());
        // The hole fills identically: both jump straight to 3*MSS.
        let a = r.on_data(t(3), &seg(1, 5), false, t(0));
        let a2 = r2.on_data(t(3), &seg(1, 5), false, t(0));
        assert_eq!(a, a2);
        assert_eq!(a.cum_ack, 3 * MSS as u64);
    }

    /// A receiver record as `snap_save` lays it out.
    fn record(size: u64, cum: u64, early: &[bool]) -> Vec<u8> {
        record_counting(size, cum, early.len(), early)
    }

    /// [`record`] with a flag count of its own.
    fn record_counting(size: u64, cum: u64, count: usize, early: &[bool]) -> Vec<u8> {
        let mut w = vertigo_simcore::SnapWriter::new();
        w.put_u64(size);
        w.put_u64(cum);
        w.put_usize(count);
        for &arrived in early {
            w.put_bool(arrived);
        }
        w.put_u64(early.len() as u64); // reorder_events
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
        let restored =
            |bytes: &[u8]| FlowReceiver::snap_restore(FlowId(1), &mut SnapReader::new(bytes));

        // A valid mid-run record: a prefix, two holes, three segments
        // behind them (two adjacent), and a duplicate on the books.
        let mut r = FlowReceiver::new(FlowId(1), 9 * MSS as u64);
        for k in [0, 2, 3, 6, 0] {
            r.on_data(t(k), &seg(k, 9), false, t(0));
        }
        let early: Vec<bool> = r.early.iter().copied().collect();
        assert_eq!(r.contiguous(), MSS as u64);
        assert_eq!(early, [true, true, false, false, true]);
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
        let good = record(size, m, &[true, true, false, false, true]);
        assert_eq!(restored(&good).unwrap().contiguous(), m);
        assert!(restored(&record(size, size, &[])).is_ok());
        let tail = record(size - 10, 7 * m, &[true]);
        assert!(restored(&tail).is_ok(), "the short last segment");
        for (what, bytes) in [
            ("prefix off the grid", record(size, m + 1, &[true])),
            ("prefix past size", record(size, size + m, &[])),
            ("prefix off the grid at size", record(size, size + 1, &[])),
            (
                "flag past the last segment",
                record(size, 7 * m, &[false, true]),
            ),
            ("flag past a short tail", record(size - 10, 8 * m, &[true])),
            ("clear last flag", record(size, m, &[true, false])),
            ("only a clear flag", record(size, m, &[false])),
            (
                "flag count the input cannot hold",
                record_counting(size, m, 1 << 40, &[true]),
            ),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        for cut in 0..ok.len() {
            assert!(restored(&ok[..cut]).is_err(), "accepted {cut} bytes");
        }
    }

    /// Segment `at` (taken modulo the flow's segment count) of a
    /// `size`-byte flow, cut as a sender cuts it.
    fn grid(size: u64, at: u64) -> DataSeg {
        let seq = at % size.div_ceil(MSS as u64) * MSS as u64;
        DataSeg {
            seq,
            payload: (size - seq).min(MSS as u64) as u32,
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
            before in proptest::collection::vec(0u64..8, 0..8),
            ops in proptest::collection::vec((0u8..4, 0u64..8), 1..40),
        ) {
            let mut full = FlowReceiver::new(FlowId(1), size);
            for &at in &before {
                full.on_data(t(0), &grid(size, at), false, t(0));
            }
            while !full.is_complete() {
                let next = full.contiguous() / MSS as u64;
                full.on_data(t(1), &grid(size, next), false, t(0));
            }
            let (goodput, reorders) = (full.contiguous(), full.reorder_events());
            proptest::prop_assert_eq!(goodput, size);
            for (i, &(op, at)) in ops.iter().enumerate() {
                let (now, ce, sent) = (t(10 + i as u64), op == 1, t(i as u64));
                let seg = grid(size, at);
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
