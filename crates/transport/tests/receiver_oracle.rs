//! The grid receiver against the byte-range receiver it replaced.
//!
//! `RangeReceiver` is `FlowReceiver` as it was before segments were known
//! by their index: out-of-order data kept as a map of byte ranges, the
//! prefix drained through it, completion a flag of its own. It takes any
//! segment; the grid receiver takes those a sender cuts. Fed the same
//! arrivals of such segments — in any order, with duplicates and trim
//! notices — the two must answer alike after every step.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vertigo_pkt::{AckSeg, DataSeg, FlowId, MAX_PAYLOAD};
use vertigo_simcore::SimTime;
use vertigo_transport::FlowReceiver;

const MSS: u64 = MAX_PAYLOAD as u64;

/// The oracle: the byte-range receiver.
struct RangeReceiver {
    size: u64,
    cum: u64,
    /// Out-of-order ranges: start → length.
    ooo: BTreeMap<u64, u32>,
    complete: bool,
    reorder_events: u64,
}

impl RangeReceiver {
    fn new(size: u64) -> Self {
        RangeReceiver {
            size,
            cum: 0,
            ooo: BTreeMap::new(),
            complete: false,
            reorder_events: 0,
        }
    }

    fn on_data(&mut self, seg: &DataSeg, ce: bool, sent_at: SimTime) -> AckSeg {
        let end = seg.seq + seg.payload as u64;
        if seg.seq > self.cum {
            self.reorder_events += 1;
            self.ooo.entry(seg.seq).or_insert(seg.payload);
        } else if end > self.cum {
            self.cum = end;
            while let Some((&start, &len)) = self.ooo.first_key_value() {
                if start > self.cum {
                    break;
                }
                self.ooo.remove(&start);
                self.cum = self.cum.max(start + len as u64);
            }
        }
        self.complete |= self.cum >= self.size;
        self.on_trim(ce, sent_at)
    }

    fn on_trim(&self, ce: bool, sent_at: SimTime) -> AckSeg {
        AckSeg {
            cum_ack: self.cum,
            ecn_echo: ce,
            ts_echo: sent_at,
        }
    }
}

/// Segment `k` of a `size`-byte flow, cut as a sender cuts it.
fn segment(size: u64, k: u64) -> DataSeg {
    let seq = k * MSS;
    DataSeg {
        seq,
        payload: (size - seq).min(MSS) as u32,
        flow_bytes: size,
        retransmit: false,
        trimmed: false,
    }
}

proptest! {
    /// Each op names a segment (modulo the flow's count) and whether it
    /// arrives whole, CE-marked or as a trim notice; the ops run until the
    /// flow completes, then every segment is delivered once more.
    #[test]
    fn the_grid_receiver_answers_as_the_range_receiver(
        size in 1u64..40 * MSS,
        ops in proptest::collection::vec((0u8..4, 0u64..64), 0..120),
    ) {
        let segs = size.div_ceil(MSS);
        let mut grid = FlowReceiver::new(FlowId(1), size);
        let mut oracle = RangeReceiver::new(size);
        let tail = (0..segs).map(|k| (0, k));
        for (i, (op, k)) in ops.into_iter().chain(tail).enumerate() {
            let (now, ce, sent) = (SimTime::from_micros(i as u64), op == 1, SimTime::ZERO);
            let seg = segment(size, k % segs);
            let (want, got) = if op == 3 {
                (oracle.on_trim(ce, sent), grid.on_trim(ce, sent))
            } else {
                (oracle.on_data(&seg, ce, sent), grid.on_data(now, &seg, ce, sent))
            };
            prop_assert_eq!(want, got);
            prop_assert_eq!(oracle.cum, grid.contiguous());
            prop_assert_eq!(oracle.reorder_events, grid.reorder_events());
            prop_assert_eq!(oracle.complete, grid.is_complete());
        }
        prop_assert!(grid.is_complete());
    }
}
