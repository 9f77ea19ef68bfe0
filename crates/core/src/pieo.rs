//! A software model of the PIEO scheduler extended for Vertigo (paper §4.4
//! and appendix A.3).
//!
//! PIEO ("push-in extract-out", Shrivastav SIGCOMM'19) is a hardware
//! priority queue that dequeues the *smallest-rank* eligible element.
//! Vertigo extends it with **extraction from the tail** — when a packet
//! arrives at a full buffer, the largest-rank resident (or the arrival
//! itself) must be pulled out for deflection or drop.
//!
//! In hardware PIEO is an *ordered list*, and so is this model: one ring
//! buffer of `(rank, item)` kept ascending by rank, equal ranks in
//! insertion order. `pop_min` (transmit) and `pop_max` (victimize) take
//! the two ends in O(1); `push` appends when the rank is not below the
//! back's, and otherwise binary-searches for the position behind every
//! resident of the same or a smaller rank and shifts the shorter side of
//! the ring — at most half the queue, 16 bytes per packet, a `memmove` of
//! under 40 KB at the 4 687 minimum-size packets a 300 KB port can hold
//! (DESIGN §5 has the measured depths and moves). Inserting behind equal
//! ranks is all the tie-breaking there is: the min end serves the oldest of
//! a rank (FIFO: flows at one rank are served in arrival order, and one
//! flow's equal-rank packets, its ACKs, never pass each other) and the max
//! end victimizes the newest (LIFO: older traffic keeps its place) — the
//! order of a tree map keyed `(rank, insertion sequence)`, the first
//! implementation, which [`model`] keeps as the oracle of the differential
//! tests.

use std::collections::VecDeque;
use vertigo_simcore::release_if_drained;

/// A rank-ordered queue with O(1) extraction at both ends.
#[derive(Debug, Clone)]
pub struct PieoQueue<T> {
    /// Ascending by rank; equal ranks in insertion order. A pop that
    /// empties it frees a buffer a burst grew ([`release_if_drained`]).
    ring: VecDeque<(u64, T)>,
}

impl<T> PieoQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PieoQueue {
            ring: VecDeque::new(),
        }
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Elements the queue has room for without allocating.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Inserts `item` with the given rank ("push-in"), behind every
    /// resident of the same or a smaller rank.
    pub fn push(&mut self, rank: u64, item: T) {
        if self.ring.back().is_none_or(|e| e.0 <= rank) {
            self.ring.push_back((rank, item));
        } else {
            let at = self.ring.partition_point(|e| e.0 <= rank);
            self.ring.insert(at, (rank, item));
        }
    }

    /// Removes and returns the smallest-rank element ("extract-out"):
    /// the next packet to transmit under SRPT. Equal ranks come out FIFO.
    pub fn pop_min(&mut self) -> Option<(u64, T)> {
        let (rank, item) = self.ring.pop_front()?;
        release_if_drained(&mut self.ring);
        #[cfg(debug_assertions)]
        if let Some(next) = self.peek_min_rank() {
            assert!(
                rank <= next,
                "audit: PIEO pop_min rank regression ({rank} popped, {next} remains)"
            );
        }
        Some((rank, item))
    }

    /// Removes and returns the largest-rank element (Vertigo's tail
    /// extraction): the deflection/drop victim. Among equal ranks the most
    /// recently inserted is victimized, so older traffic keeps its place.
    pub fn pop_max(&mut self) -> Option<(u64, T)> {
        let (rank, item) = self.ring.pop_back()?;
        release_if_drained(&mut self.ring);
        #[cfg(debug_assertions)]
        if let Some(next) = self.peek_max_rank() {
            assert!(
                rank >= next,
                "audit: PIEO pop_max rank regression ({rank} popped, {next} remains)"
            );
        }
        Some((rank, item))
    }

    /// Rank of the head (smallest) element.
    pub fn peek_min_rank(&self) -> Option<u64> {
        self.ring.front().map(|e| e.0)
    }

    /// Rank of the tail (largest) element.
    pub fn peek_max_rank(&self) -> Option<u64> {
        self.ring.back().map(|e| e.0)
    }

    /// Borrows the tail (largest-rank) element.
    pub fn peek_max(&self) -> Option<&T> {
        self.ring.back().map(|e| &e.1)
    }

    /// Iterates elements in ascending rank order (the queue's own order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.ring.iter().map(|(rank, item)| (*rank, item))
    }

    /// Drains all elements in ascending rank order.
    pub fn drain(&mut self) -> Vec<(u64, T)> {
        self.ring.drain(..).collect()
    }
}

impl<T> Default for PieoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The record is the element count, then `(rank, item)` in queue order:
/// position in the ring is the whole tie-break, so nothing else is needed
/// for a restored queue to pop, and to place future insertions, exactly as
/// the saved one would.
impl<T: vertigo_simcore::Snapshot> vertigo_simcore::Snapshot for PieoQueue<T> {
    fn save(&self, w: &mut vertigo_simcore::SnapWriter) {
        w.put_usize(self.ring.len());
        for (rank, item) in &self.ring {
            w.put_u64(*rank);
            item.save(w);
        }
    }

    fn restore(
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<Self, vertigo_simcore::SnapError> {
        use vertigo_simcore::SnapError;
        // Each element opens with its 8-byte rank.
        let n = r.count(8, "PIEO elements")?;
        let mut ring: VecDeque<(u64, T)> = VecDeque::with_capacity(n);
        for _ in 0..n {
            let rank = r.get_u64()?;
            // Both pops and the search in `push` rely on the order.
            if ring.back().is_some_and(|e| e.0 > rank) {
                return Err(SnapError::new(format!(
                    "PIEO snapshot: rank {rank} follows a larger rank"
                )));
            }
            ring.push_back((rank, T::restore(r)?));
        }
        Ok(PieoQueue { ring })
    }
}

/// Reference implementation kept for differential testing.
#[cfg(test)]
mod model {
    use std::collections::BTreeMap;

    /// The original `BTreeMap`-backed PIEO model: same API and semantics as
    /// [`super::PieoQueue`], the oracle in the differential property tests
    /// below (its benchmark series against the heap is in `BENCH_PR1.json`).
    #[derive(Debug, Clone, Default)]
    pub struct BTreePieo<T> {
        map: BTreeMap<(u64, u64), T>,
        seq: u64,
    }

    impl<T> BTreePieo<T> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            BTreePieo {
                map: BTreeMap::new(),
                seq: 0,
            }
        }

        /// Number of queued elements.
        pub fn len(&self) -> usize {
            self.map.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.map.is_empty()
        }

        /// Inserts `item` with the given rank.
        pub fn push(&mut self, rank: u64, item: T) {
            let seq = self.seq;
            self.seq += 1;
            self.map.insert((rank, seq), item);
        }

        /// Removes and returns the smallest-rank element (FIFO on ties).
        pub fn pop_min(&mut self) -> Option<(u64, T)> {
            let (&key, _) = self.map.iter().next()?;
            let item = self.map.remove(&key)?;
            Some((key.0, item))
        }

        /// Removes and returns the largest-rank element (LIFO on ties).
        pub fn pop_max(&mut self) -> Option<(u64, T)> {
            let (&key, _) = self.map.iter().next_back()?;
            let item = self.map.remove(&key)?;
            Some((key.0, item))
        }

        /// Rank of the head (smallest) element.
        pub fn peek_min_rank(&self) -> Option<u64> {
            self.map.keys().next().map(|&(r, _)| r)
        }

        /// Rank of the tail (largest) element.
        pub fn peek_max_rank(&self) -> Option<u64> {
            self.map.keys().next_back().map(|&(r, _)| r)
        }

        /// Borrows the tail (largest-rank) element.
        pub fn peek_max(&self) -> Option<&T> {
            self.map.values().next_back()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::BTreePieo;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pop_min_is_srpt_order() {
        let mut q = PieoQueue::new();
        q.push(300, "c");
        q.push(100, "a");
        q.push(200, "b");
        assert_eq!(q.pop_min(), Some((100, "a")));
        assert_eq!(q.pop_min(), Some((200, "b")));
        assert_eq!(q.pop_min(), Some((300, "c")));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn pop_max_victimizes_largest() {
        let mut q = PieoQueue::new();
        q.push(3_000, "mouse");
        q.push(20_000, "elephant");
        q.push(7_000, "mid");
        assert_eq!(q.pop_max(), Some((20_000, "elephant")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_max_rank(), Some(7_000));
        assert_eq!(q.peek_min_rank(), Some(3_000));
    }

    #[test]
    fn equal_ranks_fifo_on_min_lifo_on_max() {
        let mut q = PieoQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        // Tail extraction takes the newest equal-rank element...
        assert_eq!(q.pop_max(), Some((5, 3)));
        // ...while transmission serves the oldest first.
        assert_eq!(q.pop_min(), Some((5, 1)));
        assert_eq!(q.pop_min(), Some((5, 2)));
    }

    #[test]
    fn same_flow_never_reorders_under_srpt() {
        // SRPT ranks within one flow are strictly decreasing, so dequeue
        // order is reversed arrival order *per rank*, but since ranks
        // decrease monotonically within a flow, FIFO order of the flow is
        // NOT preserved by rank sort alone. The Vertigo marking gives later
        // packets smaller RFS, so they *should* pop first only if the
        // earlier ones were already sent. Model check: packets arriving in
        // flow order with decreasing ranks pop in reverse... this is why
        // the ordering shim exists. Here we only assert rank-sorting.
        let mut q = PieoQueue::new();
        for (i, rank) in [10_000u64, 8_540, 7_080].iter().enumerate() {
            q.push(*rank, i);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop_min().map(|(r, _)| r)).collect();
        assert_eq!(popped, vec![7_080, 8_540, 10_000]);
    }

    #[test]
    fn drain_sorted() {
        let mut q = PieoQueue::new();
        for r in [9u64, 1, 5, 7, 3] {
            q.push(r, r);
        }
        let drained: Vec<u64> = q.drain().into_iter().map(|(r, _)| r).collect();
        assert_eq!(drained, vec![1, 3, 5, 7, 9]);
        assert!(q.is_empty());
    }

    /// A burst of 100, then a drain from either end: the ring gives back
    /// what the burst grew and keeps no more than the drained floor.
    #[test]
    fn a_drained_burst_gives_its_room_back() {
        for pop_max in [false, true] {
            let mut q = PieoQueue::new();
            for i in 0..100u64 {
                q.push(i % 7, i);
            }
            assert!(q.ring.capacity() >= 100);
            while if pop_max { q.pop_max() } else { q.pop_min() }.is_some() {}
            let held = q.ring.capacity() * std::mem::size_of::<(u64, u64)>();
            assert!(held <= vertigo_simcore::RING_KEEP_BYTES, "{held} B held");
        }
    }

    #[test]
    fn iter_is_sorted_and_nondestructive() {
        let mut q = PieoQueue::new();
        for r in [4u64, 2, 8, 2, 6] {
            q.push(r, r * 10);
        }
        let ranks: Vec<u64> = q.iter().map(|(r, _)| r).collect();
        assert_eq!(ranks, vec![2, 2, 4, 6, 8]);
        assert_eq!(q.len(), 5);
    }

    proptest! {
        /// Heap invariant: popping min repeatedly yields a sorted sequence,
        /// popping max repeatedly yields a reverse-sorted sequence, and
        /// every pushed element comes out exactly once.
        #[test]
        fn conservation_and_order(ranks in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mut q = PieoQueue::new();
            for (i, &r) in ranks.iter().enumerate() {
                q.push(r, i);
            }
            let mut out_min = Vec::new();
            let mut out_max = Vec::new();
            // Alternate min/max extraction to stress both ends.
            while let Some((r, _)) = q.pop_min() {
                out_min.push(r);
                if let Some((r, _)) = q.pop_max() {
                    out_max.push(r);
                }
            }
            prop_assert_eq!(out_min.len() + out_max.len(), ranks.len());
            prop_assert!(out_min.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(out_max.windows(2).all(|w| w[0] >= w[1]));
            // min_i <= max_i for each alternating pair popped while both ends existed.
            for (lo, hi) in out_min.iter().zip(out_max.iter()) {
                prop_assert!(lo <= hi);
            }
        }

        /// Snapshot round trip: after arbitrary pushes and pops, a restored
        /// queue pops the identical sequence (rank AND item, exercising the
        /// parallel arrays and FIFO tie-breaking) and numbers future pushes
        /// identically.
        #[test]
        fn snapshot_round_trip_pops_identically(
            ranks in proptest::collection::vec(0u64..16, 0..120),
            pre_pops in 0usize..40,
        ) {
            use vertigo_simcore::{SnapReader, SnapWriter, Snapshot};
            let mut q = PieoQueue::new();
            for (i, &r) in ranks.iter().enumerate() {
                q.push(r, i as u64);
            }
            for i in 0..pre_pops {
                if i % 2 == 0 { q.pop_min(); } else { q.pop_max(); }
            }
            let mut w = SnapWriter::new();
            q.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let mut q2: PieoQueue<u64> = PieoQueue::restore(&mut r).unwrap();
            prop_assert_eq!(r.remaining(), 0, "stream fully consumed");
            // Future pushes land at identical tie-break positions: narrow
            // rank range forces plenty of equal-rank ties.
            q.push(7, 9_000);
            q2.push(7, 9_000);
            loop {
                let (a, b) = (q.pop_min(), q2.pop_min());
                prop_assert_eq!(a, b);
                let (a, b) = (q.pop_max(), q2.pop_max());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// One step of the differential driver: the same operation applied to
    /// the interval heap and the BTreeMap oracle must agree exactly —
    /// including which *item* comes out, not just which rank.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u64),
        PopMin,
        PopMax,
        Peeks,
        /// Pops both to empty, where the ring gives its buffer back, and
        /// the script goes on from there.
        Drain,
    }

    fn op_strategy(max_rank: u64) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..=max_rank).prop_map(Op::Push),
            Just(Op::PopMin),
            Just(Op::PopMax),
            Just(Op::Peeks),
            Just(Op::Drain),
        ]
    }

    /// Pops `heap` and `oracle` from the min end in lockstep until both are
    /// empty; the ring is then left with no more than the drained floor.
    fn drain_both(heap: &mut PieoQueue<usize>, oracle: &mut BTreePieo<usize>) {
        loop {
            let (a, b) = (heap.pop_min(), oracle.pop_min());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(heap.ring.capacity() * 16 <= vertigo_simcore::RING_KEEP_BYTES);
    }

    fn run_differential(ops: &[Op]) {
        let mut heap: PieoQueue<usize> = PieoQueue::new();
        let mut oracle: BTreePieo<usize> = BTreePieo::new();
        for (tag, &op) in ops.iter().enumerate() {
            match op {
                Op::Push(rank) => {
                    heap.push(rank, tag);
                    oracle.push(rank, tag);
                }
                Op::PopMin => assert_eq!(heap.pop_min(), oracle.pop_min(), "op #{tag}"),
                Op::PopMax => assert_eq!(heap.pop_max(), oracle.pop_max(), "op #{tag}"),
                Op::Peeks => {
                    assert_eq!(heap.peek_min_rank(), oracle.peek_min_rank(), "op #{tag}");
                    assert_eq!(heap.peek_max_rank(), oracle.peek_max_rank(), "op #{tag}");
                    assert_eq!(heap.peek_max(), oracle.peek_max(), "op #{tag}");
                }
                Op::Drain => drain_both(&mut heap, &mut oracle),
            }
            assert_eq!(heap.len(), oracle.len(), "op #{tag}");
        }
        // Drain both: remaining contents must agree element-for-element.
        drain_both(&mut heap, &mut oracle);
    }

    proptest! {
        /// Differential check against the BTreeMap oracle over wide ranks
        /// (ties rare): arbitrary interleavings of push/pop/peek.
        #[test]
        fn matches_btree_oracle_wide_ranks(
            ops in proptest::collection::vec(op_strategy(u64::MAX), 0..400),
        ) {
            run_differential(&ops);
        }

        /// Differential check with ranks drawn from {0..4} so nearly every
        /// element ties: exercises FIFO-on-min / LIFO-on-max tiebreaking.
        #[test]
        fn matches_btree_oracle_heavy_ties(
            ops in proptest::collection::vec(op_strategy(3), 0..400),
        ) {
            run_differential(&ops);
        }

        /// Alternating pop_min/pop_max under a single shared rank: the
        /// oldest element must come off the min end and the newest off the
        /// max end at every step, in lockstep with the oracle.
        #[test]
        fn alternating_pops_under_equal_ranks(n in 0usize..120, rank in any::<u64>()) {
            let mut heap: PieoQueue<usize> = PieoQueue::new();
            let mut oracle: BTreePieo<usize> = BTreePieo::new();
            for i in 0..n {
                heap.push(rank, i);
                oracle.push(rank, i);
            }
            let mut take_min = true;
            while !oracle.is_empty() {
                if take_min {
                    prop_assert_eq!(heap.pop_min(), oracle.pop_min());
                } else {
                    prop_assert_eq!(heap.pop_max(), oracle.pop_max());
                }
                take_min = !take_min;
            }
            prop_assert!(heap.is_empty());
        }
    }

    /// The differential driver at the depth a 300 KB port bounds the queue
    /// to — 4 687 minimum-size packets — where an insert moves the most:
    /// fill with heavy ties, then alternate the two pops with a push
    /// between them so the depth holds.
    #[test]
    fn matches_btree_oracle_at_the_port_bound() {
        const DEPTH: usize = 4_687;
        let mut r = 0x9E37_79B9_7F4A_7C15u64;
        let mut rank = move || {
            r = r
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (r >> 33) % 64
        };
        let mut ops: Vec<Op> = (0..DEPTH).map(|_| Op::Push(rank())).collect();
        for i in 0..4 * DEPTH {
            ops.push(Op::Push(rank()));
            ops.push(if i % 2 == 0 { Op::PopMin } else { Op::PopMax });
            if i % 64 == 0 {
                ops.push(Op::Peeks);
            }
        }
        run_differential(&ops);
    }

    #[test]
    fn restore_rejects_hostile_records() {
        use vertigo_simcore::{SnapReader, SnapWriter, Snapshot};
        let record = |n: u64, cells: &[(u64, u64)]| {
            let mut w = SnapWriter::new();
            w.put_u64(n);
            for &(rank, item) in cells {
                w.put_u64(rank);
                w.put_u64(item);
            }
            w.into_bytes()
        };
        let restored = |bytes: &[u8]| PieoQueue::<u64>::restore(&mut SnapReader::new(bytes));
        // A queue mid-run — ties, pops at both ends behind it — round-trips
        // byte for byte and keeps running in step with the original.
        let mut q = PieoQueue::new();
        for (i, rank) in [5u64, 3, 5, 9, 3, 7, 5].into_iter().enumerate() {
            q.push(rank, i as u64);
        }
        q.pop_min();
        q.pop_max();
        let mut w = SnapWriter::new();
        q.save(&mut w);
        let ok = w.into_bytes();
        assert_eq!(ok, record(5, &[(3, 4), (5, 0), (5, 2), (5, 6), (7, 5)]));
        let mut q2 = restored(&ok).unwrap();
        for (i, rank) in [5u64, 1, 8].into_iter().enumerate() {
            q.push(rank, 100 + i as u64);
            q2.push(rank, 100 + i as u64);
            assert_eq!(q.pop_max(), q2.pop_max());
        }
        assert_eq!(q.drain(), q2.drain());
        for (what, bytes) in [
            ("descending ranks", record(3, &[(3, 0), (9, 1), (5, 2)])),
            ("descending at the end", record(2, &[(1, 0), (0, 1)])),
            ("count beyond the cells", record(3, &[(3, 0), (5, 1)])),
            // Refused before anything is sized by it.
            ("count beyond the input", record(1 << 40, &[(3, 0)])),
            ("count of u64::MAX", record(u64::MAX, &[])),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        for cut in 0..ok.len() {
            assert!(
                restored(&ok[..cut]).is_err(),
                "accepted {cut} of {} bytes",
                ok.len()
            );
        }
    }
}
