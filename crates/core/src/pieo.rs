//! A software model of the PIEO scheduler extended for Vertigo (paper §4.4
//! and appendix A.3).
//!
//! PIEO ("push-in extract-out", Shrivastav SIGCOMM'19) is a hardware
//! priority queue that dequeues the *smallest-rank* eligible element.
//! Vertigo extends it with **extraction from the tail** — when a packet
//! arrives at a full buffer, the largest-rank resident (or the arrival
//! itself) must be pulled out for deflection or drop.
//!
//! This software model provides the same operation set with O(log n) cost:
//! `push`, `pop_min` (transmit), `pop_max` (victimize), plus rank peeks.
//! Equal ranks dequeue FIFO via a monotonic insertion sequence, matching
//! the paper's requirement that same-flow packets (strictly decreasing RFS
//! under SRPT) never reorder *and* that distinct flows at the same rank are
//! served fairly.
//!
//! The backing store is a min-max heap (Atkinson et al., CACM'86): even
//! levels ordered for min, odd levels for max, so both ends extract in
//! O(log n) with no per-element allocation. The heap is laid out as three
//! parallel arrays — ranks, tie-breaking sequence numbers, payloads — so
//! the comparison-heavy pop paths walk a dense 8-byte-per-element rank
//! array and touch the sequence array only on rank ties. Elements are keyed
//! `(rank, seq)` with a monotonic `seq`, which makes equal-rank behavior
//! fall out of the key order: the min end serves the oldest (FIFO) and the
//! max end victimizes the newest (LIFO) — exactly the semantics of the
//! previous `BTreeMap<(rank, seq), T>` implementation, which is retained in
//! [`model`] as the reference oracle for differential tests and benchmarks.

/// A rank-ordered queue with efficient min- and max-extraction.
#[derive(Debug, Clone)]
pub struct PieoQueue<T> {
    /// Heap-ordered ranks. Structure-of-arrays: rank comparisons — the hot
    /// path of both pops — walk this dense 8-byte-per-element array.
    ranks: Vec<u64>,
    /// Tie-breaking insertion sequence numbers, parallel to `ranks`.
    /// Loaded only when two ranks compare equal.
    seqs: Vec<u64>,
    /// Payloads, parallel to `ranks`.
    items: Vec<T>,
    seq: u64,
}

/// Whether heap index `i` sits on a min level (even depth; the root is min).
#[inline]
fn is_min_level(i: usize) -> bool {
    (i + 1).ilog2().is_multiple_of(2)
}

#[inline]
fn parent(i: usize) -> usize {
    (i - 1) / 2
}

/// `true` iff key `a` is better than key `b` for the given direction:
/// smaller in min mode, larger in max mode. Keys are unique (`seq` is
/// monotonic), so strict comparison suffices.
#[inline(always)]
fn beats<const MIN: bool>(a: (u64, u64), b: (u64, u64)) -> bool {
    if MIN {
        a < b
    } else {
        a > b
    }
}

/// `beats` over the split arrays: compares ranks first and loads the
/// sequence numbers only on a rank tie, so the hot tournament loop mostly
/// touches the dense rank array alone.
#[inline(always)]
fn beats_at<const MIN: bool>(ranks: &[u64], seqs: &[u64], a: usize, b: usize) -> bool {
    let (ra, rb) = (ranks[a], ranks[b]);
    if ra != rb {
        return if MIN { ra < rb } else { ra > rb };
    }
    let (sa, sb) = (seqs[a], seqs[b]);
    if MIN {
        sa < sb
    } else {
        sa > sb
    }
}

impl<T> PieoQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PieoQueue {
            ranks: Vec::new(),
            seqs: Vec::new(),
            items: Vec::new(),
            seq: 0,
        }
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Inserts `item` with the given rank ("push-in").
    pub fn push(&mut self, rank: u64, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.ranks.push(rank);
        self.seqs.push(seq);
        self.items.push(item);
        self.bubble_up(self.ranks.len() - 1);
    }

    /// Removes and returns the smallest-rank element ("extract-out"):
    /// the next packet to transmit under SRPT. Equal ranks come out FIFO.
    pub fn pop_min(&mut self) -> Option<(u64, T)> {
        if self.ranks.is_empty() {
            return None;
        }
        let last = self.ranks.len() - 1;
        self.swap_cells(0, last);
        let rank = self.ranks.pop().expect("checked non-empty");
        self.seqs.pop().expect("seqs parallel to ranks");
        let item = self.items.pop().expect("items parallel to ranks");
        if !self.ranks.is_empty() {
            // The root is a min level.
            self.trickle_down::<true>(0);
        }
        #[cfg(feature = "audit")]
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
        let idx = self.max_index()?;
        let last = self.ranks.len() - 1;
        self.swap_cells(idx, last);
        let rank = self.ranks.pop().expect("max_index implies non-empty");
        self.seqs.pop().expect("seqs parallel to ranks");
        let item = self.items.pop().expect("items parallel to ranks");
        if idx < self.ranks.len() {
            // idx is 1 or 2 here — a max level. (max_index returns 0 only
            // for a single-element heap, which is empty after the pop.)
            self.trickle_down::<false>(idx);
        }
        #[cfg(feature = "audit")]
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
        self.ranks.first().copied()
    }

    /// Rank of the tail (largest) element.
    pub fn peek_max_rank(&self) -> Option<u64> {
        self.max_index().map(|i| self.ranks[i])
    }

    /// Borrows the tail (largest-rank) element.
    pub fn peek_max(&self) -> Option<&T> {
        self.max_index().map(|i| &self.items[i])
    }

    /// Iterates elements in ascending rank order.
    ///
    /// Cold path (used by diagnostics and tests only): materializes a
    /// sorted view, O(n log n).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let mut order: Vec<usize> = (0..self.ranks.len()).collect();
        order.sort_unstable_by_key(|&i| (self.ranks[i], self.seqs[i]));
        order.into_iter().map(|i| (self.ranks[i], &self.items[i]))
    }

    /// Drains all elements in ascending rank order. Cold path, O(n log n).
    pub fn drain(&mut self) -> Vec<(u64, T)> {
        let ranks = std::mem::take(&mut self.ranks);
        let seqs = std::mem::take(&mut self.seqs);
        let items = std::mem::take(&mut self.items);
        let mut all: Vec<((u64, u64), T)> = ranks.into_iter().zip(seqs).zip(items).collect();
        all.sort_unstable_by_key(|&(key, _)| key);
        all.into_iter().map(|((r, _), v)| (r, v)).collect()
    }

    /// Full `(rank, seq)` key of the element at `i`.
    #[inline]
    fn key(&self, i: usize) -> (u64, u64) {
        (self.ranks[i], self.seqs[i])
    }

    /// Index of the maximum element: the larger of the two max-level roots
    /// (indices 1 and 2), or the root itself for tiny heaps.
    #[inline]
    fn max_index(&self) -> Option<usize> {
        match self.ranks.len() {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            _ => Some(if beats_at::<false>(&self.ranks, &self.seqs, 2, 1) {
                2
            } else {
                1
            }),
        }
    }

    /// Swaps the cell at `a` with the cell at `b` in all parallel arrays.
    #[inline]
    fn swap_cells(&mut self, a: usize, b: usize) {
        self.ranks.swap(a, b);
        self.seqs.swap(a, b);
        self.items.swap(a, b);
    }

    fn bubble_up(&mut self, i: usize) {
        if i == 0 {
            return;
        }
        let p = parent(i);
        if is_min_level(i) {
            if self.key(i) > self.key(p) {
                self.swap_cells(i, p);
                self.bubble_up_grandparents::<false>(p);
            } else {
                self.bubble_up_grandparents::<true>(i);
            }
        } else if self.key(i) < self.key(p) {
            self.swap_cells(i, p);
            self.bubble_up_grandparents::<true>(p);
        } else {
            self.bubble_up_grandparents::<false>(i);
        }
    }

    /// Walks `i` up through same-parity levels; `MIN` selects direction.
    fn bubble_up_grandparents<const MIN: bool>(&mut self, mut i: usize) {
        while i > 2 {
            let gp = parent(parent(i));
            if !beats::<MIN>(self.key(i), self.key(gp)) {
                break;
            }
            self.swap_cells(i, gp);
            i = gp;
        }
    }

    /// Restores the min-max property below `i`, which must sit on a
    /// min level when `MIN` (else a max level).
    ///
    /// This is the hot path of both pops, so it is monomorphized per
    /// direction (no runtime branch on it) and uses the hole technique:
    /// the sinking key rides in registers (`rk`, `sk`) and is stored once,
    /// where the walk ends, while each hop promotes the winning key into
    /// the hole with single stores instead of a three-move swap. Payloads
    /// still swap — they are pointer-sized and carry no ordering.
    fn trickle_down<const MIN: bool>(&mut self, mut i: usize) {
        let ranks = &mut self.ranks;
        let seqs = &mut self.seqs;
        let items = &mut self.items;
        let len = ranks.len();
        debug_assert!(i < len);
        let (mut rk, mut sk) = (ranks[i], seqs[i]);
        // `beats` of the element at `$c` over the sinking (hole) key.
        macro_rules! cand_beats_sunk {
            ($c:expr) => {{
                let rc = ranks[$c];
                if rc != rk {
                    if MIN {
                        rc < rk
                    } else {
                        rc > rk
                    }
                } else {
                    let sc = seqs[$c];
                    if MIN {
                        sc < sk
                    } else {
                        sc > sk
                    }
                }
            }};
        }
        loop {
            let fc = 2 * i + 1; // first child
            if fc >= len {
                break;
            }
            // Best among both children and all four grandchildren.
            let g4 = 4 * i + 6; // last grandchild
            let mut m = fc;
            if g4 < len {
                // Full fan-out: all six candidates exist.
                for c in [fc + 1, 4 * i + 3, 4 * i + 4, 4 * i + 5, g4] {
                    if beats_at::<MIN>(ranks, seqs, c, m) {
                        m = c;
                    }
                }
            } else {
                // Heap frontier: candidate indices ascend, so stop at the
                // first one out of range.
                for c in [fc + 1, 4 * i + 3, 4 * i + 4, 4 * i + 5] {
                    if c >= len {
                        break;
                    }
                    if beats_at::<MIN>(ranks, seqs, c, m) {
                        m = c;
                    }
                }
            }
            if m > fc + 1 {
                // m is a grandchild.
                if !cand_beats_sunk!(m) {
                    break;
                }
                ranks[i] = ranks[m];
                seqs[i] = seqs[m];
                items.swap(m, i);
                // The sinking key may violate the hole's opposite-parity
                // parent; if so it comes to rest at the parent, whose key
                // continues sinking in its place.
                let p = parent(m);
                if cand_beats_sunk!(p) {
                    let (rp, sp) = (ranks[p], seqs[p]);
                    ranks[p] = rk;
                    seqs[p] = sk;
                    items.swap(m, p);
                    rk = rp;
                    sk = sp;
                }
                i = m;
            } else {
                // m is a direct child (a level of the opposite parity).
                if cand_beats_sunk!(m) {
                    ranks[i] = ranks[m];
                    seqs[i] = seqs[m];
                    items.swap(m, i);
                    i = m;
                }
                break;
            }
        }
        ranks[i] = rk;
        seqs[i] = sk;
    }
}

impl<T> Default for PieoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes the parallel arrays verbatim (heap layout included) plus the
/// tie-breaking sequence counter, so a restored queue pops in exactly the
/// same order *and* assigns future insertions the same sequence numbers.
impl<T: vertigo_simcore::Snapshot> vertigo_simcore::Snapshot for PieoQueue<T> {
    fn save(&self, w: &mut vertigo_simcore::SnapWriter) {
        w.put_usize(self.ranks.len());
        for i in 0..self.ranks.len() {
            w.put_u64(self.ranks[i]);
            w.put_u64(self.seqs[i]);
            self.items[i].save(w);
        }
        w.put_u64(self.seq);
    }

    fn restore(
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<Self, vertigo_simcore::SnapError> {
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(vertigo_simcore::SnapError::new(format!(
                "PIEO snapshot claims {n} elements but only {} bytes remain",
                r.remaining()
            )));
        }
        let mut q = PieoQueue {
            ranks: Vec::with_capacity(n),
            seqs: Vec::with_capacity(n),
            items: Vec::with_capacity(n),
            seq: 0,
        };
        for _ in 0..n {
            q.ranks.push(r.get_u64()?);
            q.seqs.push(r.get_u64()?);
            q.items.push(T::restore(r)?);
        }
        q.seq = r.get_u64()?;
        Ok(q)
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
    }

    fn op_strategy(max_rank: u64) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..=max_rank).prop_map(Op::Push),
            Just(Op::PopMin),
            Just(Op::PopMax),
            Just(Op::Peeks),
        ]
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
            }
            assert_eq!(heap.len(), oracle.len(), "op #{tag}");
        }
        // Drain both: remaining contents must agree element-for-element.
        loop {
            let (a, b) = (heap.pop_min(), oracle.pop_min());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
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
}
