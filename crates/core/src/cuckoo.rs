//! A cuckoo filter (Fan et al., CoNEXT'14) for dataplane retransmission
//! detection (paper §3.1.2).
//!
//! The marking component hashes each outgoing packet's identity
//! (flow id ⊕ sequence) and looks it up here: a hit means the packet was
//! transmitted before, i.e. it is a retransmission and must be boosted.
//! Cuckoo filters support deletion — required because entries are removed
//! when a flow completes — and offer O(1) lookups with ~95 % load factor,
//! which is why the paper's DPDK prototype uses them.
//!
//! Implementation: 4-way set-associative buckets of 16-bit fingerprints
//! with partial-key cuckoo hashing (`i2 = i1 ^ H(fp)`), a power-of-two
//! bucket count so the XOR trick is an involution, and a bounded eviction
//! walk (500 kicks) driven by a deterministic internal LCG.
//!
//! Beside the table sits a one-bit-per-bucket occupancy summary (4 KB for
//! the 256 KB default table). The filter sizes itself for ~0.84 load at
//! *capacity*; the marking component runs it far emptier, so most probes
//! land on an empty bucket. The summary answers those from a cache-resident
//! bitmap instead of a cold table line. It is derived state: never
//! serialized, rebuilt on restore, and invisible in every answer.

use vertigo_pkt::mix64;

/// Slots per bucket.
const BUCKET_SLOTS: usize = 4;
/// Maximum cuckoo-eviction chain length before declaring the filter full.
const MAX_KICKS: usize = 500;
/// Occupancy (percent) beyond which inserts stop attempting eviction
/// walks. Past this point a walk almost always fails after `MAX_KICKS`
/// swaps, so bailing out keeps the insert O(1) when the filter saturates
/// (the caller treats a failed insert as "not tracked").
const FULL_PCT: usize = 94;

/// A set-membership filter with deletion support and a small, bounded
/// false-positive rate (~2⁻¹³ at 16-bit fingerprints and 4-way buckets).
#[derive(Clone)]
pub struct CuckooFilter {
    /// `buckets[i][j]` is a fingerprint; 0 = empty slot.
    buckets: Vec<[u16; BUCKET_SLOTS]>,
    /// Bit `i` is set iff `buckets[i]` holds at least one fingerprint.
    /// Allocated by the first insert: an empty `Vec` reads as all-clear,
    /// and building a filter (one per host) touches no memory for it.
    occupied: Vec<u64>,
    bucket_mask: usize,
    len: usize,
    /// Deterministic state for eviction-victim choice.
    lcg: u64,
}

impl CuckooFilter {
    /// Creates a filter able to hold at least `capacity` items (rounded up
    /// so the table is a power of two of 4-slot buckets, sized for ~84 %
    /// target occupancy).
    pub fn with_capacity(capacity: usize) -> Self {
        let want_buckets = (capacity.max(1)).div_ceil(BUCKET_SLOTS);
        // Headroom: cuckoo filters degrade near full; size for ~0.84 load.
        let padded = ((want_buckets as f64) / 0.84).ceil() as usize;
        let nbuckets = padded.next_power_of_two().max(2);
        CuckooFilter {
            buckets: vec![[0; BUCKET_SLOTS]; nbuckets],
            occupied: Vec::new(),
            bucket_mask: nbuckets - 1,
            len: 0,
            lcg: 0x1234_5678_9ABC_DEF1,
        }
    }

    /// Number of fingerprints stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.buckets.len() * BUCKET_SLOTS
    }

    #[inline]
    fn fingerprint(key: u64) -> u16 {
        // Fold the mixed key into 16 bits; reserve 0 as the empty marker.
        let fp = (mix64(key ^ 0xF100_0D1E) & 0xFFFF) as u16;
        if fp == 0 {
            1
        } else {
            fp
        }
    }

    #[inline]
    fn index1(&self, key: u64) -> usize {
        (mix64(key) as usize) & self.bucket_mask
    }

    #[inline]
    fn alt_index(&self, index: usize, fp: u16) -> usize {
        index ^ ((mix64(fp as u64) as usize) & self.bucket_mask)
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        self.occupied
            .get(idx / 64)
            .is_some_and(|word| (word >> (idx % 64)) & 1 != 0)
    }

    fn set_occupied(&mut self, idx: usize) {
        if self.occupied.is_empty() {
            self.occupied = vec![0; self.buckets.len().div_ceil(64)];
        }
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    fn bucket_insert(&mut self, idx: usize, fp: u16) -> bool {
        if !self.is_occupied(idx) {
            // Empty bucket: slot 0 is the first free slot; write it
            // without reading the (probably cold) line.
            self.set_occupied(idx);
            self.buckets[idx][0] = fp;
            return true;
        }
        for slot in self.buckets[idx].iter_mut() {
            if *slot == 0 {
                *slot = fp;
                return true;
            }
        }
        false
    }

    #[inline]
    fn bucket_contains(&self, idx: usize, fp: u16) -> bool {
        self.is_occupied(idx) && self.buckets[idx].contains(&fp)
    }

    fn bucket_remove(&mut self, idx: usize, fp: u16) -> bool {
        if !self.is_occupied(idx) {
            return false;
        }
        let bucket = &mut self.buckets[idx];
        for slot in bucket.iter_mut() {
            if *slot == fp {
                *slot = 0;
                if *bucket == [0; BUCKET_SLOTS] {
                    self.occupied[idx / 64] &= !(1 << (idx % 64));
                }
                return true;
            }
        }
        false
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        // Numerical Recipes LCG; only used to pick eviction victims, so
        // quality requirements are modest but determinism is mandatory.
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.lcg >> 33
    }

    /// Inserts `key`. Returns `false` if the filter is too full to accept
    /// it (the caller should treat this as "not tracked" — for retransmit
    /// detection that degrades to an unboosted retransmission, never a
    /// correctness problem).
    pub fn insert(&mut self, key: u64) -> bool {
        let mut fp = Self::fingerprint(key);
        let i1 = self.index1(key);
        let i2 = self.alt_index(i1, fp);
        if self.bucket_insert(i1, fp) || self.bucket_insert(i2, fp) {
            self.len += 1;
            return true;
        }
        if self.len * 100 >= self.capacity() * FULL_PCT {
            // Saturated: an eviction walk would churn for MAX_KICKS swaps
            // and still fail. Degrade gracefully instead.
            return false;
        }
        // Evict: random walk between the two candidate buckets. Every
        // bucket the walk swaps in is full, so occupancy bits do not move.
        let mut idx = if self.next_rand() & 1 == 0 { i1 } else { i2 };
        for _ in 0..MAX_KICKS {
            let victim_slot = (self.next_rand() as usize) % BUCKET_SLOTS;
            std::mem::swap(&mut fp, &mut self.buckets[idx][victim_slot]);
            idx = self.alt_index(idx, fp);
            if self.bucket_insert(idx, fp) {
                self.len += 1;
                return true;
            }
        }
        // Filter full: undo nothing (the displaced chain is still all
        // present except the final homeless fingerprint, which we re-seat
        // in place of the last swap to keep no-false-negative for stored
        // items). Simplest correct recovery: put it back where we took the
        // last one from.
        let slot = self.buckets[idx].iter().position(|&s| s == 0).unwrap_or(0);
        let displaced = self.buckets[idx][slot];
        self.buckets[idx][slot] = fp;
        if displaced == 0 {
            self.len += 1;
            true
        } else {
            // We overwrote an existing fingerprint; net occupancy is
            // unchanged and one old item may now be a false negative. This
            // only occurs past design load; callers size with headroom.
            false
        }
    }

    /// Whether `key` *may* be present (no false negatives for inserted and
    /// not-deleted keys within design load; small false-positive rate).
    pub fn contains(&self, key: u64) -> bool {
        let fp = Self::fingerprint(key);
        let i1 = self.index1(key);
        if self.bucket_contains(i1, fp) {
            return true;
        }
        let i2 = self.alt_index(i1, fp);
        self.bucket_contains(i2, fp)
    }

    /// Removes one copy of `key` if present. Returns whether a fingerprint
    /// was removed. Only call for keys previously inserted (standard cuckoo
    /// filter contract: deleting a never-inserted key can evict a colliding
    /// fingerprint).
    pub fn remove(&mut self, key: u64) -> bool {
        let fp = Self::fingerprint(key);
        let i1 = self.index1(key);
        if self.bucket_remove(i1, fp) {
            self.len -= 1;
            return true;
        }
        let i2 = self.alt_index(i1, fp);
        if self.bucket_remove(i2, fp) {
            self.len -= 1;
            return true;
        }
        false
    }
}

/// Serializes the whole table (bucket contents, occupancy, and the
/// eviction-victim LCG state — the LCG **must** round-trip or post-restore
/// eviction walks would pick different victims than the straight-through
/// run and break determinism). The occupancy summary is a function of the
/// bucket contents and is rebuilt, not stored.
impl vertigo_simcore::Snapshot for CuckooFilter {
    fn save(&self, w: &mut vertigo_simcore::SnapWriter) {
        w.put_usize(self.buckets.len());
        for bucket in &self.buckets {
            for &fp in bucket {
                w.put_u16(fp);
            }
        }
        w.put_usize(self.len);
        w.put_u64(self.lcg);
    }

    fn restore(
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<Self, vertigo_simcore::SnapError> {
        let nbuckets = r.get_usize()?;
        if !nbuckets.is_power_of_two() {
            return Err(vertigo_simcore::SnapError::new(format!(
                "cuckoo filter bucket count {nbuckets} is not a power of two"
            )));
        }
        if nbuckets > r.remaining() {
            return Err(vertigo_simcore::SnapError::new(format!(
                "cuckoo snapshot claims {nbuckets} buckets but only {} bytes remain",
                r.remaining()
            )));
        }
        let mut buckets = Vec::with_capacity(nbuckets);
        for _ in 0..nbuckets {
            let mut bucket = [0u16; BUCKET_SLOTS];
            for slot in bucket.iter_mut() {
                *slot = r.get_u16()?;
            }
            buckets.push(bucket);
        }
        let len = r.get_usize()?;
        let lcg = r.get_u64()?;
        let mut filter = CuckooFilter {
            buckets,
            occupied: Vec::new(),
            bucket_mask: nbuckets - 1,
            len,
            lcg,
        };
        for idx in 0..nbuckets {
            if filter.buckets[idx] != [0; BUCKET_SLOTS] {
                filter.set_occupied(idx);
            }
        }
        Ok(filter)
    }
}

impl std::fmt::Debug for CuckooFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CuckooFilter {{ len: {}, capacity: {} }}",
            self.len,
            self.capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn snapshot_round_trip_preserves_table_and_lcg() {
        use vertigo_simcore::{SnapReader, SnapWriter, Snapshot};
        let mut f = CuckooFilter::with_capacity(256);
        for k in 0..300u64 {
            f.insert(k); // past design load: exercises eviction walks (LCG)
        }
        let mut w = SnapWriter::new();
        f.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut g = CuckooFilter::restore(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(g.len(), f.len());
        for k in 0..300u64 {
            assert_eq!(g.contains(k), f.contains(k), "key {k}");
        }
        // Identical future behavior, including LCG-driven eviction choices.
        for k in 300..400u64 {
            assert_eq!(g.insert(k), f.insert(k), "insert {k}");
        }
        for k in 0..400u64 {
            assert_eq!(g.contains(k), f.contains(k), "post-insert key {k}");
        }
    }

    #[test]
    fn restore_rejects_non_power_of_two_bucket_count() {
        use vertigo_simcore::{SnapReader, SnapWriter, Snapshot};
        let mut w = SnapWriter::new();
        w.put_u64(3); // bucket count
        let bytes = w.into_bytes();
        assert!(CuckooFilter::restore(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn insert_then_contains() {
        let mut f = CuckooFilter::with_capacity(1024);
        for k in 0..800u64 {
            assert!(f.insert(k), "insert {k} failed below design load");
        }
        for k in 0..800u64 {
            assert!(f.contains(k), "false negative for {k}");
        }
        assert_eq!(f.len(), 800);
    }

    #[test]
    fn false_positive_rate_is_small() {
        let mut f = CuckooFilter::with_capacity(4096);
        for k in 0..4000u64 {
            f.insert(k);
        }
        let fps = (1_000_000u64..1_100_000).filter(|&k| f.contains(k)).count();
        // 16-bit fingerprints, 4-way: theoretical ~ 8/2^16 ≈ 0.00012.
        // Allow an order of magnitude of slack.
        assert!(fps < 150, "false positive rate too high: {fps}/100000");
    }

    #[test]
    fn false_positive_rate_under_adversarial_inserts() {
        // Adversarial load: mine keys that all land in a handful of
        // buckets, forcing eviction walks and maximal fingerprint churn,
        // then measure the false-positive rate on a disjoint probe set.
        // Clustered occupancy must not inflate FP rate beyond the
        // fingerprint bound (~2^-13 per probe times slots examined).
        let mut f = CuckooFilter::with_capacity(4096);
        let mask = f.bucket_mask;
        let mut inserted = Vec::new();
        let mut k = 0u64;
        while inserted.len() < 2000 {
            // Keys whose primary bucket index is one of 8 target buckets.
            if (mix64(k) as usize) & mask < 8 && f.insert(k) {
                inserted.push(k);
            }
            k += 1;
        }
        // No false negatives for the keys the filter accepted.
        for &key in &inserted {
            assert!(f.contains(key), "false negative for adversarial key {key}");
        }
        // Probe keys disjoint from the insert stream (the miner only
        // consumed keys below `k`).
        let fps = (k + 1..k + 100_001).filter(|&p| f.contains(p)).count();
        assert!(fps < 150, "adversarial FP rate too high: {fps}/100000");
    }

    #[test]
    fn remove_works() {
        let mut f = CuckooFilter::with_capacity(128);
        for k in 0..100u64 {
            f.insert(k);
        }
        for k in 0..50u64 {
            assert!(f.remove(k));
        }
        assert_eq!(f.len(), 50);
        for k in 50..100u64 {
            assert!(f.contains(k), "lost key {k} after unrelated deletes");
        }
    }

    #[test]
    fn remove_missing_is_noop_mostly() {
        let mut f = CuckooFilter::with_capacity(128);
        f.insert(1);
        // A random absent key will almost surely not share a fingerprint.
        assert!(!f.remove(999_999_999));
        assert!(f.contains(1));
    }

    #[test]
    fn degrades_gracefully_past_capacity() {
        let mut f = CuckooFilter::with_capacity(64);
        let mut accepted = 0;
        for k in 0..10_000u64 {
            if f.insert(k) {
                accepted += 1;
            }
        }
        // Must accept at least its design capacity, and never corrupt len.
        assert!(accepted >= 64, "only {accepted} accepted");
        assert!(f.len() <= f.capacity());
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = CuckooFilter::with_capacity(256);
        let mut b = CuckooFilter::with_capacity(256);
        for k in 0..300u64 {
            assert_eq!(a.insert(k * 7919), b.insert(k * 7919));
        }
        for k in 0..600u64 {
            assert_eq!(a.contains(k * 31), b.contains(k * 31));
        }
    }

    /// The filter as it stood before the occupancy summary: same hashes,
    /// same kick walk, every probe reads the table. The oracle the
    /// summarised filter must be indistinguishable from.
    struct PlainFilter {
        buckets: Vec<[u16; BUCKET_SLOTS]>,
        len: usize,
        lcg: u64,
    }

    impl PlainFilter {
        fn like(f: &CuckooFilter) -> Self {
            PlainFilter {
                buckets: vec![[0; BUCKET_SLOTS]; f.buckets.len()],
                len: 0,
                lcg: f.lcg,
            }
        }

        fn indices(&self, key: u64) -> (u16, usize, usize) {
            let mask = self.buckets.len() - 1;
            let fp = CuckooFilter::fingerprint(key);
            let i1 = (mix64(key) as usize) & mask;
            (fp, i1, self.alt(i1, fp))
        }

        fn alt(&self, idx: usize, fp: u16) -> usize {
            idx ^ ((mix64(fp as u64) as usize) & (self.buckets.len() - 1))
        }

        fn put(&mut self, idx: usize, fp: u16) -> bool {
            match self.buckets[idx].iter_mut().find(|s| **s == 0) {
                Some(slot) => {
                    *slot = fp;
                    true
                }
                None => false,
            }
        }

        fn rand(&mut self) -> u64 {
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.lcg >> 33
        }

        fn insert(&mut self, key: u64) -> bool {
            let (mut fp, i1, i2) = self.indices(key);
            if self.put(i1, fp) || self.put(i2, fp) {
                self.len += 1;
                return true;
            }
            if self.len * 100 >= self.buckets.len() * BUCKET_SLOTS * FULL_PCT {
                return false;
            }
            let mut idx = if self.rand() & 1 == 0 { i1 } else { i2 };
            for _ in 0..MAX_KICKS {
                let victim = (self.rand() as usize) % BUCKET_SLOTS;
                std::mem::swap(&mut fp, &mut self.buckets[idx][victim]);
                idx = self.alt(idx, fp);
                if self.put(idx, fp) {
                    self.len += 1;
                    return true;
                }
            }
            self.buckets[idx][0] = fp;
            false
        }

        fn contains(&self, key: u64) -> bool {
            let (fp, i1, i2) = self.indices(key);
            self.buckets[i1].contains(&fp) || self.buckets[i2].contains(&fp)
        }

        fn remove(&mut self, key: u64) -> bool {
            let (fp, i1, i2) = self.indices(key);
            for idx in [i1, i2] {
                if let Some(slot) = self.buckets[idx].iter_mut().find(|s| **s == fp) {
                    *slot = 0;
                    self.len -= 1;
                    return true;
                }
            }
            false
        }

        fn snapshot_bytes(&self) -> Vec<u8> {
            let mut w = vertigo_simcore::SnapWriter::new();
            w.put_usize(self.buckets.len());
            for &fp in self.buckets.iter().flatten() {
                w.put_u16(fp);
            }
            w.put_usize(self.len);
            w.put_u64(self.lcg);
            w.into_bytes()
        }
    }

    /// The summary says exactly "this bucket is non-empty", bucket by bucket.
    fn summary_is_exact(f: &CuckooFilter) -> bool {
        (0..f.buckets.len()).all(|i| f.is_occupied(i) == (f.buckets[i] != [0; BUCKET_SLOTS]))
    }

    proptest! {
        /// The summarised filter against the plain one over random
        /// insert / contains / remove streams on a 64-slot table: a key
        /// space of 160 drives it through saturation (the `FULL_PCT`
        /// bail-out) and the kick walk, removes empty buckets again.
        /// Identical answers, `len` and snapshot bytes throughout; a
        /// restored filter has the same summary and carries on identically.
        #[test]
        fn summary_is_unobservable(
            ops in proptest::collection::vec((0u8..8, 0u64..160), 1..600),
            tail in proptest::collection::vec((0u8..8, 0u64..160), 1..100),
        ) {
            use vertigo_simcore::{SnapReader, SnapWriter, Snapshot};
            let mut f = CuckooFilter::with_capacity(40);
            prop_assert_eq!(f.capacity(), 64);
            let mut plain = PlainFilter::like(&f);
            // Spread keys over the u64 space; removes only target keys the
            // reference believes present (the cuckoo-filter contract).
            let key = |k: u64| mix64(k ^ 0xC0FFEE);
            let step = |f: &mut CuckooFilter, plain: &mut PlainFilter, op: u8, k: u64| {
                let k = key(k);
                match op {
                    0..=3 => assert_eq!(f.insert(k), plain.insert(k), "insert {k:#x}"),
                    4..=5 => assert_eq!(f.remove(k), plain.remove(k), "remove {k:#x}"),
                    _ => {}
                }
                assert_eq!(f.contains(k), plain.contains(k), "contains {k:#x}");
                assert_eq!(f.len(), plain.len);
            };
            for &(op, k) in &ops {
                step(&mut f, &mut plain, op, k);
            }
            prop_assert!(summary_is_exact(&f));
            let mut w = SnapWriter::new();
            f.save(&mut w);
            let bytes = w.into_bytes();
            prop_assert_eq!(&bytes, &plain.snapshot_bytes());
            let mut g = CuckooFilter::restore(&mut SnapReader::new(&bytes)).unwrap();
            prop_assert!(summary_is_exact(&g));
            for &(op, k) in &tail {
                step(&mut g, &mut plain, op, k);
            }
            prop_assert!(summary_is_exact(&g));
            for k in 0..160 {
                prop_assert_eq!(g.contains(key(k)), plain.contains(key(k)));
            }
        }

        /// No false negatives: every inserted (and not removed) key is found,
        /// for arbitrary key sets within design load.
        #[test]
        fn no_false_negatives(keys in proptest::collection::hash_set(any::<u64>(), 1..400)) {
            let mut f = CuckooFilter::with_capacity(1024);
            for &k in &keys {
                prop_assert!(f.insert(k));
            }
            for &k in &keys {
                prop_assert!(f.contains(k), "false negative for {}", k);
            }
        }

        /// Insert/remove sequences keep the no-false-negative property for
        /// surviving keys.
        #[test]
        fn survives_churn(keys in proptest::collection::vec(any::<u64>(), 2..300)) {
            let mut f = CuckooFilter::with_capacity(1024);
            let unique: std::collections::HashSet<u64> = keys.iter().copied().collect();
            for &k in &unique {
                f.insert(k);
            }
            let (dead, alive): (Vec<&u64>, Vec<&u64>) =
                unique.iter().partition(|&&k| k % 2 == 0);
            for &k in &dead {
                f.remove(*k);
            }
            for &k in &alive {
                prop_assert!(f.contains(*k));
            }
        }
    }
}
