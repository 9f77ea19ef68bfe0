//! A cuckoo filter (Fan et al., CoNEXT'14) for dataplane retransmission
//! detection (paper §3.1.2).
//!
//! The marking component hashes each outgoing packet's identity
//! (flow id ⊕ sequence) and looks it up here: a hit means the packet was
//! transmitted before, i.e. it is a retransmission and must be boosted.
//! Cuckoo filters support deletion — required because an entry is removed
//! once the cumulative ACK passes its segment — and offer O(1) lookups with
//! ~95 % load factor, which is why the paper's DPDK prototype uses them.
//!
//! Implementation: 4-way set-associative buckets of 16-bit fingerprints
//! with partial-key cuckoo hashing (`i2 = i1 ^ H(fp)`), a power-of-two
//! bucket count so the XOR trick is an involution, and a bounded eviction
//! walk (500 kicks) driven by a deterministic internal LCG.
//!
//! Storage is sparse: only non-empty buckets exist, in a map keyed by
//! bucket index, and an absent index *is* four empty slots. The filter
//! sizes itself for ~0.84 load at *capacity*; the marking component runs
//! it at a few per cent (entries leave at the cumulative ACK), so a
//! filter costs memory for the packets its host has unacknowledged, not
//! for the 256 KB the default capacity provisions — and a probe of an
//! empty bucket is a miss in a small map instead of a read of a cold table
//! line. The price is at the other end: a filter that does fill pays a hash
//! probe per bucket access and, saturated, holds about three times the
//! flat array (DESIGN.md §5j has both sides measured).

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use vertigo_pkt::{mix64, Mix64Build};

/// Slots per bucket.
const BUCKET_SLOTS: usize = 4;
/// Maximum cuckoo-eviction chain length before declaring the filter full.
const MAX_KICKS: usize = 500;
/// Occupancy (percent) beyond which inserts stop attempting eviction
/// walks. Past this point a walk almost always fails after `MAX_KICKS`
/// swaps, so bailing out keeps the insert O(1) when the filter saturates
/// (the caller treats a failed insert as "not tracked").
const FULL_PCT: usize = 94;

/// Four fingerprints; 0 = empty slot.
type Bucket = [u16; BUCKET_SLOTS];

/// Gives back the room a map keeps past its contents: once its capacity
/// exceeds four times what it holds, it shrinks to twice that. A shrink
/// rehashes only what is left, and the gap between the two factors makes
/// that amortized O(1) per removal. Nothing but the heap moves, as long as
/// the map is read by key only and saved sorted.
pub(crate) fn shrink_if_sparse<K: Eq + Hash, V>(map: &mut HashMap<K, V, Mix64Build>) {
    if map.capacity() > 4 * map.len() {
        map.shrink_to(2 * map.len());
    }
}

/// Overwrites the first slot holding `from` with `to`, if there is one:
/// `(0, fp)` files a fingerprint in the first empty slot, `(fp, 0)`
/// clears one copy of it.
#[inline]
fn replace_first(bucket: &mut Bucket, from: u16, to: u16) -> bool {
    bucket
        .iter_mut()
        .find(|slot| **slot == from)
        .map(|slot| *slot = to)
        .is_some()
}

/// A set-membership filter with deletion support and a small, bounded
/// false-positive rate (~2⁻¹³ at 16-bit fingerprints and 4-way buckets).
#[derive(Clone)]
pub struct CuckooFilter {
    /// The non-empty buckets by index. A bucket whose last fingerprint
    /// goes is removed, so no stored bucket is all zeros.
    buckets: HashMap<u32, Bucket, Mix64Build>,
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
        assert!(
            nbuckets - 1 <= u32::MAX as usize,
            "cuckoo filter of {nbuckets} buckets exceeds 32-bit bucket indices"
        );
        CuckooFilter {
            buckets: HashMap::default(),
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
        (self.bucket_mask + 1) * BUCKET_SLOTS
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

    fn bucket_insert(&mut self, idx: usize, fp: u16) -> bool {
        match self.buckets.entry(idx as u32) {
            Entry::Occupied(mut e) => replace_first(e.get_mut(), 0, fp),
            Entry::Vacant(e) => {
                e.insert([fp, 0, 0, 0]);
                true
            }
        }
    }

    #[inline]
    fn bucket_contains(&self, idx: usize, fp: u16) -> bool {
        self.buckets
            .get(&(idx as u32))
            .is_some_and(|b| b.contains(&fp))
    }

    fn bucket_remove(&mut self, idx: usize, fp: u16) -> bool {
        // Not `entry`: a vacant `entry` reserves room for an insert, which
        // would let removals from absent buckets grow the map.
        let Some(bucket) = self.buckets.get_mut(&(idx as u32)) else {
            return false;
        };
        let taken = replace_first(bucket, fp, 0);
        if *bucket == [0; BUCKET_SLOTS] {
            self.buckets.remove(&(idx as u32));
        }
        taken
    }

    /// A bucket that a failed [`Self::bucket_insert`] has just found full.
    fn full_bucket(&mut self, idx: usize) -> &mut Bucket {
        self.buckets
            .get_mut(&(idx as u32))
            .expect("a full bucket is stored")
    }

    /// Bytes of heap the table holds now: an estimate of the map's
    /// allocation (one control byte per slot, eight slots per seven of
    /// `capacity()`).
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * 8 / 7 * (std::mem::size_of::<(u32, Bucket)>() + 1)
    }

    /// Gives back table room the stored buckets no longer need
    /// ([`shrink_if_sparse`]); answers, eviction victims and snapshot
    /// bytes stay as they were.
    pub(crate) fn release_spare(&mut self) {
        shrink_if_sparse(&mut self.buckets);
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
        // bucket the walk swaps in is full.
        let mut idx = if self.next_rand() & 1 == 0 { i1 } else { i2 };
        for _ in 0..MAX_KICKS {
            let victim_slot = (self.next_rand() as usize) % BUCKET_SLOTS;
            std::mem::swap(&mut fp, &mut self.full_bucket(idx)[victim_slot]);
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
        let bucket = self.full_bucket(idx);
        let slot = bucket.iter().position(|&s| s == 0).unwrap_or(0);
        let displaced = bucket[slot];
        bucket[slot] = fp;
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

/// Bytes of one `(index, bucket)` record in a snapshot.
const RECORD_BYTES: usize = 4 + 2 * BUCKET_SLOTS;

/// Serializes the non-empty buckets as `(index, 4 × u16)` records in
/// ascending index order (never map iteration order, so the bytes are a
/// function of the contents), the fingerprint count, and the
/// eviction-victim LCG state — the LCG **must** round-trip or post-restore
/// eviction walks would pick different victims than the straight-through
/// run and break determinism.
impl vertigo_simcore::Snapshot for CuckooFilter {
    fn save(&self, w: &mut vertigo_simcore::SnapWriter) {
        let mut occupied: Vec<_> = self.buckets.iter().map(|(&i, &b)| (i, b)).collect();
        occupied.sort_unstable_by_key(|&(i, _)| i);
        w.put_usize(self.bucket_mask + 1);
        w.put_usize(occupied.len());
        for (idx, bucket) in occupied {
            w.put_u32(idx);
            for fp in bucket {
                w.put_u16(fp);
            }
        }
        w.put_usize(self.len);
        w.put_u64(self.lcg);
    }

    fn restore(
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<Self, vertigo_simcore::SnapError> {
        use vertigo_simcore::{SnapError, SnapReader};
        let nbuckets = r.get_usize()?;
        if !nbuckets.is_power_of_two() || nbuckets - 1 > u32::MAX as usize {
            return Err(SnapError::new(format!(
                "cuckoo filter bucket count {nbuckets} is not a power of two within 32 bits"
            )));
        }
        // Ascending indices below `nbuckets` are at most `nbuckets` buckets.
        let mut buckets = HashMap::with_hasher(Mix64Build::default());
        let mut stored = 0;
        r.ascending(
            RECORD_BYTES,
            "cuckoo bucket",
            SnapReader::get_u32,
            |r, idx| {
                if idx as usize >= nbuckets {
                    return Err(SnapError::new(format!(
                        "cuckoo snapshot bucket index {idx} is beyond {nbuckets} buckets"
                    )));
                }
                let mut bucket = [0u16; BUCKET_SLOTS];
                for slot in bucket.iter_mut() {
                    *slot = r.get_u16()?;
                }
                let used = bucket.iter().filter(|&&fp| fp != 0).count();
                if used == 0 {
                    return Err(SnapError::new(format!(
                        "cuckoo snapshot stores empty bucket {idx}"
                    )));
                }
                stored += used;
                buckets.insert(idx, bucket);
                Ok(())
            },
        )?;
        let len = r.get_usize()?;
        if len != stored {
            return Err(SnapError::new(format!(
                "cuckoo snapshot claims {len} fingerprints but stores {stored}"
            )));
        }
        let lcg = r.get_u64()?;
        Ok(CuckooFilter {
            buckets,
            bucket_mask: nbuckets - 1,
            len,
            lcg,
        })
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

/// The reference implementation the sparse filter is tested against.
#[cfg(test)]
mod model {
    use vertigo_pkt::mix64;

    const BUCKET_SLOTS: usize = 4;
    const MAX_KICKS: usize = 500;
    const FULL_PCT: usize = 94;

    /// The filter as it was while every bucket lived in one flat `Vec`:
    /// same hashes, same slot order, same kick walk, every probe reads the
    /// table. Its own copy of all of it, so that a change to the shipped
    /// filter cannot move the oracle along.
    pub struct FlatCuckoo {
        buckets: Vec<[u16; BUCKET_SLOTS]>,
        bucket_mask: usize,
        len: usize,
        lcg: u64,
    }

    impl FlatCuckoo {
        pub fn with_capacity(capacity: usize) -> Self {
            let want_buckets = (capacity.max(1)).div_ceil(BUCKET_SLOTS);
            let padded = ((want_buckets as f64) / 0.84).ceil() as usize;
            let nbuckets = padded.next_power_of_two().max(2);
            FlatCuckoo {
                buckets: vec![[0; BUCKET_SLOTS]; nbuckets],
                bucket_mask: nbuckets - 1,
                len: 0,
                lcg: 0x1234_5678_9ABC_DEF1,
            }
        }

        pub fn len(&self) -> usize {
            self.len
        }

        pub fn capacity(&self) -> usize {
            self.buckets.len() * BUCKET_SLOTS
        }

        fn fingerprint(key: u64) -> u16 {
            let fp = (mix64(key ^ 0xF100_0D1E) & 0xFFFF) as u16;
            if fp == 0 {
                1
            } else {
                fp
            }
        }

        fn index1(&self, key: u64) -> usize {
            (mix64(key) as usize) & self.bucket_mask
        }

        fn alt_index(&self, index: usize, fp: u16) -> usize {
            index ^ ((mix64(fp as u64) as usize) & self.bucket_mask)
        }

        /// Both candidate buckets of `key`.
        pub fn indices(&self, key: u64) -> (usize, usize) {
            let i1 = self.index1(key);
            (i1, self.alt_index(i1, Self::fingerprint(key)))
        }

        fn bucket_insert(&mut self, idx: usize, fp: u16) -> bool {
            for slot in self.buckets[idx].iter_mut() {
                if *slot == 0 {
                    *slot = fp;
                    return true;
                }
            }
            false
        }

        fn bucket_remove(&mut self, idx: usize, fp: u16) -> bool {
            for slot in self.buckets[idx].iter_mut() {
                if *slot == fp {
                    *slot = 0;
                    return true;
                }
            }
            false
        }

        fn next_rand(&mut self) -> u64 {
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.lcg >> 33
        }

        pub fn insert(&mut self, key: u64) -> bool {
            let mut fp = Self::fingerprint(key);
            let i1 = self.index1(key);
            let i2 = self.alt_index(i1, fp);
            if self.bucket_insert(i1, fp) || self.bucket_insert(i2, fp) {
                self.len += 1;
                return true;
            }
            if self.len * 100 >= self.capacity() * FULL_PCT {
                return false;
            }
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
            let slot = self.buckets[idx].iter().position(|&s| s == 0).unwrap_or(0);
            let displaced = self.buckets[idx][slot];
            self.buckets[idx][slot] = fp;
            if displaced == 0 {
                self.len += 1;
                true
            } else {
                false
            }
        }

        pub fn contains(&self, key: u64) -> bool {
            let fp = Self::fingerprint(key);
            let i1 = self.index1(key);
            if self.buckets[i1].contains(&fp) {
                return true;
            }
            let i2 = self.alt_index(i1, fp);
            self.buckets[i2].contains(&fp)
        }

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

        /// Buckets holding at least one fingerprint.
        pub fn occupied_buckets(&self) -> usize {
            self.buckets
                .iter()
                .filter(|b| **b != [0; BUCKET_SLOTS])
                .count()
        }

        /// What `CuckooFilter::save` must write for this table, from a
        /// scan of the flat array.
        pub fn snapshot_bytes(&self) -> Vec<u8> {
            let mut w = vertigo_simcore::SnapWriter::new();
            w.put_usize(self.buckets.len());
            w.put_usize(self.occupied_buckets());
            for (idx, bucket) in self.buckets.iter().enumerate() {
                if *bucket != [0; BUCKET_SLOTS] {
                    w.put_u32(idx as u32);
                    for &fp in bucket {
                        w.put_u16(fp);
                    }
                }
            }
            w.put_usize(self.len);
            w.put_u64(self.lcg);
            w.into_bytes()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::FlatCuckoo;
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

    fn saved(f: &CuckooFilter) -> Vec<u8> {
        use vertigo_simcore::{SnapWriter, Snapshot};
        let mut w = SnapWriter::new();
        f.save(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> Result<CuckooFilter, vertigo_simcore::SnapError> {
        use vertigo_simcore::{SnapReader, Snapshot};
        CuckooFilter::restore(&mut SnapReader::new(bytes))
    }

    /// The first `n` keys (counting up from 0) whose two candidate buckets
    /// both fall below `below`.
    fn clustered_keys(model: &FlatCuckoo, below: usize, n: usize) -> Vec<u64> {
        (0u64..)
            .map(|k| mix64(k ^ 0xC0FFEE))
            .filter(|&k| {
                let (i1, i2) = model.indices(k);
                i1 < below && i2 < below
            })
            .take(n)
            .collect()
    }

    #[test]
    fn heap_follows_contents_and_removes_never_grow_it() {
        let mut f = CuckooFilter::with_capacity(65_536);
        assert_eq!(f.heap_bytes(), 0);
        assert!(!f.remove(42));
        assert_eq!(f.heap_bytes(), 0, "a remove from an empty table allocated");
        // Fill the map to exactly its capacity: the state in which making
        // room for one more entry would double it.
        let mut keys = 0u64;
        while f.buckets.len() < 100 || f.buckets.len() < f.buckets.capacity() {
            assert!(f.insert(keys));
            keys += 1;
        }
        let held = f.heap_bytes();
        assert!(held < 8 << 10, "{held} bytes for {keys} keys");
        for absent in 1_000_000..1_001_000u64 {
            f.remove(absent);
        }
        assert_eq!(
            f.heap_bytes(),
            held,
            "removes of absent keys grew the table"
        );
        for k in 0..keys {
            assert!(f.remove(k));
            assert!(f.heap_bytes() <= held);
        }
        assert!(f.is_empty() && f.buckets.is_empty());
        // Removes alone keep the peak's allocation; a release frees it.
        f.release_spare();
        assert_eq!(f.heap_bytes(), 0);
        // Part-full, a release keeps at most four times what is held, and
        // a second one finds nothing to give back.
        for k in 0..keys {
            assert!(f.insert(k));
        }
        for k in keys / 8..keys {
            assert!(f.remove(k));
        }
        f.release_spare();
        let part = f.heap_bytes();
        assert!(part <= held / 2, "{part} of {held} bytes kept");
        assert!(f.buckets.capacity() <= 4 * f.buckets.len());
        f.release_spare();
        assert_eq!(f.heap_bytes(), part);
        for k in 0..keys / 8 {
            assert!(f.contains(k), "lost key {k} in the release");
        }
    }

    /// A snapshot body: `nbuckets`, the records, then `len` and the LCG.
    fn snapshot_of(nbuckets: u64, claimed: u64, records: &[(u32, [u16; 4])], len: u64) -> Vec<u8> {
        let mut w = vertigo_simcore::SnapWriter::new();
        w.put_u64(nbuckets);
        w.put_u64(claimed);
        for (idx, bucket) in records {
            w.put_u32(*idx);
            for &fp in bucket {
                w.put_u16(fp);
            }
        }
        w.put_u64(len);
        w.put_u64(7);
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_hostile_records() {
        let a = [5, 0, 0, 0];
        let ok = snapshot_of(8, 2, &[(1, a), (6, a)], 2);
        assert_eq!(restored(&ok).unwrap().len(), 2);
        for (what, bytes) in [
            (
                "count > nbuckets",
                snapshot_of(2, 3, &[(0, a), (1, a), (1, a)], 3),
            ),
            ("descending index", snapshot_of(8, 2, &[(6, a), (1, a)], 2)),
            ("repeated index", snapshot_of(8, 2, &[(1, a), (1, a)], 2)),
            ("index >= nbuckets", snapshot_of(8, 2, &[(1, a), (8, a)], 2)),
            ("empty bucket stored", snapshot_of(8, 1, &[(1, [0; 4])], 0)),
            ("len disagrees", snapshot_of(8, 2, &[(1, a), (6, a)], 3)),
            ("nbuckets beyond 32 bits", snapshot_of(1 << 33, 0, &[], 0)),
            // A count no input of this size could back: refused before
            // anything is sized by it.
            (
                "count beyond the input",
                snapshot_of(1 << 32, 1 << 31, &[(1, a)], 1),
            ),
        ] {
            assert!(restored(&bytes).is_err(), "accepted: {what}");
        }
        // Truncated anywhere — inside a record, before `len`, before the LCG.
        for cut in 0..ok.len() {
            assert!(
                restored(&ok[..cut]).is_err(),
                "accepted {cut} of {} bytes",
                ok.len()
            );
        }
    }

    proptest! {
        /// The shipped filter against the flat model over random
        /// insert / contains / remove streams on a 256-slot table.
        ///
        /// `ops` draws from 80 keys whose candidate buckets are all among
        /// the first 8, so those 32 slots overflow while the rest of the
        /// table is absent: eviction walks (and the LCG) run, fail after
        /// `MAX_KICKS` and re-seat, and removes empty buckets that later
        /// inserts bring back. `tail` adds 400 keys spread over all 64
        /// buckets, which fills the table to the `FULL_PCT` bail-out.
        /// A seventh op releases spare room, which the model cannot see.
        /// Identical answers and `len`
        /// throughout; identical snapshot bytes before and after a
        /// save → restore between the two phases and at the end.
        #[test]
        fn indistinguishable_from_the_flat_table(
            ops in proptest::collection::vec((0u8..8, 0usize..80), 1..600),
            tail in proptest::collection::vec((0u8..8, 0usize..480), 1..900),
        ) {
            let mut f = CuckooFilter::with_capacity(200);
            let mut model = FlatCuckoo::with_capacity(200);
            prop_assert_eq!(f.capacity(), 256);
            let mut keys = clustered_keys(&model, 8, 80);
            keys.extend((0..400u64).map(|k| mix64(k ^ 0xBEEF)));
            let step = |f: &mut CuckooFilter, model: &mut FlatCuckoo, op: u8, k: usize| {
                let k = keys[k];
                match op {
                    0..=3 => assert_eq!(f.insert(k), model.insert(k), "insert {k:#x}"),
                    4..=5 => assert_eq!(f.remove(k), model.remove(k), "remove {k:#x}"),
                    // The flat table has no room to give back.
                    6 => f.release_spare(),
                    _ => {}
                }
                assert_eq!(f.contains(k), model.contains(k), "contains {k:#x}");
                assert_eq!(f.len(), model.len());
            };
            for &(op, k) in &ops {
                step(&mut f, &mut model, op, k);
            }
            let bytes = saved(&f);
            prop_assert_eq!(&bytes, &model.snapshot_bytes());
            let mut g = restored(&bytes).unwrap();
            for &(op, k) in &tail {
                step(&mut g, &mut model, op, k);
            }
            let bytes = saved(&g);
            prop_assert_eq!(&bytes, &model.snapshot_bytes());
            let h = restored(&bytes).unwrap();
            prop_assert_eq!(saved(&h), bytes);
            for &k in &keys {
                prop_assert_eq!(h.contains(k), model.contains(k));
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
