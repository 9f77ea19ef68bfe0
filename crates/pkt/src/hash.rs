//! Deterministic hashing for flow placement and stable names.
//!
//! ECMP and the cuckoo filter must hash identically across runs, and spec
//! hashes name files, so this module implements FNV-1a and a 64-bit
//! avalanche mix by hand instead of relying on `std`'s randomized
//! `RandomState`.

/// 64-bit FNV-1a over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// SplitMix64 finalizer: a fast, well-distributed 64-bit avalanche mix.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-seed [`std::hash::Hasher`] that folds every written word
/// through [`mix64`]. For `HashMap`s keyed by the id newtypes on
/// per-packet paths: a few multiplies per lookup instead of SipHash, and
/// the same table layout in every run. Not DoS-resistant — keys here are
/// simulator-assigned ids, not untrusted input.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mix64Hasher(u64);

impl std::hash::Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` for [`Mix64Hasher`]: `HashMap<K, V, Mix64Build>`.
pub type Mix64Build = std::hash::BuildHasherDefault<Mix64Hasher>;

/// Hashes a (flow, salt) pair for ECMP-style path selection. The salt lets
/// each run (or each switch) pick decorrelated hash functions while staying
/// deterministic for a given seed.
#[inline]
pub fn ecmp_hash(flow: u64, salt: u64) -> u64 {
    mix64(flow ^ mix64(salt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference values for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn mix64_is_bijective_on_sample() {
        // Not a proof of bijectivity, but collisions over a decent sample
        // would indicate a broken constant.
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn mix64_hasher_is_fixed_seed_and_order_sensitive() {
        use std::hash::BuildHasher;
        let h = |key: (u64, u64)| Mix64Build::default().hash_one(key);
        assert_eq!(h((1, 2)), h((1, 2)), "no per-instance seed");
        assert_ne!(h((1, 2)), h((2, 1)));
        assert_eq!(h((7, 0)), mix64(mix64(7)), "one mix per written word");
        // A map built on it behaves like any other map.
        let mut m = std::collections::HashMap::with_hasher(Mix64Build::default());
        for k in 0..1000u64 {
            m.insert((k, k * 1460), k as u8);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.remove(&(999, 999 * 1460)), Some(231));
        let b = Mix64Build::default();
        assert_eq!(b.hash_one(5u32), b.hash_one(5u64), "narrow ids widen");
    }

    #[test]
    fn ecmp_hash_depends_on_salt() {
        let a = ecmp_hash(12345, 1);
        let b = ecmp_hash(12345, 2);
        assert_ne!(a, b);
        assert_eq!(ecmp_hash(12345, 1), a, "must be deterministic");
    }

    #[test]
    fn ecmp_hash_spreads_flows() {
        // 4 next-hops, 4000 flows: each bucket should get 1000 ± 15 %.
        let mut buckets = [0u32; 4];
        for f in 0..4000u64 {
            buckets[(ecmp_hash(f, 99) % 4) as usize] += 1;
        }
        for &c in &buckets {
            assert!((850..1150).contains(&c), "skew: {buckets:?}");
        }
    }
}
