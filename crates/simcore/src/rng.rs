//! Deterministic randomness for simulations.
//!
//! All stochastic choices in a run — workload arrivals, ECMP hashing salt,
//! DRILL/DIBS/Vertigo port sampling — draw from a single [`SimRng`] seeded
//! from the experiment config. Independent *streams* can be forked so that,
//! e.g., changing the workload seed does not perturb switch sampling.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna),
//! seeded through SplitMix64. Having no external dependency keeps the
//! workspace buildable in offline environments, and the stream is part of
//! the determinism contract: identical seeds produce identical simulations
//! across platforms and builds.

/// A seeded random number generator with simulation-oriented helpers.
#[derive(Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step: expands a 64-bit seed into decorrelated state words.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut x = seed;
        let state = [
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
            splitmix64(&mut x),
        ];
        SimRng { state, seed }
    }

    /// The seed this generator (or its root ancestor stream) was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Forks an independent stream identified by `stream`. Streams with
    /// different ids are decorrelated; forking does not advance `self`.
    pub fn fork(&self, stream: u64) -> SimRng {
        // SplitMix64-style mix of (seed, stream) into a fresh seed.
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Uniform `u64` (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → the full double mantissa, exactly uniform on [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() on empty range");
        // Lemire's widening-multiply range reduction (biased by < 2^-64).
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Two *distinct* uniform indices in `[0, n)`; requires `n >= 2`.
    ///
    /// This is the sampling primitive behind every power-of-two-choices
    /// decision in the simulator.
    pub fn two_distinct(&mut self, n: usize) -> (usize, usize) {
        assert!(n >= 2, "two_distinct() needs at least 2 options");
        let a = self.index(n);
        let mut b = self.index(n - 1);
        if b >= a {
            b += 1;
        }
        (a, b)
    }

    /// `k` distinct uniform indices in `[0, n)` (partial Fisher–Yates).
    /// Requires `k <= n`.
    pub fn k_distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.k_distinct_into(k, n, &mut out);
        out
    }

    /// [`SimRng::k_distinct`] into a caller-owned buffer (cleared first),
    /// so per-packet callers allocate nothing once the buffer has grown.
    /// Same branches, same draws in the same order.
    pub fn k_distinct_into(&mut self, k: usize, n: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "k_distinct(k={k}, n={n})");
        out.clear();
        // For small k relative to n, rejection sampling is cheaper than
        // materializing [0, n); for dense draws use Fisher–Yates.
        if k * 4 <= n {
            while out.len() < k {
                let c = self.index(n);
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        } else {
            out.extend(0..n);
            for i in 0..k {
                let j = i + self.index(n - i);
                out.swap(i, j);
            }
            out.truncate(k);
        }
    }

    /// Exponentially distributed sample with the given mean (inverse-CDF
    /// method). Used for Poisson arrival processes.
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - uniform() lies in (0, 1], so ln() is finite.
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

impl crate::snap::Snapshot for SimRng {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        w.put_u64(self.seed);
        for word in self.state {
            w.put_u64(word);
        }
    }

    fn restore(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        let seed = r.get_u64()?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        Ok(SimRng { state, seed })
    }
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimRng(seed={})", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let root = SimRng::new(7);
        let mut f1 = root.fork(1);
        let mut f1b = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = SimRng::new(17);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn two_distinct_never_collides() {
        let mut r = SimRng::new(3);
        for n in 2..10usize {
            for _ in 0..1000 {
                let (a, b) = r.two_distinct(n);
                assert_ne!(a, b);
                assert!(a < n && b < n);
            }
        }
    }

    #[test]
    fn two_distinct_is_roughly_uniform() {
        let mut r = SimRng::new(9);
        let n = 4;
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            let (a, b) = r.two_distinct(n);
            counts[a] += 1;
            counts[b] += 1;
        }
        // Each index should appear in ~ 2*40000/4 = 20000 draws, ±10 %.
        for &c in &counts {
            assert!((18_000..22_000).contains(&c), "skewed counts {counts:?}");
        }
    }

    #[test]
    fn k_distinct_properties() {
        let mut r = SimRng::new(5);
        for &(k, n) in &[(1usize, 10usize), (3, 10), (10, 10), (2, 100)] {
            let xs = r.k_distinct(k, n);
            assert_eq!(xs.len(), k);
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates in {xs:?}");
            assert!(xs.iter().all(|&x| x < n));
        }
    }

    /// The allocating form as it stood before `k_distinct_into` existed:
    /// the oracle for the RNG stream the digests pin.
    fn k_distinct_reference(r: &mut SimRng, k: usize, n: usize) -> Vec<usize> {
        if k * 4 <= n {
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let c = r.index(n);
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            out
        } else {
            let mut pool: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + r.index(n - i);
                pool.swap(i, j);
            }
            pool.truncate(k);
            pool
        }
    }

    #[test]
    fn k_distinct_into_matches_reference_draw_for_draw() {
        let mut a = SimRng::new(0xD157);
        let mut b = SimRng::new(0xD157);
        let mut buf = vec![7; 3]; // stale contents must not leak through
        let shapes = [(0usize, 0usize), (1, 4), (2, 8), (2, 100), (5, 20)]
            .into_iter() // rejection branch: k * 4 <= n
            .chain([(1, 1), (1, 3), (2, 4), (3, 10), (10, 10), (7, 8)]); // Fisher–Yates
        for (k, n) in shapes.cycle().take(400) {
            let want = k_distinct_reference(&mut a, k, n);
            b.k_distinct_into(k, n, &mut buf);
            assert_eq!(buf, want, "k={k} n={n}");
            assert_eq!(b.k_distinct(k, n), k_distinct_reference(&mut a, k, n));
            // Same number of draws consumed: the streams stay in lockstep.
            assert_eq!(a.next_u64(), b.next_u64(), "k={k} n={n}");
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(11);
        let mean = 250.0;
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let emp = sum / n as f64;
        assert!(
            (emp - mean).abs() < mean * 0.05,
            "empirical mean {emp} too far from {mean}"
        );
    }

    #[test]
    fn snapshot_restores_mid_stream_state() {
        use crate::snap::{SnapReader, SnapWriter, Snapshot};
        let mut a = SimRng::new(0xFA17);
        for _ in 0..1000 {
            a.next_u64();
        }
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut b = SimRng::restore(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(b.seed(), a.seed());
        // The restored stream emits the same tail, and forks still match.
        let (mut fa, mut fb) = (a.fork(9), b.fork(9));
        assert_eq!(fa.next_u64(), fb.next_u64());
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(13);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
