//! Deterministic random numbers for workload generation.
//!
//! Every stochastic choice in the workspace (graph generation, address
//! layout randomization, probe injection) flows through [`SimRng`], a
//! self-contained xoshiro256++ generator seeded through SplitMix64.
//! Simulations with the same seed are bit-for-bit reproducible on any
//! platform — the generator has no dependency on external crates or
//! process state, which is what lets the benchmark harness promise
//! byte-identical output regardless of how many worker threads run
//! the sweep.

use serde::{Deserialize, Serialize};

/// A seeded, deterministic random-number generator (xoshiro256++).
///
/// The generator is its own checkpoint: cloning it, or serializing it
/// and reading it back, continues the sequence bit-for-bit. Field order
/// is the checkpoint's key order, pinned by `tests/tests/golden.rs`.
///
/// ```
/// use gvc_engine::SimRng;
///
/// let mut a = SimRng::seeded(7);
/// let mut b = SimRng::seeded(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    // The four xoshiro256++ state words.
    s0: u64,
    s1: u64,
    s2: u64,
    s3: u64,
    /// The seed [`SimRng::fork`] derives child streams from.
    base_seed: u64,
}

/// One SplitMix64 step; used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        // Expand the seed through SplitMix64, as xoshiro's authors
        // recommend, so low-entropy seeds still fill all 256 state
        // bits.
        let mut s = seed;
        SimRng {
            s0: splitmix64(&mut s),
            s1: splitmix64(&mut s),
            s2: splitmix64(&mut s),
            s3: splitmix64(&mut s),
            base_seed: seed,
        }
    }

    /// Derives an independent child generator; children with different
    /// `stream` values produce independent sequences.
    pub fn fork(&self, stream: u64) -> Self {
        // Mix the stream id through SplitMix64 so nearby ids decorrelate.
        let mut z = stream;
        let mixed = splitmix64(&mut z);
        SimRng::seeded(self.base_seed.wrapping_add(mixed))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self
            .s0
            .wrapping_add(self.s3)
            .rotate_left(23)
            .wrapping_add(self.s0);
        let t = self.s1 << 17;
        self.s2 ^= self.s0;
        self.s3 ^= self.s1;
        self.s1 ^= self.s2;
        self.s0 ^= self.s3;
        self.s2 ^= t;
        self.s3 = self.s3.rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Lemire's multiply-shift with rejection: unbiased for every
        // bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = x as u128 * bound as u128;
            if (m as u64) < threshold {
                continue;
            }
            return (m >> 64) as u64;
        }
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the standard [0, 1) dyadic lattice.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from empty slice");
        let i = self.below(items.len() as u64) as usize;
        &items[i]
    }

    /// Fisher–Yates shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seeded(123);
        let mut b = SimRng::seeded(123);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let base = SimRng::seeded(9);
        let mut f1a = base.fork(1);
        let mut f1b = base.fork(1);
        let mut f2 = base.fork(2);
        assert_eq!(f1a.next_u64(), f1b.next_u64());
        assert_ne!(f1a.next_u64(), f2.next_u64());
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut r = SimRng::seeded(5);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seeded(1);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pick_and_chance() {
        let mut r = SimRng::seeded(2);
        let items = [1, 2, 3];
        for _ in 0..100 {
            assert!(items.contains(r.pick(&items)));
        }
        let mut hits = 0;
        for _ in 0..10_000 {
            if r.chance(0.5) {
                hits += 1;
            }
        }
        assert!((4000..6000).contains(&hits));
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = SimRng::seeded(11);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn snapshot_restore_continues_the_sequence() {
        let mut r = SimRng::seeded(99);
        for _ in 0..17 {
            r.next_u64();
        }
        let snap = r.clone();
        let mut restored = snap.clone();
        for _ in 0..64 {
            assert_eq!(r.next_u64(), restored.next_u64());
        }
        // Forks derive from base_seed, which the snapshot preserves.
        assert_eq!(r.fork(5).next_u64(), snap.fork(5).next_u64());
        let mut again = snap.clone();
        again.next_u64();
        assert_ne!(again, snap, "advancing must change the state");
    }

    #[test]
    fn values_look_uniform_across_buckets() {
        let mut r = SimRng::seeded(3);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!(
                (9_000..11_000).contains(&b),
                "bucket count {b} outside 10k ± 1k"
            );
        }
    }
}
