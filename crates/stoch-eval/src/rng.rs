//! Reproducible, splittable random-number seeding.
//!
//! Every stochastic component in the workspace takes an explicit `u64` seed
//! so that experiments are exactly reproducible. Child seeds are derived with
//! a SplitMix64 mix so that streams opened at different points (or by
//! different workers) are statistically independent even when the parent
//! seeds are sequential.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One round of the SplitMix64 output function.
///
/// This is the standard finalizer used to decorrelate sequential seeds; it is
/// a bijection on `u64`, so distinct inputs always produce distinct outputs.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a parent seed and a stream index.
///
/// Used when a single experiment seed must fan out into many independent
/// streams (one per vertex, per replicate, per worker, ...).
#[inline]
pub fn child_seed(parent: u64, stream: u64) -> u64 {
    // Mix the stream index in before finalizing so that (parent, 1) and
    // (parent+1, 0) do not collide.
    splitmix64(parent ^ splitmix64(stream.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// Construct a seeded [`StdRng`] from a `u64` seed.
#[inline]
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A counter-based generator for *per-sample* noise draws.
///
/// Location/time-dependent noise (the hostile distributions in
/// [`crate::noise::NoiseDistribution`]) must produce draws that are a pure
/// function of `(stream seed, sample index)` — never of how `extend` calls
/// were batched or which backend worker executed them. A stateful RNG walked
/// across samples would couple the variate sequence to batching; this
/// generator instead derives an independent SplitMix64 stream for every unit
/// sample, so sample `i` sees identical bits whether it was drawn in one
/// `extend(n)` call, `n` calls of `extend(1)`, or on a retry after a worker
/// died (DESIGN.md §14).
///
/// Within one sample the generator is an ordinary sequential SplitMix64, so
/// rejection loops (polar methods) may consume a variable number of words
/// without affecting any other sample.
#[derive(Debug, Clone)]
pub struct PerSampleRng {
    base: u64,
    ctr: u64,
}

impl PerSampleRng {
    /// The generator for unit sample `index` of the stream seeded by `seed`.
    #[inline]
    pub fn new(seed: u64, index: u64) -> Self {
        PerSampleRng {
            base: child_seed(seed, index),
            ctr: 0,
        }
    }

    /// The generator for a sample whose base is `base`
    /// (`child_seed(seed, index)`), positioned at word `ctr` — how a block
    /// draw continues a sample scalar after its lane stage used words
    /// `0..ctr`.
    #[inline]
    pub(crate) fn resume(base: u64, ctr: u64) -> Self {
        PerSampleRng { base, ctr }
    }

    /// Next raw 64-bit word (SplitMix64 sequence rooted at the sample base).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = sample_word(self.base, self.ctr);
        self.ctr += 1;
        z
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        word_to_unit(self.next_u64())
    }

    /// Uniform draw in `[-1, 1)`.
    #[inline]
    pub fn symmetric(&mut self) -> f64 {
        self.uniform() * 2.0 - 1.0
    }

    /// Standard normal variate (Marsaglia polar; the spare is discarded so
    /// every sample's draw count stays self-contained).
    #[inline]
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = self.symmetric();
            let v = self.symmetric();
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Student-t variate with `nu` degrees of freedom (Bailey's polar
    /// method): for an accepted point `(u, v)` with `w = u² + v² ∈ (0, 1)`,
    /// `u · sqrt(ν (w^(−2/ν) − 1) / w)` is exactly t-distributed.
    #[inline]
    pub fn student_t(&mut self, nu: f64) -> f64 {
        loop {
            let u = self.symmetric();
            let v = self.symmetric();
            let w = u * u + v * v;
            if w > 0.0 && w < 1.0 {
                return u * (nu * (w.powf(-2.0 / nu) - 1.0) / w).sqrt();
            }
        }
    }
}

/// Word `k` of the per-sample stream rooted at `base`: what the `k`-th
/// [`PerSampleRng::next_u64`] call returns (counting from 0).
#[inline]
pub(crate) fn sample_word(base: u64, k: u64) -> u64 {
    splitmix64(base.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A raw word as a uniform in `[0, 1)` with 53 bits of precision.
#[inline]
pub(crate) fn word_to_unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A small utility that hands out a sequence of independent child RNGs.
#[derive(Debug, Clone)]
pub struct SeedSequence {
    parent: u64,
    next: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `parent`.
    pub fn new(parent: u64) -> Self {
        Self { parent, next: 0 }
    }

    /// The next child seed.
    pub fn next_seed(&mut self) -> u64 {
        let s = child_seed(self.parent, self.next);
        self.next += 1;
        s
    }

    /// The next child RNG.
    pub fn next_rng(&mut self) -> StdRng {
        rng_from_seed(self.next_seed())
    }

    /// The `(parent, next)` state pair (for checkpoint serialization).
    pub fn state(&self) -> (u64, u64) {
        (self.parent, self.next)
    }

    /// Rebuild a sequence from a state pair obtained via
    /// [`state`](Self::state); the restored sequence hands out exactly the
    /// child seeds the original would have.
    pub fn from_state(parent: u64, next: u64) -> Self {
        Self { parent, next }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn splitmix64_is_injective_on_sample() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn child_seeds_do_not_collide_across_parents() {
        let mut seen = HashSet::new();
        for parent in 0..100u64 {
            for stream in 0..100u64 {
                assert!(seen.insert(child_seed(parent, stream)));
            }
        }
    }

    #[test]
    fn seed_sequence_is_reproducible() {
        let mut a = SeedSequence::new(42);
        let mut b = SeedSequence::new(42);
        for _ in 0..16 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn per_sample_rng_is_pure_in_seed_and_index() {
        let mut a = PerSampleRng::new(42, 7);
        let mut b = PerSampleRng::new(42, 7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct indices give decorrelated words.
        let mut c = PerSampleRng::new(42, 8);
        assert_ne!(PerSampleRng::new(42, 7).next_u64(), c.next_u64());
    }

    #[test]
    fn per_sample_normal_and_t_moments() {
        let n = 100_000u64;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for i in 0..n {
            let z = PerSampleRng::new(1234, i).normal();
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        // Student-t with nu = 10 has variance nu/(nu-2) = 1.25.
        let (mut sum, mut sum2) = (0.0, 0.0);
        for i in 0..n {
            let t = PerSampleRng::new(99, i).student_t(10.0);
            sum += t;
            sum2 += t * t;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "t mean {mean}");
        assert!((var - 1.25).abs() < 0.08, "t var {var}");
    }

    #[test]
    fn seed_sequence_rngs_differ() {
        let mut s = SeedSequence::new(7);
        let x: f64 = s.next_rng().gen();
        let y: f64 = s.next_rng().gen();
        assert_ne!(x, y);
    }
}
