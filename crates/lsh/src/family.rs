//! The LSH hash family SELECT buckets with: bit-sampling (Hamming).

use crate::bitmap::Bitmap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A locality-sensitive hash family mapping bitmaps to one of `num_buckets`
/// buckets, such that similar bitmaps collide with high probability.
pub trait LshFamily {
    /// Bucket for `bm`, in `0..num_buckets()`.
    fn bucket_of(&self, bm: &Bitmap) -> usize;
    /// Total number of buckets `|H|`.
    fn num_buckets(&self) -> usize;
}

/// Bit-sampling LSH for Hamming distance: the hash concatenates `samples`
/// randomly chosen bit positions and reduces modulo the bucket count.
#[derive(Clone, Debug, Default)]
pub struct BitSampling {
    positions: Vec<usize>,
    num_buckets: usize,
}

impl BitSampling {
    /// Family over `dim`-bit bitmaps with `num_buckets` buckets, sampling
    /// `samples` bit positions (with replacement), seeded deterministically.
    ///
    /// # Panics
    /// Panics if `num_buckets == 0`, or `samples == 0`, or `dim == 0`.
    pub fn new(dim: usize, num_buckets: usize, samples: usize, seed: u64) -> Self {
        let mut family = BitSampling::default();
        family.reseed(dim, num_buckets, samples, seed);
        family
    }

    /// Turns `self` into exactly `BitSampling::new(dim, num_buckets, samples,
    /// seed)`, reusing the position buffer — for callers that build one
    /// family per peer per round.
    ///
    /// # Panics
    /// As [`BitSampling::new`].
    pub fn reseed(&mut self, dim: usize, num_buckets: usize, samples: usize, seed: u64) {
        assert!(num_buckets > 0, "need at least one bucket");
        assert!(samples > 0, "need at least one sampled bit");
        assert!(dim > 0, "dimension must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb17_5a3e);
        self.positions.clear();
        self.positions
            .extend((0..samples).map(|_| rng.gen_range(0..dim)));
        self.num_buckets = num_buckets;
    }

    /// The sampled bit positions.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }
}

impl LshFamily for BitSampling {
    fn bucket_of(&self, bm: &Bitmap) -> usize {
        // Fold sampled bits into a word, then multiply-shift to a bucket.
        let mut acc: u64 = 0;
        for &p in &self.positions {
            acc = (acc << 1) | (p < bm.len() && bm.get(p)) as u64;
            // Keep mixing so >64 samples still contribute.
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) ^ acc;
        }
        (acc % self.num_buckets as u64) as usize
    }

    fn num_buckets(&self) -> usize {
        self.num_buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bitmap(dim: usize, density: f64, rng: &mut StdRng) -> Bitmap {
        Bitmap::from_set_bits(dim, (0..dim).filter(|_| rng.gen_bool(density)))
    }

    #[test]
    fn reseed_equals_new() {
        let mut reused = BitSampling::new(128, 8, 16, 42);
        for (dim, buckets, samples, seed) in [(64, 5, 12, 1), (300, 3, 40, 9), (1, 1, 1, 0)] {
            reused.reseed(dim, buckets, samples, seed);
            let fresh = BitSampling::new(dim, buckets, samples, seed);
            assert_eq!(reused.positions(), fresh.positions());
            assert_eq!(reused.num_buckets(), fresh.num_buckets());
        }
    }

    #[test]
    fn identical_bitmaps_always_collide() {
        let mut rng = StdRng::seed_from_u64(5);
        let bs = BitSampling::new(128, 8, 16, 42);
        for _ in 0..50 {
            let bm = random_bitmap(128, 0.3, &mut rng);
            assert_eq!(bs.bucket_of(&bm), bs.bucket_of(&bm.clone()));
        }
    }

    #[test]
    fn buckets_within_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let bs = BitSampling::new(64, 5, 12, 1);
        for _ in 0..100 {
            let bm = random_bitmap(64, 0.5, &mut rng);
            assert!(bs.bucket_of(&bm) < 5);
        }
    }

    #[test]
    fn similar_collide_more_than_dissimilar() {
        // Statistical property: near-duplicates should collide far more often
        // than random pairs. Averaged over many family draws.
        let mut rng = StdRng::seed_from_u64(3);
        let dim = 256;
        let (mut near_hits, mut far_hits, trials) = (0, 0, 400);
        for t in 0..trials {
            let fam = BitSampling::new(dim, 16, 8, t as u64);
            let a = random_bitmap(dim, 0.3, &mut rng);
            // Near-duplicate: flip 4 bits.
            let mut b = a.clone();
            for _ in 0..4 {
                let i = rng.gen_range(0..dim);
                b.set(i, !b.get(i));
            }
            let c = random_bitmap(dim, 0.3, &mut rng);
            if fam.bucket_of(&a) == fam.bucket_of(&b) {
                near_hits += 1;
            }
            if fam.bucket_of(&a) == fam.bucket_of(&c) {
                far_hits += 1;
            }
        }
        assert!(
            near_hits > far_hits + trials / 10,
            "near {near_hits} should beat far {far_hits} decisively"
        );
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        BitSampling::new(8, 0, 4, 0);
    }
}
