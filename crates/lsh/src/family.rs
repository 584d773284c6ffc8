//! LSH hash families: bit-sampling (Hamming) and MinHash (Jaccard).

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

/// MinHash LSH for Jaccard similarity: the signature is the minimum of a
/// seeded hash over the set elements; `rows` signatures are combined into a
/// band which is reduced modulo the bucket count.
#[derive(Clone, Debug)]
pub struct MinHash {
    seeds: Vec<u64>,
    num_buckets: usize,
}

impl MinHash {
    /// Family with `rows` min-hash rows and `num_buckets` buckets.
    ///
    /// # Panics
    /// Panics if `num_buckets == 0` or `rows == 0`.
    pub fn new(num_buckets: usize, rows: usize, seed: u64) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        assert!(rows > 0, "need at least one row");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x314_159);
        MinHash {
            seeds: (0..rows).map(|_| rng.gen()).collect(),
            num_buckets,
        }
    }

    fn row_hash(seed: u64, x: u64) -> u64 {
        let mut z = x.wrapping_add(seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl LshFamily for MinHash {
    fn bucket_of(&self, bm: &Bitmap) -> usize {
        let mut band: u64 = 0xcbf2_9ce4_8422_2325;
        for &seed in &self.seeds {
            let sig = bm
                .ones()
                .map(|e| Self::row_hash(seed, e as u64))
                .min()
                .unwrap_or(u64::MAX); // empty set: fixed sentinel signature
            band = (band ^ sig).wrapping_mul(0x100_0000_01b3);
        }
        (band % self.num_buckets as u64) as usize
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
        let mh = MinHash::new(8, 4, 42);
        for _ in 0..50 {
            let bm = random_bitmap(128, 0.3, &mut rng);
            assert_eq!(bs.bucket_of(&bm), bs.bucket_of(&bm.clone()));
            assert_eq!(mh.bucket_of(&bm), mh.bucket_of(&bm.clone()));
        }
    }

    #[test]
    fn buckets_within_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let bs = BitSampling::new(64, 5, 12, 1);
        let mh = MinHash::new(5, 3, 1);
        for _ in 0..100 {
            let bm = random_bitmap(64, 0.5, &mut rng);
            assert!(bs.bucket_of(&bm) < 5);
            assert!(mh.bucket_of(&bm) < 5);
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
    fn minhash_tracks_jaccard() {
        let mut rng = StdRng::seed_from_u64(13);
        let dim = 256;
        let (mut near_hits, mut far_hits, trials) = (0, 0, 400);
        for t in 0..trials {
            let fam = MinHash::new(16, 2, t as u64);
            let a = random_bitmap(dim, 0.3, &mut rng);
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
            near_hits > far_hits,
            "near {near_hits} should beat far {far_hits}"
        );
    }

    #[test]
    fn empty_bitmap_hashes_consistently() {
        let mh = MinHash::new(4, 3, 0);
        let a = Bitmap::zeros(16);
        let b = Bitmap::zeros(16);
        assert_eq!(mh.bucket_of(&a), mh.bucket_of(&b));
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        BitSampling::new(8, 0, 4, 0);
    }
}
