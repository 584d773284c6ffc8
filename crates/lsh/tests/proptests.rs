//! Property-based tests for the LSH crate.

use osn_lsh::{BitSampling, Bitmap, LshFamily, LshIndex};
use proptest::prelude::*;

fn arb_bitmap(dim: usize) -> impl Strategy<Value = Bitmap> {
    proptest::collection::vec(any::<bool>(), dim).prop_map(move |bits| {
        Bitmap::from_set_bits(
            dim,
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Buckets are always in range.
    #[test]
    fn buckets_in_range(bm in arb_bitmap(96), buckets in 1usize..12, seed in any::<u64>()) {
        let bs = BitSampling::new(96, buckets, 8, seed);
        prop_assert!(bs.bucket_of(&bm) < buckets);
    }

    /// Equal bitmaps always collide (determinism of the hash).
    #[test]
    fn equal_bitmaps_collide(bm in arb_bitmap(64), seed in any::<u64>()) {
        let bs = BitSampling::new(64, 7, 10, seed);
        prop_assert_eq!(bs.bucket_of(&bm), bs.bucket_of(&bm.clone()));
    }

    /// Hamming distance is a metric on bitmaps.
    #[test]
    fn hamming_metric(a in arb_bitmap(48), b in arb_bitmap(48), c in arb_bitmap(48)) {
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }

    /// Jaccard similarity is symmetric and in [0, 1]; equal sets give 1.
    #[test]
    fn jaccard_properties(a in arb_bitmap(48), b in arb_bitmap(48)) {
        let j = a.jaccard(&b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, b.jaccard(&a));
        prop_assert_eq!(a.jaccard(&a), 1.0);
    }

    /// Index length equals the number of distinct items inserted; buckets
    /// partition them.
    #[test]
    fn index_partitions_items(bitmaps in proptest::collection::vec(arb_bitmap(32), 1..30)) {
        let mut idx = LshIndex::new(BitSampling::new(32, 5, 6, 9));
        for (i, bm) in bitmaps.iter().enumerate() {
            idx.insert(i as u32, bm);
        }
        prop_assert_eq!(idx.len(), bitmaps.len());
        let mut seen = std::collections::BTreeSet::new();
        for (_, members) in idx.non_empty_buckets() {
            for &m in members {
                prop_assert!(seen.insert(m), "item {m} in two buckets");
            }
        }
        prop_assert_eq!(seen.len(), bitmaps.len());
    }

    /// count_ones matches the ones() iterator.
    #[test]
    fn count_matches_iterator(bm in arb_bitmap(80)) {
        prop_assert_eq!(bm.count_ones(), bm.ones().count());
    }
}
