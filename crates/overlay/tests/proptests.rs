//! Property-based tests for the overlay substrate.

use osn_overlay::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// cw + ccw distances always sum to the full ring (mod 2^64).
    #[test]
    fn cw_ccw_complement(a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (RingId(a), RingId(b));
        let cw = a.cw_distance(b);
        let ccw = b.cw_distance(a);
        // For distinct points cw + ccw == 2^64 ≡ 0 (mod 2^64).
        if a != b {
            prop_assert_eq!(cw.wrapping_add(ccw), 0);
        } else {
            prop_assert_eq!(cw, 0);
            prop_assert_eq!(ccw, 0);
        }
    }

    /// `offset` is the inverse of `cw_distance`.
    #[test]
    fn offset_round_trip(a in any::<u64>(), d in any::<u64>()) {
        let a = RingId(a);
        let b = a.offset(d);
        prop_assert_eq!(a.cw_distance(b), d);
    }

    /// RingIndex successor/predecessor are inverse traversals covering every
    /// peer exactly once.
    #[test]
    fn ring_traversal_is_a_cycle(positions in proptest::collection::btree_set(any::<u64>(), 2..30)) {
        let mut ring = RingIndex::new(positions.len());
        for (i, &pos) in positions.iter().enumerate() {
            ring.insert(i as u32, RingId(pos));
        }
        let n = positions.len();
        // Walk successors from peer 0: must visit all peers and return.
        let mut seen = std::collections::BTreeSet::new();
        let mut cur = 0u32;
        for _ in 0..n {
            prop_assert!(seen.insert(cur), "revisited {cur} early");
            cur = ring.successor_of_peer(cur).expect("successor exists");
        }
        prop_assert_eq!(cur, 0, "walk must close the cycle");
        prop_assert_eq!(seen.len(), n);
    }

    /// nearest() returns the true arg-min over all joined peers.
    #[test]
    fn nearest_is_argmin(
        positions in proptest::collection::btree_set(any::<u64>(), 1..20),
        query in any::<u64>(),
    ) {
        let mut ring = RingIndex::new(positions.len());
        let pos_vec: Vec<u64> = positions.iter().copied().collect();
        for (i, &pos) in pos_vec.iter().enumerate() {
            ring.insert(i as u32, RingId(pos));
        }
        let q = RingId(query);
        let got = ring.nearest(q).unwrap();
        let got_d = q.distance(RingId(pos_vec[got as usize]));
        for (i, &pos) in pos_vec.iter().enumerate() {
            prop_assert!(
                got_d <= q.distance(RingId(pos)),
                "peer {i} at {pos} closer than chosen {got}"
            );
        }
    }

    /// Symphony lookups always succeed between any online pair.
    #[test]
    fn symphony_lookups_always_deliver(seed in 0u64..100, pair in (0u32..128, 0u32..128)) {
        let o = SymphonyOverlay::build(128, 5, seed);
        let out = route_greedy(&o, pair.0, pair.1, 1024);
        prop_assert!(out.delivered(), "{} -> {} failed", pair.0, pair.1);
    }

    /// Lookahead never produces longer paths than plain greedy.
    #[test]
    fn lookahead_dominates_greedy(seed in 0u64..60, pair in (0u32..96, 0u32..96)) {
        let o = SymphonyOverlay::build(96, 5, seed);
        let plain = route_greedy(&o, pair.0, pair.1, 1024);
        let smart = route_with_lookahead(&o, pair.0, pair.1, 1024);
        if plain.delivered() {
            prop_assert!(smart.delivered());
            prop_assert!(smart.hops() <= plain.hops());
        }
    }

    /// DHT routes always terminate within table depth + 1 hops.
    #[test]
    fn dht_route_depth_bound(seed in 0u64..60, pair in (0u32..200, 0u32..200)) {
        let d = PrefixDht::build(200, seed);
        let path = d.route(pair.0, pair.1).expect("route exists");
        prop_assert!(path.len() <= d.depth() + 2);
        prop_assert_eq!(*path.first().unwrap(), pair.0);
        prop_assert_eq!(*path.last().unwrap(), pair.1);
    }

    /// Rendezvous roots are unanimous: every start point reaches the same
    /// root for the same key.
    #[test]
    fn dht_rendezvous_unanimous(seed in 0u64..40, key in any::<u64>()) {
        let d = PrefixDht::build(64, seed);
        let root = d.root_of(key).unwrap();
        for from in [0u32, 13, 63] {
            let (r, _) = d.route_to_key(from, key).unwrap();
            prop_assert_eq!(r, root);
        }
    }
}
