//! Social strength (paper Eq. 2) and per-peer strongest-friend rankings.
//!
//! `s(p, u) = |C_p ∩ C_u| / |C_p|` — the fraction of `p`'s friends that are
//! also `u`'s friends. The identifier-reassignment step needs, for every
//! peer, the two friends with the highest strength; the social graph never
//! changes under a network, so those rankings are computed once per
//! bootstrap and only their liveness-filtered views move afterwards.

use osn_graph::{SocialGraph, UserId};
use std::ops::Range;

/// Precomputed strongest-friend rankings for every peer, plus delta-maintained
/// liveness-filtered views of the same rankings.
///
/// The static part (`ranked`, `rank_by_slot`) is built once per bootstrap.
/// The live part (`live`) is the same ranking with offline friends removed:
/// filled by [`StrengthIndex::sync_alive`], then updated incrementally on
/// churn events via [`StrengthIndex::set_alive`] — one `O(deg)` splice per
/// affected neighbor instead of a full rescan of every ranked list each round.
#[derive(Clone, Debug)]
pub struct StrengthIndex {
    /// CSR row start of every peer, plus the total: peer `p`'s entries of
    /// `ranked` and `rank_by_slot` are `starts[p]..starts[p + 1]`.
    starts: Vec<usize>,
    /// Per directed edge, CSR-aligned: each peer's friends sorted by
    /// descending `s(p, ·)`, ties broken by ascending friend id.
    ranked: Vec<u32>,
    /// Rank of each directed edge's target within the edge owner's ranking,
    /// indexed by the graph's global CSR neighbor slot. Lets churn updates
    /// find a friend's insertion point by `partition_point` instead of a
    /// strength recomputation.
    rank_by_slot: Vec<u32>,
    /// For each peer: its ranking filtered to currently-alive friends, kept
    /// in ranking order at all times.
    live: Vec<Vec<u32>>,
    /// Current liveness flag per peer (the index's view; callers drive it).
    alive: Vec<bool>,
}

impl StrengthIndex {
    /// Builds the index over the whole graph on the calling thread. Every
    /// peer starts offline; [`StrengthIndex::sync_alive`] fills the live
    /// rankings.
    pub fn build(graph: &SocialGraph) -> Self {
        Self::build_parallel(graph, 1)
    }

    /// [`StrengthIndex::build`] over `threads` contiguous peer ranges of
    /// about equal edge counts. Each range writes its own span of both
    /// per-edge arrays, so the index is the same at every thread count.
    pub fn build_parallel(graph: &SocialGraph, threads: usize) -> Self {
        let n = graph.num_nodes();
        let edges = graph.num_directed_edges();
        let starts: Vec<usize> = (0..n as u32)
            .map(|p| graph.neighbor_base(UserId(p)))
            .chain([edges])
            .collect();
        let mut ranked = vec![0u32; edges];
        let mut rank_by_slot = vec![0u32; edges];
        let threads = threads.clamp(1, n.max(1));
        let cuts: Vec<usize> = (0..threads)
            .map(|t| starts.partition_point(|&s| s < edges * t / threads))
            .chain([n])
            .collect();
        std::thread::scope(|scope| {
            let (mut ranked, mut ranks) = (&mut ranked[..], &mut rank_by_slot[..]);
            for w in cuts.windows(2) {
                let len = starts[w[1]] - starts[w[0]];
                let (r, s);
                (r, ranked) = std::mem::take(&mut ranked).split_at_mut(len);
                (s, ranks) = std::mem::take(&mut ranks).split_at_mut(len);
                scope.spawn(move || rank_peers(graph, w[0] as u32..w[1] as u32, r, s));
            }
        });
        StrengthIndex {
            starts,
            ranked,
            rank_by_slot,
            live: vec![Vec::new(); n],
            alive: vec![false; n],
        }
    }

    /// Friends of `p` in descending strength order.
    pub fn ranked_friends(&self, p: u32) -> &[u32] {
        &self.ranked[self.starts[p as usize]..self.starts[p as usize + 1]]
    }

    /// Alive friends of `p` in descending strength order. Delta-maintained:
    /// exactly `ranked_friends(p)` filtered by the current liveness flags.
    pub fn live_ranked(&self, p: u32) -> &[u32] {
        &self.live[p as usize]
    }

    /// The index's current liveness flag for `p`.
    pub fn is_alive(&self, p: u32) -> bool {
        self.alive[p as usize]
    }

    /// Flips `u`'s liveness and splices `u` into / out of every neighbor's
    /// live ranking. Idempotent; `O(Σ deg(f))` over `u`'s neighbors.
    pub fn set_alive(&mut self, graph: &SocialGraph, u: u32, alive: bool) {
        if self.alive[u as usize] == alive {
            return;
        }
        self.alive[u as usize] = alive;
        for &f in graph.neighbors(UserId(u)) {
            let rank_by_slot = &self.rank_by_slot;
            let live = &mut self.live[f.index()];
            if alive {
                let ru = rank_by_slot[graph
                    .neighbor_slot(f, UserId(u))
                    .expect("undirected edge present both ways")];
                let pos = live.partition_point(|&x| {
                    rank_by_slot[graph
                        .neighbor_slot(f, UserId(x))
                        .expect("live entry must be a graph neighbor")]
                        < ru
                });
                live.insert(pos, u);
            } else if let Some(i) = live.iter().position(|&x| x == u) {
                live.remove(i);
            }
        }
    }

    /// Bulk-resets liveness to `online` and rebuilds every live ranking in
    /// one `O(V + E)` pass. Used at bootstrap, where per-event splicing
    /// would cost `O(Σ deg²)`.
    pub fn sync_alive(&mut self, online: &[bool]) {
        debug_assert_eq!(online.len(), self.alive.len());
        self.alive.copy_from_slice(online);
        for (p, live) in self.live.iter_mut().enumerate() {
            // Room for every friend, so a later splice never reallocates.
            let ranked = &self.ranked[self.starts[p]..self.starts[p + 1]];
            live.clear();
            live.reserve_exact(ranked.len());
            live.extend(ranked.iter().copied().filter(|&f| online[f as usize]));
        }
    }

    /// The strongest friend of `p` satisfying `alive`, if any.
    pub fn strongest(&self, p: u32, alive: impl Fn(u32) -> bool) -> Option<u32> {
        self.ranked_friends(p).iter().copied().find(|&f| alive(f))
    }

    /// The two strongest friends of `p` satisfying `alive`.
    pub fn top2(&self, p: u32, alive: impl Fn(u32) -> bool) -> (Option<u32>, Option<u32>) {
        let mut it = self.ranked_friends(p).iter().copied().filter(|&f| alive(f));
        (it.next(), it.next())
    }
}

/// Ranks the friends of every peer in `peers` into `ranked` and `ranks`,
/// the spans of `ranked` and `rank_by_slot` those peers own. With `p`'s friends
/// marked, `|C_p ∩ C_u|` is the sum of the marks over `u`'s row — no merge,
/// no membership branch. Every key of `p` shares the denominator `|C_p|`,
/// and a correctly rounded `c / d` is strictly increasing in `c` for
/// `c ≤ d < 2⁵²`, so sorting by (count descending, slot ascending) is Eq. 2's
/// order with ties broken by ascending id (a CSR row is sorted).
fn rank_peers(g: &SocialGraph, peers: Range<u32>, ranked: &mut [u32], ranks: &mut [u32]) {
    let mut mark = vec![0u8; g.num_nodes()];
    let mut keys: Vec<u64> = Vec::new();
    let mut at = 0;
    for p in peers {
        let row = g.neighbors(UserId(p));
        for f in row {
            mark[f.index()] = 1;
        }
        keys.clear();
        keys.extend(row.iter().enumerate().map(|(i, &u)| {
            let common: u32 = g.neighbors(u).iter().map(|x| mark[x.index()] as u32).sum();
            u64::from(u32::MAX - common) << 32 | i as u64
        }));
        for f in row {
            mark[f.index()] = 0;
        }
        keys.sort_unstable();
        let (ranked, ranks) = (&mut ranked[at..][..row.len()], &mut ranks[at..]);
        for (rank, &key) in keys.iter().enumerate() {
            let i = key as u32 as usize;
            ranked[rank] = row[i].0;
            ranks[i] = rank as u32;
        }
        at += row.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    /// 0-1-2 triangle, plus 3 connected to 0 and 1 (so s(0,1) is high),
    /// plus leaf 4 on 0.
    fn fixture() -> SocialGraph {
        GraphBuilder::from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (0, 4)])
    }

    #[test]
    fn ranking_matches_eq2() {
        let g = fixture();
        let idx = StrengthIndex::build(&g);
        // Strengths from 0: s(0,1)=|{2,3}|/4=0.5, s(0,2)=|{1}|/4=0.25,
        // s(0,3)=|{1}|/4=0.25, s(0,4)=0.
        let ranked = idx.ranked_friends(0);
        assert_eq!(ranked[0], 1);
        assert_eq!(ranked[1], 2, "tie 2 vs 3 broken by id");
        assert_eq!(ranked[2], 3);
        assert_eq!(ranked[3], 4);
    }

    #[test]
    fn top2_with_liveness_filter() {
        let g = fixture();
        let idx = StrengthIndex::build(&g);
        assert_eq!(idx.top2(0, |_| true), (Some(1), Some(2)));
        // Knock out 1 and 2: next in line are 3, 4.
        assert_eq!(idx.top2(0, |f| f != 1 && f != 2), (Some(3), Some(4)));
        assert_eq!(idx.top2(0, |_| false), (None, None));
    }

    #[test]
    fn strongest_of_isolated_is_none() {
        let g = GraphBuilder::from_edges(3, [(0, 1)]);
        let idx = StrengthIndex::build(&g);
        assert_eq!(idx.strongest(2, |_| true), None);
    }

    #[test]
    fn deterministic_build() {
        let g = fixture();
        let a = StrengthIndex::build(&g);
        let b = StrengthIndex::build(&g);
        for p in 0..5 {
            assert_eq!(a.ranked_friends(p), b.ranked_friends(p));
        }
    }

    #[test]
    fn live_is_filled_by_sync_alive() {
        let g = fixture();
        let mut idx = StrengthIndex::build(&g);
        for p in 0..5 {
            assert!(idx.live_ranked(p).is_empty());
            assert!(!idx.is_alive(p));
        }
        idx.sync_alive(&[true; 5]);
        for p in 0..5 {
            assert_eq!(idx.live_ranked(p), idx.ranked_friends(p));
            assert!(idx.is_alive(p));
        }
    }

    #[test]
    fn set_alive_splices_in_rank_order() {
        let g = fixture();
        let mut idx = StrengthIndex::build(&g);
        idx.sync_alive(&[true; 5]);
        idx.set_alive(&g, 2, false);
        assert_eq!(idx.live_ranked(0), &[1, 3, 4]);
        idx.set_alive(&g, 1, false);
        assert_eq!(idx.live_ranked(0), &[3, 4]);
        // Re-join restores the original position.
        idx.set_alive(&g, 2, true);
        assert_eq!(idx.live_ranked(0), &[2, 3, 4]);
        idx.set_alive(&g, 1, true);
        assert_eq!(idx.live_ranked(0), idx.ranked_friends(0));
        // Idempotent: flipping to the current state is a no-op.
        idx.set_alive(&g, 1, true);
        assert_eq!(idx.live_ranked(0), idx.ranked_friends(0));
    }

    #[test]
    fn sync_alive_matches_filter() {
        let g = fixture();
        let mut idx = StrengthIndex::build(&g);
        let online = [true, false, true, false, true];
        idx.sync_alive(&online);
        for p in 0..5u32 {
            let want: Vec<u32> = idx
                .ranked_friends(p)
                .iter()
                .copied()
                .filter(|&f| online[f as usize])
                .collect();
            assert_eq!(idx.live_ranked(p), &want[..]);
        }
    }

    mod prop {
        use super::*;
        use osn_graph::datasets::Dataset;
        use proptest::prelude::*;

        proptest! {
            /// Delta-spliced live rankings always equal the from-scratch
            /// filter of the full ranking, after any toggle sequence.
            #[test]
            fn live_ranking_equals_filtered_rebuild(
                toggles in proptest::collection::vec((0u32..64, any::<bool>()), 0..40)
            ) {
                let g = Dataset::Slashdot.generate_with_nodes(64, 7);
                let mut idx = StrengthIndex::build(&g);
                idx.sync_alive(&[true; 64]);
                for (u, alive) in toggles {
                    idx.set_alive(&g, u, alive);
                    for p in 0..64u32 {
                        let want: Vec<u32> = idx
                            .ranked_friends(p)
                            .iter()
                            .copied()
                            .filter(|&f| idx.is_alive(f))
                            .collect();
                        prop_assert_eq!(idx.live_ranked(p), &want[..]);
                    }
                }
            }
        }
    }

    /// The marker-count build against the definition it replaced: one `f64`
    /// Eq. 2 key per directed edge (`SocialGraph::social_strength`, a sorted
    /// merge), sorted descending with ties to the lower id.
    mod equivalence {
        use super::*;
        use osn_graph::datasets::Dataset;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        fn ranked_by_merge(g: &SocialGraph, p: u32) -> Vec<u32> {
            let pu = UserId(p);
            let mut friends: Vec<(f64, u32)> = (g.neighbors(pu).iter())
                .map(|&f| (g.social_strength(pu, f), f.0))
                .collect();
            friends.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            friends.into_iter().map(|(_, f)| f).collect()
        }

        /// `ranked_friends`, `rank_by_slot` and (after `sync_alive(online)`)
        /// `live_ranked` of every peer equal the `f64` sort.
        fn assert_matches_merge(g: &SocialGraph, online: &[bool]) {
            let mut idx = StrengthIndex::build(g);
            idx.sync_alive(online);
            for p in 0..g.num_nodes() as u32 {
                let want = ranked_by_merge(g, p);
                assert_eq!(idx.ranked_friends(p), &want[..], "ranking of {p}");
                for (rank, &f) in want.iter().enumerate() {
                    let slot = g.neighbor_slot(UserId(p), UserId(f)).unwrap();
                    assert_eq!(idx.rank_by_slot[slot], rank as u32, "rank of {p} → {f}");
                }
                let live: Vec<u32> = want.into_iter().filter(|&f| online[f as usize]).collect();
                assert_eq!(idx.live_ranked(p), &live[..], "live ranking of {p}");
            }
        }

        /// Hub `m` over leaves `0..m` joined in a seeded cycle: every leaf
        /// shares exactly its two cycle neighbours with the hub, so the
        /// hub's ranking is one m-way tie, broken by id.
        fn hub_with_tied_leaves(m: u32, seed: u64) -> SocialGraph {
            let mut cycle: Vec<u32> = (0..m).collect();
            cycle.shuffle(&mut StdRng::seed_from_u64(seed));
            let spokes = (0..m).map(|l| (m, l));
            let rim = (0..m as usize).map(|i| (cycle[i], cycle[(i + 1) % m as usize]));
            GraphBuilder::from_edges(m as usize + 1, spokes.chain(rim))
        }

        #[test]
        fn hub_ties_break_by_id() {
            let g = hub_with_tied_leaves(40, 3);
            let idx = StrengthIndex::build(&g);
            let leaves: Vec<u32> = (0..40).collect();
            assert_eq!(idx.ranked_friends(40), &leaves[..]);
            assert_matches_merge(&g, &[true; 41]);
        }

        /// One index from 1, 2 and 8 workers, array for array — including
        /// more workers than peers and isolated peers after the last edge.
        #[test]
        fn build_is_the_same_at_any_thread_count() {
            let graphs = [
                Dataset::GooglePlus.generate_with_nodes(400, 5),
                hub_with_tied_leaves(70, 9),
                GraphBuilder::from_edges(12, [(0, 1), (1, 2), (0, 2), (3, 4)]),
                GraphBuilder::from_edges(3, [(0, 1)]),
            ];
            for g in &graphs {
                let one = StrengthIndex::build_parallel(g, 1);
                for threads in [2, 8] {
                    let many = StrengthIndex::build_parallel(g, threads);
                    assert_eq!(one.starts, many.starts);
                    assert_eq!(one.ranked, many.ranked, "ranked at {threads} threads");
                    assert_eq!(
                        one.rank_by_slot, many.rank_by_slot,
                        "ranks at {threads} threads"
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Random graphs with isolated peers, tied hubs and the Slashdot
            /// and Google+ generators at small n, under random liveness.
            #[test]
            fn marker_build_matches_merge_sort(
                kind in 0u8..4,
                seed in 0u64..1000,
                n in 2usize..90,
                edges in proptest::collection::vec((0u32..90, 0u32..90), 0..300),
                online in proptest::collection::vec(any::<bool>(), 120),
            ) {
                let g = match kind {
                    0 => GraphBuilder::from_edges(
                        n,
                        edges.into_iter().filter(|&(u, v)| (u as usize) < n && (v as usize) < n),
                    ),
                    1 => hub_with_tied_leaves(n as u32 + 2, seed),
                    2 => Dataset::Slashdot.generate_with_nodes(n + 20, seed),
                    _ => Dataset::GooglePlus.generate_with_nodes(n + 20, seed),
                };
                assert_matches_merge(&g, &online[..g.num_nodes()]);
            }
        }
    }
}
