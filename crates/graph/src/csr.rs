//! Immutable compressed-sparse-row social graph.
//!
//! The CSR layout stores all adjacency lists in one contiguous `Vec<UserId>`
//! with an `offsets` array of length `n + 1`. Neighbour lists are sorted,
//! which makes common-neighbour counting (the heart of the paper's social
//! strength, Eq. 2) a linear merge instead of a hash probe per element.

use crate::ids::{to_u32, UserId};
use serde::{Deserialize, Serialize};

/// An immutable, undirected social graph in CSR form.
///
/// Edges are stored symmetrically: if `(u, v)` is an edge, `v` appears in
/// `neighbors(u)` and `u` appears in `neighbors(v)`. Neighbour lists are
/// sorted ascending and deduplicated. Self-loops are rejected at build time.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SocialGraph {
    offsets: Vec<u64>,
    adjacency: Vec<UserId>,
}

impl SocialGraph {
    /// Builds a graph directly from prepared CSR arrays.
    ///
    /// Intended for use by [`crate::builder::GraphBuilder`]; the expensive
    /// invariants (sorted, deduplicated, symmetric, no self-loops) are
    /// debug-asserted, but the cheap structural ones — node ids fitting
    /// `u32`, offsets monotone, the final offset covering the adjacency
    /// array — are checked loudly in release builds too. Those are exactly
    /// the seams where a count near `u32::MAX` would otherwise wrap into a
    /// silently-corrupt graph at full-snapshot scale.
    pub(crate) fn from_csr(offsets: Vec<u64>, adjacency: Vec<UserId>) -> Self {
        assert!(!offsets.is_empty(), "CSR offsets must have n + 1 entries");
        let n = offsets.len() - 1;
        assert!(
            n <= u32::MAX as usize + 1,
            "CSR node count {n} overflows the u32 id space"
        );
        assert!(
            u64::try_from(adjacency.len()).is_ok_and(|len| *offsets.last().unwrap() == len),
            "CSR final offset {} does not cover the adjacency array (len {})",
            offsets.last().unwrap(),
            adjacency.len()
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "CSR offsets must be monotone non-decreasing"
        );
        let g = SocialGraph { offsets, adjacency };
        debug_assert!(g.check_invariants(), "CSR invariants violated");
        g
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        SocialGraph {
            offsets: vec![0; n + 1],
            adjacency: Vec::new(),
        }
    }

    /// Number of nodes (social users).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// The sorted neighbour list of `u`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index `adjacency`, a Vec, so each one fits in usize"
    )]
    #[inline]
    pub fn neighbors(&self, u: UserId) -> &[UserId] {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// Degree of `u`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index `adjacency`, a Vec, so each one fits in usize"
    )]
    #[inline]
    pub fn degree(&self, u: UserId) -> usize {
        (self.offsets[u.index() + 1] - self.offsets[u.index()]) as usize
    }

    /// Whether `(u, v)` is an edge; O(log degree(u)).
    #[inline]
    pub fn has_edge(&self, u: UserId, v: UserId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Total number of directed adjacency entries (`2 × num_edges`).
    ///
    /// Flat per-edge side tables (one slot per directed edge) are sized by
    /// this and indexed via [`SocialGraph::neighbor_slot`].
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.adjacency.len()
    }

    /// First adjacency slot of `u`'s neighbour list in the flat edge space.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "offsets index `adjacency`, a Vec, so each one fits in usize"
    )]
    #[inline]
    pub fn neighbor_base(&self, u: UserId) -> usize {
        self.offsets[u.index()] as usize
    }

    /// Global adjacency slot of the directed edge `(u, v)`, if present;
    /// O(log degree(u)).
    ///
    /// Slots are stable for the graph's lifetime and dense in
    /// `0..num_directed_edges()`, so they index flat per-edge side tables
    /// (CMA estimates, bucket assignments) without hashing.
    #[inline]
    pub fn neighbor_slot(&self, u: UserId, v: UserId) -> Option<usize> {
        let base = self.neighbor_base(u);
        self.neighbors(u).binary_search(&v).ok().map(|i| base + i)
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..to_u32(self.num_nodes(), "node count")).map(UserId)
    }

    /// Iterator over all undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (UserId, UserId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Number of common neighbours of `u` and `v`.
    ///
    /// This is the `|C_p ∩ C_u|` term of the paper's social strength (Eq. 2).
    pub fn common_neighbors(&self, u: UserId, v: UserId) -> usize {
        let mut count = 0;
        self.for_each_common_neighbor(u, v, |_| count += 1);
        count
    }

    /// Calls `f` with every common neighbour of `u` and `v`, in ascending
    /// order, via a sorted-list merge.
    pub fn for_each_common_neighbor(&self, u: UserId, v: UserId, mut f: impl FnMut(UserId)) {
        let (mut a, mut b) = (self.neighbors(u), self.neighbors(v));
        // Merge the shorter list against the longer one.
        if a.len() > b.len() {
            std::mem::swap(&mut a, &mut b);
        }
        // Galloping pays off when the size ratio is extreme (hub vs leaf).
        if b.len() > 32 * a.len().max(1) {
            return a
                .iter()
                .filter(|x| b.binary_search(x).is_ok())
                .for_each(|&x| f(x));
        }
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    f(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Social strength s(p, u) = |C_p ∩ C_u| / |C_p| (paper Eq. 2).
    ///
    /// Returns 0.0 for a degree-zero `p`. The measure is asymmetric by
    /// construction, exactly as in the paper.
    pub fn social_strength(&self, p: UserId, u: UserId) -> f64 {
        let dp = self.degree(p);
        if dp == 0 {
            return 0.0;
        }
        self.common_neighbors(p, u) as f64 / dp as f64
    }

    /// Validates CSR invariants; used by debug assertions and tests.
    pub fn check_invariants(&self) -> bool {
        let n = self.num_nodes();
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return false;
            }
        }
        for u in 0..to_u32(n, "node count") {
            let u = UserId(u);
            let ns = self.neighbors(u);
            for w in ns.windows(2) {
                if w[0] >= w[1] {
                    return false; // unsorted or duplicate
                }
            }
            for &v in ns {
                if v == u || v.index() >= n {
                    return false; // self-loop or out of range
                }
                if !self.has_edge(v, u) {
                    return false; // asymmetric
                }
            }
        }
        true
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // tests are exempt
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle_plus_leaf() -> SocialGraph {
        // 0-1, 1-2, 0-2 triangle; 3 attached to 0.
        let mut b = GraphBuilder::new(4);
        b.add_edge(UserId(0), UserId(1));
        b.add_edge(UserId(1), UserId(2));
        b.add_edge(UserId(0), UserId(2));
        b.add_edge(UserId(0), UserId(3));
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle_plus_leaf();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(UserId(0)), 3);
        assert_eq!(g.degree(UserId(3)), 1);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_leaf();
        assert_eq!(g.neighbors(UserId(0)), &[UserId(1), UserId(2), UserId(3)]);
        assert!(g.has_edge(UserId(3), UserId(0)));
        assert!(!g.has_edge(UserId(3), UserId(1)));
        assert!(g.check_invariants());
    }

    #[test]
    fn common_neighbors_triangle() {
        let g = triangle_plus_leaf();
        // 0 and 1 share neighbour 2.
        assert_eq!(g.common_neighbors(UserId(0), UserId(1)), 1);
        // 0 and 3 share nothing.
        assert_eq!(g.common_neighbors(UserId(0), UserId(3)), 0);
    }

    #[test]
    fn social_strength_eq2() {
        let g = triangle_plus_leaf();
        // s(1, 0) = |{2}| / deg(1)=2 = 0.5
        assert!((g.social_strength(UserId(1), UserId(0)) - 0.5).abs() < 1e-12);
        // Asymmetric: s(0, 1) = 1/3.
        assert!((g.social_strength(UserId(0), UserId(1)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn social_strength_degree_zero() {
        let g = SocialGraph::empty(2);
        assert_eq!(g.social_strength(UserId(0), UserId(1)), 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = SocialGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.neighbors(UserId(4)).is_empty());
        assert!(g.check_invariants());
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = triangle_plus_leaf();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn neighbor_slots_are_dense_and_stable() {
        let g = triangle_plus_leaf();
        assert_eq!(g.num_directed_edges(), 8);
        // Every directed edge maps to a distinct slot in 0..8, in CSR order.
        let mut seen = vec![false; g.num_directed_edges()];
        for u in g.nodes() {
            let base = g.neighbor_base(u);
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let slot = g.neighbor_slot(u, v).expect("edge has a slot");
                assert_eq!(slot, base + i);
                assert!(!seen[slot], "slot reused");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Non-edges have no slot.
        assert_eq!(g.neighbor_slot(UserId(3), UserId(1)), None);
    }

    #[test]
    fn galloping_path_matches_merge() {
        // One hub connected to everyone, plus a small clique; the hub/leaf
        // intersection exercises the galloping branch.
        let n = 600;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(UserId(0), UserId(v));
        }
        for v in 1..6u32 {
            for w in (v + 1)..6 {
                b.add_edge(UserId(v), UserId(w));
            }
        }
        let g = b.build();
        // Common neighbours of hub 0 and node 1 are nodes 2..=5.
        assert_eq!(g.common_neighbors(UserId(0), UserId(1)), 4);
        assert_eq!(g.common_neighbors(UserId(1), UserId(0)), 4);
    }
}
