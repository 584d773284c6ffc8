//! Mutable graph construction.
//!
//! `GraphBuilder` accumulates undirected edges (duplicates and self-loops are
//! tolerated on input and cleaned at build time) and produces an immutable
//! [`SocialGraph`] in CSR form with a counting-sort layout pass, which keeps
//! the build O(V + E log deg) and allocation-light even for multi-million-edge
//! graphs.

use crate::csr::SocialGraph;
use crate::ids::UserId;

/// Accumulates edges and finalizes into a [`SocialGraph`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(UserId, UserId)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    /// A builder with pre-reserved edge capacity.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes the final graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Grows the node count to at least `n`.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.num_nodes = self.num_nodes.max(n);
    }

    /// Adds the undirected edge `(u, v)`. Self-loops are silently dropped.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: UserId, v: UserId) {
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "edge ({u:?}, {v:?}) out of range for {} nodes",
            self.num_nodes
        );
        if u != v {
            self.edges.push(if u < v { (u, v) } else { (v, u) });
        }
    }

    /// Finalizes into an immutable CSR graph: symmetrizes, sorts and
    /// deduplicates adjacency lists.
    pub fn build(self) -> SocialGraph {
        let mut stream = CsrStream::new(self.num_nodes);
        for &(u, v) in &self.edges {
            stream.count_edge(u.0, v.0);
        }
        stream.seal();
        for &(u, v) in &self.edges {
            stream.fill_edge(u.0, v.0);
        }
        stream.finish()
    }

    /// Builds a graph from an explicit edge list over `n` nodes.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> SocialGraph {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(UserId(u), UserId(v));
        }
        b.build()
    }
}

/// Streaming two-pass CSR construction.
///
/// Callers stream the edge set once through [`CsrStream::count_edge`],
/// [`CsrStream::seal`] the layout, stream the *same* edges again through
/// [`CsrStream::fill_edge`], and [`CsrStream::finish`]. Duplicates and
/// self-loops are tolerated like [`GraphBuilder`], but no intermediate
/// `Vec<(UserId, UserId)>` of the full edge list ever materializes — the
/// peak allocation is the raw adjacency array itself, which is what keeps
/// the 294M-edge Twitter preset buildable. The edge source must be
/// replayable deterministically (a generator re-run, a file re-read); a
/// count/fill mismatch is a loud panic, not silent corruption.
#[derive(Clone, Debug)]
pub struct CsrStream {
    /// Per-node degree counts during the count phase; exclusive prefix
    /// offsets (length `n + 1`) after `seal`.
    offsets: Vec<u64>,
    adjacency: Vec<UserId>,
    cursor: Vec<u64>,
    sealed: bool,
}

impl CsrStream {
    /// A stream for a graph with `n` nodes (ids `0..n`).
    ///
    /// # Panics
    /// Panics if `n` exceeds the `u32` id space — the boundary where a
    /// full-snapshot node count would otherwise wrap.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize + 1,
            "node count {n} overflows the u32 id space"
        );
        CsrStream {
            offsets: vec![0u64; n + 1],
            adjacency: Vec::new(),
            cursor: Vec::new(),
            sealed: false,
        }
    }

    /// Number of nodes the final graph will have.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Count-phase registration of the undirected edge `(u, v)`. Self-loops
    /// are dropped, mirroring [`GraphBuilder::add_edge`].
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or the stream is sealed.
    pub fn count_edge(&mut self, u: u32, v: u32) {
        assert!(!self.sealed, "count_edge after seal");
        let n = self.num_nodes();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} nodes"
        );
        if u != v {
            // Indexing at `i + 1` makes the in-place prefix sum in `seal`
            // produce exclusive offsets directly.
            self.offsets[u as usize + 1] += 1;
            self.offsets[v as usize + 1] += 1;
        }
    }

    /// Ends the count phase: lays out the adjacency array and prepares the
    /// scatter cursors for the fill phase.
    pub fn seal(&mut self) {
        assert!(!self.sealed, "seal called twice");
        let n = self.num_nodes();
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        let total = *self.offsets.last().unwrap();
        let total = usize::try_from(total).expect("adjacency length overflows usize");
        self.adjacency = vec![UserId(0); total];
        self.cursor = self.offsets.clone();
        self.sealed = true;
    }

    /// Fill-phase scatter of the undirected edge `(u, v)`; the fill stream
    /// must replay exactly the edges given to [`CsrStream::count_edge`].
    ///
    /// # Panics
    /// Panics if the stream is not sealed, an endpoint is out of range, or
    /// a node receives more edges than it was counted for.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "slot < offsets[a + 1] (asserted below), an index into `adjacency`"
    )]
    pub fn fill_edge(&mut self, u: u32, v: u32) {
        assert!(self.sealed, "fill_edge before seal");
        if u == v {
            return;
        }
        let n = self.num_nodes();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u}, {v}) out of range for {n} nodes"
        );
        for (a, b) in [(u, v), (v, u)] {
            let slot = self.cursor[a as usize];
            assert!(
                slot < self.offsets[a as usize + 1],
                "fill pass diverged from count pass at node {a}"
            );
            self.adjacency[slot as usize] = UserId(b);
            self.cursor[a as usize] += 1;
        }
    }

    /// Finalizes into an immutable CSR graph: verifies the fill pass matched
    /// the count pass, then sorts, deduplicates and compacts every row.
    ///
    /// # Panics
    /// Panics loudly if any node received fewer edges than counted.
    pub fn finish(mut self) -> SocialGraph {
        assert!(self.sealed, "finish before seal");
        let n = self.num_nodes();
        for u in 0..n {
            assert!(
                self.cursor[u] == self.offsets[u + 1],
                "fill pass diverged from count pass at node {u}: \
                 filled {} of {} slots",
                self.cursor[u] - self.offsets[u],
                self.offsets[u + 1] - self.offsets[u]
            );
        }
        drop(std::mem::take(&mut self.cursor));
        let offsets = compact_rows(&self.offsets, &mut self.adjacency);
        SocialGraph::from_csr(offsets, self.adjacency)
    }
}

/// Sorts, deduplicates and compacts raw scattered adjacency rows in place,
/// returning the final exclusive offsets. Shared by [`GraphBuilder::build`]
/// and [`CsrStream::finish`].
#[expect(
    clippy::cast_possible_truncation,
    reason = "offsets index `adjacency`, a Vec, so each one fits in usize"
)]
fn compact_rows(offsets_raw: &[u64], adjacency: &mut Vec<UserId>) -> Vec<u64> {
    let n = offsets_raw.len() - 1;
    let mut offsets = vec![0u64; n + 1];
    let mut write = 0usize;
    for u in 0..n {
        let lo = offsets_raw[u] as usize;
        let hi = offsets_raw[u + 1] as usize;
        adjacency[lo..hi].sort_unstable();
        let mut last: Option<UserId> = None;
        let mut read = lo;
        let start = write;
        while read < hi {
            let v = adjacency[read];
            if last != Some(v) {
                adjacency[write] = v;
                write += 1;
                last = Some(v);
            }
            read += 1;
        }
        offsets[u] = start as u64;
        offsets[u + 1] = write as u64;
    }
    adjacency.truncate(write);
    adjacency.shrink_to_fit();
    offsets
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // tests are exempt
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(UserId(0), UserId(1));
        b.add_edge(UserId(1), UserId(0)); // duplicate, reversed
        b.add_edge(UserId(2), UserId(2)); // self-loop, dropped
        b.add_edge(UserId(0), UserId(1)); // duplicate
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(UserId(2)), 0);
        assert!(g.check_invariants());
    }

    #[test]
    fn from_edges_convenience() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_edges(), 4);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(UserId(0), UserId(5));
    }

    #[test]
    fn ensure_nodes_grows() {
        let mut b = GraphBuilder::new(1);
        b.ensure_nodes(10);
        b.add_edge(UserId(0), UserId(9));
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert!(g.has_edge(UserId(9), UserId(0)));
    }

    #[test]
    fn large_random_build_is_consistent() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 500;
        let mut b = GraphBuilder::with_capacity(n, 5_000);
        for _ in 0..5_000 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b.add_edge(UserId(u), UserId(v));
            }
        }
        let g = b.build();
        assert!(g.check_invariants());
    }

    /// Deterministic pseudo-random edge list for the streaming tests.
    fn scrambled_edges(n: u32, count: usize) -> impl Iterator<Item = (u32, u32)> + Clone {
        (0..count).map(move |i| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(17);
            ((h % n as u64) as u32, ((h >> 32) % n as u64) as u32)
        })
    }

    #[test]
    fn stream_matches_builder() {
        // Same edges (duplicates, self-loops, both orientations) through
        // both construction paths must give the same CSR.
        let n = 200u32;
        let edges = scrambled_edges(n, 3_000);
        let mut b = GraphBuilder::new(n as usize);
        for (u, v) in edges.clone() {
            if u != v {
                b.add_edge(UserId(u), UserId(v));
            }
        }
        let built = b.build();

        let mut s = CsrStream::new(n as usize);
        for (u, v) in edges.clone() {
            s.count_edge(u, v);
        }
        s.seal();
        for (u, v) in edges {
            s.fill_edge(u, v);
        }
        let streamed = s.finish();

        assert_eq!(built.num_nodes(), streamed.num_nodes());
        assert_eq!(built.num_edges(), streamed.num_edges());
        for u in built.nodes() {
            assert_eq!(built.neighbors(u), streamed.neighbors(u), "row {u:?}");
        }
        assert!(streamed.check_invariants());
    }

    #[test]
    #[should_panic(expected = "diverged from count pass")]
    fn stream_fill_mismatch_is_loud() {
        let mut s = CsrStream::new(4);
        s.count_edge(0, 1);
        s.seal();
        s.fill_edge(0, 1);
        s.fill_edge(2, 3); // never counted
    }

    #[test]
    #[should_panic(expected = "diverged from count pass")]
    fn stream_underfill_is_loud() {
        let mut s = CsrStream::new(4);
        s.count_edge(0, 1);
        s.count_edge(2, 3);
        s.seal();
        s.fill_edge(0, 1);
        let _ = s.finish(); // node 2/3 slots never filled
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stream_out_of_range_panics() {
        let mut s = CsrStream::new(2);
        s.count_edge(0, 5);
    }
}
