//! Barabási–Albert preferential attachment with triadic closure.
//!
//! Each arriving node attaches `m` edges. With probability `closure_p` an
//! attachment copies a random neighbour of the previously chosen target
//! (a triangle-closing step, as in Holme–Kim), otherwise it samples an
//! endpoint proportionally to degree using the standard edge-endpoint trick:
//! a uniformly random endpoint of a uniformly random existing edge is
//! degree-proportional.

use super::Generator;
use crate::builder::GraphBuilder;
use crate::csr::SocialGraph;
use crate::ids::{to_u32, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Barabási–Albert generator (optionally Holme–Kim triangle closure).
#[derive(Clone, Debug)]
pub struct BarabasiAlbert {
    n: usize,
    m: usize,
    closure_p: f64,
}

impl BarabasiAlbert {
    /// Pure preferential attachment: `n` nodes, `m` edges per arrival.
    ///
    /// # Panics
    /// Panics if `m == 0` or `n <= m`.
    pub fn new(n: usize, m: usize) -> Self {
        Self::with_closure(n, m, 0.0)
    }

    /// Preferential attachment with triangle-closing probability `closure_p`.
    pub fn with_closure(n: usize, m: usize, closure_p: f64) -> Self {
        assert!(m > 0, "m must be positive");
        assert!(n > m, "need more nodes than edges per arrival");
        assert!((0.0..=1.0).contains(&closure_p));
        BarabasiAlbert { n, m, closure_p }
    }
}

impl Generator for BarabasiAlbert {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn generate(&self, seed: u64) -> SocialGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, m) = (self.n, self.m);
        // Flat endpoint list: every added edge pushes both endpoints, so a
        // uniform draw from it is degree-proportional. The adjacency lists
        // back the triangle-closing step (uniform neighbour of a node).
        let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
        let mut neigh: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut builder = GraphBuilder::with_capacity(n, n * m);
        let link = |builder: &mut GraphBuilder,
                    endpoints: &mut Vec<u32>,
                    neigh: &mut Vec<Vec<u32>>,
                    a: u32,
                    b: u32| {
            builder.add_edge(UserId(a), UserId(b));
            endpoints.push(a);
            endpoints.push(b);
            neigh[a as usize].push(b);
            neigh[b as usize].push(a);
        };

        // Seed clique over the first m+1 nodes keeps early degrees nonzero.
        let (n32, m32) = (to_u32(n, "node count"), to_u32(m, "attachment degree"));
        for u in 0..=m32 {
            for v in (u + 1)..=m32 {
                link(&mut builder, &mut endpoints, &mut neigh, u, v);
            }
        }

        let mut targets: Vec<u32> = Vec::with_capacity(m);
        for u in (m32 + 1)..n32 {
            targets.clear();
            let mut last_target: Option<u32> = None;
            // After enough consecutive rejections, force degree sampling so
            // closure_p = 1.0 cannot spin on an exhausted neighbourhood.
            let mut rejections = 0u32;
            while targets.len() < m {
                let closing = rejections < 16 && rng.gen_bool(self.closure_p);
                let candidate = if let (Some(t), true) = (last_target, closing) {
                    // Triadic closure: a uniform neighbour of the last chosen
                    // target, closing the triangle u–t–candidate. Every node
                    // that can be a target has degree ≥ 1, so the list is
                    // never empty.
                    let ns = &neigh[t as usize];
                    ns[rng.gen_range(0..ns.len())]
                } else {
                    endpoints[rng.gen_range(0..endpoints.len())]
                };
                if candidate != u && !targets.contains(&candidate) {
                    targets.push(candidate);
                    last_target = Some(candidate);
                    rejections = 0;
                } else {
                    rejections += 1;
                }
            }
            for &t in &targets {
                link(&mut builder, &mut endpoints, &mut neigh, u, t);
            }
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn node_and_edge_counts() {
        let g = BarabasiAlbert::new(500, 4).generate(1);
        assert_eq!(g.num_nodes(), 500);
        // Seed clique C(5,2)=10 edges + (500-5)*4 arrivals (deduped ≤).
        assert!(g.num_edges() > 1_900 && g.num_edges() <= 10 + 495 * 4);
    }

    #[test]
    fn degree_skew_is_heavy_tailed() {
        let g = BarabasiAlbert::new(2_000, 3).generate(7);
        let max_deg = g.nodes().map(|u| g.degree(u)).max().unwrap();
        let avg = metrics::average_degree(&g);
        // Power-law graphs have hubs far above the mean.
        assert!(
            max_deg as f64 > 6.0 * avg,
            "max degree {max_deg} should dwarf average {avg}"
        );
    }

    #[test]
    fn closure_raises_clustering() {
        let plain = BarabasiAlbert::with_closure(1_000, 4, 0.0).generate(3);
        let closed = BarabasiAlbert::with_closure(1_000, 4, 0.8).generate(3);
        let c0 = metrics::average_clustering(&plain, 300, 11);
        let c1 = metrics::average_clustering(&closed, 300, 11);
        assert!(
            c1 > c0,
            "triadic closure should raise clustering ({c1} vs {c0})"
        );
    }

    #[test]
    fn min_degree_is_m() {
        let g = BarabasiAlbert::new(300, 5).generate(2);
        // Every arriving node attaches exactly m distinct edges; the earliest
        // clique nodes also have ≥ m.
        assert!(g.nodes().all(|u| g.degree(u) >= 5));
    }

    #[test]
    #[should_panic(expected = "m must be positive")]
    fn zero_m_panics() {
        BarabasiAlbert::new(10, 0);
    }
}
