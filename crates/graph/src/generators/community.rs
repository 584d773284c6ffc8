//! Planted-partition community graphs.
//!
//! Nodes are split into `k` equal communities; intra-community pairs connect
//! with probability `p_in`, inter-community pairs with `p_out << p_in`.
//! The resulting block structure is what SELECT's identifier reassignment is
//! supposed to surface on the ring (paper Fig. 8), so this generator is the
//! main stressor for that experiment.

use super::Generator;
use crate::builder::GraphBuilder;
use crate::csr::SocialGraph;
use crate::ids::UserId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Planted-partition stochastic block model with equal-size blocks.
#[derive(Clone, Debug)]
pub struct PlantedPartition {
    n: usize,
    k: usize,
    p_in: f64,
    p_out: f64,
}

impl PlantedPartition {
    /// # Panics
    /// Panics unless `k >= 1`, `k <= n`, and both probabilities are in `[0, 1]`.
    pub fn new(n: usize, k: usize, p_in: f64, p_out: f64) -> Self {
        assert!(k >= 1 && k <= n);
        assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
        PlantedPartition { n, k, p_in, p_out }
    }

    /// The community (block) index of node `u` under this model.
    pub fn community_of(&self, u: UserId) -> usize {
        u.index() * self.k / self.n
    }

    /// Number of planted communities.
    pub fn num_communities(&self) -> usize {
        self.k
    }
}

impl Generator for PlantedPartition {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn generate(&self, seed: u64) -> SocialGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = GraphBuilder::new(self.n);
        // Geometric skipping keeps generation O(E) rather than O(n^2) when
        // probabilities are small.
        let fill = |p: f64, builder: &mut GraphBuilder, rng: &mut StdRng, same: bool| {
            if p <= 0.0 {
                return;
            }
            let n = self.n;
            // Iterate pairs (u, v), u < v, skipping ahead geometrically.
            let mut idx: u64 = 0;
            let total = (n as u64) * (n as u64 - 1) / 2;
            let log1mp = (1.0 - p).ln();
            loop {
                // Draw the gap to the next success.
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "ln r / ln(1 - p) >= 0 for r, 1 - p in (0, 1); a saturated gap ends the loop"
                )]
                let gap = if p >= 1.0 {
                    0
                } else {
                    let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    (r.ln() / log1mp).floor() as u64
                };
                idx = idx.saturating_add(gap);
                if idx >= total {
                    break;
                }
                let (u, v) = pair_from_index(n as u64, idx);
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "pair_from_index returns u, v < n, a usize node count"
                )]
                let (u, v) = (
                    UserId::from_index(u as usize),
                    UserId::from_index(v as usize),
                );
                let same_block = self.community_of(u) == self.community_of(v);
                if same_block == same {
                    builder.add_edge(u, v);
                }
                idx += 1;
            }
        };
        fill(self.p_in, &mut builder, &mut rng, true);
        fill(self.p_out, &mut builder, &mut rng, false);
        builder.build()
    }
}

/// Maps a linear index in `0..n*(n-1)/2` to the pair `(u, v)` with `u < v`,
/// enumerating row by row.
fn pair_from_index(n: u64, idx: u64) -> (u64, u64) {
    // Row u contributes (n - 1 - u) pairs. Solve the triangular prefix.
    let mut u = 0u64;
    let mut remaining = idx;
    loop {
        let row = n - 1 - u;
        if remaining < row {
            return (u, u + 1 + remaining);
        }
        remaining -= row;
        u += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_enumeration_is_exhaustive() {
        let n = 7u64;
        let total = n * (n - 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total {
            let (u, v) = pair_from_index(n, idx);
            assert!(u < v && v < n);
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn intra_density_dominates() {
        let model = PlantedPartition::new(400, 4, 0.2, 0.005);
        let g = model.generate(11);
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v) in g.edges() {
            if model.community_of(u) == model.community_of(v) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(
            intra > 4 * inter,
            "intra {intra} should dominate inter {inter}"
        );
    }

    #[test]
    fn p_zero_gives_empty() {
        let g = PlantedPartition::new(50, 5, 0.0, 0.0).generate(1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn p_one_gives_full_blocks() {
        let model = PlantedPartition::new(20, 4, 1.0, 0.0);
        let g = model.generate(1);
        // Each block of 5 nodes is a clique: 4 * C(5,2) = 40 edges.
        assert_eq!(g.num_edges(), 40);
    }

    #[test]
    fn community_assignment_is_balanced() {
        let model = PlantedPartition::new(100, 4, 0.1, 0.0);
        let mut counts = [0usize; 4];
        for u in 0..100u32 {
            counts[model.community_of(UserId(u))] += 1;
        }
        assert_eq!(counts, [25, 25, 25, 25]);
    }
}
