//! Vitis: gossip-based hybrid pub/sub overlay (Rahimian et al., IPDPS'11;
//! paper §IV-C baseline iii).
//!
//! Peers sit on a ring with immutable uniform identifiers and keep a bounded
//! budget of *cluster links* toward peers that share topics with them (a
//! topic here is a user's wall; its subscribers are the user's friends).
//! Link selection is by repeated **uniform peer sampling**: each round every
//! peer samples a few random peers and keeps the candidates sharing the most
//! topics, preferring high social degree — the hub-attraction the paper
//! blames for Vitis's load imbalance. Because discovery is random rather
//! than social-graph-guided, convergence takes many more iterations than
//! SELECT (Fig. 5).
//!
//! Dissemination floods the publisher's cluster over cluster links and falls
//! back to greedy ring routing (relay nodes!) for fragments the bounded
//! budget could not connect.

use crate::api::{aggregate_publication, PubSubSystem, SystemKind};
use osn_graph::{SocialGraph, UserId};
use osn_overlay::{route_greedy, RingId, RouteOutcome, SymphonyOverlay, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use select_core::pubsub::DisseminationReport;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Vitis baseline system.
#[derive(Clone, Debug)]
pub struct VitisPubSub {
    graph: Arc<SocialGraph>,
    /// Structured substrate: ring + harmonic long links (Vitis is a hybrid
    /// of a navigable overlay and unstructured interest clusters; the
    /// structured half carries rendezvous routing between cluster
    /// fragments).
    substrate: SymphonyOverlay,
    seed: u64,
    /// Bounded *outgoing* cluster-link set per peer.
    links: Vec<Vec<u32>>,
    /// Undirected view (outgoing ∪ incoming), materialized after
    /// construction; connections are usable in both directions.
    undirected: Vec<Vec<u32>>,
    online: Vec<bool>,
    iterations: usize,
    budget: usize,
    max_hops: usize,
}

/// Peers sampled per peer per gossip round.
const SAMPLES_PER_ROUND: usize = 3;
/// Construction round cap.
const MAX_ROUNDS: usize = 400;
/// Consecutive no-change rounds to declare convergence.
const STABILITY: usize = 3;

impl VitisPubSub {
    /// Builds the overlay with a cluster-link budget of `k` per peer,
    /// running the gossip construction to quiescence.
    pub fn build(graph: impl Into<Arc<SocialGraph>>, k: usize, seed: u64) -> Self {
        let graph = graph.into();
        let n = graph.num_nodes();
        let substrate = SymphonyOverlay::build(n, k.max(2), seed);
        let mut sys = VitisPubSub {
            graph,
            substrate,
            seed,
            links: vec![Vec::new(); n],
            undirected: vec![Vec::new(); n],
            online: vec![true; n],
            iterations: 0,
            budget: k.max(1),
            max_hops: 512,
        };
        sys.run_construction(seed);
        sys
    }

    /// Number of topics `p` and `q` share: they co-subscribe to user `w`'s
    /// wall iff both are friends of `w` (or one *is* `w` and the other is a
    /// friend). Equivalent to common friends + direct adjacency.
    fn shared_topics(&self, p: u32, q: u32) -> usize {
        let adj = self.graph.has_edge(UserId(p), UserId(q)) as usize;
        self.graph.common_neighbors(UserId(p), UserId(q)) + 2 * adj
    }

    fn run_construction(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1715);
        let n = self.links.len() as u32;
        let mut quiet = 0usize;
        // Outgoing-only swaps strictly improve each peer's candidate scores,
        // so the process quiesces; a small tolerance absorbs stragglers.
        let tolerance = (self.links.len() / 200).max(1);
        for round in 1..=MAX_ROUNDS {
            let mut changed = 0usize;
            for p in 0..n {
                for _ in 0..SAMPLES_PER_ROUND {
                    let q = rng.gen_range(0..n);
                    if q == p || self.links[p as usize].contains(&q) {
                        continue;
                    }
                    if self.shared_topics(p, q) == 0 {
                        continue;
                    }
                    // Hub preference: score candidates by shared topics and
                    // social degree (Vitis "connects peers with high social
                    // degree").
                    let score = |x: u32, other: u32| {
                        (self.shared_topics(x, other), self.graph.degree(UserId(x)))
                    };
                    if self.links[p as usize].len() < self.budget {
                        self.links[p as usize].push(q);
                        changed += 1;
                    } else {
                        // Swap out the weakest current link if q scores higher.
                        let (worst_idx, worst) = self.links[p as usize]
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, &l)| score(l, p))
                            .map(|(i, &l)| (i, l))
                            .unwrap();
                        if score(q, p) > score(worst, p) {
                            self.links[p as usize][worst_idx] = q;
                            changed += 1;
                        }
                    }
                }
            }
            self.iterations = round;
            if changed > tolerance {
                quiet = 0;
            } else {
                quiet += 1;
                if quiet >= STABILITY {
                    break;
                }
            }
        }
        // Materialize the undirected view with a hard connection budget:
        // candidate edges (every outgoing link) are admitted globally in
        // descending shared-topic score while BOTH endpoints stay under
        // 2×budget connections. A real Vitis peer cannot hold unbounded
        // connections — this cap is exactly why dense topics fragment and
        // pay ring relays.
        let cap = 2 * self.budget;
        let mut edges: Vec<(usize, u32, u32)> = Vec::new();
        for p in 0..n {
            for &q in &self.links[p as usize] {
                let (lo, hi) = if p < q { (p, q) } else { (q, p) };
                edges.push((self.shared_topics(lo, hi), lo, hi));
            }
        }
        edges.sort_unstable_by(|a, b| b.cmp(a));
        edges.dedup_by_key(|e| (e.1, e.2));
        for (_, p, q) in edges {
            let (pi, qi) = (p as usize, q as usize);
            if self.undirected[pi].len() < cap
                && self.undirected[qi].len() < cap
                && !self.undirected[pi].contains(&q)
            {
                self.undirected[pi].push(q);
                self.undirected[qi].push(p);
            }
        }
    }

    /// Cluster members of topic `b`: the publisher plus his friends.
    fn cluster_of(&self, b: u32) -> BTreeSet<u32> {
        let mut c: BTreeSet<u32> = self
            .graph
            .neighbors(UserId(b))
            .iter()
            .map(|f| f.0)
            .collect();
        c.insert(b);
        c
    }

    /// BFS paths from `b` over cluster links restricted to online cluster
    /// members.
    fn cluster_paths(&self, b: u32, cluster: &BTreeSet<u32>) -> BTreeMap<u32, Vec<u32>> {
        let mut parent: BTreeMap<u32, u32> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(b);
        parent.insert(b, b);
        // BFS visit order, so path construction iterates deterministically
        // instead of walking `parent` in hash order.
        let mut order: Vec<u32> = vec![b];
        while let Some(u) = queue.pop_front() {
            for &v in &self.undirected[u as usize] {
                if cluster.contains(&v) && self.online[v as usize] && !parent.contains_key(&v) {
                    parent.insert(v, u);
                    order.push(v);
                    queue.push_back(v);
                }
            }
        }
        let mut paths = BTreeMap::new();
        for &v in &order {
            let mut path = vec![v];
            let mut cur = v;
            while cur != b {
                cur = parent[&cur];
                path.push(cur);
            }
            path.reverse();
            paths.insert(v, path);
        }
        paths
    }
}

impl Topology for VitisPubSub {
    fn position(&self, peer: u32) -> Option<RingId> {
        if !self.online[peer as usize] {
            return None;
        }
        self.substrate.position(peer)
    }
    fn links(&self, peer: u32) -> Vec<u32> {
        let mut out = self.substrate.links(peer);
        out.extend(self.undirected[peer as usize].iter().copied());
        out.sort_unstable();
        out.dedup();
        out.retain(|&q| self.online[q as usize]);
        out
    }
}

impl PubSubSystem for VitisPubSub {
    fn kind(&self) -> SystemKind {
        SystemKind::Vitis
    }
    fn social_graph(&self) -> &SocialGraph {
        &self.graph
    }
    fn is_online(&self, p: u32) -> bool {
        self.online[p as usize]
    }
    fn construction_iterations(&self) -> Option<usize> {
        Some(self.iterations)
    }
    fn lookup(&self, from: u32, to: u32) -> RouteOutcome {
        if self.undirected[from as usize].contains(&to) && self.online[to as usize] {
            return RouteOutcome::Delivered {
                path: vec![from, to],
            };
        }
        route_greedy(self, from, to, self.max_hops)
    }
    fn set_offline(&mut self, p: u32) {
        if self.online[p as usize] {
            self.online[p as usize] = false;
            self.substrate.remove_peer(p);
        }
    }
    fn set_online(&mut self, p: u32) {
        if !self.online[p as usize] {
            self.online[p as usize] = true;
            self.substrate.rejoin_peer(p, self.seed);
        }
    }

    fn publish(&self, b: u32) -> DisseminationReport {
        let subs = self.subscribers_of(b);
        let cluster = self.cluster_of(b);
        let flooded = self.cluster_paths(b, &cluster);
        aggregate_publication(b, &subs, |s| match flooded.get(&s) {
            Some(path) => RouteOutcome::Delivered { path: path.clone() },
            // Fragment not reachable over cluster links: rendezvous-style
            // fallback over the ring — this is where Vitis pays relays.
            None => route_greedy(self, b, s, self.max_hops),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::generators::{BarabasiAlbert, Generator};

    fn system(seed: u64) -> VitisPubSub {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(seed);
        VitisPubSub::build(g, 6, seed)
    }

    #[test]
    fn construction_reports_iterations() {
        let s = system(1);
        let iters = s.construction_iterations().unwrap();
        assert!(iters > 3, "random sampling cannot converge instantly");
    }

    #[test]
    fn cluster_links_share_topics() {
        let s = system(2);
        for p in 0..s.len() as u32 {
            for &q in &s.links[p as usize] {
                assert!(s.shared_topics(p, q) > 0, "link {p}-{q} shares no topics");
            }
        }
    }

    #[test]
    fn delivers_to_all_friends() {
        let s = system(3);
        for b in [0u32, 20, 140] {
            let r = s.publish(b);
            assert_eq!(r.delivered, r.subscribers, "failed: {:?}", r.tree.failed);
        }
    }

    #[test]
    fn publish_paths_start_at_publisher() {
        let s = system(4);
        let r = s.publish(5);
        for p in r.tree.paths() {
            assert_eq!(p[0], 5);
        }
    }

    #[test]
    fn undirected_view_is_symmetric_and_bounded() {
        let s = system(5);
        for p in 0..s.len() as u32 {
            assert!(
                s.undirected[p as usize].len() <= 2 * s.budget,
                "peer {p} exceeds the connection cap"
            );
            for &q in &s.undirected[p as usize] {
                assert!(
                    s.undirected[q as usize].contains(&p),
                    "undirected {p}-{q} not symmetric"
                );
            }
        }
    }

    #[test]
    fn churn_round_trip() {
        let mut s = system(6);
        s.set_offline(10);
        assert!(!PubSubSystem::is_online(&s, 10));
        let r = s.publish(0);
        assert!(!r.tree.paths().any(|p| p.contains(&10)));
        s.set_online(10);
        assert!(PubSubSystem::is_online(&s, 10));
    }
}
