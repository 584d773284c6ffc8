//! OMen: overlay mending for topic-connected pub/sub overlays under churn
//! (Chen, Vitenberg, Jacobsen, DEBS'16; paper §IV-C baseline iv).
//!
//! OMen maintains a *topic-connected overlay* (TCO): for every topic, the
//! subgraph induced by its subscribers should be connected, so dissemination
//! never needs uninterested relays — in the ideal, unbounded-degree case.
//! Construction follows the Greedy-Merge idea (Chockler et al., PODC'07):
//! peers start from a generic small-world DHT ("initially organize the peers
//! following a standard DHT-based overlay network"), then per iteration each
//! still-fragmented topic adds one bridging edge between its components,
//! picking minimum-degree endpoints. Degree caps mean dense topics stay
//! fragmented and hub peers saturate — OMen's load-imbalance and its long
//! convergence in Fig. 5.
//!
//! Each peer also maintains a **shadow set** of backup subscribers per
//! adjacent topic; when a neighbour departs, maintenance promotes a shadow
//! peer to repair the TCO without a full rebuild.

use crate::api::{aggregate_publication, PubSubSystem, SystemKind};
use osn_graph::{SocialGraph, UserId};
use osn_overlay::{route_greedy, RingId, RouteOutcome, SymphonyOverlay, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use select_core::pubsub::DisseminationReport;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// OMen baseline system.
#[derive(Clone, Debug)]
pub struct OMenPubSub {
    graph: Arc<SocialGraph>,
    /// Generic substrate the mending starts from (also the routing fallback).
    dht: SymphonyOverlay,
    /// Mended topic-connectivity edges, bidirectional.
    tco_links: Vec<Vec<u32>>,
    /// Per peer: backup subscribers sharing at least one topic (shadow set).
    shadow: Vec<Vec<u32>>,
    online: Vec<bool>,
    iterations: usize,
    degree_cap: usize,
    seed: u64,
    max_hops: usize,
}

/// Construction iteration cap.
const MAX_ROUNDS: usize = 600;
/// Shadow-set size per peer.
const SHADOW_SIZE: usize = 8;

impl OMenPubSub {
    /// Builds the overlay: Symphony substrate + iterative TCO mending with a
    /// per-peer TCO degree cap of `2k`.
    pub fn build(graph: impl Into<Arc<SocialGraph>>, k: usize, seed: u64) -> Self {
        let graph = graph.into();
        let n = graph.num_nodes();
        let dht = SymphonyOverlay::build(n, k.max(2), seed);
        let mut sys = OMenPubSub {
            dht,
            tco_links: vec![Vec::new(); n],
            shadow: vec![Vec::new(); n],
            online: vec![true; n],
            iterations: 0,
            degree_cap: 2 * k.max(1),
            seed,
            max_hops: 512,
            graph,
        };
        sys.run_construction();
        sys.build_shadow_sets();
        sys
    }

    /// Members of topic `b`: publisher + friends.
    fn topic_members(&self, b: u32) -> Vec<u32> {
        let mut m: Vec<u32> = self
            .graph
            .neighbors(UserId(b))
            .iter()
            .map(|f| f.0)
            .collect();
        m.push(b);
        m
    }

    /// Connected components of `roster` over the current TCO links.
    fn components(&self, roster: &[u32]) -> Vec<Vec<u32>> {
        let set: BTreeSet<u32> = roster.iter().copied().collect();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut comps = Vec::new();
        for &m in roster {
            if seen.contains(&m) {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::new();
            queue.push_back(m);
            seen.insert(m);
            while let Some(u) = queue.pop_front() {
                comp.push(u);
                for &v in &self.tco_links[u as usize] {
                    if set.contains(&v) && seen.insert(v) {
                        queue.push_back(v);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    fn tco_degree(&self, p: u32) -> usize {
        self.tco_links[p as usize].len()
    }

    fn add_tco_edge(&mut self, u: u32, v: u32) {
        self.tco_links[u as usize].push(v);
        self.tco_links[v as usize].push(u);
    }

    /// Greedy-Merge-style mending loop: one bridging edge per fragmented
    /// topic per iteration, minimum-degree endpoints, respecting the cap.
    fn run_construction(&mut self) {
        let n = self.graph.num_nodes() as u32;
        for round in 1..=MAX_ROUNDS {
            let mut added = 0usize;
            for b in 0..n {
                let members = self.topic_members(b);
                if members.len() < 2 {
                    continue;
                }
                let comps = self.components(&members);
                if comps.len() < 2 {
                    continue;
                }
                // Bridge the two components whose min-degree members are the
                // least loaded (GM's logarithmic-average-degree heuristic).
                let mut bridge: Option<(u32, u32)> = None;
                'outer: for i in 0..comps.len() {
                    for j in (i + 1)..comps.len() {
                        let pick = |comp: &[u32]| {
                            comp.iter()
                                .copied()
                                .filter(|&x| self.tco_degree(x) < self.degree_cap)
                                .min_by_key(|&x| self.tco_degree(x))
                        };
                        if let (Some(u), Some(v)) = (pick(&comps[i]), pick(&comps[j])) {
                            bridge = Some((u, v));
                            break 'outer;
                        }
                    }
                }
                if let Some((u, v)) = bridge {
                    self.add_tco_edge(u, v);
                    added += 1;
                }
            }
            self.iterations = round;
            if added == 0 {
                break;
            }
        }
    }

    /// Shadow sets: random co-subscribers kept as repair backups.
    fn build_shadow_sets(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x0bac_0bac);
        let n = self.graph.num_nodes() as u32;
        for p in 0..n {
            // Peers at distance ≤ 2 in the social graph share a topic with p.
            let mut candidates: Vec<u32> = Vec::new();
            for &f in self.graph.neighbors(UserId(p)) {
                candidates.push(f.0);
                for &ff in self.graph.neighbors(f) {
                    if ff.0 != p {
                        candidates.push(ff.0);
                    }
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
            candidates.shuffle(&mut rng);
            candidates.truncate(SHADOW_SIZE);
            self.shadow[p as usize] = candidates;
        }
    }

    /// BFS dissemination paths from `b` over TCO links restricted to online
    /// topic members.
    fn tco_paths(&self, b: u32, members: &BTreeSet<u32>) -> BTreeMap<u32, Vec<u32>> {
        let mut parent: BTreeMap<u32, u32> = BTreeMap::new();
        parent.insert(b, b);
        // BFS visit order, so path construction iterates deterministically
        // instead of walking `parent` in hash order.
        let mut order: Vec<u32> = vec![b];
        let mut queue = VecDeque::new();
        queue.push_back(b);
        while let Some(u) = queue.pop_front() {
            for &v in &self.tco_links[u as usize] {
                if members.contains(&v) && self.online[v as usize] && !parent.contains_key(&v) {
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

impl Topology for OMenPubSub {
    fn position(&self, peer: u32) -> Option<RingId> {
        if !self.online[peer as usize] {
            return None;
        }
        self.dht.position(peer)
    }
    fn links(&self, peer: u32) -> Vec<u32> {
        let mut out = self.dht.links(peer);
        out.extend(self.tco_links[peer as usize].iter().copied());
        out.sort_unstable();
        out.dedup();
        out.retain(|&q| self.online[q as usize]);
        out
    }
}

impl PubSubSystem for OMenPubSub {
    fn kind(&self) -> SystemKind {
        SystemKind::OMen
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
        if self.tco_links[from as usize].contains(&to) && self.online[to as usize] {
            return RouteOutcome::Delivered {
                path: vec![from, to],
            };
        }
        route_greedy(self, from, to, self.max_hops)
    }
    fn set_offline(&mut self, p: u32) {
        self.online[p as usize] = false;
    }
    fn set_online(&mut self, p: u32) {
        self.online[p as usize] = true;
    }

    /// Shadow-set repair: replace TCO links to offline peers with online
    /// shadow candidates (OMen's fast mending).
    fn maintenance_round(&mut self) {
        let n = self.graph.num_nodes() as u32;
        for p in 0..n {
            if !self.online[p as usize] {
                continue;
            }
            let dead: Vec<u32> = self.tco_links[p as usize]
                .iter()
                .copied()
                .filter(|&q| !self.online[q as usize])
                .collect();
            for d in dead {
                self.tco_links[p as usize].retain(|&x| x != d);
                self.tco_links[d as usize].retain(|&x| x != p);
                if let Some(&r) = self.shadow[p as usize].iter().find(|&&r| {
                    self.online[r as usize]
                        && r != p
                        && !self.tco_links[p as usize].contains(&r)
                        && self.tco_links[r as usize].len() < self.degree_cap
                }) {
                    self.add_tco_edge(p, r);
                }
            }
        }
    }

    fn publish(&self, b: u32) -> DisseminationReport {
        let subs = self.subscribers_of(b);
        let mut members: BTreeSet<u32> = subs.iter().copied().collect();
        members.insert(b);
        let flooded = self.tco_paths(b, &members);
        aggregate_publication(b, &subs, |s| match flooded.get(&s) {
            Some(path) => RouteOutcome::Delivered { path: path.clone() },
            // Fragmented topic: fall back to DHT routing (relays).
            None => route_greedy(self, b, s, self.max_hops),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::generators::{BarabasiAlbert, Generator};

    fn system(seed: u64) -> OMenPubSub {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(seed);
        OMenPubSub::build(g, 5, seed)
    }

    #[test]
    fn construction_iterates() {
        let s = system(1);
        assert!(s.construction_iterations().unwrap() > 1);
    }

    #[test]
    fn tco_links_respect_cap_mostly() {
        let s = system(2);
        for p in 0..s.len() as u32 {
            // Each add checks the cap, so degree ≤ cap + 1 (the bridging add
            // can land on a node at cap−1 from both sides in one round).
            assert!(
                s.tco_degree(p) <= s.degree_cap + 1,
                "peer {p} degree {} over cap {}",
                s.tco_degree(p),
                s.degree_cap
            );
        }
    }

    #[test]
    fn delivers_to_all_friends() {
        let s = system(3);
        for b in [0u32, 30, 149] {
            let r = s.publish(b);
            assert_eq!(r.delivered, r.subscribers, "failed: {:?}", r.tree.failed);
        }
    }

    #[test]
    fn shadow_repair_replaces_dead_links() {
        let mut s = system(4);
        // Find a TCO edge and kill one endpoint.
        let (p, q) = (0..s.len() as u32)
            .find_map(|p| s.tco_links[p as usize].first().map(|&q| (p, q)))
            .expect("tco has edges");
        s.set_offline(q);
        s.maintenance_round();
        assert!(
            !s.tco_links[p as usize].contains(&q),
            "dead link must be pruned"
        );
    }

    #[test]
    fn shadow_sets_are_topic_sharing() {
        let s = system(5);
        for p in 0..s.len() as u32 {
            for &r in &s.shadow[p as usize] {
                // r is within distance 2 of p in the social graph.
                let direct = s.graph.has_edge(UserId(p), UserId(r));
                let via = s.graph.common_neighbors(UserId(p), UserId(r)) > 0;
                assert!(direct || via, "shadow {r} of {p} shares no topic");
            }
        }
    }

    #[test]
    fn tco_edges_are_mirrored() {
        let s = system(6);
        for p in 0..s.len() as u32 {
            for &q in &s.tco_links[p as usize] {
                assert!(s.tco_links[q as usize].contains(&p));
            }
        }
    }
}
