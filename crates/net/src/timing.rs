//! Virtual-time dissemination timing over a routing tree.
//!
//! Store-and-forward model: a peer starts uploading a payload only after it
//! has fully received it; its uploads to its tree children are serialized
//! (one NIC), each costing `payload / bandwidth`, and each link adds its own
//! propagation latency. These are exactly the effects the paper isolates:
//! the star experiment shows the serialization law; Fig. 7 shows how tree
//! shape (SELECT) vs. hub fan-out (random) changes total dissemination time.

use osn_sim::latency::{transfer_time, LinkModel, PAYLOAD_BYTES};
use osn_sim::BandwidthModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use select_core::pubsub::RoutingTree;
use std::collections::HashMap;

/// Per-subscriber arrival times of one dissemination.
#[derive(Clone, Debug, Default)]
pub struct DisseminationTiming {
    /// Arrival time (virtual ms) per reached peer (publisher at 0).
    pub arrival: HashMap<u32, f64>,
    /// The paper's dissemination latency `l(b, S_b) = max_s l(b, s)`.
    pub max_latency: f64,
    /// Mean arrival time over reached subscribers.
    pub mean_latency: f64,
}

/// Deterministic transfer-time simulator.
#[derive(Clone, Debug)]
pub struct TransferSim {
    bandwidth: Vec<f64>,
    links: LinkModel,
    seed: u64,
    /// Payload size in bytes (defaults to the paper's 1.2 MB).
    pub payload: u64,
}

impl TransferSim {
    /// Samples per-peer bandwidths for `n` peers from the default model.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e1e_c000);
        TransferSim {
            bandwidth: BandwidthModel::default().sample_all(&mut rng, n),
            links: LinkModel::default(),
            seed,
            payload: PAYLOAD_BYTES,
        }
    }

    /// Uses explicit bandwidths (e.g. the ones a `SelectNetwork` sampled).
    pub fn with_bandwidths(bandwidth: Vec<f64>, seed: u64) -> Self {
        TransferSim {
            bandwidth,
            links: LinkModel::default(),
            seed,
            payload: PAYLOAD_BYTES,
        }
    }

    /// Upload bandwidth of `p`.
    pub fn bandwidth_of(&self, p: u32) -> f64 {
        self.bandwidth[p as usize]
    }

    /// Simulates store-and-forward dissemination over `tree`.
    ///
    /// Children of each node are served in ascending-id order; child `i`
    /// (0-based) receives after `(i+1)` serialized uploads plus link latency.
    pub fn simulate(&self, tree: &RoutingTree) -> DisseminationTiming {
        // Build children lists from the deduplicated tree edges.
        let mut children: HashMap<u32, Vec<u32>> = HashMap::new();
        for (u, v) in tree.edges() {
            children.entry(u).or_default().push(v);
        }
        for c in children.values_mut() {
            c.sort_unstable();
        }

        let mut timing = DisseminationTiming::default();
        timing.arrival.insert(tree.publisher, 0.0);
        // BFS in arrival order; the tree is acyclic by construction so a
        // simple queue works.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(tree.publisher);
        while let Some(u) = queue.pop_front() {
            let t0 = timing.arrival[&u];
            if let Some(kids) = children.get(&u) {
                let upload = transfer_time(self.payload, self.bandwidth_of(u));
                for (i, &v) in kids.iter().enumerate() {
                    let arrive =
                        t0 + (i as f64 + 1.0) * upload + self.links.latency_of(u, v, self.seed);
                    // A peer may appear in several paths; keep the earliest.
                    let slot = timing.arrival.entry(v).or_insert(f64::INFINITY);
                    if arrive < *slot {
                        *slot = arrive;
                        queue.push_back(v);
                    }
                }
            }
        }

        // Latency statistics over the subscribers actually reached (exclude
        // the publisher itself).
        let subscriber_arrivals: Vec<f64> = tree
            .paths()
            .filter_map(|p| p.last())
            .filter(|&&s| s != tree.publisher)
            .filter_map(|s| timing.arrival.get(s).copied())
            .collect();
        if !subscriber_arrivals.is_empty() {
            timing.max_latency = subscriber_arrivals.iter().cloned().fold(0.0, f64::max);
            timing.mean_latency =
                subscriber_arrivals.iter().sum::<f64>() / subscriber_arrivals.len() as f64;
        }
        timing
    }

    /// The star experiment (§IV-D): one hub uploading the payload to `c`
    /// connections; returns total completion time, which is linear in `c`.
    pub fn star_total_time(&self, hub: u32, connections: usize) -> f64 {
        connections as f64 * transfer_time(self.payload, self.bandwidth_of(hub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_tree() -> RoutingTree {
        RoutingTree::from_paths(0, [vec![0, 1, 2, 3]])
    }

    #[test]
    fn chain_latency_accumulates() {
        let sim = TransferSim::new(4, 1);
        let t = sim.simulate(&chain_tree());
        assert!(t.arrival[&1] > 0.0);
        assert!(t.arrival[&2] > t.arrival[&1]);
        assert!(t.arrival[&3] > t.arrival[&2]);
        assert_eq!(t.max_latency, t.arrival[&3]);
    }

    #[test]
    fn fanout_serializes_uploads() {
        // Publisher with 3 direct children: later children wait for earlier
        // uploads.
        let tree = RoutingTree::from_paths(0, [vec![0, 1], vec![0, 2], vec![0, 3]]);
        let sim = TransferSim::new(4, 2);
        let t = sim.simulate(&tree);
        let upload = transfer_time(sim.payload, sim.bandwidth_of(0));
        // Child 3 (third in id order) waits 3 uploads.
        let expected = 3.0 * upload + LinkModel::default().latency_of(0, 3, 2);
        assert!((t.arrival[&3] - expected).abs() < 1e-9);
    }

    #[test]
    fn shared_prefix_transfers_once() {
        // Paths 0→1→2 and 0→1→3: node 0 uploads once to 1 (one tree edge),
        // so 1's arrival equals a single upload + latency.
        let tree = RoutingTree::from_paths(0, [vec![0, 1, 2], vec![0, 1, 3]]);
        let sim = TransferSim::new(4, 3);
        let t = sim.simulate(&tree);
        let expected = transfer_time(sim.payload, sim.bandwidth_of(0))
            + LinkModel::default().latency_of(0, 1, 3);
        assert!((t.arrival[&1] - expected).abs() < 1e-9);
    }

    #[test]
    fn star_time_is_linear() {
        let sim = TransferSim::new(2, 4);
        let one = sim.star_total_time(0, 1);
        for c in [2usize, 8, 32] {
            assert!((sim.star_total_time(0, c) - c as f64 * one).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_tree_zero_latency() {
        let tree = RoutingTree::new(5);
        let sim = TransferSim::new(6, 5);
        let t = sim.simulate(&tree);
        assert_eq!(t.max_latency, 0.0);
        assert_eq!(t.arrival.len(), 1);
    }

    #[test]
    fn deterministic() {
        let sim = TransferSim::new(4, 7);
        let a = sim.simulate(&chain_tree());
        let b = sim.simulate(&chain_tree());
        assert_eq!(a.arrival, b.arrival);
    }
}
