//! Bandwidth-throttled link family: real threads, real time, modelled
//! uplinks.
//!
//! The channel family under a pace policy: every forward leaves no earlier
//! than its peer's uplink clock plus `transfer_time(payload, bw) /
//! compression`, so a peer's uploads serialize (a dropped upload still
//! occupies the uplink) and fault-plan jitter is compressed on the same
//! scale. The pump holds each forward until it is due, so one worker models
//! many uplinks. This *validates* [`crate::timing`]: driven by real
//! wall-clock pacing, the same tree must reproduce the model's arrival
//! order (the `agrees_with_transfer_sim` test).

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::runtime::{worker_count, ChannelLink, ChannelPeers, Inbound, Link, Pace, PeerNetwork};
use bytes::Bytes;
use crossbeam::channel::RecvTimeoutError;
use osn_sim::FaultPlan;
use select_core::pubsub::RoutingTree;
use select_core::wire::WireMsg;
use std::time::{Duration, Instant};

/// One delivery observation with its wall-clock arrival.
#[derive(Clone, Debug)]
pub struct TimedDelivery {
    /// Receiving peer.
    pub peer: u32,
    /// Wall-clock time since the publication started.
    pub elapsed: Duration,
}

/// Result of a throttled publication.
#[derive(Clone, Debug, Default)]
pub struct TimedPublishResult {
    /// Arrival times per peer, in arrival order.
    pub deliveries: Vec<TimedDelivery>,
}

impl TimedPublishResult {
    /// Arrival time of `peer`, if it was reached.
    pub fn arrival_of(&self, peer: u32) -> Option<Duration> {
        self.deliveries
            .iter()
            .find(|d| d.peer == peer)
            .map(|d| d.elapsed)
    }

    /// The dissemination latency: last arrival.
    pub fn max_latency(&self) -> Duration {
        self.deliveries
            .iter()
            .map(|d| d.elapsed)
            .max()
            .unwrap_or_default()
    }

    /// Per-delivery latency distribution in *virtual* milliseconds: each
    /// wall-clock arrival is stretched back by the spawn's `compression`
    /// factor, undoing the wall-µs compression so the histogram reads on
    /// the same virtual-ms scale as [`crate::timing::TransferSim`]. Wall
    /// clocks jitter, so unlike the core recorders this histogram is a
    /// measurement, not a deterministic replay.
    pub fn latency_histogram(&self, compression: f64) -> osn_obs::Histogram {
        let mut h = osn_obs::Histogram::new();
        for d in &self.deliveries {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "elapsed x compression is non-negative (compression > 0 asserted at spawn)"
            )]
            h.record((d.elapsed.as_secs_f64() * 1_000.0 * compression).round() as u64);
        }
        h
    }
}

/// The channel link under a type of its own, so throttled networks get
/// their own constructors; the pace itself lives in the peers' uplinks.
pub struct ThrottledLink(ChannelLink);

impl Link for ThrottledLink {
    type Peers = ChannelPeers;
    const IN_PROCESS: bool = true;

    fn event(&mut self, msg: WireMsg) -> bool {
        self.0.event(msg)
    }

    fn recv(&mut self, deadline: Option<Instant>) -> Result<Inbound, RecvTimeoutError> {
        self.0.recv(deadline)
    }
}

/// A network of upload-throttled peer actors.
pub type ThrottledNetwork = PeerNetwork<ThrottledLink>;

impl ThrottledNetwork {
    /// Spawns `n` actors with the given per-peer bandwidths (bytes per
    /// virtual ms). `compression` divides virtual milliseconds into wall
    /// microseconds·1000/compression — e.g. `compression = 1000` turns a
    /// 960 ms virtual transfer into ~1 ms of wall time on the uplink.
    ///
    /// # Panics
    /// Panics if `bandwidth.len() != n` or `compression <= 0`.
    pub fn spawn(n: usize, bandwidth: Vec<f64>, compression: f64) -> Self {
        Self::spawn_with_faults(n, bandwidth, compression, FaultPlan::disabled())
    }

    /// Like [`ThrottledNetwork::spawn`], but each upload additionally runs
    /// through `plan` under the shared fate rule: a dropped transmission
    /// still occupies the uplink and the plan's delay jitter stretches a
    /// delivered one, so fault-induced latency shows up in arrival times,
    /// not just in missing deliveries.
    ///
    /// # Panics
    /// Panics if `bandwidth.len() != n` or `compression <= 0`.
    #[expect(
        clippy::expect_used,
        reason = "constructor not delivery; channel links cannot fail to open or join"
    )]
    pub fn spawn_with_faults(
        n: usize,
        bandwidth: Vec<f64>,
        compression: f64,
        plan: FaultPlan,
    ) -> Self {
        assert_eq!(bandwidth.len(), n, "one bandwidth per peer");
        assert!(compression > 0.0);
        let (shards, peers, events) = ChannelLink::fabric(n, worker_count(n));
        let pace = Pace {
            compression,
            bandwidth,
        };
        PeerNetwork::spawn_over(peers, events, plan, 0, pace, shards, |chan, _| {
            Ok(ThrottledLink(chan))
        })
        .expect("in-process peers always open and join")
    }

    /// Publishes a zero-filled payload of `bytes` along `tree` and reports
    /// when each subscriber's ack reached the driver, blocking until every
    /// tree node received it or `timeout` elapsed.
    ///
    /// A view over what [`PeerNetwork::publish`] already yields when traced
    /// — one span per acked peer, stamped in order as the driver processes
    /// the ack — so tracing is forced on for the call; the spans stay
    /// buffered afterwards only if the caller had tracing on.
    pub fn publish_timed(
        &mut self,
        tree: &RoutingTree,
        bytes: u64,
        timeout: Duration,
    ) -> TimedPublishResult {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "u64 -> usize is lossless on the 64-bit hosts the wire stack runs on"
        )]
        let payload = Bytes::from(vec![0u8; bytes as usize]);
        let (pub_id, first, was_tracing) = (self.next_pub_id, self.spans.len(), self.tracing);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "microseconds since the epoch overflow u64 only after 584,000 years"
        )]
        let start_us = self.epoch.elapsed().as_micros() as u64;
        self.tracing = true;
        let acked = self.publish(tree, payload, timeout).delivered_to;
        self.tracing = was_tracing;
        let deliveries = self
            .spans
            .iter()
            .skip(first)
            .filter(|s| s.trace_id == pub_id && acked.contains(&s.peer))
            .map(|s| TimedDelivery {
                peer: s.peer,
                elapsed: Duration::from_micros(s.wall_us.saturating_sub(start_us)),
            })
            .collect();
        if !was_tracing {
            self.spans.truncate(first);
        }
        TimedPublishResult { deliveries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::tree;
    use crate::timing::TransferSim;

    /// 1.2 MB at 1200 B/ms = 1000 virtual ms; compression 100 → 10 ms wall.
    const BYTES: u64 = 1_200_000;
    const BW: f64 = 1_200.0;
    const COMPRESSION: f64 = 100.0;

    #[test]
    fn star_children_arrive_serialized() {
        let mut net = ThrottledNetwork::spawn(5, vec![BW; 5], COMPRESSION);
        let t = tree(0, vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![0, 4]]);
        let r = net.publish_timed(&t, BYTES, Duration::from_secs(10));
        assert_eq!(r.deliveries.len(), 4);
        // Children are served in id order; arrival times must be strictly
        // increasing with roughly one upload gap between consecutive ones.
        let arrivals: Vec<Duration> = (1..=4).map(|p| r.arrival_of(p).unwrap()).collect();
        for w in arrivals.windows(2) {
            assert!(w[1] > w[0], "uploads must serialize: {arrivals:?}");
        }
        // Last child waited ≈ 4 uploads ≈ 40 ms; allow generous jitter.
        assert!(arrivals[3] >= Duration::from_millis(25), "{arrivals:?}");
        net.shutdown();
    }

    #[test]
    fn chain_accumulates_latency() {
        let mut net = ThrottledNetwork::spawn(4, vec![BW; 4], COMPRESSION);
        let t = tree(0, vec![vec![0, 1, 2, 3]]);
        let r = net.publish_timed(&t, BYTES, Duration::from_secs(10));
        let a1 = r.arrival_of(1).unwrap();
        let a2 = r.arrival_of(2).unwrap();
        let a3 = r.arrival_of(3).unwrap();
        assert!(a1 < a2 && a2 < a3, "store-and-forward order violated");
        net.shutdown();
    }

    #[test]
    fn agrees_with_transfer_sim_on_arrival_order() {
        // Heterogeneous bandwidths: a slow hub (peer 1) delays its subtree.
        let bandwidth = vec![2_000.0, 300.0, 2_000.0, 2_000.0, 2_000.0];
        let t = tree(0, vec![vec![0, 1, 3], vec![0, 2], vec![0, 1, 4]]);

        let sim = TransferSim::with_bandwidths(bandwidth.clone(), 7);
        let predicted = sim.simulate(&t);

        let mut net = ThrottledNetwork::spawn(5, bandwidth, COMPRESSION);
        let r = net.publish_timed(&t, BYTES, Duration::from_secs(20));
        net.shutdown();

        // Fast direct child 2 must beat the slow hub's children in both the
        // model and reality.
        assert!(predicted.arrival[&2] < predicted.arrival[&3]);
        assert!(r.arrival_of(2).unwrap() < r.arrival_of(3).unwrap());
        assert!(predicted.arrival[&2] < predicted.arrival[&4]);
        assert!(r.arrival_of(2).unwrap() < r.arrival_of(4).unwrap());
    }

    #[test]
    fn faster_hub_finishes_sooner() {
        let t = tree(0, vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
        let run = |bw: f64| {
            let mut net = ThrottledNetwork::spawn(4, vec![bw; 4], COMPRESSION);
            let r = net.publish_timed(&t, BYTES, Duration::from_secs(10));
            net.shutdown();
            r.max_latency()
        };
        let slow = run(600.0);
        let fast = run(2_400.0);
        assert!(
            fast < slow,
            "4× bandwidth should finish faster: {fast:?} vs {slow:?}"
        );
    }

    #[test]
    fn drops_truncate_the_lossy_subtree() {
        // Star 0 -> {1..=6}: deliveries must be exactly the children whose
        // (pub 1, attempt 0) link survives the plan — computed up front, so
        // the threaded run is checked against the deterministic oracle.
        let plan = FaultPlan::seeded(9).with_drop_prob(0.5);
        let survivors: Vec<u32> = (1..=6u32).filter(|&c| !plan.drops(1, 0, 0, c)).collect();
        assert!(
            !survivors.is_empty() && survivors.len() < 6,
            "seed 9 should mix outcomes (survivors {survivors:?})"
        );
        let mut net = ThrottledNetwork::spawn_with_faults(7, vec![BW; 7], COMPRESSION, plan);
        let paths: Vec<Vec<u32>> = (1..=6u32).map(|c| vec![0, c]).collect();
        let r = net.publish_timed(&tree(0, paths), BYTES, Duration::from_millis(900));
        net.shutdown();
        let mut got: Vec<u32> = r.deliveries.iter().map(|d| d.peer).collect();
        got.sort_unstable();
        assert_eq!(got, survivors);
    }

    #[test]
    fn latency_histogram_reads_in_virtual_ms() {
        let mut net = ThrottledNetwork::spawn(3, vec![BW; 3], COMPRESSION);
        let r = net.publish_timed(
            &tree(0, vec![vec![0, 1, 2]]),
            BYTES,
            Duration::from_secs(10),
        );
        net.shutdown();
        let h = r.latency_histogram(COMPRESSION);
        assert_eq!(h.count(), 2);
        // Each hop is a 1000 virtual-ms transfer; the second arrival must
        // read at least one full transfer later than the first.
        assert!(
            h.min() >= 900,
            "first hop ≈ 1000 virtual ms, got {}",
            h.min()
        );
        assert!(h.max() >= h.min() + 900, "chain accumulates transfers");
    }

    #[test]
    fn empty_tree_is_instant() {
        let mut net = ThrottledNetwork::spawn(2, vec![BW; 2], COMPRESSION);
        let r = net.publish_timed(&tree(0, vec![]), BYTES, Duration::from_millis(100));
        assert!(r.deliveries.is_empty());
        assert_eq!(r.max_latency(), Duration::ZERO);
        net.shutdown();
    }
}
