//! Overlay-quality statistics: the measurements the evaluation plots, as a
//! public API so downstream users can monitor a running overlay — plus the
//! per-round telemetry the superstep round loop records while converging.

use crate::gossip::RoundChanges;
use crate::network::SelectNetwork;
use osn_graph::UserId;
use osn_obs::Histogram;

/// What one gossip round did, as recorded by the superstep round loop.
///
/// Everything except the `*_nanos` timers is a pure function of the network
/// state and the seed, so two runs of the same network — at *any* thread
/// count — produce equal telemetry. Equality deliberately ignores every
/// `*_nanos` field (time is the one legitimately nondeterministic output).
#[derive(Clone, Debug, Default)]
pub struct RoundTelemetry {
    /// Round counter (1-based across the network's lifetime).
    pub round: u64,
    /// Peers that moved their identifier by more than the tolerance.
    pub id_moves: usize,
    /// Total identifier movement this round, in unit-ring lengths.
    pub id_movement: f64,
    /// Long-range links added or removed across the network.
    pub link_changes: usize,
    /// Peers that ran Algorithm 5 this round; the other online peers reused
    /// their cached proposal.
    pub links_recomputed: usize,
    /// Superstep messages exchanged (move + link proposals).
    pub messages: u64,
    /// Link-budget slots filled by LSH bucket representatives.
    pub lsh_bucket_hits: u64,
    /// Link-budget slots that fell through to the coverage/strength tail
    /// (or, in the random-picker ablation, were drawn blindly).
    pub lsh_bucket_fallbacks: u64,
    /// Distribution of per-peer link-candidate list lengths this round,
    /// recorded by the link superstep's sharded per-worker recorders and
    /// merged in shard order at the apply barrier — bit-identical at any
    /// thread count, and part of equality so the determinism pins cover it.
    pub link_candidates: Histogram,
    /// Wall-clock time of the round in nanoseconds. Excluded from equality.
    pub wall_nanos: u64,
    /// Wall-clock time of the identifier superstep (compute + apply).
    /// Like every timer below, excluded from equality.
    pub id_nanos: u64,
    /// Wall-clock time of the link superstep's parallel compute half.
    pub link_compute_nanos: u64,
    /// Wall-clock time of the link superstep's sequential apply half
    /// (bucket stores, `reconcile_links`, cache refresh).
    pub link_apply_nanos: u64,
    /// Wall-clock time of the end-of-round ring short-link refresh.
    pub ring_nanos: u64,
    /// CPU time inside the compute half spent loading neighbourhoods and
    /// their triangle rows, summed over shards (so it can exceed
    /// `link_compute_nanos` on more than one thread). Cache hits skip it.
    pub rows_nanos: u64,
    /// CPU time building friendship bitmaps, LSH-bucketing them and picking
    /// one representative per bucket, summed over shards.
    pub lsh_nanos: u64,
    /// CPU time in the greedy set-cover / strength tail, summed over shards.
    pub cover_nanos: u64,
}

impl RoundTelemetry {
    /// Whether the round was fully quiescent (no moves, no link churn).
    pub fn is_quiescent(&self) -> bool {
        self.id_moves == 0 && self.link_changes == 0
    }

    /// Fraction of link-budget slots the LSH buckets provided directly
    /// (1.0 when no slot was considered).
    pub fn bucket_hit_rate(&self) -> f64 {
        let total = self.lsh_bucket_hits + self.lsh_bucket_fallbacks;
        if total == 0 {
            1.0
        } else {
            self.lsh_bucket_hits as f64 / total as f64
        }
    }

    /// The phase timers by name, in round order: the four wall-clock
    /// segments of the round, then the three per-shard CPU sums inside the
    /// link compute half.
    pub fn phase_nanos(&self) -> [(&'static str, u64); 7] {
        [
            ("id", self.id_nanos),
            ("link_compute", self.link_compute_nanos),
            ("link_apply", self.link_apply_nanos),
            ("ring", self.ring_nanos),
            ("rows", self.rows_nanos),
            ("lsh", self.lsh_nanos),
            ("cover", self.cover_nanos),
        ]
    }

    /// The round's change counters in the legacy [`RoundChanges`] shape.
    pub fn changes(&self) -> RoundChanges {
        RoundChanges {
            id_moves: self.id_moves,
            link_changes: self.link_changes,
        }
    }
}

impl PartialEq for RoundTelemetry {
    fn eq(&self, other: &Self) -> bool {
        // Every *_nanos timer intentionally omitted: timing may differ,
        // results not.
        self.round == other.round
            && self.id_moves == other.id_moves
            && self.id_movement == other.id_movement
            && self.link_changes == other.link_changes
            && self.links_recomputed == other.links_recomputed
            && self.messages == other.messages
            && self.lsh_bucket_hits == other.lsh_bucket_hits
            && self.lsh_bucket_fallbacks == other.lsh_bucket_fallbacks
            && self.link_candidates == other.link_candidates
    }
}

/// Aggregate telemetry of one [`SelectNetwork::converge`] run.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceTelemetry {
    /// Worker threads the run executed with (informational; excluded from
    /// equality so runs at different thread counts can be compared).
    pub threads: usize,
    /// One entry per executed round, in order.
    pub rounds: Vec<RoundTelemetry>,
    /// Total wall-clock time in nanoseconds. Excluded from equality.
    pub total_wall_nanos: u64,
}

impl ConvergenceTelemetry {
    /// Telemetry for a run about to start on `threads` workers.
    pub fn new(threads: usize) -> Self {
        ConvergenceTelemetry {
            threads,
            ..Default::default()
        }
    }

    /// Total superstep messages across all rounds.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// Total identifier moves across all rounds.
    pub fn total_id_moves(&self) -> usize {
        self.rounds.iter().map(|r| r.id_moves).sum()
    }

    /// Total identifier movement in unit-ring lengths.
    pub fn total_id_movement(&self) -> f64 {
        self.rounds.iter().map(|r| r.id_movement).sum()
    }

    /// Total link churn (adds + removes) across all rounds.
    pub fn total_link_changes(&self) -> usize {
        self.rounds.iter().map(|r| r.link_changes).sum()
    }

    /// LSH bucket hit rate aggregated over the whole run.
    pub fn bucket_hit_rate(&self) -> f64 {
        let hits: u64 = self.rounds.iter().map(|r| r.lsh_bucket_hits).sum();
        let total: u64 = self
            .rounds
            .iter()
            .map(|r| r.lsh_bucket_hits + r.lsh_bucket_fallbacks)
            .sum();
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// [`RoundTelemetry::phase_nanos`] summed over all rounds.
    pub fn phase_nanos(&self) -> [(&'static str, u64); 7] {
        let mut total = RoundTelemetry::default().phase_nanos();
        for r in &self.rounds {
            for (sum, (_, nanos)) in total.iter_mut().zip(r.phase_nanos()) {
                sum.1 += nanos;
            }
        }
        total
    }

    /// Distribution of superstep messages per round over the whole run.
    pub fn messages_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in &self.rounds {
            h.record(r.messages);
        }
        h
    }

    /// Per-peer link-candidate distribution aggregated over all rounds.
    pub fn link_candidates_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for r in &self.rounds {
            h.merge(&r.link_candidates);
        }
        h
    }

    /// One-line human-readable summary, with tail percentiles (p50/p95/p99)
    /// for messages per round — means alone hide the heavy early rounds.
    pub fn summary(&self) -> String {
        let (p50, p95, p99) = self.messages_histogram().tails();
        format!(
            "{} rounds, {} msgs (per-round p50/p95/p99 {}/{}/{}), {} id moves \
             ({:.4} ring), {} link changes, bucket hit rate {:.1}%, {:.1} ms \
             on {} thread(s)",
            self.rounds.len(),
            self.total_messages(),
            p50,
            p95,
            p99,
            self.total_id_moves(),
            self.total_id_movement(),
            self.total_link_changes(),
            self.bucket_hit_rate() * 100.0,
            self.total_wall_nanos as f64 / 1e6,
            self.threads,
        )
    }
}

impl PartialEq for ConvergenceTelemetry {
    fn eq(&self, other: &Self) -> bool {
        // threads and total_wall_nanos omitted: execution detail, not result.
        self.rounds == other.rounds
    }
}

/// What reliable delivery did (and what the fault plan did to it) during
/// one publication — or, summed with [`DeliveryTelemetry::absorb`], during a
/// whole experiment.
///
/// Every field is a pure function of the network state, the config seed and
/// the fault-plan seed, so telemetry from runs at different thread counts
/// is comparable with plain `==`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryTelemetry {
    /// Link transmissions the fault plan dropped in flight.
    pub drops_injected: u64,
    /// Transmissions lost because the forwarding relay was crashed for
    /// this publication.
    pub crash_losses: u64,
    /// Retransmission attempts made by the publisher.
    pub retries: u64,
    /// Retries that re-routed around relays observed dead (as opposed to
    /// plain retransmission along the original path).
    pub reroutes: u64,
    /// Copies that reached a peer which already held the message and were
    /// suppressed by per-publication dedup.
    pub duplicates_suppressed: u64,
    /// Subscribers still unreached when the retry budget ran out.
    pub residual_losses: u64,
    /// Total virtual backoff the publisher waited across retry waves, ms.
    pub backoff_ms: u64,
    /// Deliveries by the attempt wave that completed them: bin 0 is the
    /// initial flood, bin `k` the `k`-th retransmission wave (the last bin
    /// absorbs deeper waves). Only the fault path fills this — a fault-free
    /// publication reports all-zero telemetry, bins included — and fixed
    /// `u64` bins keep the struct `Copy` while still giving the summary a
    /// real attempt distribution instead of a mean.
    pub delivery_attempts: [u64; 8],
}

impl DeliveryTelemetry {
    /// Records one delivery completed by attempt wave `attempt` (0 = the
    /// initial flood); waves beyond the bins land in the last bin.
    pub fn note_delivery_attempt(&mut self, attempt: usize) {
        self.delivery_attempts[attempt.min(self.delivery_attempts.len() - 1)] += 1;
    }

    /// Adds another publication's counters into this accumulator.
    pub fn absorb(&mut self, other: &DeliveryTelemetry) {
        self.drops_injected += other.drops_injected;
        self.crash_losses += other.crash_losses;
        self.retries += other.retries;
        self.reroutes += other.reroutes;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.residual_losses += other.residual_losses;
        self.backoff_ms += other.backoff_ms;
        for (d, s) in self
            .delivery_attempts
            .iter_mut()
            .zip(other.delivery_attempts.iter())
        {
            *d += *s;
        }
    }

    /// Faults injected in flight (drops plus crash losses).
    pub fn faults_injected(&self) -> u64 {
        self.drops_injected + self.crash_losses
    }

    /// The attempt wave at quantile `q` of the delivery-attempt
    /// distribution (0 when no attempts were binned).
    pub fn attempt_quantile(&self, q: f64) -> usize {
        let total: u64 = self.delivery_attempts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.delivery_attempts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return i;
            }
        }
        self.delivery_attempts.len() - 1
    }

    /// One-line human-readable summary; includes delivery-attempt tail
    /// percentiles once any delivery has been binned.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} drops, {} crash losses, {} retries ({} rerouted), \
             {} dups suppressed, {} residual losses, {} ms backoff",
            self.drops_injected,
            self.crash_losses,
            self.retries,
            self.reroutes,
            self.duplicates_suppressed,
            self.residual_losses,
            self.backoff_ms,
        );
        if self.delivery_attempts.iter().any(|&c| c > 0) {
            line.push_str(&format!(
                ", attempts p50/p95/p99 {}/{}/{}",
                self.attempt_quantile(0.50),
                self.attempt_quantile(0.95),
                self.attempt_quantile(0.99),
            ));
        }
        line
    }
}

/// A snapshot of overlay quality.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlayStats {
    /// Peers currently online.
    pub online: usize,
    /// Mean ring distance between socially connected online peers
    /// (unit-interval fraction).
    pub mean_friend_distance: f64,
    /// Mean ring distance between random online peer pairs.
    pub mean_random_distance: f64,
    /// Fraction of each peer's online friends it is directly connected to,
    /// averaged over peers.
    pub friend_coverage: f64,
    /// Fraction of long-range links that are social edges (should be 1.0:
    /// SELECT only establishes long links to friends).
    pub social_link_fraction: f64,
    /// Mean number of connections (long + incoming + ring) per online peer.
    pub mean_connections: f64,
    /// Maximum connections held by any peer.
    pub max_connections: usize,
}

impl OverlayStats {
    /// Friend-vs-random distance ratio (≪ 1 = socially clustered ring).
    pub fn clustering_ratio(&self) -> f64 {
        if self.mean_random_distance == 0.0 {
            1.0
        } else {
            self.mean_friend_distance / self.mean_random_distance
        }
    }
}

impl SelectNetwork {
    /// Computes an [`OverlayStats`] snapshot. `distance_samples` bounds the
    /// random-pair sampling (deterministic, derived from the config seed).
    pub fn overlay_stats(&self, distance_samples: usize) -> OverlayStats {
        let n = self.len() as u32;
        let online: Vec<u32> = (0..n).filter(|&p| self.is_peer_online(p)).collect();

        let mut friend_dist = 0.0;
        let mut friend_pairs = 0u64;
        let mut covered = 0.0;
        let mut covered_peers = 0u64;
        let mut social_links = 0u64;
        let mut total_long = 0u64;
        let mut total_conns = 0u64;
        let mut max_conns = 0usize;

        for &p in &online {
            let friends = self.online_friends(p);
            let conns = self.connections(p);
            total_conns += conns.len() as u64;
            max_conns = max_conns.max(conns.len());
            for &f in &friends {
                friend_dist += self
                    .identifier_of(p)
                    .distance(self.identifier_of(f))
                    .as_unit_len();
                friend_pairs += 1;
            }
            if !friends.is_empty() {
                let direct = friends.iter().filter(|f| conns.contains(f)).count();
                covered += direct as f64 / friends.len() as f64;
                covered_peers += 1;
            }
            for &l in self.table(p).long_links() {
                total_long += 1;
                if self.graph().has_edge(UserId(p), UserId(l)) {
                    social_links += 1;
                }
            }
        }

        // Deterministic random-pair sampling via the ID hash.
        let mut random_dist = 0.0;
        let samples = distance_samples.max(1);
        if online.len() >= 2 {
            for i in 0..samples as u64 {
                let h = osn_overlay::RingId::hash_of(i ^ self.config().seed).0;
                let a = online[(h % online.len() as u64) as usize];
                let b = online[((h >> 32) % online.len() as u64) as usize];
                random_dist += self
                    .identifier_of(a)
                    .distance(self.identifier_of(b))
                    .as_unit_len();
            }
        }

        OverlayStats {
            online: online.len(),
            mean_friend_distance: friend_dist / friend_pairs.max(1) as f64,
            mean_random_distance: random_dist / samples as f64,
            friend_coverage: covered / covered_peers.max(1) as f64,
            social_link_fraction: if total_long == 0 {
                1.0
            } else {
                social_links as f64 / total_long as f64
            },
            mean_connections: total_conns as f64 / online.len().max(1) as f64,
            max_connections: max_conns,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SelectConfig;
    use crate::network::SelectNetwork;
    use osn_graph::generators::{BarabasiAlbert, Generator};

    fn net(seed: u64) -> SelectNetwork {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(seed);
        let mut n = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed));
        n.converge(200);
        n
    }

    #[test]
    fn all_long_links_are_social() {
        let n = net(1);
        let s = n.overlay_stats(500);
        assert_eq!(s.social_link_fraction, 1.0);
    }

    #[test]
    fn convergence_improves_stats() {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(2);
        let mut fresh = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(2));
        let before = fresh.overlay_stats(500);
        fresh.converge(200);
        let after = fresh.overlay_stats(500);
        assert!(after.friend_coverage > before.friend_coverage);
        assert!(after.mean_friend_distance < before.mean_friend_distance);
        assert!(after.clustering_ratio() < 1.0);
    }

    #[test]
    fn connection_counts_are_bounded() {
        let n = net(3);
        let s = n.overlay_stats(100);
        // long (K) + incoming (K) + 2 ring links.
        assert!(s.max_connections <= 2 * n.k() + 2);
        assert!(s.mean_connections > 2.0);
    }

    #[test]
    fn offline_peers_excluded() {
        let mut n = net(4);
        for p in 0..30u32 {
            n.set_offline(p);
        }
        let s = n.overlay_stats(100);
        assert_eq!(s.online, 120);
    }
}
