//! Churn recovery (paper §III-F).
//!
//! Peers periodically probe the friends in their routing table. Each probe
//! outcome feeds the per-link Cumulative Moving Average; an unresponsive link
//! whose CMA is still high is *kept* (transient failure — dropping it would
//! cascade reassignment through connected peers), while an unresponsive link
//! with a low CMA is replaced by another peer **from the same LSH bucket**,
//! preserving the coverage the bucket represented.
//!
//! Like the gossip round loop, a probe round runs on [`SuperstepEngine`]:
//! probes are computed in parallel from the round-start snapshot of every
//! peer's long links (a probe only reads the remote peer's liveness), then
//! the CMA updates, keeps, replacements and drops apply in vertex order on
//! the calling thread — bit-identical for every thread count.

use crate::network::SelectNetwork;
use osn_overlay::table::Admission;
use osn_sim::SuperstepEngine;
use std::time::Instant;

/// Counters from one probe/recovery round.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Probes sent (one per long link per peer).
    pub probes: usize,
    /// Links found unresponsive this round.
    pub unresponsive: usize,
    /// Unresponsive links kept on CMA trust.
    pub kept: usize,
    /// Links replaced by a same-bucket (or fallback) peer.
    pub replaced: usize,
    /// Links dropped with no replacement available.
    pub dropped: usize,
    /// Long links lost to third-party eviction while replacements were
    /// admitted (a replacement's `offer_incoming` displacing the weakest
    /// holder). Every eviction is either relinked or counted as a loss:
    /// `evictions == evicted_relinked + eviction_losses`.
    pub evictions: usize,
    /// Evicted links re-established to a fresh same-bucket/fallback peer.
    pub evicted_relinked: usize,
    /// Evicted links that could not be re-established this round.
    pub eviction_losses: usize,
    /// Wall-clock time of the round in nanoseconds. Excluded from equality.
    pub wall_nanos: u64,
}

impl PartialEq for RecoveryReport {
    fn eq(&self, other: &Self) -> bool {
        // wall_nanos intentionally omitted: timing may differ, results not.
        self.probes == other.probes
            && self.unresponsive == other.unresponsive
            && self.kept == other.kept
            && self.replaced == other.replaced
            && self.dropped == other.dropped
            && self.evictions == other.evictions
            && self.evicted_relinked == other.evicted_relinked
            && self.eviction_losses == other.eviction_losses
    }
}

impl Eq for RecoveryReport {}

/// One peer's probe outcomes: `(link, responded)` per long link held at the
/// round-start snapshot.
struct ProbeReport(Vec<(u32, bool)>);

impl SelectNetwork {
    /// Runs one probe round over every online peer's long links.
    pub fn probe_round(&mut self) -> RecoveryReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock telemetry; RecoveryReport equality excludes wall_nanos"
        )]
        let started = Instant::now();
        let threads = self.cfg.resolved_threads();
        let mut report = RecoveryReport::default();
        let mut engine: SuperstepEngine<ProbeReport> = SuperstepEngine::new(self.len());

        // Compute half: probe outcomes from the snapshot (a probe is a
        // liveness check of the remote peer — pure reads).
        let net = &*self;
        engine.step_parallel(true, threads, |p, _mail, out| {
            if !net.is_peer_online(p) {
                return;
            }
            let probes: Vec<(u32, bool)> = net
                .table(p)
                .long_links()
                .iter()
                .map(|&u| (u, net.is_peer_online(u)))
                .collect();
            if !probes.is_empty() {
                out.push((p, ProbeReport(probes)));
            }
        });

        // Apply half, in vertex order: CMA updates, trust decisions and
        // replacements. A link evicted earlier in this apply phase (by a
        // lower-indexed peer's replacement) is skipped — it is already gone.
        // Evictions are queued (in vertex order) and repaired after the
        // sweep, so no peer silently loses a long link to someone else's
        // replacement.
        let mut evicted_queue: Vec<(u32, u32)> = Vec::new();
        engine.drain(|p, ProbeReport(probes)| {
            for (u, responded) in probes {
                if !self.table(p).long_links().contains(&u) {
                    continue;
                }
                report.probes += 1;
                let slot = self
                    .edge_slot(p, u)
                    .expect("long links connect social friends");
                self.cma[slot].observe_probe(responded);
                if responded {
                    continue;
                }
                report.unresponsive += 1;
                let trusted = self.cfg.cma_recovery
                    && !self.cma[slot].is_poor(self.cfg.cma_threshold, self.cfg.cma_min_obs);
                if trusted {
                    report.kept += 1;
                    continue;
                }
                // Replace: prefer an online peer from the same LSH
                // bucket, else any online friend not already linked.
                self.remove_long(p, u);
                self.remove_incoming(u, p);
                match self.find_replacement(p, u) {
                    Some(r) => match self.offer_incoming(r, p) {
                        Admission::Accepted { evicted } => {
                            self.add_long(p, r);
                            if let Some(w) = evicted {
                                self.remove_long(w, r);
                                evicted_queue.push((w, r));
                            }
                            report.replaced += 1;
                        }
                        Admission::Rejected => report.dropped += 1,
                    },
                    None => report.dropped += 1,
                }
            }
        });

        // Eviction repair: every peer displaced by a replacement above gets
        // its own replacement attempt (same-bucket first, §III-F), instead
        // of silently running under its link budget. Repairs can cascade —
        // the fresh link may evict someone else — so the worklist carries a
        // budget; anything past it is recorded as a loss, never dropped
        // from the accounting.
        let mut cascade_budget = 4 * self.len();
        while let Some((w, lost)) = evicted_queue.pop() {
            report.evictions += 1;
            if cascade_budget == 0 || !self.is_peer_online(w) {
                report.eviction_losses += 1;
                continue;
            }
            cascade_budget -= 1;
            match self.find_replacement(w, lost) {
                Some(r) => match self.offer_incoming(r, w) {
                    Admission::Accepted { evicted } => {
                        self.add_long(w, r);
                        if let Some(w2) = evicted {
                            self.remove_long(w2, r);
                            evicted_queue.push((w2, r));
                        }
                        report.evicted_relinked += 1;
                    }
                    Admission::Rejected => report.eviction_losses += 1,
                },
                None => report.eviction_losses += 1,
            }
        }
        #[cfg(feature = "audit")]
        self.assert_overlay_invariants("probe round");
        report.wall_nanos = started.elapsed().as_nanos() as u64;
        report
    }

    /// Replacement candidate for `p`'s dead link to `dead`: same-LSH-bucket
    /// online peers first (§III-F), then the strongest online friend not yet
    /// linked.
    fn find_replacement(&self, p: u32, dead: u32) -> Option<u32> {
        let table = self.table(p);
        let viable = |q: u32| q != p && q != dead && self.is_peer_online(q) && !table.has_link(q);
        self.bucket_peers_of(p, dead)
            .find(|&q| viable(q))
            .or_else(|| {
                // The live ranking pre-filters liveness; `viable` keeps its
                // own online check for the bucket arm above, harmless here.
                self.strengths
                    .live_ranked(p)
                    .iter()
                    .copied()
                    .find(|&q| viable(q))
            })
    }

    /// Convenience: the CMA value `p` currently holds for `u` (0 if never
    /// probed).
    pub fn cma_of(&self, p: u32, u: u32) -> f64 {
        self.edge_slot(p, u).map_or(0.0, |s| self.cma[s].value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectConfig;
    use osn_graph::generators::{BarabasiAlbert, Generator};

    fn converged_net(seed: u64) -> SelectNetwork {
        let g = BarabasiAlbert::with_closure(120, 4, 0.4).generate(seed);
        let mut n = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed));
        n.converge(100);
        n
    }

    /// Some peer with at least one long link, plus one of its links.
    fn linked_pair(n: &SelectNetwork) -> (u32, u32) {
        for p in 0..n.len() as u32 {
            if let Some(&u) = n.table(p).long_links().first() {
                return (p, u);
            }
        }
        panic!("no long links in converged network");
    }

    #[test]
    fn healthy_probes_raise_cma() {
        let mut n = converged_net(1);
        let (p, u) = linked_pair(&n);
        for _ in 0..4 {
            n.probe_round();
        }
        assert!((n.cma_of(p, u) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trusted_link_survives_brief_outage() {
        let mut n = converged_net(2);
        let (p, u) = linked_pair(&n);
        // Build trust.
        for _ in 0..5 {
            n.probe_round();
        }
        n.set_offline(u);
        let r = n.probe_round();
        assert!(r.kept >= 1, "high-CMA link should be kept: {r:?}");
        assert!(n.table(p).long_links().contains(&u));
    }

    #[test]
    fn low_cma_link_is_replaced() {
        let mut n = converged_net(3);
        let (p, u) = linked_pair(&n);
        n.set_offline(u);
        // With no prior trust, min_obs probes mark it poor and replace it.
        for _ in 0..5 {
            n.probe_round();
        }
        assert!(
            !n.table(p).long_links().contains(&u),
            "mostly-offline link must be dropped"
        );
        // Link budget respected after replacement.
        assert!(n.table(p).long_links().len() <= n.k());
    }

    #[test]
    fn naive_ablation_drops_immediately() {
        let g = BarabasiAlbert::with_closure(120, 4, 0.4).generate(4);
        let mut n = SelectNetwork::bootstrap(
            g,
            SelectConfig::default()
                .with_seed(4)
                .with_cma_recovery(false),
        );
        n.converge(100);
        let (p, u) = linked_pair(&n);
        for _ in 0..5 {
            n.probe_round(); // build what would have been trust
        }
        n.set_offline(u);
        let r = n.probe_round();
        assert_eq!(r.kept, 0, "naive mode never keeps dead links");
        assert!(!n.table(p).long_links().contains(&u));
    }

    #[test]
    fn replacement_is_online_friend() {
        let mut n = converged_net(5);
        let (p, u) = linked_pair(&n);
        n.set_offline(u);
        for _ in 0..5 {
            n.probe_round();
        }
        for &l in n.table(p).long_links() {
            assert!(n.is_peer_online(l) || n.cma_of(p, l) > 0.5);
        }
    }

    #[test]
    fn probe_counts_add_up() {
        let mut n = converged_net(6);
        let r = n.probe_round();
        assert!(r.probes > 0);
        assert_eq!(r.unresponsive, r.kept + r.replaced + r.dropped);
    }

    #[test]
    fn evictions_are_accounted_and_repaired() {
        // Regression: a replacement's offer_incoming used to evict peer w's
        // long link silently — no repair attempt, no counter. Run churn
        // waves heavy enough to force evictions and check every one is
        // either relinked or recorded as a loss, with link budgets intact.
        let mut evictions = 0usize;
        let mut relinked = 0usize;
        for seed in 0..6u64 {
            let g = BarabasiAlbert::with_closure(120, 5, 0.5).generate(seed);
            let mut n = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed));
            n.converge(100);
            for wave in 0..4 {
                let victims: Vec<u32> = (0..120u32).filter(|p| (p + wave) % 3 == 0).collect();
                for &v in &victims {
                    n.set_offline(v);
                }
                for _ in 0..4 {
                    let r = n.probe_round();
                    assert_eq!(
                        r.evictions,
                        r.evicted_relinked + r.eviction_losses,
                        "eviction accounting broken: {r:?}"
                    );
                    evictions += r.evictions;
                    relinked += r.evicted_relinked;
                }
                for &v in &victims {
                    n.set_online(v);
                }
            }
            // Budgets hold after the storm — repair never overfills.
            for p in 0..n.len() as u32 {
                assert!(n.table(p).long_links().len() <= n.k());
                assert!(n.table(p).incoming_links().len() <= n.k());
            }
        }
        assert!(evictions > 0, "test never exercised the eviction path");
        assert!(
            relinked > 0,
            "no evicted peer ever recovered its link budget ({evictions} evictions)"
        );
    }

    #[test]
    fn probe_round_is_thread_count_invariant() {
        let reports: Vec<RecoveryReport> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                let g = BarabasiAlbert::with_closure(120, 4, 0.4).generate(7);
                let mut n = SelectNetwork::bootstrap(
                    g,
                    SelectConfig::default().with_seed(7).with_threads(t),
                );
                n.converge(100);
                for p in 0..20u32 {
                    n.set_offline(p);
                }
                let mut last = RecoveryReport::default();
                for _ in 0..5 {
                    last = n.probe_round();
                }
                last
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }
}
