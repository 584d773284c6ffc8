//! Evolving-network join process (paper §IV, following Zhu et al.).
//!
//! The paper's experiments do not start from a fully materialized network:
//! "we select a social user at random … thereafter we insert a portion of the
//! user's social friends … social users establish friendship connections at
//! high rate in the beginning of the join process, and this rate decreases
//! exponentially over time."
//!
//! [`GrowthModel`] replays a fixed social graph as a sequence of per-iteration
//! [`JoinEvent`]s: at iteration `t`, `ceil(rate0 * exp(-decay * t))` not-yet-
//! joined friends of already-joined users enter the network (at least one per
//! iteration while users remain, so the process always completes).

use crate::csr::SocialGraph;
use crate::ids::{to_u32, UserId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One iteration's worth of arrivals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinEvent {
    /// Iteration index, starting at 0.
    pub iteration: usize,
    /// Users joining this iteration, paired with the already-joined friend
    /// that "invited" them (`None` for the seed user and for users whose
    /// joined friends set was empty — the paper's independent subscription).
    pub arrivals: Vec<(UserId, Option<UserId>)>,
}

/// Exponentially-decaying growth schedule over a fixed final social graph.
#[derive(Clone, Debug)]
pub struct GrowthModel {
    /// Arrivals in the first iteration.
    pub initial_rate: f64,
    /// Exponential decay constant per iteration.
    pub decay: f64,
}

impl Default for GrowthModel {
    fn default() -> Self {
        // Defaults tuned so a 10k-node graph materializes in a few hundred
        // iterations, matching the paper's "high rate at the beginning,
        // decreasing exponentially".
        GrowthModel {
            initial_rate: 64.0,
            decay: 0.01,
        }
    }
}

impl GrowthModel {
    /// New model with explicit parameters.
    ///
    /// # Panics
    /// Panics unless `initial_rate >= 1` and `decay >= 0`.
    pub fn new(initial_rate: f64, decay: f64) -> Self {
        assert!(initial_rate >= 1.0, "initial rate must be >= 1");
        assert!(decay >= 0.0, "decay must be non-negative");
        GrowthModel {
            initial_rate,
            decay,
        }
    }

    /// Arrivals scheduled for iteration `t` (always at least 1).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "initial_rate >= 1 and decay >= 0 (asserted), so the rate lies in (0, initial_rate]"
    )]
    pub fn arrivals_at(&self, t: usize) -> usize {
        ((self.initial_rate * (-self.decay * t as f64).exp()).ceil() as usize).max(1)
    }

    /// Replays `graph` as a join sequence seeded at a random user.
    ///
    /// Frontier expansion: each iteration picks arrivals uniformly from the
    /// set of not-yet-joined friends of joined users (the "invitation"
    /// channel); if the frontier is empty (disconnected remainder), a random
    /// not-joined user subscribes independently.
    pub fn schedule(&self, graph: &SocialGraph, seed: u64) -> Vec<JoinEvent> {
        let n = graph.num_nodes();
        let mut events = Vec::new();
        if n == 0 {
            return events;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut joined = vec![false; n];
        let mut inviter: Vec<Option<UserId>> = vec![None; n];
        // Frontier of candidate (user, inviter) pairs; may contain stale
        // entries for already-joined users, skipped on pop.
        let mut frontier: Vec<(UserId, UserId)> = Vec::new();
        let mut remaining = n;
        let n32 = to_u32(n, "population");

        let seed_user = UserId(rng.gen_range(0..n32));
        joined[seed_user.index()] = true;
        remaining -= 1;
        for &f in graph.neighbors(seed_user) {
            frontier.push((f, seed_user));
        }
        events.push(JoinEvent {
            iteration: 0,
            arrivals: vec![(seed_user, None)],
        });

        let mut t = 1usize;
        while remaining > 0 {
            let quota = self.arrivals_at(t);
            let mut arrivals = Vec::with_capacity(quota.min(remaining));
            while arrivals.len() < quota && remaining > 0 {
                // Pop a random frontier entry; fall back to independent
                // subscription when the frontier is exhausted.
                let pick = loop {
                    if frontier.is_empty() {
                        break None;
                    }
                    let i = rng.gen_range(0..frontier.len());
                    let (u, inv) = frontier.swap_remove(i);
                    if !joined[u.index()] {
                        break Some((u, Some(inv)));
                    }
                };
                let (u, inv) = pick.unwrap_or_else(|| {
                    let mut u = rng.gen_range(0..n32);
                    while joined[u as usize] {
                        u = (u + 1) % n32;
                    }
                    (UserId(u), None)
                });
                joined[u.index()] = true;
                inviter[u.index()] = inv;
                remaining -= 1;
                for &f in graph.neighbors(u) {
                    if !joined[f.index()] {
                        frontier.push((f, u));
                    }
                }
                arrivals.push((u, inv));
            }
            arrivals.shuffle(&mut rng);
            events.push(JoinEvent {
                iteration: t,
                arrivals,
            });
            t += 1;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{BarabasiAlbert, Generator};

    #[test]
    fn rate_decays_exponentially() {
        let m = GrowthModel::new(100.0, 0.1);
        assert_eq!(m.arrivals_at(0), 100);
        assert!(m.arrivals_at(10) < m.arrivals_at(0));
        assert_eq!(m.arrivals_at(10_000), 1, "floor of one arrival");
    }

    #[test]
    fn schedule_covers_every_user_once() {
        let g = BarabasiAlbert::new(300, 3).generate(5);
        let events = GrowthModel::default().schedule(&g, 9);
        let mut seen = vec![false; 300];
        for e in &events {
            for &(u, _) in &e.arrivals {
                assert!(!seen[u.index()], "user joined twice");
                seen[u.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every user must join");
    }

    #[test]
    fn inviters_are_already_joined_friends() {
        let g = BarabasiAlbert::new(200, 3).generate(2);
        let events = GrowthModel::default().schedule(&g, 3);
        let mut joined = std::collections::HashSet::new();
        for e in &events {
            // Arrivals within one iteration may invite each other (the
            // frontier grows as the iteration's quota is filled), so extend
            // the joined set with this event's arrivals first.
            for &(u, _) in &e.arrivals {
                joined.insert(u);
            }
            for &(u, inv) in &e.arrivals {
                if let Some(inv) = inv {
                    assert!(joined.contains(&inv), "inviter must already be in");
                    assert!(g.has_edge(u, inv), "inviter must be a friend");
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_still_completes() {
        // Two components: growth must fall back to independent subscription.
        let g = GraphBuilder::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let events = GrowthModel::new(2.0, 0.0).schedule(&g, 1);
        let total: usize = events.iter().map(|e| e.arrivals.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = BarabasiAlbert::new(150, 2).generate(8);
        let a = GrowthModel::default().schedule(&g, 77);
        let b = GrowthModel::default().schedule(&g, 77);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "initial rate")]
    fn bad_rate_panics() {
        GrowthModel::new(0.5, 0.1);
    }
}
