//! Message-level execution of the gossip protocol (Algorithms 3 and 4).
//!
//! [`crate::SelectNetwork::gossip_round`] applies the per-peer updates
//! directly against global state — the standard simulation shortcut. This
//! module instead runs SELECT as it would actually execute: peers exchange
//! explicit `<C_p, R_p>` / `<nMutual, M>` messages over the synchronous
//! vertex-centric engine (the paper's execution model, §IV), and every
//! decision a peer makes uses **only its local cache** of what friends told
//! it — cached positions and cached link sets. The cache of friends' link
//! sets *is* the paper's lookahead set `L_p` (Table I), complete with
//! staleness.
//!
//! The message-level and direct implementations must agree in the limit;
//! the `protocol_agrees_with_direct` test pins that equivalence (same graph,
//! same quality band), which justifies using the fast direct path in the
//! large experiment sweeps.

use crate::bitmaps::friendship_bitmap;
use crate::links::{create_links_from_bitmaps, SelectionScratch};
use crate::network::SelectNetwork;
use crate::reassign::evaluate_position;
use crate::stats::{ConvergenceTelemetry, RoundTelemetry};
use crate::wire::WireMsg;
use osn_graph::UserId;
use osn_overlay::RingId;
use osn_sim::SuperstepEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// What one peer has learned from gossip: cached friend positions and link
/// sets — the lookahead set `L_p`, including staleness.
///
/// Storage is slot-aligned with the owner's sorted social neighbour row (a
/// copy of its CSR slice): one slot per friend instead of three hash maps,
/// addressed by binary search. Gossip only ever travels over social edges,
/// so the row covers every possible sender, and iteration over the cache is
/// deterministic (ascending friend id) for free.
#[derive(Clone, Debug, Default)]
pub struct PeerView {
    /// The owner's social neighbourhood, sorted ascending.
    friends: Vec<u32>,
    /// Slot-aligned: has this friend ever reported?
    heard: Vec<bool>,
    /// Slot-aligned last known identifier (valid only if `heard`).
    positions: Vec<RingId>,
    /// Slot-aligned last known connection set (`L_p`).
    links: Vec<Vec<u32>>,
    /// Slot-aligned last reported `nMutual`.
    mutual: Vec<usize>,
    /// Number of distinct friends heard from so far.
    known: usize,
}

impl PeerView {
    /// An empty view over a sorted social neighbour row.
    fn new(friends: Vec<u32>) -> Self {
        debug_assert!(
            friends.windows(2).all(|w| w[0] < w[1]),
            "PeerView neighbour row must be sorted ascending"
        );
        let n = friends.len();
        PeerView {
            friends,
            heard: vec![false; n],
            positions: vec![RingId::default(); n],
            links: vec![Vec::new(); n],
            mutual: vec![0; n],
            known: 0,
        }
    }

    #[inline]
    fn slot(&self, friend: u32) -> Option<usize> {
        self.friends.binary_search(&friend).ok()
    }

    /// Caches what `friend` just reported. Gossip only travels over social
    /// edges, so a sender outside the neighbour row is a protocol violation.
    fn record(&mut self, friend: u32, position: RingId, links: Vec<u32>, n_mutual: usize) {
        let i = self
            .slot(friend)
            .expect("gossip message from a non-friend sender");
        if !self.heard[i] {
            self.heard[i] = true;
            self.known += 1;
        }
        self.positions[i] = position;
        self.links[i] = links;
        self.mutual[i] = n_mutual;
    }

    /// Whether the owner has heard from `friend`.
    pub fn knows(&self, friend: u32) -> bool {
        self.slot(friend).is_some_and(|i| self.heard[i])
    }

    /// Number of distinct friends heard from.
    pub fn known_count(&self) -> usize {
        self.known
    }

    /// True until the owner has heard from at least one friend.
    pub fn is_empty(&self) -> bool {
        self.known == 0
    }

    /// Friends heard from, in ascending id order (slot order).
    pub fn known_friends(&self) -> impl Iterator<Item = u32> + '_ {
        self.friends
            .iter()
            .zip(&self.heard)
            .filter(|&(_, &h)| h)
            .map(|(&f, _)| f)
    }

    /// Last known identifier of `friend`, if heard from.
    pub fn position_of(&self, friend: u32) -> Option<RingId> {
        let i = self.slot(friend)?;
        self.heard[i].then(|| self.positions[i])
    }

    /// Last known connection set of `friend` (`L_p`), if heard from.
    pub fn links_of(&self, friend: u32) -> Option<&[u32]> {
        let i = self.slot(friend)?;
        self.heard[i].then(|| self.links[i].as_slice())
    }

    /// Last `nMutual` reported by `friend`, if heard from.
    pub fn mutual_of(&self, friend: u32) -> Option<usize> {
        let i = self.slot(friend)?;
        self.heard[i].then_some(self.mutual[i])
    }
}

/// Per-round statistics of the message-level run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolRoundStats {
    /// Gossip messages delivered this round.
    pub messages: usize,
    /// Identifier moves applied.
    pub id_moves: usize,
    /// Long-link changes applied.
    pub link_changes: usize,
}

/// The SELECT overlay driven purely by gossip messages.
pub struct ProtocolNetwork {
    net: SelectNetwork,
    views: Vec<PeerView>,
    engine: SuperstepEngine<WireMsg>,
    rng: StdRng,
}

impl ProtocolNetwork {
    /// Wraps a freshly bootstrapped network; peers start with empty views.
    pub fn new(net: SelectNetwork) -> Self {
        let n = net.len();
        let seed = net.config().seed;
        let views = (0..n as u32)
            .map(|p| {
                PeerView::new(
                    net.graph()
                        .neighbors(UserId(p))
                        .iter()
                        .map(|f| f.0)
                        .collect(),
                )
            })
            .collect();
        ProtocolNetwork {
            views,
            engine: SuperstepEngine::new(n),
            rng: StdRng::seed_from_u64(seed ^ 0x9055_1b00),
            net,
        }
    }

    /// The underlying network (positions, tables, pub/sub).
    pub fn network(&self) -> &SelectNetwork {
        &self.net
    }

    /// Consumes the wrapper, returning the converged network.
    pub fn into_network(self) -> SelectNetwork {
        self.net
    }

    /// A peer's current gossip view.
    pub fn view(&self, p: u32) -> &PeerView {
        &self.views[p as usize]
    }

    /// Total messages exchanged since construction.
    pub fn total_messages(&self) -> u64 {
        self.engine.messages_sent_total()
    }

    /// Runs one synchronous protocol round:
    /// 1. every online peer sends `ExchangeRt` to one random online friend
    ///    (Alg. 3 line 2);
    /// 2. the engine delivers last round's messages; receivers update their
    ///    caches, passive peers reply (Alg. 4), and both sides re-evaluate
    ///    position and links from their *caches only*.
    pub fn round(&mut self) -> ProtocolRoundStats {
        let n = self.net.len() as u32;
        let mut stats = ProtocolRoundStats::default();

        // Phase 1: active sends.
        for p in 0..n {
            if !self.net.is_peer_online(p) {
                continue;
            }
            let friends = self.net.online_friends(p);
            if friends.is_empty() {
                continue;
            }
            let target = friends[self.rng.gen_range(0..friends.len())];
            let msg = WireMsg::ExchangeRt {
                from: p,
                position: self.net.identifier_of(p),
                neighbourhood: self
                    .net
                    .graph()
                    .neighbors(UserId(p))
                    .iter()
                    .map(|f| f.0)
                    .collect(),
                links: self.net.connections_of(p),
            };
            self.engine.send(target, msg);
        }

        // Phase 2: deliver + react.
        let mut replies: Vec<(u32, WireMsg)> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        let net = &self.net;
        let views = &mut self.views;
        stats.messages = self.engine.step(false, |v, mail, _| {
            if !net.is_peer_online(v) {
                return; // offline peers drop mail, as in reality
            }
            for msg in mail {
                match msg {
                    WireMsg::ExchangeRt {
                        from,
                        position,
                        neighbourhood,
                        links,
                    } => {
                        // Alg. 4: compute nMutual against own C_p, cache the
                        // sender's state, and queue the reply.
                        let own: Vec<u32> = net
                            .graph()
                            .neighbors(UserId(v))
                            .iter()
                            .map(|f| f.0)
                            .collect();
                        let n_mutual = neighbourhood
                            .iter()
                            .filter(|x| own.binary_search(x).is_ok())
                            .count();
                        views[v as usize].record(from, position, links, n_mutual);
                        replies.push((
                            from,
                            WireMsg::ExchangeReply {
                                from: v,
                                position: net.identifier_of(v),
                                n_mutual: n_mutual as u32,
                                links: net.connections_of(v),
                            },
                        ));
                        touched.push(v);
                    }
                    WireMsg::ExchangeReply {
                        from,
                        position,
                        n_mutual,
                        links,
                    } => {
                        views[v as usize].record(from, position, links, n_mutual as usize);
                        touched.push(v);
                    }
                    // The gossip engine only ever routes exchange traffic;
                    // other vocabulary (publish, probe, transport control)
                    // belongs to the pub/sub and recovery paths and is
                    // ignored here rather than crashing the round.
                    _ => {}
                }
            }
        });
        for (to, msg) in replies {
            self.engine.send(to, msg);
        }

        // Phase 3: every peer that learned something re-evaluates, using its
        // cache only.
        touched.sort_unstable();
        touched.dedup();
        for p in touched {
            stats.id_moves += self.reassign_from_view(p) as usize;
            stats.link_changes += self.relink_from_view(p);
        }
        self.net.refresh_short_links();
        stats
    }

    /// Algorithm 2 driven by cached positions.
    fn reassign_from_view(&mut self, p: u32) -> bool {
        if !self.net.config().reassign_ids {
            return false;
        }
        let eps = (self.net.config().convergence_eps * u64::MAX as f64) as u64;
        let radius = (self.net.config().cluster_radius * u64::MAX as f64) as u64;
        let view = &self.views[p as usize];
        // Guide = highest-rank cached friend (local knowledge of the
        // hub-anchoring rule).
        let rank = |x: u32| (self.net.graph().degree(UserId(x)), x);
        let guide = view.known_friends().max_by_key(|&f| rank(f));
        let guide = match guide {
            Some(g) if rank(g) > rank(p) => g,
            _ => return false,
        };
        let guide_pos = view
            .position_of(guide)
            .expect("guide was drawn from known_friends");
        if self.net.identifier_of(p).distance(guide_pos).0 <= radius {
            return false;
        }
        let new = evaluate_position(p, &self.net.strengths, |f| view.position_of(f));
        let mut target = match new {
            Some(t) => t,
            None => return false,
        };
        if target.distance(guide_pos).0 > radius {
            target = guide_pos;
        }
        if self.net.identifier_of(p).distance(target).0 > eps {
            self.net.move_peer(p, target);
            true
        } else {
            false
        }
    }

    /// Algorithm 5 driven by cached link sets (`L_p`).
    fn relink_from_view(&mut self, p: u32) -> usize {
        let view = &self.views[p as usize];
        // Only friends we have heard from are candidates — a peer cannot
        // connect to someone it knows nothing about. Slot order is already
        // ascending, as `create_links` requires.
        let known: Vec<u32> = view.known_friends().collect();
        if known.is_empty() {
            return 0;
        }
        let cfg = self.net.config();
        let mut scratch = SelectionScratch::default();
        let mut candidates = create_links_from_bitmaps(
            &known,
            self.net.k(),
            cfg.lsh_samples,
            cfg.seed ^ (p as u64).rotate_left(32),
            |j, bm| {
                let u = known[j];
                let mut links: Vec<u32> = view.links_of(u).map(<[u32]>::to_vec).unwrap_or_default();
                links.extend(self.net.graph().neighbors(UserId(u)).iter().map(|f| f.0));
                *bm = friendship_bitmap(&known, &links);
            },
            |u| self.net.bandwidth_of(u),
            &mut scratch,
        );
        #[cfg(feature = "audit")]
        crate::gossip::assert_one_representative_per_bucket(
            p,
            &candidates,
            &known,
            &scratch.bucket_of,
        );
        let buckets = scratch.row_buckets(view.heard.iter().copied());
        self.net.store_buckets(p, &buckets);
        // Preference tail: remaining known friends by reported nMutual.
        let mut rest: Vec<u32> = known
            .iter()
            .copied()
            .filter(|u| !candidates.contains(u))
            .collect();
        rest.sort_by_key(|&u| std::cmp::Reverse(view.mutual_of(u).unwrap_or(0)));
        candidates.extend(rest);
        self.net.reconcile_links(p, &candidates)
    }

    /// Runs protocol rounds until quiescence (a stability window with no
    /// moves or link changes), returning the rounds used.
    pub fn converge(&mut self, max_rounds: usize) -> usize {
        self.converge_telemetry(max_rounds).rounds.len()
    }

    /// Like [`Self::converge`], but records the same per-round telemetry the
    /// direct path's [`crate::SelectNetwork::converge`] reports, so the two
    /// execution models can be compared round for round. The message-level
    /// protocol has no LSH-budget accounting (link selection happens inside
    /// each peer's cache), so the bucket counters stay zero.
    pub fn converge_telemetry(&mut self, max_rounds: usize) -> ConvergenceTelemetry {
        // selint: allow(ambient-nondet, wall-clock telemetry only; never feeds protocol state)
        let started = Instant::now();
        let mut tel = ConvergenceTelemetry::new(1);
        let window = self.net.config().stability_window;
        let mut quiet = 0;
        for round in 1..=max_rounds {
            // selint: allow(ambient-nondet, wall-clock telemetry only; never feeds protocol state)
            let round_start = Instant::now();
            let s = self.round();
            tel.rounds.push(RoundTelemetry {
                round: round as u64,
                id_moves: s.id_moves,
                link_changes: s.link_changes,
                messages: s.messages as u64,
                wall_nanos: round_start.elapsed().as_nanos() as u64,
                ..RoundTelemetry::default()
            });
            if s.id_moves == 0 && s.link_changes == 0 && round > 2 {
                quiet += 1;
                if quiet >= window {
                    break;
                }
            } else {
                quiet = 0;
            }
        }
        tel.total_wall_nanos = started.elapsed().as_nanos() as u64;
        tel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectConfig;
    use osn_graph::generators::{BarabasiAlbert, Generator};

    fn bootstrap(seed: u64) -> SelectNetwork {
        let g = BarabasiAlbert::with_closure(120, 4, 0.4).generate(seed);
        SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed))
    }

    #[test]
    fn views_fill_over_rounds() {
        let mut proto = ProtocolNetwork::new(bootstrap(1));
        proto.round();
        let after_one: usize = (0..120).map(|p| proto.view(p).known_count()).sum();
        for _ in 0..10 {
            proto.round();
        }
        let after_many: usize = (0..120).map(|p| proto.view(p).known_count()).sum();
        assert!(after_many > after_one, "caches should keep growing");
        assert!(proto.total_messages() > 0);
    }

    #[test]
    fn protocol_converges() {
        let mut proto = ProtocolNetwork::new(bootstrap(2));
        let rounds = proto.converge(300);
        assert!(rounds < 300, "message-level protocol did not quiesce");
    }

    #[test]
    fn protocol_agrees_with_direct() {
        // Same graph, same seed: the message-level run must land in the
        // same quality band as the direct-state run.
        let mut direct = bootstrap(3);
        direct.converge(300);
        let mut proto = ProtocolNetwork::new(bootstrap(3));
        proto.converge(300);
        let net = proto.into_network();

        let d_stats = direct.overlay_stats(500);
        let p_stats = net.overlay_stats(500);
        assert!(
            (p_stats.friend_coverage - d_stats.friend_coverage).abs() < 0.25,
            "coverage drifted: direct {} vs protocol {}",
            d_stats.friend_coverage,
            p_stats.friend_coverage
        );
        // Both must deliver everything.
        for b in [0u32, 17, 80] {
            let r = net.publish(b);
            assert_eq!(r.delivered, r.subscribers);
        }
        // Long links are still social edges only.
        assert_eq!(p_stats.social_link_fraction, 1.0);
    }

    #[test]
    fn converge_telemetry_mirrors_round_stats() {
        let mut proto = ProtocolNetwork::new(bootstrap(5));
        let tel = proto.converge_telemetry(300);
        assert!(!tel.rounds.is_empty());
        assert!(tel.total_messages() > 0);
        assert!(tel.total_id_moves() > 0, "cached reassignment never fired");
        // Rounds are numbered consecutively from 1.
        for (i, r) in tel.rounds.iter().enumerate() {
            assert_eq!(r.round, i as u64 + 1);
        }
        // The message-level path has no LSH budget accounting.
        assert_eq!(tel.bucket_hit_rate(), 1.0);
    }

    #[test]
    fn messages_only_reach_online_peers() {
        let mut net = bootstrap(4);
        net.set_offline(5);
        let mut proto = ProtocolNetwork::new(net);
        for _ in 0..5 {
            proto.round();
        }
        assert!(
            proto.view(5).is_empty(),
            "offline peer must not learn anything"
        );
    }

    /// Regression: relinking from a view rewrites the peer's bucket slots,
    /// so it must drop the peer's link cache — whose hit path trusts the
    /// slots to hold the cached selection — rather than leave it for the next
    /// direct round to reuse. (With `--features audit` that round also
    /// re-derives every hit.)
    #[test]
    fn relink_drops_the_link_cache_it_overwrites() {
        let mut net = bootstrap(7);
        net.converge(100);
        let mut proto = ProtocolNetwork::new(net);
        proto.round();
        proto.round(); // delivers the first round's mail and relinks from it
        let mut net = proto.into_network();
        for p in (0..120u32).filter(|&p| net.link_cache_valid(p)) {
            assert_eq!(net.link_cache_divergence(p), None, "link cache of {p}");
        }
        net.gossip_round();
    }

    #[test]
    fn link_candidates_are_known_friends_only() {
        let mut proto = ProtocolNetwork::new(bootstrap(6));
        for _ in 0..3 {
            proto.round();
        }
        for p in 0..120u32 {
            let view = proto.view(p);
            for &l in proto.network().table(p).long_links() {
                assert!(
                    view.knows(l),
                    "peer {p} linked {l} without ever hearing from it"
                );
            }
        }
    }
}
