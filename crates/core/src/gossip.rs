//! Gossip peer-sampling rounds (paper §III-C/D, Algorithms 3 and 4).
//!
//! In the paper every peer periodically exchanges `<C_p, R_p>` with a random
//! social friend, after which **both** sides re-evaluate their position
//! (Algorithm 2) and their links (Algorithm 5). Under the synchronous
//! vertex-centric execution model of the evaluation (§IV), one *round* ticks
//! every online peer once: it refreshes its view of its neighbourhood,
//! re-evaluates its identifier and reconciles its long-range links.
//!
//! # Round-loop execution model
//!
//! A round runs as two supersteps on [`SuperstepEngine`], each split into a
//! *compute* half and an *apply* half:
//!
//! 1. **Identifier superstep** — every online peer evaluates Algorithm 2
//!    against the round-start snapshot and proposes its new identifier as a
//!    message to itself ([`SuperstepEngine::step_parallel`], sharded across
//!    `SelectConfig::threads` workers); the proposals are then applied in
//!    vertex order on the calling thread.
//! 2. **Link superstep** — every online peer re-evaluates its preference
//!    list (Algorithm 5: LSH buckets + coverage tail, or the random
//!    ablation) from the post-move snapshot, again in parallel;
//!    reconciliation — incoming-link admission, evictions, drops — applies
//!    sequentially in vertex order. A proposal is linear in the adjacency
//!    of the peer's neighbourhood: one pass over the friends' CSR rows
//!    fills a per-shard bit matrix of the triangles through the peer
//!    ([`LinkScratch`]), from which both the friendship bitmaps and the
//!    set-cover gains are read. LSH buckets and preference lists are
//!    **delta-maintained**, not rebuilt each round: a peer reuses its
//!    cached proposal ([`crate::network::LinkCache`]) until a writer of
//!    something the proposal reads — churn around it, or a friend's ring
//!    link landing on or leaving a non-friend inside its neighbourhood —
//!    stamps it dirty. With the `audit` feature every reuse, and every valid
//!    cache after every round, is checked against the from-scratch rebuild.
//!
//! Because the compute halves only read the snapshot and all mutation
//! happens in vertex order on one thread, the round is **bit-identical for
//! every thread count** by construction. Each round reports a
//! [`RoundTelemetry`], including where its time went (wall time per
//! superstep half, CPU time per compute phase summed over shards);
//! [`SelectNetwork::converge`] aggregates them and runs rounds until a
//! stability window passes with no changes — the iteration count of the
//! paper's Fig. 5.

use crate::links::{create_links_from_bitmaps, SelectionScratch};
use crate::network::{ConvergenceReport, SelectNetwork};
use crate::reassign::{evaluate_position_centroid_live, evaluate_position_live};
use crate::stats::{ConvergenceTelemetry, RoundTelemetry};
use hotpath::hotpath;
use osn_overlay::table::Admission;
use osn_overlay::RingId;
use osn_sim::{ShardScratch, SuperstepEngine};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// `LinkScratch::slot` value of a peer outside the loaded neighbourhood.
const ABSENT: u32 = u32::MAX;

/// Reusable per-shard scratch for the link superstep's compute half: the
/// online neighbourhood `C_p` of the peer being computed and the *triangle
/// matrix* over it — row `j` is the `|C_p|`-bit set of `p`'s online friends
/// that are social neighbours of friend `j`. One pass over the friends' CSR
/// rows fills it; the friendship bitmaps and the greedy set-cover tail of
/// Algorithm 5 then read only these rows, so a proposal costs
/// `Σ_{u ∈ C_p} deg(u)` word operations and no per-friend allocation. Each
/// superstep shard owns one inside a [`LinkShard`]; the buffers are reused
/// from peer to peer and round to round.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkScratch {
    /// Sorted online neighbourhood of the peer currently loaded.
    neigh: Vec<u32>,
    /// Position of every peer within `neigh` ([`ABSENT`] outside it) — the
    /// shard's one membership test. Network-sized; written by `load` and
    /// cleared by `unload` in `O(|C_p|)`.
    slot: Vec<u32>,
    /// Words per row: `|C_p|.div_ceil(64)`.
    words: usize,
    /// The triangle matrix, `|C_p|` rows of `words` words, row-major.
    rows: Vec<u64>,
    /// Set-cover state: friends of `p` reached by the targets so far.
    covered: Vec<u64>,
    /// Set-cover state: friends of `p` already on the target list.
    picked: Vec<u64>,
    /// Algorithm 5's own buffers.
    select: SelectionScratch,
    /// CPU time this shard spent per compute phase since `begin_epoch`.
    phase: PhaseNanos,
}

/// Per-shard CPU time of the link compute half, by phase (telemetry only).
#[derive(Clone, Copy, Debug, Default)]
struct PhaseNanos {
    rows: u64,
    lsh: u64,
    cover: u64,
}

/// Nanoseconds since `*mark`, which moves to now: consecutive laps split a
/// span into contiguous phases.
fn lap(mark: &mut Instant) -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "phase timers are wall-clock telemetry only; never feed protocol state"
    )]
    let now = Instant::now();
    let nanos = (now - *mark).as_nanos() as u64;
    *mark = now;
    nanos
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

impl LinkScratch {
    /// Loads `p`'s online neighbourhood and the triangles through `p`: row
    /// `j` is friend `j`'s whole CSR row ORed in through the `slot` table,
    /// with a peer outside the neighbourhood contributing a zero word.
    fn load(&mut self, net: &SelectNetwork, p: u32) {
        net.online_friends_into(p, &mut self.neigh);
        let LinkScratch {
            neigh,
            slot,
            words,
            rows,
            ..
        } = self;
        if slot.len() < net.len() {
            slot.resize(net.len(), ABSENT);
        }
        for (j, &u) in neigh.iter().enumerate() {
            slot[u as usize] = j as u32;
        }
        *words = neigh.len().div_ceil(64);
        rows.clear();
        rows.resize(neigh.len() * *words, 0);
        for (j, &u) in neigh.iter().enumerate() {
            let row = &mut rows[j * *words..][..*words];
            for x in net.graph.neighbors(osn_graph::UserId(u)) {
                let i = slot[x.index()];
                let present = u32::from(i != ABSENT);
                let i = (i & present.wrapping_neg()) as usize;
                row[i / 64] |= u64::from(present) << (i % 64);
            }
        }
    }

    /// Clears the membership table behind [`Self::load`].
    fn unload(&mut self) {
        for &u in &self.neigh {
            self.slot[u as usize] = ABSENT;
        }
    }

    /// Friend `j`'s triangle row.
    #[inline]
    fn row(&self, j: usize) -> &[u64] {
        &self.rows[j * self.words..][..self.words]
    }

    /// Index of online friend `f` within the loaded neighbourhood.
    #[inline]
    fn index_of(&self, f: u32) -> usize {
        let j = self.slot[f as usize];
        debug_assert_ne!(j, ABSENT, "peer {f} is outside the loaded neighbourhood");
        j as usize
    }

    /// Puts friend `j` on the target list: it and everything in its row now
    /// count as covered.
    fn pick(&mut self, j: usize) {
        let LinkScratch {
            rows,
            words,
            covered,
            picked,
            ..
        } = self;
        for (c, r) in covered.iter_mut().zip(&rows[j * *words..][..*words]) {
            *c |= r;
        }
        set_bit(covered, j);
        set_bit(picked, j);
    }

    /// How many uncovered friends of `p` friend `j` would newly reach
    /// (itself included).
    fn gain(&self, j: usize) -> u32 {
        let new_in_row: u32 = self
            .row(j)
            .iter()
            .zip(&self.covered)
            .map(|(r, c)| (r & !c).count_ones())
            .sum();
        new_in_row + !bit(&self.covered, j) as u32
    }
}

/// Per-shard state of the link superstep: the candidate-list histogram the
/// shard records into (merged in shard order at the apply barrier) plus the
/// compute scratch. Lives in the network's persistent
/// [`osn_sim::ShardArenas`], so round N + 1 reuses round N's allocations.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkShard {
    pub(crate) hist: osn_obs::Histogram,
    pub(crate) scratch: LinkScratch,
}

impl ShardScratch for LinkShard {
    fn begin_epoch(&mut self, _epoch: u64) {
        // The histogram and the phase timers restart each round; the
        // buffers are reloaded per peer.
        self.hist.reset();
        self.scratch.phase = PhaseNanos::default();
    }
}

/// Change counters of one gossip round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundChanges {
    /// Peers that moved their identifier by more than the tolerance.
    pub id_moves: usize,
    /// Long-range links added or removed across the network.
    pub link_changes: usize,
}

impl RoundChanges {
    /// Whether the round was fully quiescent.
    pub fn is_quiescent(&self) -> bool {
        self.id_moves == 0 && self.link_changes == 0
    }
}

/// A peer's recomputed link preference list (the compute half of the link
/// superstep; applied by `reconcile_links` in vertex order).
struct LinkProposal {
    /// Ordered preference list, consumed until K links are accepted.
    targets: Vec<u32>,
    /// The LSH bucket id of every slot of the peer's CSR row (`NO_BUCKET`
    /// for offline friends; None in the random ablation); copied into the
    /// flat per-edge bucket table in vertex order.
    buckets: Option<Vec<u16>>,
    /// Link-budget slots filled by LSH bucket representatives.
    bucket_hits: u64,
    /// Link-budget slots left to the coverage/strength tail (or the random
    /// ablation's blind draw).
    bucket_fallbacks: u64,
}

/// Message type of the gossip round's supersteps: each online peer addresses
/// its own vertex with what it wants to change.
enum Proposal {
    /// Identifier superstep: move to this ring position.
    Move(RingId),
    /// Link superstep: reconcile against this preference list.
    Links(LinkProposal),
    /// Link superstep: the peer's cached preference list is still valid;
    /// reconcile against the cache.
    ReuseLinks,
}

impl SelectNetwork {
    /// Runs one synchronous gossip round over all online peers.
    pub fn gossip_round(&mut self) -> RoundChanges {
        self.gossip_round_telemetry().changes()
    }

    /// Runs one gossip round and reports its full [`RoundTelemetry`].
    pub fn gossip_round_telemetry(&mut self) -> RoundTelemetry {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock telemetry only; never feeds protocol state"
        )]
        let started = Instant::now();
        let mut mark = started;
        let threads = self.cfg.resolved_threads();
        let n = self.len();
        let eps_ticks = (self.cfg.convergence_eps * u64::MAX as f64) as u64;
        self.round_counter += 1;
        let mut tel = RoundTelemetry {
            round: self.round_counter,
            ..RoundTelemetry::default()
        };
        let mut engine: SuperstepEngine<Proposal> = SuperstepEngine::new(n);

        // Superstep 1 — identifier reassignment (Algorithm 2). The compute
        // half reads only the round-start snapshot, so every peer sees the
        // same positions no matter how vertices are sharded.
        if self.cfg.reassign_ids {
            let net = &*self;
            engine.step_parallel(true, threads, |p, _mail, out| {
                if net.is_peer_online(p) {
                    if let Some(pos) = net.propose_reassignment(p, eps_ticks) {
                        out.push((p, Proposal::Move(pos)));
                    }
                }
            });
            engine.drain(|p, m| {
                if let Proposal::Move(pos) = m {
                    tel.id_movement += self.positions[p as usize].distance(pos).as_unit_len();
                    self.move_peer(p, pos);
                    tel.id_moves += 1;
                }
            });
        }
        tel.id_nanos = lap(&mut mark);

        // Superstep 2 — link reassignment (Algorithm 5). Preference lists
        // are pure functions of the post-move snapshot; admission control
        // and drops apply in vertex order. Each worker also records the
        // per-peer candidate-list length into its own shard histogram;
        // the shards merge in shard order at the apply barrier below, so
        // the distribution is bit-identical at any thread count.
        {
            // The arenas are network-owned so their buffers persist across
            // rounds; taken out for the compute half because the workers
            // borrow the network immutably.
            let mut arenas = std::mem::take(&mut self.link_arenas);
            let net = &*self;
            let round_salt = self.round_counter;
            engine.step_parallel_arena(true, threads, &mut arenas, |p, _mail, out, shard| {
                if net.is_peer_online(p) {
                    // Delta-maintenance fast path: if no input of the peer's
                    // last link computation changed, the cached preference
                    // list *is* the recomputation — skip Algorithm 5.
                    if let Some(len) = net.cached_targets_len(p) {
                        shard.hist.record(len as u64);
                        out.push((p, Proposal::ReuseLinks));
                    } else {
                        let prop = net.propose_links_in(p, round_salt, &mut shard.scratch);
                        shard.hist.record(prop.targets.len() as u64);
                        out.push((p, Proposal::Links(prop)));
                    }
                }
            });
            for shard in arenas.active() {
                tel.link_candidates.merge(&shard.hist);
                tel.rows_nanos += shard.scratch.phase.rows;
                tel.lsh_nanos += shard.scratch.phase.lsh;
                tel.cover_nanos += shard.scratch.phase.cover;
            }
            self.link_arenas = arenas;
            tel.link_compute_nanos = lap(&mut mark);
            engine.drain(|p, m| match m {
                Proposal::Links(prop) => {
                    tel.links_recomputed += 1;
                    if let Some(buckets) = &prop.buckets {
                        self.store_buckets(p, buckets);
                    }
                    tel.lsh_bucket_hits += prop.bucket_hits;
                    tel.lsh_bucket_fallbacks += prop.bucket_fallbacks;
                    tel.link_changes += self.reconcile_links(p, &prop.targets);
                    self.refresh_link_cache(p, prop);
                }
                Proposal::ReuseLinks => {
                    let cache = &mut self.link_cache[p as usize];
                    tel.lsh_bucket_hits += cache.bucket_hits;
                    tel.lsh_bucket_fallbacks += cache.bucket_fallbacks;
                    // The stored per-edge bucket table is untouched: every
                    // writer of `p`'s slots drops `p`'s cache, so the slots
                    // still hold exactly the cached buckets. Take/restore
                    // the target list to reconcile without cloning it.
                    let targets = std::mem::take(&mut cache.targets);
                    tel.link_changes += self.reconcile_links(p, &targets);
                    self.link_cache[p as usize].targets = targets;
                }
                Proposal::Move(_) => {}
            });
            tel.link_apply_nanos = lap(&mut mark);
        }

        // Ring short links follow the new positions.
        self.refresh_short_links();
        tel.ring_nanos = lap(&mut mark);
        #[cfg(feature = "audit")]
        self.assert_overlay_invariants("gossip round");
        tel.messages = engine.messages_sent_total();
        tel.wall_nanos = started.elapsed().as_nanos() as u64;
        tel
    }

    /// One peer's Algorithm 2 evaluation, gated by the cluster stop radius
    /// and by hub anchoring. Pure: reads the snapshot, returns the position
    /// the peer proposes to move to (None = stays put).
    ///
    /// Hub anchoring: a peer whose social degree is at least its strongest
    /// friend's does not move — it *is* the anchor its neighbourhood
    /// gathers around. The paper itself observes that centroid placement
    /// breaks down for high-degree users; without an anchor rule the
    /// midpoint dynamics are a global averaging process that drags the whole
    /// network into one spot, erasing Fig. 8's per-community regions.
    fn propose_reassignment(&self, p: u32, eps_ticks: u64) -> Option<RingId> {
        use osn_graph::UserId;
        let radius_ticks = (self.cfg.cluster_radius * u64::MAX as f64) as u64;
        // The *guide* is p's highest-ranked online friend under the
        // lexicographic (degree, id) order; rank local maxima anchor their
        // neighbourhood and never move.
        let rank = |x: u32| (self.graph.degree(UserId(x)), x);
        // The live ranking holds exactly p's online friends, so the guide
        // search needs no per-friend liveness probe.
        let guide = self
            .strengths
            .live_ranked(p)
            .iter()
            .copied()
            .max_by_key(|&f| rank(f));
        let guide = match guide {
            Some(g) if rank(g) > rank(p) => g,
            _ => return None, // p is a local maximum: it anchors
        };
        // Already settled inside the guide's cluster region?
        if self.positions[p as usize]
            .distance(self.positions[guide as usize])
            .0
            <= radius_ticks
        {
            return None;
        }
        // Algorithm 2 over the live ranking: its first two entries are the
        // top-2 online friends, replacing the full-ranked-list rescan.
        let live = self.strengths.live_ranked(p);
        let pos_of = |f: u32| self.positions[f as usize];
        let mut new = if self.cfg.centroid_all {
            evaluate_position_centroid_live(live, pos_of)
        } else {
            evaluate_position_live(live, pos_of)
        };
        // When the two strongest friends live in different ring regions the
        // centroid lands in no-man's-land between them (the high-degree
        // pathology §III-C discusses). Snap next to the guide instead.
        if let Some(target) = new {
            if target.distance(self.positions[guide as usize]).0 > radius_ticks {
                new = Some(self.positions[guide as usize]);
            }
        }
        new.filter(|&new_pos| self.positions[p as usize].distance(new_pos).0 > eps_ticks)
    }

    /// [`Self::propose_links_in`] over a throwaway scratch — the convenience
    /// form for the sequential path ([`Self::reassign_links_of`]), audits and
    /// equivalence tests, where per-call allocation is not on a hot path.
    fn propose_links(&self, p: u32, round_salt: u64) -> LinkProposal {
        let mut scratch = LinkScratch::default();
        self.propose_links_in(p, round_salt, &mut scratch)
    }

    /// The compute half of the link superstep: peer `p`'s ordered preference
    /// list, derived purely from the snapshot (plus a per-peer RNG stream in
    /// the random-picker ablation — the shared network RNG would make the
    /// result depend on peer scheduling order). `scratch` is the calling
    /// shard's reusable buffer set.
    #[hotpath]
    fn propose_links_in(&self, p: u32, round_salt: u64, scratch: &mut LinkScratch) -> LinkProposal {
        if self.cfg.use_lsh_picker {
            self.propose_lsh_links(p, scratch)
        } else {
            self.online_friends_into(p, &mut scratch.neigh);
            self.propose_random_links(p, round_salt, &scratch.neigh)
        }
    }

    /// Checks whether `p`'s cached link proposal is still valid (LSH picker
    /// only; the random ablation redraws every round by design). Returns the
    /// cached target count for telemetry, or `None` on a miss. With the
    /// `audit` feature every hit is checked against the from-scratch rebuild.
    fn cached_targets_len(&self, p: u32) -> Option<usize> {
        if !self.cfg.use_lsh_picker || !self.link_cache_valid(p) {
            return None;
        }
        #[cfg(feature = "audit")]
        if let Some(what) = self.link_cache_divergence(p) {
            panic!("link-cache audit: {what} of peer {p} diverged from rebuild");
        }
        Some(self.link_cache[p as usize].targets.len())
    }

    /// What, if anything, of `p`'s cached proposal differs from a fresh
    /// Algorithm 5 run — the oracle behind the hit path above and the
    /// auditor's `link-cache` invariant.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn link_cache_divergence(&self, p: u32) -> Option<&'static str> {
        let fresh = self.propose_links(p, self.round_counter);
        let base = self.graph.neighbor_base(osn_graph::UserId(p));
        let buckets = fresh.buckets.expect("LSH picker always returns buckets");
        if fresh.targets != self.link_cache[p as usize].targets {
            Some("cached targets")
        } else if buckets != self.link_buckets[base..base + buckets.len()] {
            Some("stored buckets")
        } else {
            None
        }
    }

    /// Stores a freshly computed proposal as `p`'s link cache. Only LSH
    /// proposals are cacheable; the random ablation (no buckets) is salted
    /// by round and must redraw.
    fn refresh_link_cache(&mut self, p: u32, prop: LinkProposal) {
        let cache = &mut self.link_cache[p as usize];
        cache.round = prop.buckets.as_ref().map_or(0, |_| self.round_counter);
        cache.bucket_hits = prop.bucket_hits;
        cache.bucket_fallbacks = prop.bucket_fallbacks;
        cache.targets = prop.targets;
    }

    /// Algorithm 5 for peer `p`: one representative per LSH bucket of the
    /// friendship bitmaps, then the coverage/strength tail.
    #[hotpath]
    fn propose_lsh_links(&self, p: u32, scratch: &mut LinkScratch) -> LinkProposal {
        #[expect(
            clippy::disallowed_methods,
            reason = "phase timers are wall-clock telemetry only; never feed protocol state"
        )]
        let mut mark = Instant::now();
        scratch.load(self, p);
        scratch.phase.rows += lap(&mut mark);
        // A friend's advertised connection set is its current links plus its
        // social adjacency. Long links converge onto social edges anyway
        // (they are only ever established between friends), and anchoring
        // the bitmap in the social graph keeps the bitmap → bucket → link
        // feedback loop from flapping forever — with purely dynamic `R_u`
        // the pick in a bucket changes every round and the overlay never
        // quiesces. The social part is friend `u`'s triangle row. A long
        // link only ever joins social friends (`SelectNetwork::add_long`
        // asserts it), so it is a bit of that row already; only `u`'s ring
        // neighbours can add a bit, when they are friends of `p` but not of
        // `u`.
        let LinkScratch {
            neigh,
            slot,
            words,
            rows,
            select,
            ..
        } = &mut *scratch;
        let mut targets = create_links_from_bitmaps(
            neigh,
            self.k,
            self.cfg.lsh_samples,
            self.cfg.seed ^ (p as u64).rotate_left(32),
            |j, bm| {
                bm.copy_from_words(&rows[j * *words..][..*words]);
                let (u, table) = (neigh[j], self.table(neigh[j]));
                for link in [table.successor, table.predecessor].into_iter().flatten() {
                    let i = slot[link as usize];
                    if i != ABSENT && link != u {
                        bm.set(i as usize, true);
                    }
                }
            },
            |u| self.bandwidth[u as usize],
            select,
        );
        #[cfg(feature = "audit")]
        assert_one_representative_per_bucket(p, &targets, neigh, &select.bucket_of);
        let row = self.graph.neighbors(osn_graph::UserId(p));
        let buckets = select.row_buckets(row.iter().map(|f| self.is_peer_online(f.0)));
        let bucket_hits = targets.len().min(self.k) as u64;
        let bucket_fallbacks = self.k.saturating_sub(targets.len()) as u64;
        scratch.phase.lsh += lap(&mut mark);
        // Friends converge to similar connections, so buckets collapse and
        // the picker returns fewer than K targets. The rest of the
        // preference list continues the same avoid-link-overlap goal: greedy
        // set cover over the *social* reach of each friend within the
        // neighbourhood (static data — an evolving-table objective would
        // flap forever), then any leftover friends in strength order.
        // `reconcile_links` consumes the list until K links are actually
        // accepted, so admission rejections don't waste budget. A friend's
        // reach is its triangle row plus itself, so a gain is one popcount
        // sweep; the scan follows the delta-maintained live ranking (exactly
        // `p`'s online friends) with a strict `>`, so ties go to the
        // stronger friend.
        scratch.covered.clear();
        scratch.covered.resize(scratch.words, 0);
        scratch.picked.clear();
        scratch.picked.resize(scratch.words, 0);
        for &t in &targets {
            scratch.pick(scratch.index_of(t));
        }
        let ranked = self.strengths.live_ranked(p);
        loop {
            let mut best: Option<(u32, usize)> = None;
            for &f in ranked {
                let j = scratch.index_of(f);
                if bit(&scratch.picked, j) {
                    continue;
                }
                let gain = scratch.gain(j);
                if gain > 0 && best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, j));
                }
            }
            let Some((_, j)) = best else { break };
            scratch.pick(j);
            targets.push(scratch.neigh[j]);
        }
        // Tail: remaining online friends in strength order.
        for &f in ranked {
            if !bit(&scratch.picked, scratch.index_of(f)) {
                targets.push(f);
            }
        }
        scratch.unload();
        scratch.phase.cover += lap(&mut mark);
        LinkProposal {
            targets,
            buckets: Some(buckets),
            bucket_hits,
            bucket_fallbacks,
        }
    }

    /// Ablation: uniform-random friends, socially blind within `C_p`
    /// (`neighbourhood`, `p`'s online friends). Sticky: existing online
    /// links are kept and only the remaining budget is drawn randomly,
    /// otherwise the overlay would rewire forever and never converge. The
    /// draw comes from a per-peer, per-round stream so it is independent of
    /// execution order. Never cached.
    fn propose_random_links(&self, p: u32, round_salt: u64, neighbourhood: &[u32]) -> LinkProposal {
        let mut rng = StdRng::seed_from_u64(
            self.cfg.seed
                ^ round_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (p as u64).rotate_left(32),
        );
        let mut targets: Vec<u32> = self
            .table(p)
            .long_links()
            .iter()
            .copied()
            .filter(|&u| self.is_peer_online(u))
            // selint: allow(hotpath-alloc, random-picker ablation branch; the LSH production path reuses the shard scratch)
            .collect();
        let mut pool: Vec<u32> = neighbourhood
            .iter()
            .copied()
            .filter(|u| !targets.contains(u))
            // selint: allow(hotpath-alloc, random-picker ablation branch; the LSH production path reuses the shard scratch)
            .collect();
        pool.shuffle(&mut rng);
        for u in pool {
            if targets.len() >= self.k {
                break;
            }
            targets.push(u);
        }
        LinkProposal {
            targets,
            buckets: None,
            bucket_hits: 0,
            bucket_fallbacks: self.k as u64,
        }
    }

    /// Recomputes peer `p`'s long-range link targets and reconciles its
    /// table (and the remote incoming tables) against them. Returns the
    /// number of link changes. Sequential-path equivalent of one link
    /// superstep restricted to `p`; used by [`Self::partial_gossip_round`].
    pub(crate) fn reassign_links_of(&mut self, p: u32) -> usize {
        if self.cached_targets_len(p).is_some() {
            let targets = std::mem::take(&mut self.link_cache[p as usize].targets);
            let changes = self.reconcile_links(p, &targets);
            self.link_cache[p as usize].targets = targets;
            return changes;
        }
        let prop = self.propose_links(p, self.round_counter);
        if let Some(buckets) = &prop.buckets {
            self.store_buckets(p, buckets);
        }
        let changes = self.reconcile_links(p, &prop.targets);
        self.refresh_link_cache(p, prop);
        changes
    }

    /// Reconciles `p`'s long links against an ordered preference list:
    /// candidates are consumed until K links are *accepted* (existing links
    /// count without re-admission; new links go through the remote
    /// incoming-admission of §III-D), then every current link that did not
    /// make the cut is dropped — except unresponsive-but-trusted links when
    /// CMA recovery is on (§III-F keeps them to avoid reassignment chains).
    pub(crate) fn reconcile_links(&mut self, p: u32, candidates: &[u32]) -> usize {
        let mut changes = 0usize;
        let [mut current, mut desired] = std::mem::take(&mut self.link_bufs);
        current.clear();
        current.extend_from_slice(self.table(p).long_links());

        // Trusted offline links consume budget up front.
        desired.clear();
        desired.extend(current.iter().copied().filter(|&u| {
            // A never-probed slot (count 0) is *not* trusted: the old
            // per-peer map simply had no entry for it.
            self.cfg.cma_recovery
                && !self.is_peer_online(u)
                && self.edge_slot(p, u).is_some_and(|s| {
                    let c = &self.cma[s];
                    c.count() > 0 && !c.is_poor(self.cfg.cma_threshold, self.cfg.cma_min_obs)
                })
        }));

        for &u in candidates {
            if desired.len() >= self.k {
                break;
            }
            if u == p || desired.contains(&u) {
                continue;
            }
            if current.contains(&u) {
                desired.push(u);
                continue;
            }
            if self.table(p).has_link(u) {
                continue; // already a ring link; no long link needed
            }
            match self.offer_incoming(u, p) {
                Admission::Accepted { evicted } => {
                    self.add_long(p, u);
                    desired.push(u);
                    changes += 1;
                    if let Some(w) = evicted {
                        // The displaced peer loses its outgoing link to u.
                        if self.remove_long(w, u) {
                            changes += 1;
                        }
                    }
                }
                Admission::Rejected => {}
            }
        }

        // Drop current links that did not make the cut.
        for &u in &current {
            if !desired.contains(&u) {
                self.remove_long(p, u);
                self.remove_incoming(u, p);
                changes += 1;
            }
        }
        self.link_bufs = [current, desired];
        changes
    }

    /// Runs gossip rounds until [`RoundChanges::is_quiescent`] holds for
    /// `stability_window` consecutive rounds, or `max_rounds` elapse. The
    /// report carries the full per-round [`ConvergenceTelemetry`].
    pub fn converge(&mut self, max_rounds: usize) -> ConvergenceReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock telemetry only; never feeds protocol state"
        )]
        let started = Instant::now();
        let mut telemetry = ConvergenceTelemetry::new(self.cfg.resolved_threads());
        let mut quiet = 0usize;
        let mut rounds = 0usize;
        let mut converged = false;
        for round in 1..=max_rounds {
            let tel = self.gossip_round_telemetry();
            let quiescent = tel.is_quiescent();
            telemetry.rounds.push(tel);
            rounds = round;
            if quiescent {
                quiet += 1;
                if quiet >= self.cfg.stability_window {
                    converged = true;
                    break;
                }
            } else {
                quiet = 0;
            }
        }
        self.last_convergence = Some(rounds);
        telemetry.total_wall_nanos = started.elapsed().as_nanos() as u64;
        ConvergenceReport {
            rounds,
            converged,
            telemetry,
        }
    }

    /// Emulates the paper's asynchronous gossip: only a random `fraction` of
    /// online peers exchange this round. Used by convergence experiments
    /// that need finer-grained iteration counts.
    pub fn partial_gossip_round(&mut self, fraction: f64) -> RoundChanges {
        let n = self.len() as u32;
        let eps_ticks = (self.cfg.convergence_eps * u64::MAX as f64) as u64;
        self.round_counter += 1;
        let mut changes = RoundChanges::default();
        let mut acted: Vec<u32> = (0..n).filter(|&p| self.is_peer_online(p)).collect();
        acted.retain(|_| self.rng.gen_bool(fraction.clamp(0.0, 1.0)));
        for p in acted {
            if self.cfg.reassign_ids {
                if let Some(pos) = self.propose_reassignment(p, eps_ticks) {
                    self.move_peer(p, pos);
                    changes.id_moves += 1;
                }
            }
            changes.link_changes += self.reassign_links_of(p);
        }
        self.refresh_short_links();
        changes
    }
}

/// Audit-time check of the Algorithm 5 invariant at its true scope: each
/// round's `create_links` output elects **exactly one representative per
/// non-empty LSH bucket**. The end-of-round state auditor cannot check this —
/// `reconcile_links` keeps established links without re-admission while the
/// buckets are re-evaluated (incrementally) as the overlay evolves, so
/// carried-over links may legitimately share a *current* bucket.
///
/// `targets` must be the raw selection (before the coverage/strength tail is
/// appended); `bucket_of[j]` the bucket it was drawn from for `members[j]`
/// (sorted ascending).
#[cfg(feature = "audit")]
pub(crate) fn assert_one_representative_per_bucket(
    p: u32,
    targets: &[u32],
    members: &[u32],
    bucket_of: &[u16],
) {
    // selint: allow(hotpath-alloc, audit-feature oracle; compiled out of production builds)
    let mut nonempty: Vec<u16> = bucket_of.to_vec();
    nonempty.sort_unstable();
    nonempty.dedup();
    nonempty.retain(|&b| b != crate::network::NO_BUCKET);
    let mut represented: Vec<u16> = targets
        .iter()
        .map(|t| match members.binary_search(t) {
            Ok(j) => bucket_of[j],
            Err(_) => panic!("link audit: peer {p} selected {t}, which is in no bucket"),
        })
        // selint: allow(hotpath-alloc, audit-feature oracle; compiled out of production builds)
        .collect();
    represented.sort_unstable();
    assert_eq!(
        represented, nonempty,
        "link audit: peer {p} must select exactly one representative per non-empty bucket"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectConfig;
    use osn_graph::generators::{BarabasiAlbert, Generator};
    use osn_graph::UserId;

    fn net(seed: u64) -> SelectNetwork {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(seed);
        SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed))
    }

    #[test]
    fn rounds_reduce_friend_distance() {
        let mut n = net(1);
        let avg_dist = |n: &SelectNetwork| {
            let mut total = 0.0;
            let mut count = 0u64;
            for p in 0..n.len() as u32 {
                for &f in &n.online_friends(p) {
                    total += n
                        .identifier_of(p)
                        .distance(n.identifier_of(f))
                        .as_unit_len();
                    count += 1;
                }
            }
            total / count as f64
        };
        let before = avg_dist(&n);
        for _ in 0..10 {
            n.gossip_round();
        }
        let after = avg_dist(&n);
        assert!(
            after < before * 0.5,
            "reassignment should pull friends together ({before} -> {after})"
        );
    }

    #[test]
    fn long_links_connect_social_friends() {
        let mut n = net(2);
        for _ in 0..5 {
            n.gossip_round();
        }
        for p in 0..n.len() as u32 {
            for &l in n.table(p).long_links() {
                assert!(
                    n.graph().has_edge(UserId(p), UserId(l)),
                    "long link {p}->{l} is not a social edge"
                );
            }
            assert!(n.table(p).long_links().len() <= n.k());
        }
    }

    #[test]
    fn converge_terminates_and_is_stable() {
        let mut n = net(3);
        let report = n.converge(300);
        assert!(report.converged, "did not converge in 300 rounds");
        // A further round must be quiescent.
        let ch = n.gossip_round();
        assert!(ch.is_quiescent(), "post-convergence round changed {ch:?}");
    }

    #[test]
    fn incoming_caps_respected() {
        let mut n = net(4);
        for _ in 0..5 {
            n.gossip_round();
        }
        for p in 0..n.len() as u32 {
            assert!(
                n.table(p).incoming_links().len() <= n.k(),
                "peer {p} exceeded incoming cap"
            );
        }
    }

    #[test]
    fn no_reassignment_ablation_keeps_ids() {
        let g = BarabasiAlbert::new(80, 3).generate(5);
        let mut n = SelectNetwork::bootstrap(
            g,
            SelectConfig::default()
                .with_seed(5)
                .with_reassignment(false),
        );
        let ids: Vec<_> = (0..80u32).map(|p| n.identifier_of(p)).collect();
        n.gossip_round();
        for p in 0..80u32 {
            assert_eq!(n.identifier_of(p), ids[p as usize]);
        }
    }

    #[test]
    fn random_picker_ablation_still_links_friends() {
        let g = BarabasiAlbert::new(80, 3).generate(6);
        let mut n = SelectNetwork::bootstrap(
            g,
            SelectConfig::default().with_seed(6).with_lsh_picker(false),
        );
        n.gossip_round();
        let total_long: usize = (0..80u32).map(|p| n.table(p).long_links().len()).sum();
        assert!(total_long > 0);
        for p in 0..80u32 {
            for &l in n.table(p).long_links() {
                assert!(n.graph().has_edge(UserId(p), UserId(l)));
            }
        }
    }

    #[test]
    fn partial_round_acts_on_subset() {
        let mut n = net(7);
        let full = n.gossip_round();
        let mut n2 = net(7);
        let partial = n2.partial_gossip_round(0.3);
        // A 30% round should generally move fewer ids than a full round.
        assert!(partial.id_moves <= full.id_moves);
    }

    #[test]
    fn gossip_is_deterministic() {
        let mut a = net(9);
        let mut b = net(9);
        for _ in 0..3 {
            assert_eq!(a.gossip_round(), b.gossip_round());
        }
        for p in 0..a.len() as u32 {
            assert_eq!(a.identifier_of(p), b.identifier_of(p));
            assert_eq!(a.table(p).long_links(), b.table(p).long_links());
        }
    }

    #[test]
    fn telemetry_accounts_for_the_round() {
        let mut n = net(11);
        let tel = n.gossip_round_telemetry();
        assert_eq!(tel.round, 1);
        assert!(tel.id_moves > 0, "bootstrap round should move identifiers");
        assert!(tel.id_movement > 0.0);
        assert!(tel.link_changes > 0, "bootstrap round should create links");
        // One Move proposal per id move, one Links proposal per online peer.
        assert_eq!(tel.messages, tel.id_moves as u64 + n.online_count() as u64);
        assert!((0.0..=1.0).contains(&tel.bucket_hit_rate()));
        assert_eq!(tel.changes().id_moves, tel.id_moves);
        // The phase timers ran, and are no part of equality.
        assert!(tel.link_compute_nanos > 0 && tel.rows_nanos > 0);
        assert!(tel.id_nanos + tel.link_compute_nanos <= tel.wall_nanos);
        let mut untimed = tel.clone();
        for nanos in [
            &mut untimed.id_nanos,
            &mut untimed.link_compute_nanos,
            &mut untimed.link_apply_nanos,
            &mut untimed.ring_nanos,
            &mut untimed.rows_nanos,
            &mut untimed.lsh_nanos,
            &mut untimed.cover_nanos,
        ] {
            *nanos = 0;
        }
        assert_eq!(untimed, tel);
        // Counter keeps running across rounds.
        assert_eq!(n.gossip_round_telemetry().round, 2);
    }

    #[test]
    fn quiescent_round_has_quiescent_telemetry() {
        let mut n = net(12);
        let report = n.converge(300);
        assert!(report.converged);
        let tel = n.gossip_round_telemetry();
        assert!(tel.is_quiescent());
        assert_eq!(tel.id_movement, 0.0);
        let last = report.telemetry.rounds.last().unwrap();
        assert!(last.is_quiescent(), "converged run ends quiescent");
    }

    #[test]
    fn converge_report_carries_round_telemetry() {
        let mut n = net(13);
        let report = n.converge(300);
        assert_eq!(report.telemetry.rounds.len(), report.rounds);
        assert!(report.telemetry.total_messages() > 0);
        assert!(report.telemetry.total_id_moves() > 0);
        assert!(report.telemetry.threads >= 1);
        // Rounds are numbered consecutively from 1.
        for (i, r) in report.telemetry.rounds.iter().enumerate() {
            assert_eq!(r.round, i as u64 + 1);
        }
    }

    #[test]
    fn converged_rounds_reuse_link_caches() {
        let mut n = net(14);
        let report = n.converge(300);
        assert!(report.converged);
        // Post-convergence every online peer's cache must hit: a further
        // round does no Algorithm 5 recomputation at all.
        let hits = (0..n.len() as u32)
            .filter(|&p| n.is_peer_online(p) && n.cached_targets_len(p).is_some())
            .count();
        assert_eq!(
            hits,
            n.online_count(),
            "quiescent round should be all cache hits"
        );
        // Churn invalidates the departed peer's neighbourhood only.
        let victim = 3u32;
        n.set_offline(victim);
        assert!(n.cached_targets_len(victim).is_none());
        for f in n.online_friends(victim) {
            assert!(
                n.cached_targets_len(f).is_none(),
                "friend {f} of departed {victim} kept a stale cache"
            );
        }
    }

    /// The stamp rule is tight as well as sound: a converged overlay
    /// recomputes nothing, and after one departure only peers whose proposal
    /// input moved recompute — the departed peer and its friends (their
    /// online set changed), and the common friends of each (re-stitched peer,
    /// ring neighbour it lost or gained) pair.
    #[test]
    fn recomputation_is_confined_to_changed_inputs() {
        let mut n = net(15);
        assert!(n.converge(300).converged);
        assert_eq!(n.gossip_round_telemetry().links_recomputed, 0);

        let victim = 3u32;
        let ring_links = |n: &SelectNetwork, q: u32| [n.table(q).successor, n.table(q).predecessor];
        let before: Vec<_> = (0..n.len() as u32).map(|q| ring_links(&n, q)).collect();
        n.set_offline(victim);
        let friends_of =
            |q: u32| -> Vec<u32> { n.graph().neighbors(UserId(q)).iter().map(|f| f.0).collect() };
        let mut allowed = friends_of(victim);
        allowed.push(victim);
        for q in (0..n.len() as u32).filter(|&q| q != victim) {
            let (old, new) = (before[q as usize], ring_links(&n, q));
            let moved = old.iter().chain(&new).flatten();
            for &w in moved.filter(|&&w| old.contains(&Some(w)) != new.contains(&Some(w))) {
                let of_w = friends_of(w);
                allowed.extend(friends_of(q).into_iter().filter(|f| of_w.contains(f)));
            }
        }
        let stale: Vec<u32> = (0..n.len() as u32)
            .filter(|&p| n.is_peer_online(p) && !n.link_cache_valid(p))
            .collect();
        assert!(
            !stale.is_empty(),
            "a departure must invalidate its neighbourhood"
        );
        for p in &stale {
            assert!(
                allowed.contains(p),
                "peer {p} recomputes with unchanged input"
            );
        }
        assert_eq!(n.gossip_round_telemetry().links_recomputed, stale.len());
    }

    /// From-scratch rebuild oracle for the delta-maintained state: after an
    /// arbitrary seeded churn/round sequence, every valid link cache must
    /// equal a fresh Algorithm 5 run, the stored per-edge bucket table must
    /// equal the fresh bucket assignment, and the live strength rankings
    /// must equal the full rankings filtered by liveness — at 1 and 8
    /// threads, with bit-identical overlay state across the two.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Applies `events` — (peer, writer, gossip rounds afterwards) — to
        /// a converged overlay, calling `check` after every writer and every
        /// round. The writers are all there are: both liveness toggles, a
        /// probe round, a message-level double round (the second delivers the
        /// first's mail and relinks from it) and the sequential partial round.
        fn run(
            seed: u64,
            threads: usize,
            events: &[(u32, u8, u8)],
            check: impl Fn(&SelectNetwork),
        ) -> SelectNetwork {
            let g = BarabasiAlbert::with_closure(100, 4, 0.4).generate(seed);
            let mut n = SelectNetwork::bootstrap(
                g,
                SelectConfig::default()
                    .with_seed(seed)
                    .with_threads(threads),
            );
            n.converge(60);
            for &(p, writer, rounds) in events {
                match writer {
                    0 | 1 => n.set_offline(p),
                    2 | 3 => n.set_online(p),
                    4 => {
                        n.probe_round();
                    }
                    5 => {
                        let mut protocol = crate::protocol::ProtocolNetwork::new(n);
                        protocol.round();
                        protocol.round();
                        n = protocol.into_network();
                    }
                    _ => {
                        n.partial_gossip_round(0.5);
                    }
                }
                check(&n);
                for _ in 0..rounds {
                    n.gossip_round();
                    check(&n);
                }
            }
            n
        }

        fn assert_matches_rebuild(n: &SelectNetwork) {
            for p in 0..n.len() as u32 {
                // Live strength rankings ≡ filtered rebuild.
                let want: Vec<u32> = n
                    .strengths
                    .ranked_friends(p)
                    .iter()
                    .copied()
                    .filter(|&f| n.is_peer_online(f))
                    .collect();
                assert_eq!(
                    n.strengths.live_ranked(p),
                    &want[..],
                    "live ranking of {p} diverged from rebuild"
                );
                // Every cache the stamp rule calls valid ≡ fresh Algorithm 5
                // (targets + stored buckets).
                if n.is_peer_online(p) && n.link_cache_valid(p) {
                    assert_eq!(n.link_cache_divergence(p), None, "link cache of {p}");
                }
            }
        }

        /// Algorithm 5's LSH arm by the definitions the triangle rows
        /// replaced: each friend's bitmap is one `contains` scan of
        /// `all_links(u) + N(u)` per bit position, and every greedy
        /// iteration rescans each unpicked friend's whole CSR row against a
        /// coverage set.
        fn propose_lsh_links_by_scan(n: &SelectNetwork, p: u32) -> LinkProposal {
            use std::collections::BTreeSet;
            let neighbourhood = n.online_friends(p);
            let mut select = SelectionScratch::default();
            let mut targets = create_links_from_bitmaps(
                &neighbourhood,
                n.k,
                n.cfg.lsh_samples,
                n.cfg.seed ^ (p as u64).rotate_left(32),
                |j, bm| {
                    let u = neighbourhood[j];
                    let mut links = n.table(u).all_links(u);
                    links.extend(n.graph.neighbors(UserId(u)).iter().map(|f| f.0));
                    *bm = osn_lsh::Bitmap::from_set_bits(
                        neighbourhood.len(),
                        neighbourhood
                            .iter()
                            .enumerate()
                            .filter(|&(_, c)| links.contains(c))
                            .map(|(i, _)| i),
                    );
                },
                |u| n.bandwidth[u as usize],
                &mut select,
            );
            // One id per CSR slot, each found by scanning the neighbourhood.
            let buckets: Vec<u16> = (n.graph.neighbors(UserId(p)).iter())
                .map(|f| {
                    let j = neighbourhood.iter().position(|&c| c == f.0);
                    j.map_or(crate::network::NO_BUCKET, |j| select.bucket_of[j])
                })
                .collect();
            let bucket_hits = targets.len().min(n.k) as u64;
            let bucket_fallbacks = n.k.saturating_sub(targets.len()) as u64;
            let reach = |f: u32| {
                n.graph
                    .neighbors(UserId(f))
                    .iter()
                    .map(|x| x.0)
                    .filter(|q| neighbourhood.binary_search(q).is_ok())
                    .chain(std::iter::once(f))
            };
            let mut covered: BTreeSet<u32> = targets.iter().flat_map(|&t| reach(t)).collect();
            let ranked = n.strengths.live_ranked(p);
            loop {
                let mut best: Option<(usize, u32)> = None;
                for &f in ranked {
                    if targets.contains(&f) {
                        continue;
                    }
                    let gain = reach(f).filter(|q| !covered.contains(q)).count();
                    if gain > 0 && best.is_none_or(|(g, _)| gain > g) {
                        best = Some((gain, f));
                    }
                }
                let Some((_, f)) = best else { break };
                covered.extend(reach(f));
                targets.push(f);
            }
            for &f in ranked {
                if !targets.contains(&f) {
                    targets.push(f);
                }
            }
            LinkProposal {
                targets,
                buckets: Some(buckets),
                bucket_hits,
                bucket_fallbacks,
            }
        }

        /// Every online peer's proposal over one reused scratch (as a shard
        /// runs it) equals the scan-based definitions.
        fn assert_rows_match_scans(n: &SelectNetwork) {
            let mut scratch = LinkScratch::default();
            for p in (0..n.len() as u32).filter(|&p| n.is_peer_online(p)) {
                let got = n.propose_links_in(p, n.round_counter, &mut scratch);
                let want = propose_lsh_links_by_scan(n, p);
                assert_eq!(got.targets, want.targets, "targets of peer {p}");
                assert_eq!(got.buckets, want.buckets, "buckets of peer {p}");
                assert_eq!(got.bucket_hits, want.bucket_hits, "hits of peer {p}");
                assert_eq!(
                    got.bucket_fallbacks, want.bucket_fallbacks,
                    "fallbacks of peer {p}"
                );
            }
            assert!(
                scratch.slot.iter().all(|&j| j == ABSENT),
                "a proposal left its neighbourhood loaded"
            );
        }

        /// Neighbourhoods on both sides of every bitmap word boundary:
        /// peers 0..6 have exactly 0, 1, 63, 64, 65 and 130 friends, drawn
        /// from a clustered background graph so the rows are non-trivial.
        #[test]
        fn rows_match_scans_at_word_boundaries() {
            const SIZES: [u32; 6] = [0, 1, 63, 64, 65, 130];
            let background = BarabasiAlbert::with_closure(200, 5, 0.5).generate(21);
            let mut edges: Vec<(u32, u32)> = background
                .edges()
                .map(|(u, v)| (u.0 + 6, v.0 + 6))
                .collect();
            for (hub, &size) in SIZES.iter().enumerate() {
                edges.extend((0..size).map(|i| (hub as u32, 6 + i)));
            }
            let g = osn_graph::GraphBuilder::from_edges(206, edges);
            let mut n = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(21));
            for (hub, &size) in SIZES.iter().enumerate() {
                assert_eq!(n.online_friends(hub as u32).len(), size as usize);
            }
            assert_rows_match_scans(&n);
            for _ in 0..3 {
                n.gossip_round();
            }
            // Mid-convergence friends sit next to each other on the ring,
            // so ring links contribute bitmap bits, not only long links.
            let ring_link_inside_neighbourhood = (0..n.len() as u32).any(|p| {
                let friends = n.online_friends(p);
                friends.iter().any(|&u| {
                    n.table(u)
                        .successor
                        .is_some_and(|s| s != u && friends.contains(&s))
                })
            });
            assert!(ring_link_inside_neighbourhood);
            assert_rows_match_scans(&n);
            // `all_links` drops a table's reference to its own peer.
            n.table_mut_unchecked(6).successor = Some(6);
            assert_rows_match_scans(&n);
            // No bucket at all: the whole list is the coverage tail.
            n.k = 0;
            assert_rows_match_scans(&n);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Random graphs, overlays stopped mid-convergence, random
            /// liveness masks and probe rounds (so recovery's replacements
            /// and eviction relinks have written long links too): the
            /// triangle-row proposal is the scan-based one, field for field.
            #[test]
            fn rows_match_scans_on_random_overlays(
                seed in 0u64..1000,
                communities in any::<bool>(),
                rounds_before in 0usize..5,
                offline in proptest::collection::vec(0u32..160, 0..60),
                probes in 0usize..4,
                rounds_after in 0usize..2,
            ) {
                let g = if communities {
                    osn_graph::generators::CommunityBa::new(160, 6, 1.5, 0.5, 40).generate(seed)
                } else {
                    BarabasiAlbert::with_closure(160, 8, 0.4).generate(seed)
                };
                let mut n = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed));
                for _ in 0..rounds_before {
                    n.gossip_round();
                }
                for &p in &offline {
                    n.set_offline(p);
                }
                for _ in 0..probes {
                    n.probe_round();
                }
                for _ in 0..rounds_after {
                    n.gossip_round();
                }
                assert_rows_match_scans(&n);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            #[test]
            fn incremental_state_matches_rebuild_after_churn(
                seed in 0u64..1000,
                events in proptest::collection::vec(
                    (0u32..100, 0u8..7, 0u8..3),
                    1..10,
                ),
            ) {
                let a = run(seed, 1, &events, assert_matches_rebuild);
                let b = run(seed, 8, &events, |_| {});
                // Bit-identical overlay across thread counts, churn included.
                for p in 0..a.len() as u32 {
                    prop_assert_eq!(a.identifier_of(p), b.identifier_of(p));
                    prop_assert_eq!(
                        a.table(p).long_links(),
                        b.table(p).long_links(),
                        "peer {} long links diverged across thread counts", p
                    );
                }
            }
        }
    }
}
