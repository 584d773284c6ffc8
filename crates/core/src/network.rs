//! The `SelectNetwork` orchestrator: owns the social graph, the ring, every
//! peer's routing state, bandwidths, CMA bookkeeping and the RNG; the other
//! modules ([`crate::gossip`], [`crate::recovery`], [`crate::pubsub`])
//! implement their protocol steps as `impl SelectNetwork` blocks.

use crate::config::SelectConfig;
use crate::projection::assign_identifier;
use crate::stats::ConvergenceTelemetry;
use crate::strength::StrengthIndex;
use hotpath::hotpath;
use osn_graph::growth::{GrowthModel, JoinEvent};
use osn_graph::{SocialGraph, UserId};
use osn_overlay::table::Admission;
use osn_overlay::{RingId, RingIndex, RoutingTable, Topology};
use osn_sim::{BandwidthModel, Cma};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Sentinel in [`SelectNetwork::link_buckets`]: this neighbour slot is not in
/// any LSH bucket of the current selection.
pub(crate) const NO_BUCKET: u16 = u16::MAX;

/// Cached LSH link-target proposal for one peer `p`, valid while
/// `round > link_dirty[p]` ([`SelectNetwork::link_cache_valid`]): every
/// writer of something the proposal reads stamps `link_dirty`, so a valid
/// cache is bit-identical to a fresh recomputation.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkCache {
    /// Gossip round whose snapshot `targets` was computed from (0 = none).
    pub round: u64,
    /// The proposed long-link targets, in proposal order.
    pub targets: Vec<u32>,
    /// Telemetry carried with the snapshot so reuse reports the same
    /// bucket-hit/fallback counts a recomputation would.
    pub bucket_hits: u64,
    /// See `bucket_hits`.
    pub bucket_fallbacks: u64,
}

/// CSR snapshot of every peer's connection list: row `p` holds exactly what
/// the merge in [`SelectNetwork::merge_connections`] produces for `p`, in
/// that order. Derived state — adjacency changes at gossip timescale and is
/// read at message timescale, so it is built once per overlay epoch (on the
/// first read after a write to `tables` or `online`) and dropped whole by
/// the next write; there is no per-row bookkeeping to get wrong.
#[derive(Clone, Debug)]
struct ConnectionIndex {
    /// Row `p` is `peers[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<u32>,
    peers: Vec<u32>,
}

impl ConnectionIndex {
    #[inline]
    fn row(&self, p: u32) -> &[u32] {
        let p = p as usize;
        &self.peers[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }
}

/// Result of [`SelectNetwork::converge`].
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergenceReport {
    /// Gossip rounds executed (the paper's Fig. 5 "iterations").
    pub rounds: usize,
    /// Whether the stability window was reached before the round cap.
    pub converged: bool,
    /// Per-round telemetry of the run (equality ignores wall-clock time and
    /// the thread count, so reports from different thread counts compare
    /// equal exactly when the protocol results are bit-identical).
    pub telemetry: ConvergenceTelemetry,
}

/// A fully decentralized SELECT overlay, simulated in-process.
///
/// The social graph is shared behind an [`Arc`]: cloning the network (or
/// building several systems over the same data set) never duplicates the
/// CSR arrays. Per-edge protocol state (CMA availability estimates, LSH
/// bucket assignments) lives in flat side tables indexed by the graph's
/// stable [`SocialGraph::neighbor_slot`] — struct-of-arrays instead of one
/// hash map per peer.
#[derive(Clone, Debug)]
pub struct SelectNetwork {
    pub(crate) graph: Arc<SocialGraph>,
    pub(crate) cfg: SelectConfig,
    /// Resolved long-link budget K.
    pub(crate) k: usize,
    /// Online peers and their current identifiers.
    pub(crate) ring: RingIndex,
    /// Last known identifier of every peer (kept across churn).
    pub(crate) positions: Vec<RingId>,
    /// Private with `online` and `connection_index`: every write to a table or a
    /// liveness flag must drop the connection index (and an outgoing-view
    /// write must stamp `link_dirty`), so writers outside this module go
    /// through the `SelectNetwork` link methods and the compiler enforces it.
    tables: Vec<RoutingTable>,
    pub(crate) bandwidth: Vec<f64>,
    online: Vec<bool>,
    /// Admission floor per peer: the lowest bandwidth among its incoming
    /// links while that set is full, −∞ while it has room. An offer below
    /// it is rejected without scanning the set.
    incoming_floor: Vec<f64>,
    /// Lazily built snapshot of all connection lists; see
    /// [`ConnectionIndex`]. Empty between a write and the next read.
    connection_index: OnceLock<ConnectionIndex>,
    pub(crate) strengths: StrengthIndex,
    /// CMA availability estimate per directed social edge, indexed by
    /// [`SocialGraph::neighbor_slot`]. A slot with `count() == 0` has never
    /// been probed (the old per-peer map had no entry).
    pub(crate) cma: Vec<Cma>,
    /// LSH bucket id per directed social edge ([`NO_BUCKET`] = not in the
    /// owner's current selection), indexed like `cma`. Together with the CSR
    /// adjacency this replaces the per-peer bucket member lists: the members
    /// of peer `p`'s bucket `b` are exactly the neighbours whose slot stores
    /// `b`, in ascending id order.
    pub(crate) link_buckets: Vec<u16>,
    /// Per-peer cached link proposals; see [`LinkCache`].
    pub(crate) link_cache: Vec<LinkCache>,
    /// Last `round_counter` value at which an input of the peer's link
    /// proposal moved: its online friend set (churn), or a friend `u`'s
    /// outgoing view gaining or losing a *non-friend* `w` inside `C_p` (a
    /// social friend's bit is set by the triangle row whatever `u` links,
    /// which is why long links, opened between friends only, never stamp).
    link_dirty: Vec<u64>,
    /// `reconcile_links`' current/desired lists, reused from peer to peer.
    pub(crate) link_bufs: [Vec<u32>; 2],
    /// Rounds the most recent [`SelectNetwork::converge`] call took.
    pub(crate) last_convergence: Option<usize>,
    /// Lifetime gossip-round counter; salts the per-peer RNG streams of the
    /// random-picker ablation so successive rounds draw fresh shuffles.
    pub(crate) round_counter: u64,
    /// Persistent per-shard scratch arenas of the link superstep (histogram
    /// plus compute buffers), epoch-stamped so each round restarts them in
    /// O(shards) without reallocating.
    pub(crate) link_arenas: osn_sim::ShardArenas<crate::gossip::LinkShard>,
    pub(crate) rng: StdRng,
}

impl SelectNetwork {
    /// Bootstraps with **flat projection**: every peer joins at once with a
    /// uniform-hash identifier (Algorithm 1's independent-subscription arm).
    ///
    /// Accepts either an owned [`SocialGraph`] or a shared
    /// `Arc<SocialGraph>`; pass the `Arc` when several systems are built
    /// over the same graph so they share one CSR copy.
    pub fn bootstrap(graph: impl Into<Arc<SocialGraph>>, cfg: SelectConfig) -> Self {
        let graph = graph.into();
        let n = graph.num_nodes();
        let mut net = Self::empty_shell(graph, cfg);
        for p in 0..n as u32 {
            let pos = assign_identifier(p, None, net.cfg.seed);
            net.positions[p as usize] = pos;
            net.ring.insert(p, pos);
            net.online[p as usize] = true;
        }
        net.strengths.sync_alive(&net.online);
        net.refresh_short_links();
        net
    }

    /// Bootstraps by **replaying a growth schedule** (paper §IV): users join
    /// over time, invited users land next to their inviter (Algorithm 1).
    pub fn bootstrap_with_growth(
        graph: impl Into<Arc<SocialGraph>>,
        cfg: SelectConfig,
        growth: &GrowthModel,
    ) -> Self {
        let graph = graph.into();
        let seed = cfg.seed;
        let events: Vec<JoinEvent> = growth.schedule(&graph, seed ^ 0x9_0417);
        let mut net = Self::empty_shell(graph, cfg);
        for event in &events {
            for &(user, inviter) in &event.arrivals {
                let inviter_pos = inviter.and_then(|i| net.ring.position_of(i.0));
                let pos = match inviter_pos {
                    Some(ipos) => {
                        let succ_pos = net
                            .ring
                            .successor(ipos)
                            .and_then(|s| net.ring.position_of(s));
                        crate::projection::assign_identifier_invited(ipos, succ_pos, user.0, seed)
                    }
                    None => assign_identifier(user.0, None, seed),
                };
                net.positions[user.index()] = pos;
                net.ring.insert(user.0, pos);
                net.online[user.index()] = true;
            }
        }
        net.strengths.sync_alive(&net.online);
        net.refresh_short_links();
        net
    }

    fn empty_shell(graph: Arc<SocialGraph>, cfg: SelectConfig) -> Self {
        let n = graph.num_nodes();
        assert!(n >= 2, "need at least two peers");
        let k = cfg.resolved_k(n);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let bandwidth = BandwidthModel::default().sample_all(&mut rng, n);
        let strengths = StrengthIndex::build_parallel(&graph, cfg.resolved_threads());
        let edges = graph.num_directed_edges();
        SelectNetwork {
            cfg,
            k,
            ring: RingIndex::new(n),
            positions: vec![RingId::ZERO; n],
            tables: (0..n).map(|_| RoutingTable::new(k)).collect(),
            bandwidth,
            online: vec![false; n],
            incoming_floor: vec![f64::NEG_INFINITY; n], // K ≥ 1: every set has room
            connection_index: OnceLock::new(),
            strengths,
            cma: vec![Cma::default(); edges],
            link_buckets: vec![NO_BUCKET; edges],
            link_cache: vec![LinkCache::default(); n],
            link_dirty: vec![0; n],
            link_bufs: Default::default(),
            last_convergence: None,
            round_counter: 0,
            link_arenas: osn_sim::ShardArenas::new(),
            rng,
            graph,
        }
    }

    /// Rounds the most recent [`SelectNetwork::converge`] call used, if any.
    pub fn last_convergence_rounds(&self) -> Option<usize> {
        self.last_convergence
    }

    /// The underlying social graph.
    pub fn graph(&self) -> &SocialGraph {
        &self.graph
    }

    /// The active configuration.
    pub fn config(&self) -> &SelectConfig {
        &self.cfg
    }

    /// Resolved long-link budget K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of peers (online or offline).
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the network has no peers (never: bootstrap requires ≥ 2).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Number of currently online peers.
    pub fn online_count(&self) -> usize {
        self.ring.len()
    }

    /// Whether `p` is online.
    #[inline]
    pub fn is_peer_online(&self, p: u32) -> bool {
        self.online[p as usize]
    }

    /// Current identifier of `p` (last known if offline).
    pub fn identifier_of(&self, p: u32) -> RingId {
        self.positions[p as usize]
    }

    /// Upload bandwidth of `p`.
    pub fn bandwidth_of(&self, p: u32) -> f64 {
        self.bandwidth[p as usize]
    }

    /// The routing table of `p`.
    #[inline]
    pub fn table(&self, p: u32) -> &RoutingTable {
        &self.tables[p as usize]
    }

    /// Online friends of `p` — the reachable part of `C_p`.
    pub fn online_friends(&self, p: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.online_friends_into(p, &mut out);
        out
    }

    /// [`SelectNetwork::online_friends`] into a caller-owned buffer
    /// (cleared first).
    #[hotpath]
    pub fn online_friends_into(&self, p: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.graph
                .neighbors(UserId(p))
                .iter()
                .map(|f| f.0)
                .filter(|&f| self.online[f as usize]),
        );
    }

    /// Opens the long link `p → u`. With [`Self::remove_long`] and the ring
    /// pass the only writers of an outgoing view; each owns its stamp.
    pub(crate) fn add_long(&mut self, p: u32, u: u32) -> bool {
        // Algorithm 5's bitmap fill relies on it: a long link between
        // friends is already a bit of the owner's triangle row.
        debug_assert!(
            self.graph.has_edge(UserId(p), UserId(u)),
            "long link {p} → {u} is not a social edge"
        );
        self.connection_index.take();
        let added = self.tables[p as usize].add_long(u);
        if added {
            self.stamp(p, u);
        }
        added
    }

    /// Closes the long link `p → u`; true if it was open.
    pub(crate) fn remove_long(&mut self, p: u32, u: u32) -> bool {
        self.connection_index.take();
        let removed = self.tables[p as usize].remove_long(u);
        if removed {
            self.stamp(p, u);
        }
        removed
    }

    /// `u`'s outgoing view gained or lost `w`. Unless they are social
    /// friends, that flips `u`'s bitmap bit for `w` in the proposal of every
    /// common friend `p` (one sorted merge of the two CSR rows).
    fn stamp(&mut self, u: u32, w: u32) {
        let (u, w) = (UserId(u), UserId(w));
        if u != w && !self.graph.has_edge(u, w) {
            let (dirty, round) = (&mut self.link_dirty, self.round_counter);
            self.graph
                .for_each_common_neighbor(u, w, |p| dirty[p.index()] = round);
        }
    }

    /// Whether `p`'s cached proposal still equals a recomputation. Strict:
    /// a stamp made earlier in an apply pass must outlive the cache refresh
    /// of the same round, whose snapshot predates it.
    #[inline]
    pub(crate) fn link_cache_valid(&self, p: u32) -> bool {
        self.link_cache[p as usize].round > self.link_dirty[p as usize]
    }

    /// `u`'s incoming-admission decision on a link offered by `p` (§III-D),
    /// with every peer's upload bandwidth as the eviction ranking.
    pub(crate) fn offer_incoming(&mut self, u: u32, p: u32) -> Admission {
        let bandwidth = &self.bandwidth;
        if bandwidth[p as usize] < self.incoming_floor[u as usize] {
            return Admission::Rejected; // full of strictly better peers
        }
        self.connection_index.take();
        let admission = self.tables[u as usize]
            .offer_incoming(p, bandwidth[p as usize], |q| bandwidth[q as usize]);
        self.incoming_floor[u as usize] = self.incoming_floor_of(u);
        admission
    }

    /// Drops `p` from `u`'s incoming set (`p` closed its long link to `u`).
    pub(crate) fn remove_incoming(&mut self, u: u32, p: u32) {
        self.connection_index.take();
        self.tables[u as usize].remove_incoming(p);
        self.incoming_floor[u as usize] = self.incoming_floor_of(u);
    }

    /// `incoming_floor[u]` by definition, from `u`'s table.
    fn incoming_floor_of(&self, u: u32) -> f64 {
        let table = &self.tables[u as usize];
        if table.incoming_links().len() < table.max_incoming() {
            return f64::NEG_INFINITY;
        }
        let bandwidths = table
            .incoming_links()
            .iter()
            .map(|&q| self.bandwidth[q as usize]);
        bandwidths.fold(f64::INFINITY, f64::min)
    }

    /// All connections `p` can forward over: outgoing (ring + long) plus
    /// incoming (connections are bidirectional channels).
    pub fn connections_of(&self, p: u32) -> Vec<u32> {
        self.connections(p).to_vec()
    }

    /// [`SelectNetwork::connections_of`] into a caller-owned buffer
    /// (cleared first).
    #[hotpath]
    pub fn connections_of_into(&self, p: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.connections(p));
    }

    /// [`SelectNetwork::connections_of`] as a borrowed row of the
    /// connection index, building the index if a write dropped it. The
    /// rebuild is O(n) per overlay epoch (a few ms at n = 6,000), paid by the
    /// first reader after a gossip/probe round or a liveness toggle; every
    /// other read is two offset loads.
    #[inline]
    pub(crate) fn connections(&self, p: u32) -> &[u32] {
        let row = self
            .connection_index
            .get_or_init(|| self.build_connection_index())
            .row(p);
        #[cfg(debug_assertions)]
        assert!(
            self.row_is_fresh(p, row),
            "stale connection index row of peer {p}"
        );
        row
    }

    /// The definition of a connection list, and its only producer: `p`'s
    /// deduplicated outgoing links in ascending order, then the incoming
    /// links not already among them in table order, offline peers removed.
    fn merge_connections(&self, p: u32, out: &mut Vec<u32>) {
        let table = &self.tables[p as usize];
        table.all_links_into(p, out);
        for &q in table.incoming_links() {
            if !out.contains(&q) {
                out.push(q);
            }
        }
        out.retain(|&q| self.online[q as usize]);
    }

    fn build_connection_index(&self) -> ConnectionIndex {
        let n = self.len();
        let mut offsets = Vec::with_capacity(n + 1);
        // Row lengths before deduplication and the liveness filter.
        let bound = self
            .tables
            .iter()
            .map(|t| 2 + t.long_links().len() + t.incoming_links().len());
        let mut peers = Vec::with_capacity(bound.sum());
        let mut row = Vec::new();
        offsets.push(0);
        for p in 0..n as u32 {
            self.merge_connections(p, &mut row);
            peers.extend_from_slice(&row);
            offsets.push(peers.len() as u32);
        }
        ConnectionIndex { offsets, peers }
    }

    /// Whether `row` equals a fresh merge for `p` — the stale-index oracle
    /// behind the debug assertion on every row read and the auditor's
    /// `connection-index` invariant.
    #[cfg(any(debug_assertions, feature = "audit"))]
    fn row_is_fresh(&self, p: u32, row: &[u32]) -> bool {
        thread_local! {
            static FRESH: std::cell::RefCell<Vec<u32>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        FRESH.with(|fresh| {
            let fresh = &mut *fresh.borrow_mut();
            self.merge_connections(p, fresh);
            row == fresh.as_slice()
        })
    }

    /// The first peer whose row in the *held* index differs from a fresh
    /// merge; `None` if all agree or no index is held (nothing can be stale).
    /// After a round this catches a writer that failed to drop the index.
    #[cfg(feature = "audit")]
    pub(crate) fn first_stale_connection_row(&self) -> Option<u32> {
        let index = self.connection_index.get()?;
        (0..self.len() as u32).find(|&p| !self.row_is_fresh(p, index.row(p)))
    }

    /// The first peer whose stored admission floor differs from its
    /// definition — the auditor's `incoming-floor` invariant.
    #[cfg(any(test, feature = "audit"))]
    pub(crate) fn first_stale_incoming_floor(&self) -> Option<u32> {
        (0..self.len() as u32)
            .find(|&u| self.incoming_floor[u as usize] != self.incoming_floor_of(u))
    }

    /// Flat-edge slot of the directed social edge `(p, u)`, if `u` is a
    /// friend of `p`; indexes [`SelectNetwork::cma`] and
    /// [`SelectNetwork::link_buckets`].
    #[inline]
    pub(crate) fn edge_slot(&self, p: u32, u: u32) -> Option<usize> {
        self.graph.neighbor_slot(UserId(p), UserId(u))
    }

    /// Overwrites `p`'s LSH bucket assignments: `buckets` holds one id per
    /// slot of `p`'s CSR row ([`NO_BUCKET`] outside the selection). Drops
    /// `p`'s link cache, whose hit path trusts the slots to hold the cached
    /// selection; the gossip apply refreshes it right after.
    pub(crate) fn store_buckets(&mut self, p: u32, buckets: &[u16]) {
        debug_assert_eq!(buckets.len(), self.graph.degree(UserId(p)));
        let base = self.graph.neighbor_base(UserId(p));
        self.link_buckets[base..base + buckets.len()].copy_from_slice(buckets);
        self.link_cache[p as usize].round = 0;
    }

    /// Members of the bucket of `p`'s selection that contains `member`, in
    /// ascending peer id order (the CSR neighbour order, which matches the
    /// insertion order of the old per-peer member lists). Empty if `member`
    /// is not in any bucket.
    pub(crate) fn bucket_peers_of(&self, p: u32, member: u32) -> impl Iterator<Item = u32> + '_ {
        let bucket = self
            .edge_slot(p, member)
            .map(|s| self.link_buckets[s])
            .filter(|&b| b != NO_BUCKET);
        let base = self.graph.neighbor_base(UserId(p));
        self.graph
            .neighbors(UserId(p))
            .iter()
            .enumerate()
            .filter(move |&(i, _)| bucket.is_some_and(|b| self.link_buckets[base + i] == b))
            .map(|(_, u)| u.0)
    }

    /// Takes `p` offline (churn departure). Its links stay in neighbours'
    /// tables until probes notice — exactly the situation the CMA recovery
    /// handles.
    pub fn set_offline(&mut self, p: u32) {
        if self.online[p as usize] {
            self.connection_index.take();
            self.online[p as usize] = false;
            self.strengths.set_alive(&self.graph, p, false);
            self.invalidate_link_caches_around(p);
            // Vacating a ring position re-stitches exactly the two online
            // peers adjacent to it.
            let adjacent = [
                self.ring.successor_of_peer(p),
                self.ring.predecessor_of_peer(p),
            ];
            self.ring.remove(p);
            for q in adjacent.into_iter().flatten() {
                self.restitch(q);
            }
        }
    }

    /// Brings `p` back online at its last identifier.
    pub fn set_online(&mut self, p: u32) {
        if !self.online[p as usize] {
            self.connection_index.take();
            self.online[p as usize] = true;
            self.strengths.set_alive(&self.graph, p, true);
            self.invalidate_link_caches_around(p);
            self.ring.insert(p, self.positions[p as usize]);
            // Joining changes `p`'s own ring links and those of the two
            // peers it lands between.
            let affected = [
                Some(p),
                self.ring.successor_of_peer(p),
                self.ring.predecessor_of_peer(p),
            ];
            for q in affected.into_iter().flatten() {
                self.restitch(q);
            }
        }
    }

    /// Churn stamp: `p`'s own proposal plus every graph neighbour's (their
    /// online-friend sets just changed).
    pub(crate) fn invalidate_link_caches_around(&mut self, p: u32) {
        self.link_dirty[p as usize] = self.round_counter;
        for &f in self.graph.neighbors(UserId(p)) {
            self.link_dirty[f.index()] = self.round_counter;
        }
    }

    /// Recomputes online peer `p`'s successor/predecessor from the ring,
    /// stamping for every ring neighbour its outgoing view lost or gained (at
    /// most four), and returns the successor.
    fn restitch(&mut self, p: u32) -> Option<u32> {
        let new = [
            self.ring.successor_of_peer(p),
            self.ring.predecessor_of_peer(p),
        ];
        let table = &mut self.tables[p as usize];
        let old = [table.successor, table.predecessor];
        [table.successor, table.predecessor] = new;
        let left = |a: [Option<u32>; 2], b: [Option<u32>; 2]| {
            (a.into_iter().flatten()).filter(move |&w| !b.contains(&Some(w)))
        };
        for w in left(old, new).chain(left(new, old)) {
            self.stamp(p, w);
        }
        new[0]
    }

    /// Recomputes every online peer's successor/predecessor from the ring —
    /// the full pass, for bootstrap and rounds, where many peers move at
    /// once: one lap from the first peer, each re-stitch naming the next. A
    /// single liveness toggle re-stitches only the adjacent peers.
    pub(crate) fn refresh_short_links(&mut self) {
        self.connection_index.take();
        let first = self.ring.iter().next().map(|(_, p)| p);
        let mut next = first;
        while let Some(p) = next {
            next = self.restitch(p).filter(|&q| Some(q) != first);
        }
    }

    /// Moves `p` to `pos` on the ring (identifier reassignment).
    ///
    /// The low 32 bits are replaced by a per-peer hash: socially equivalent
    /// peers compute identical centroids (Algorithm 2), and exactly shared
    /// positions would make strict-progress greedy routing stall on
    /// zero-distance non-targets. The mix-in is ~2⁻³² of the ring — far
    /// below the convergence tolerance — and keeps identifiers unique.
    pub(crate) fn move_peer(&mut self, p: u32, pos: RingId) {
        let tag = RingId::hash_of((p as u64) ^ self.cfg.seed.rotate_left(23)).0 & 0xFFFF_FFFF;
        let pos = RingId((pos.0 & !0xFFFF_FFFF) | tag);
        self.positions[p as usize] = pos;
        if self.online[p as usize] {
            self.ring.insert(p, pos);
        }
    }
}

impl Topology for SelectNetwork {
    fn position(&self, peer: u32) -> Option<RingId> {
        self.online[peer as usize].then(|| self.positions[peer as usize])
    }
    fn links(&self, peer: u32) -> Vec<u32> {
        self.connections_of(peer)
    }
    fn links_into(&self, peer: u32, out: &mut Vec<u32>) {
        self.connections_of_into(peer, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::generators::{BarabasiAlbert, Generator};

    impl SelectNetwork {
        /// `p`'s routing table past the writers that keep the overlay's
        /// invariants (and `add_long`'s friends-only assertion), for states
        /// no writer produces: a self-referencing ring link, a foreign long
        /// link for the auditor to catch.
        pub(crate) fn table_mut_unchecked(&mut self, p: u32) -> &mut RoutingTable {
            self.connection_index.take();
            &mut self.tables[p as usize]
        }
    }

    fn small_net(seed: u64) -> SelectNetwork {
        let g = BarabasiAlbert::new(100, 4).generate(seed);
        SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed))
    }

    #[test]
    fn bootstrap_puts_everyone_online() {
        let net = small_net(1);
        assert_eq!(net.online_count(), 100);
        assert_eq!(net.len(), 100);
        assert_eq!(net.k(), 7); // log2(100) ≈ 6.6 → 7
                                // Short links are stitched consistently.
        for p in 0..100u32 {
            let s = net.table(p).successor.expect("successor");
            assert_eq!(net.table(s).predecessor, Some(p));
        }
    }

    #[test]
    fn growth_bootstrap_clusters_invitees() {
        let g = BarabasiAlbert::new(200, 3).generate(2);
        let mut net = SelectNetwork::bootstrap_with_growth(
            g,
            SelectConfig::default().with_seed(2),
            &GrowthModel::default(),
        );
        assert_eq!(net.online_count(), 200);
        // Gap-splitting keeps the ring covered at bootstrap: no giant empty
        // arc (positions are not all piled onto the seed user).
        let mut units: Vec<f64> = (0..200u32)
            .map(|p| net.identifier_of(p).as_unit())
            .collect();
        units.sort_by(f64::total_cmp);
        let max_gap = units
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(units[0] + 1.0 - units[199], f64::max);
        assert!(max_gap < 0.5, "ring left mostly empty (gap {max_gap})");

        // After convergence, friends sit far closer than random pairs
        // (uniform expectation 0.25).
        net.converge(200);
        let mut total = 0.0;
        let mut count = 0;
        for p in 0..200u32 {
            for &f in &net.online_friends(p) {
                total += net
                    .identifier_of(p)
                    .distance(net.identifier_of(f))
                    .as_unit_len();
                count += 1;
            }
        }
        let avg = total / count as f64;
        assert!(avg < 0.125, "avg friend distance {avg} not clustered");
    }

    #[test]
    fn churn_offline_online_round_trip() {
        let mut net = small_net(3);
        let pos = net.identifier_of(10);
        net.set_offline(10);
        assert!(!net.is_peer_online(10));
        assert_eq!(net.online_count(), 99);
        assert!(Topology::position(&net, 10).is_none());
        // Ring re-stitched: nobody's successor is 10.
        for p in 0..100u32 {
            if p != 10 {
                assert_ne!(net.table(p).successor, Some(10));
            }
        }
        net.set_online(10);
        assert_eq!(net.identifier_of(10), pos, "position preserved");
        assert_eq!(net.online_count(), 100);
    }

    /// `set_offline`/`set_online` as they were before the local re-stitch:
    /// the same bookkeeping followed by the full ring pass.
    fn toggle_with_full_refresh(net: &mut SelectNetwork, p: u32, online: bool) {
        if net.online[p as usize] == online {
            return;
        }
        net.online[p as usize] = online;
        net.strengths.set_alive(&net.graph, p, online);
        net.invalidate_link_caches_around(p);
        if online {
            net.ring.insert(p, net.positions[p as usize]);
        } else {
            net.ring.remove(p);
        }
        net.refresh_short_links();
    }

    proptest::proptest! {
        /// A toggle re-stitches only the adjacent peers, yet every table's
        /// ring links — and the proposals stamped dirty on the way — equal
        /// those of the full pass, down to rings of two, one and zero peers.
        #[test]
        fn toggles_restitch_exactly_what_the_full_pass_does(
            seed in 0u64..200,
            toggles in proptest::collection::vec((0u32..16, proptest::prelude::any::<bool>()), 0..80),
        ) {
            let g = BarabasiAlbert::new(16, 3).generate(seed);
            let mut local = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed));
            local.gossip_round();
            let mut full = local.clone();
            // Whatever the draw, end by emptying the ring and refilling it.
            let drain = (0..16u32).map(|p| (p, false));
            let refill = (0..16u32).map(|p| (p, true));
            for (p, online) in toggles.into_iter().chain(drain).chain(refill) {
                if online {
                    local.set_online(p);
                } else {
                    local.set_offline(p);
                }
                toggle_with_full_refresh(&mut full, p, online);
                for q in 0..16u32 {
                    let (a, b) = (local.table(q), full.table(q));
                    proptest::prop_assert_eq!(a.successor, b.successor, "successor of {}", q);
                    proptest::prop_assert_eq!(a.predecessor, b.predecessor, "predecessor of {}", q);
                }
                proptest::prop_assert_eq!(&local.link_dirty, &full.link_dirty);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Whatever writes ran since the index was last built — or whether it
        /// was built at all — `connections_of(p)` is the fresh merge, element
        /// order included. Each step is (writer, peer, read afterwards?).
        #[test]
        fn equivalence_connection_index_matches_fresh_merge(
            seed in 0u64..500,
            steps in proptest::collection::vec(
                (0u8..8, 0u32..24, proptest::prelude::any::<bool>()),
                1..24,
            ),
        ) {
            let g = BarabasiAlbert::with_closure(24, 3, 0.4).generate(seed);
            let mut net = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed));
            let mut fresh = Vec::new();
            for (i, (writer, p, read)) in steps.into_iter().enumerate() {
                match writer {
                    0 | 1 => net.set_offline(p),
                    2 | 3 => net.set_online(p),
                    4 => {
                        net.gossip_round();
                    }
                    5 => {
                        net.partial_gossip_round(0.5);
                    }
                    6 => {
                        net.probe_round();
                    }
                    _ => {
                        // Two rounds: the second delivers the first's mail and
                        // relinks from it.
                        let mut protocol = crate::protocol::ProtocolNetwork::new(net);
                        protocol.round();
                        protocol.round();
                        net = protocol.into_network();
                    }
                }
                // Skipped reads leave the index absent across several writes.
                if !read {
                    continue;
                }
                for q in 0..net.len() as u32 {
                    net.merge_connections(q, &mut fresh);
                    proptest::prop_assert_eq!(
                        &net.connections_of(q), &fresh, "step {}, peer {}", i, q
                    );
                }
            }
        }
    }

    /// A writer that bypasses `table_mut` leaves a stale row behind: the
    /// debug assertion on the next read and the auditor both catch it.
    #[test]
    fn stale_connection_row_is_caught() {
        let mut net = small_net(6);
        net.converge(50);
        let (p, u) = (0..100u32)
            .find_map(|p| net.table(p).long_links().first().map(|&u| (p, u)))
            .expect("converged overlay has long links");
        assert!(net.connections_of(p).contains(&u));
        net.tables[p as usize].remove_long(u);
        net.tables[u as usize].remove_incoming(p);
        #[cfg(feature = "audit")]
        {
            let err = net.audit_overlay().unwrap_err();
            assert_eq!(err.invariant, "connection-index");
        }
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.connections_of(p)));
        assert_eq!(read.is_err(), cfg!(debug_assertions));
        // The sanctioned writer drops the index; reads are fresh again.
        net.remove_long(p, u);
        assert!(!net.connections_of(p).contains(&u));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Whatever offers, removals, toggles and rounds ran, every stored
        /// admission floor is the recomputed one, and an offer — whether the
        /// floor rejects it in O(1) or not — gets exactly the answer and the
        /// incoming set `RoutingTable::offer_incoming` gives on its own.
        /// Four distinct bandwidths force ties with the floor, and repeated
        /// pairs reach the "already in `incoming`" accept at a full table.
        #[test]
        fn incoming_floor_matches_the_recomputed_minimum(
            seed in 0u64..500,
            steps in proptest::collection::vec((0u8..6, 0u32..24, 0u32..24), 1..60),
        ) {
            let g = BarabasiAlbert::with_closure(24, 3, 0.4).generate(seed);
            let mut net = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed));
            for (i, bw) in net.bandwidth.iter_mut().enumerate() {
                *bw = (i % 4) as f64;
            }
            net.converge(30);
            proptest::prop_assert_eq!(net.first_stale_incoming_floor(), None);
            for (op, u, p) in steps {
                match op {
                    0..=2 => {
                        let bw = net.bandwidth.clone();
                        let mut alone = net.tables[u as usize].clone();
                        let want = alone.offer_incoming(p, bw[p as usize], |q| bw[q as usize]);
                        proptest::prop_assert_eq!(net.offer_incoming(u, p), want);
                        proptest::prop_assert_eq!(
                            net.table(u).incoming_links(), alone.incoming_links()
                        );
                    }
                    3 => net.remove_incoming(u, p),
                    4 => net.set_offline(u),
                    _ => net.set_online(u),
                }
                proptest::prop_assert_eq!(net.first_stale_incoming_floor(), None);
            }
        }
    }

    /// A proposal input written behind the stamping methods' back — a ring
    /// link of `u` onto a non-friend `w`, both inside `p`'s neighbourhood —
    /// leaves `p` a cache the stamp rule calls valid and the rebuild does
    /// not: the auditor's `link-cache` invariant. (`p < u`, so the audit
    /// reaches `p`'s cache before `u`'s broken ring link.)
    #[cfg(feature = "audit")]
    #[test]
    fn unstamped_proposal_input_is_caught() {
        let net = {
            let mut net = small_net(9);
            net.converge(50);
            net
        };
        let caught = (0..100u32).find_map(|p| {
            let friends = net.online_friends(p);
            let pairs = friends
                .iter()
                .flat_map(|&u| friends.iter().map(move |&w| (u, w)));
            pairs
                .filter(|&(u, w)| p < u && u != w && net.edge_slot(u, w).is_none())
                .find_map(|(u, w)| {
                    let mut bypassed = net.clone();
                    bypassed.tables[u as usize].successor = Some(w);
                    let diverged = bypassed.link_cache_divergence(p).is_some();
                    (bypassed.link_cache_valid(p) && diverged).then_some((p, bypassed))
                })
        });
        let (p, bypassed) = caught.expect("some bitmap bit is sampled by the LSH family");
        let err = bypassed.audit_overlay().unwrap_err();
        assert_eq!((err.invariant, err.peer), ("link-cache", Some(p)));
    }

    /// A floor left behind by a writer that bypasses `remove_incoming` is
    /// caught by the auditor.
    #[cfg(feature = "audit")]
    #[test]
    fn stale_incoming_floor_is_caught() {
        let mut net = small_net(8);
        net.converge(50);
        let u = (0..100u32)
            .find(|&u| net.incoming_floor[u as usize] > f64::NEG_INFINITY)
            .expect("some incoming set is full");
        net.incoming_floor[u as usize] = f64::NEG_INFINITY;
        let err = net.audit_overlay().unwrap_err();
        assert_eq!((err.invariant, err.peer), ("incoming-floor", Some(u)));
    }

    #[test]
    fn online_friends_filters() {
        let mut net = small_net(4);
        let friends = net.online_friends(0);
        assert!(!friends.is_empty());
        let f = friends[0];
        net.set_offline(f);
        assert!(!net.online_friends(0).contains(&f));
    }

    #[test]
    fn deterministic_bootstrap() {
        let a = small_net(7);
        let b = small_net(7);
        for p in 0..100u32 {
            assert_eq!(a.identifier_of(p), b.identifier_of(p));
            assert_eq!(a.bandwidth_of(p), b.bandwidth_of(p));
        }
    }

    #[test]
    fn connections_exclude_offline() {
        let mut net = small_net(5);
        let p = 0u32;
        let succ = net.table(p).successor.unwrap();
        net.set_offline(succ);
        assert!(!net.connections_of(p).contains(&succ));
    }
}
