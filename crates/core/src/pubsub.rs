//! The pub/sub layer (paper §III-E).
//!
//! Publishing user `b`'s subscribers are exactly his social friends `S_b`.
//! For each subscriber the message follows, in order of preference:
//!
//! 1. a **direct connection** (`s ∈ R_b`) — 1 hop;
//! 2. a **lookahead affirmation** (`s` in some neighbour's link set `L_p`) —
//!    2 hops;
//! 3. **greedy ring routing** toward `s`'s identifier as a fallback.
//!
//! The union of the per-subscriber paths is the routing tree `RT_b`; relay
//! nodes are intermediate peers that are not themselves subscribers.

use crate::network::SelectNetwork;
use crate::scratch::{PublishScratch, PUBLISH_SCRATCH};
use crate::stats::DeliveryTelemetry;
use hotpath::hotpath;
use osn_obs::{
    FlightRecorder, JourneyId, JourneyStatus, Observer, PublishRecorder, RouteChoice, TraceEvent,
};
use osn_overlay::{route_greedy, route_greedy_excluding, route_with_lookahead, RouteOutcome};

/// How a planned delivery path was produced (drives the per-edge
/// [`RouteChoice`] reported in trace events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PathKind {
    /// Built from the stage-1/2 BFS parents — the flooded tree.
    Flood,
    /// Came from [`SelectNetwork::lookup`]'s preference order (a lookahead
    /// shortcut replacement or the greedy fallback).
    Routed,
    /// A retransmission after a lost attempt: the original path or a
    /// reroute around observed-dead relays.
    Retry,
}

/// The routing mechanism behind one edge of a planned path. Flood paths
/// split by receiver: stage 1 only ever parents subscribers, so an edge
/// into a non-subscriber must come from the stage-2 bucket BFS. Routed
/// paths classify by length, mirroring §III-E's preference order: 1 hop =
/// direct link, 2 hops = lookahead affirmation, longer = greedy fallback.
/// Every edge of a retransmission is a retry.
fn choice_for(kind: PathKind, path_len: usize, to_subscriber: bool) -> RouteChoice {
    match kind {
        PathKind::Flood => {
            if to_subscriber {
                RouteChoice::SocialFlood
            } else {
                RouteChoice::BucketBfs
            }
        }
        PathKind::Routed => match path_len {
            2 => RouteChoice::Direct,
            3 => RouteChoice::Lookahead,
            _ => RouteChoice::Greedy,
        },
        PathKind::Retry => RouteChoice::Retry,
    }
}

/// Fate of one physical transmission over an edge, memoized per edge on the
/// initial flood so paths sharing a prefix share its outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EdgeFate {
    /// Message crossed the link.
    Ok,
    /// The fault plan dropped it in flight (the sender did transmit).
    Dropped,
    /// The forwarding relay was crashed (nothing was transmitted).
    Crashed,
}

/// A subscriber whose attempt-0 path was lost, queued for the retry waves.
/// Its path is `lost_nodes[start..end]` in the publish scratch: queued paths
/// share one arena, like [`RoutingTree`]'s.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lost {
    subscriber: u32,
    start: u32,
    end: u32,
    journey: Option<JourneyId>,
}

/// One publication's delivery state: the tree and report totals, what the
/// fault plan injected, the attempt-0 edge memo, the relays the publisher
/// observed crashed, and the observer's two halves.
struct Walk<'o> {
    b: u32,
    nonce: u64,
    plan: osn_sim::FaultPlan,
    seed: u64,
    latency: osn_sim::LinkModel,
    telemetry: DeliveryTelemetry,
    /// Fate of every directed edge attempt 0 crossed, sorted by edge (tree
    /// sized, binary-searched): each is one physical transmission, so
    /// paths sharing a prefix share its fate. Empty without faults; the
    /// buffer is the publish scratch's, lent for the walk.
    edge_fate: Vec<((u32, u32), EdgeFate)>,
    /// Relays observed crashed, sorted — the reroute exclusion slice (the
    /// scratch's buffer too).
    dead: Vec<u32>,
    metrics: Option<&'o mut PublishRecorder>,
    flight: Option<&'o mut FlightRecorder>,
    tree: RoutingTree,
    total_hops: usize,
    total_relays: usize,
}

impl Walk<'_> {
    /// Virtual delivery time of `path` on `attempt`, in milliseconds:
    /// per-link propagation latency (deterministic in the config seed) plus
    /// the fault plan's delay jitter plus the backoff the publisher has
    /// waited so far. Pure — observation never touches the clock.
    fn path_latency_ms(&self, path: &[u32], attempt: u32) -> u64 {
        let mut total = self.telemetry.backoff_ms as f64;
        for w in path.windows(2) {
            total += self.latency.latency_of(w[0], w[1], self.seed);
            if self.plan.is_active() {
                total += self.plan.delay_ms(self.nonce, attempt, w[0], w[1]);
            }
        }
        total.round() as u64
    }

    /// Opens `s`'s journey when tracing is on.
    fn begin(&mut self, s: u32) -> Option<JourneyId> {
        let fr = self.flight.as_deref_mut()?;
        let id = fr.begin(self.nonce, self.b, s);
        fr.push(id, TraceEvent::Publish { publisher: self.b });
        Some(id)
    }

    /// Appends an event to `journey`; `ev` runs only when tracing is on.
    fn event(&mut self, journey: Option<JourneyId>, ev: impl FnOnce() -> TraceEvent) {
        if let (Some(fr), Some(id)) = (self.flight.as_deref_mut(), journey) {
            fr.push(id, ev());
        }
    }

    fn finish(&mut self, journey: Option<JourneyId>, ev: TraceEvent, status: JourneyStatus) {
        if let (Some(fr), Some(id)) = (self.flight.as_deref_mut(), journey) {
            fr.push(id, ev);
            fr.finish(id, status);
        }
    }

    /// Draws the fate of one transmission `u → v` on `attempt`.
    fn draw(&mut self, u: u32, v: u32, attempt: u32) -> EdgeFate {
        if u != self.b && self.plan.crashes(self.nonce, u) {
            if let Err(j) = self.dead.binary_search(&u) {
                self.dead.insert(j, u);
            }
            self.telemetry.crash_losses += 1;
            EdgeFate::Crashed
        } else if self.plan.drops(self.nonce, attempt, u, v) {
            self.telemetry.drops_injected += 1;
            EdgeFate::Dropped
        } else {
            EdgeFate::Ok
        }
    }

    /// Sends along `path` on `attempt`; true when it reached the end.
    ///
    /// Attempt 0 floods the shared tree, so its fates come from the edge
    /// memo; retransmissions are unicast, so every edge they cross is a
    /// fresh draw. Relay load counts each transmission once: without faults
    /// a send counts when its receiver first receives, under faults every
    /// fresh send whose sender had not crashed counts.
    fn walk(
        &mut self,
        scr: &mut PublishScratch,
        path: &[u32],
        attempt: u32,
        kind: PathKind,
        journey: Option<JourneyId>,
    ) -> bool {
        let faults = self.plan.is_active();
        if !faults && self.metrics.is_none() {
            return true; // nothing to draw and nothing to record
        }
        for w in path.windows(2) {
            let (u, v) = (w[0], w[1]);
            let (fate, fresh) = if !faults {
                (EdgeFate::Ok, true)
            } else if attempt > 0 {
                (self.draw(u, v, attempt), true)
            } else {
                match self.edge_fate.binary_search_by_key(&(u, v), |e| e.0) {
                    Ok(i) => (self.edge_fate[i].1, false),
                    Err(i) => {
                        let fate = self.draw(u, v, 0);
                        self.edge_fate.insert(i, ((u, v), fate));
                        (fate, true)
                    }
                }
            };
            if fresh {
                let first = fate == EdgeFate::Ok && scr.first_receipt(v);
                if faults && fate == EdgeFate::Ok && !first {
                    self.telemetry.duplicates_suppressed += 1;
                }
                let sent = if faults {
                    fate != EdgeFate::Crashed
                } else {
                    first
                };
                if let Some(m) = self.metrics.as_deref_mut().filter(|_| sent) {
                    m.relay_load_add(u, 1);
                }
            }
            self.event(journey, || match fate {
                EdgeFate::Ok => TraceEvent::Relay {
                    from: u,
                    to: v,
                    choice: choice_for(kind, path.len(), scr.is_subscriber(v)),
                },
                EdgeFate::Dropped => TraceEvent::Drop {
                    from: u,
                    to: v,
                    attempt,
                },
                EdgeFate::Crashed => TraceEvent::Crash { peer: u },
            });
            if fate != EdgeFate::Ok {
                return false;
            }
        }
        true
    }

    /// Records `path` as delivered on `attempt`: the tree, the report
    /// totals, the telemetry and the observer.
    fn deliver(
        &mut self,
        scr: &PublishScratch,
        path: &[u32],
        attempt: u32,
        journey: Option<JourneyId>,
    ) {
        let hops = path.len() - 1;
        if self.plan.is_active() {
            self.telemetry.note_delivery_attempt(attempt as usize);
        }
        let lat = self
            .metrics
            .is_some()
            .then(|| self.path_latency_ms(path, attempt));
        if let (Some(m), Some(lat)) = (self.metrics.as_deref_mut(), lat) {
            m.note_delivery(hops as u64, lat);
            let ev = TraceEvent::Deliver {
                hops: hops as u32,
                latency_ms: lat as u32,
            };
            self.finish(journey, ev, JourneyStatus::Delivered);
        }
        self.total_hops += hops;
        self.total_relays += path[1..hops]
            .iter()
            .filter(|&&q| !scr.is_subscriber(q))
            .count();
        self.tree.push_path(path);
    }

    /// Records `s` as unreached.
    fn fail(&mut self, s: u32, journey: Option<JourneyId>) {
        self.finish(journey, TraceEvent::Fail, JourneyStatus::Failed);
        self.tree.failed.push(s);
    }
}

/// The routing tree of one publication.
///
/// Paths are stored in one arena (`nodes` + exclusive end offsets) instead
/// of a `Vec<Vec<u32>>`: the steady publish path appends each delivered
/// path with [`RoutingTree::push_path`] and never allocates per path once
/// the arena is warm. Read paths back with [`RoutingTree::paths`] or
/// [`RoutingTree::path`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingTree {
    /// The publishing peer.
    pub publisher: u32,
    /// Concatenated node sequences of all delivered paths.
    nodes: Vec<u32>,
    /// Exclusive end offset of each path in `nodes`.
    ends: Vec<u32>,
    /// Subscribers that could not be reached.
    pub failed: Vec<u32>,
}

impl RoutingTree {
    /// An empty tree rooted at `publisher`.
    pub fn new(publisher: u32) -> Self {
        RoutingTree {
            publisher,
            ..RoutingTree::default()
        }
    }

    /// Builds a tree from explicit per-subscriber paths (tests, baselines).
    pub fn from_paths<P: AsRef<[u32]>>(publisher: u32, paths: impl IntoIterator<Item = P>) -> Self {
        let mut tree = RoutingTree::new(publisher);
        for p in paths {
            tree.push_path(p.as_ref());
        }
        tree
    }

    /// Appends one delivered path (`path[0] == publisher`,
    /// `path.last() == subscriber`).
    pub fn push_path(&mut self, path: &[u32]) {
        self.nodes.extend_from_slice(path);
        self.ends.push(self.nodes.len() as u32);
    }

    /// Number of delivered paths.
    pub fn num_paths(&self) -> usize {
        self.ends.len()
    }

    /// The `i`-th delivered path, in subscriber order.
    pub fn path(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.nodes[start..self.ends[i] as usize]
    }

    /// Iterator over all delivered paths.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.num_paths()).map(move |i| self.path(i))
    }

    /// Distinct directed edges of the tree (deduplicated across paths),
    /// sorted ascending so every consumer iterates in a deterministic order.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for path in self.paths() {
            for w in path.windows(2) {
                edges.push((w[0], w[1]));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Messages forwarded per peer: one per distinct outgoing tree edge.
    /// Entries are sorted ascending by peer id; peers that forward nothing
    /// are absent. [`RoutingTree::edges`] is already sorted, so the counts
    /// fall out of one grouping pass — no hash map.
    pub fn forwards_per_peer(&self) -> Vec<(u32, u64)> {
        let mut forwards: Vec<(u32, u64)> = Vec::new();
        for (from, _) in self.edges() {
            match forwards.last_mut() {
                Some((p, c)) if *p == from => *c += 1,
                _ => forwards.push((from, 1)),
            }
        }
        forwards
    }
}

/// Summary of one publication's dissemination.
#[derive(Clone, Debug)]
pub struct DisseminationReport {
    /// The publishing peer.
    pub publisher: u32,
    /// Online subscribers targeted (`|S_b|` restricted to online peers).
    pub subscribers: usize,
    /// Subscribers actually reached.
    pub delivered: usize,
    /// Mean hops over delivered paths.
    pub avg_hops: f64,
    /// Mean relay nodes (non-subscriber intermediates) per delivered path.
    pub avg_relays: f64,
    /// Total relay-node occurrences across the tree.
    pub total_relays: usize,
    /// What the fault plan injected and reliable delivery did about it
    /// (all zero when the configured [`osn_sim::FaultPlan`] is inactive).
    pub delivery: DeliveryTelemetry,
    /// The underlying routing tree.
    pub tree: RoutingTree,
}

impl DisseminationReport {
    /// Delivery ratio in `[0, 1]`; 1.0 when there were no subscribers.
    pub fn availability(&self) -> f64 {
        if self.subscribers == 0 {
            1.0
        } else {
            self.delivered as f64 / self.subscribers as f64
        }
    }
}

impl SelectNetwork {
    /// Routes a single social lookup from `p` to `target` using SELECT's
    /// preference order (direct link → lookahead → greedy).
    pub fn lookup(&self, p: u32, target: u32) -> RouteOutcome {
        self.lookup_within(p, target, self.cfg.max_route_hops)
    }

    /// [`Self::lookup`] under a hop budget of `max_hops`.
    fn lookup_within(&self, p: u32, target: u32, max_hops: usize) -> RouteOutcome {
        if self.cfg.use_lookahead {
            route_with_lookahead(self, p, target, max_hops)
        } else {
            route_greedy(self, p, target, max_hops)
        }
    }

    /// Publishes a message from `b` to all of his online social friends and
    /// reports the resulting routing tree.
    ///
    /// The tree is grown in two stages, mirroring §III-E: first the message
    /// floods over the connections *between subscribers* (the paper is
    /// explicit that "relay nodes may also be subscribers" — a friend who
    /// already has the message forwards it to mutual friends it is connected
    /// to); only subscribers unreachable that way fall back to
    /// [`SelectNetwork::lookup`] (direct link → lookahead → greedy), which
    /// may cross non-subscriber relays.
    pub fn publish(&self, b: u32) -> DisseminationReport {
        self.publish_at(b, 0)
    }

    /// Like [`Self::publish`], with an explicit publication nonce.
    ///
    /// The nonce identifies this publication to the configured
    /// [`osn_sim::FaultPlan`]: two publications with different nonces draw
    /// independent fault schedules, while replaying the same nonce replays
    /// the exact same drops, delays and crashes — at any thread count.
    #[hotpath]
    pub fn publish_at(&self, b: u32, nonce: u64) -> DisseminationReport {
        self.publish_with(b, nonce, None)
    }

    /// [`Self::publish_at`] with an [`Observer`] attached: dissemination
    /// metrics (hops, stretch, retries, per-peer relay load, virtual-ms
    /// delivery latency) land in `obs.metrics`, and — when the observer has
    /// tracing enabled — every (publication, subscriber) journey is written
    /// into its flight recorder. Observation is read-only with respect to
    /// overlay and scratch state: the report, the routing tree and all
    /// protocol state are byte-identical to [`Self::publish_at`].
    pub fn publish_observed(&self, b: u32, nonce: u64, obs: &mut Observer) -> DisseminationReport {
        self.publish_with(b, nonce, Some(obs))
    }

    /// The body of [`Self::publish_at`] and [`Self::publish_observed`].
    fn publish_with(&self, b: u32, nonce: u64, obs: Option<&mut Observer>) -> DisseminationReport {
        PUBLISH_SCRATCH.with(|cell| {
            let scr = &mut *cell.borrow_mut();
            // The subscriber list lives in scratch too: a steady-state
            // publish reuses one buffer instead of collecting a fresh Vec.
            let mut subs = std::mem::take(&mut scr.subs);
            self.online_friends_into(b, &mut subs);
            let report = self.disseminate_scratch(scr, b, &subs, nonce, obs);
            scr.subs = subs;
            report
        })
    }

    /// Publishes `count` messages from the same source `b` under consecutive
    /// nonces `first_nonce..first_nonce + count`, sharing one scratch
    /// traversal: the two-stage BFS plan is computed once and every
    /// publication delivers over it. Report `i` is bit-identical to
    /// `publish_at(b, first_nonce + i)` — with the fault plan inactive the
    /// planned deliveries are provably nonce-independent, so the remaining
    /// reports are copies of the first; with faults active each nonce walks
    /// the shared plan under its own fault schedule.
    pub fn publish_batch_at(
        &self,
        b: u32,
        first_nonce: u64,
        count: usize,
    ) -> Vec<DisseminationReport> {
        self.publish_batch_inner(b, first_nonce, count, None)
    }

    /// [`Self::publish_batch_at`] with an [`Observer`] attached: per-nonce
    /// metrics/tracing land exactly as `count` calls of
    /// [`Self::publish_observed`] would, plus the batch size itself is
    /// recorded into `obs.batch_sizes`.
    pub fn publish_batch_observed(
        &self,
        b: u32,
        first_nonce: u64,
        count: usize,
        obs: &mut Observer,
    ) -> Vec<DisseminationReport> {
        self.publish_batch_inner(b, first_nonce, count, Some(obs))
    }

    fn publish_batch_inner(
        &self,
        b: u32,
        first_nonce: u64,
        count: usize,
        mut obs: Option<&mut Observer>,
    ) -> Vec<DisseminationReport> {
        if let Some(o) = obs.as_deref_mut() {
            o.batch_sizes.record(count as u64);
        }
        if count == 0 {
            return Vec::new();
        }
        PUBLISH_SCRATCH.with(|cell| {
            let scr = &mut *cell.borrow_mut();
            let mut subs = std::mem::take(&mut scr.subs);
            self.online_friends_into(b, &mut subs);
            self.plan_into_scratch(scr, b, &subs);
            let mut reports = Vec::with_capacity(count);
            if self.cfg.fault_plan.is_active() || obs.is_some() {
                // Per-nonce fault schedules / per-nonce observation over the
                // shared plan.
                for i in 0..count {
                    reports.push(self.deliver_planned(
                        scr,
                        b,
                        &subs,
                        first_nonce + i as u64,
                        obs.as_deref_mut(),
                    ));
                }
            } else {
                // Fault-free, unobserved: the nonce only feeds the fault
                // plan's draws and delay jitter, both gated on
                // `plan.is_active()` — every report in the batch is the
                // same value. Deliver once, copy the rest.
                let first = self.deliver_planned(scr, b, &subs, first_nonce, None);
                reports.push(first);
                for _ in 1..count {
                    let copy = reports[0].clone();
                    reports.push(copy);
                }
            }
            scr.subs = subs;
            reports
        })
    }

    /// Disseminates from `b` to an explicit online subscriber set — the
    /// general form behind both friend notifications ([`Self::publish`])
    /// and arbitrary-topic publication ([`crate::topics`]).
    pub fn disseminate(&self, b: u32, subscribers: Vec<u32>) -> DisseminationReport {
        self.disseminate_at(b, subscribers, 0)
    }

    /// [`Self::disseminate`] under an explicit publication nonce (see
    /// [`Self::publish_at`]).
    pub fn disseminate_at(&self, b: u32, subscribers: Vec<u32>, nonce: u64) -> DisseminationReport {
        PUBLISH_SCRATCH.with(|cell| {
            self.disseminate_scratch(&mut cell.borrow_mut(), b, &subscribers, nonce, None)
        })
    }

    /// Fills `out` with the planned delivery path for subscriber `s`
    /// (`out[0] == b`, `out.last() == s`) from the BFS parents recorded in
    /// `scr`, falling back to [`Self::lookup`] for unreached subscribers.
    /// Returns how the path was produced, or `None` (leaving `out`
    /// unspecified) if `s` is unreachable.
    ///
    /// The shortcut lookup that may replace a chain of `k` nodes runs under
    /// a budget of `min(max_route_hops, k − 2)` hops: only a path of fewer
    /// nodes than the chain is accepted, and under the tighter budget the
    /// greedy walk takes the same steps as under the full one — it stops
    /// only where the full budget would return a path too long to accept
    /// (the direct-link check precedes lookahead, and a greedy step reaches
    /// the target only through that check). Decision and accepted path are
    /// those of the unbounded [`Self::lookup`], with or without lookahead.
    #[hotpath]
    fn planned_path_into(
        &self,
        b: u32,
        s: u32,
        scr: &PublishScratch,
        out: &mut Vec<u32>,
    ) -> Option<PathKind> {
        if scr.has_parent(s) {
            out.clear();
            out.push(s);
            let mut cur = s;
            while cur != b {
                cur = scr.parent_of(cur);
                out.push(cur);
            }
            out.reverse();
            // §III-E guarantees delivery "within 1 or 2 hops" when the
            // routing table or lookahead set affirms the subscriber: a
            // long chain through subscribers is replaced by a shorter
            // lookahead path when that path stays relay-light (≤ 1).
            if out.len() > 3 {
                let budget = self.cfg.max_route_hops.min(out.len() - 2);
                if let RouteOutcome::Delivered { path: direct } = self.lookup_within(b, s, budget) {
                    let direct_relays = direct[1..direct.len().saturating_sub(1)]
                        .iter()
                        .filter(|&&q| !scr.is_subscriber(q))
                        .count();
                    if direct_relays <= 1 {
                        out.clear();
                        out.extend_from_slice(&direct);
                        return Some(PathKind::Routed);
                    }
                }
            }
            return Some(PathKind::Flood);
        }
        // Last resort: greedy overlay routing from the publisher.
        match self.lookup(b, s) {
            RouteOutcome::Delivered { path } => {
                out.clear();
                out.extend_from_slice(&path);
                Some(PathKind::Routed)
            }
            RouteOutcome::Failed { .. } => None,
        }
    }

    /// The dissemination pipeline over a borrowed scratch arena: plan, then
    /// one delivery walk per subscriber ([`Self::deliver_planned`]). Steady
    /// path (inactive fault plan): no per-publication allocations beyond
    /// arena growth — BFS state, membership tests, the stage-2 want list,
    /// receipt stamps, frontiers and path construction all reuse the
    /// thread-local scratch, connection lists are borrowed rows of the
    /// network's index, and delivered paths land directly in the tree
    /// arena. Under faults the edge memo, the crash list and the retry
    /// queue (its lost paths in one arena) are scratch buffers too; only a
    /// reroute allocates, for the path its [`RouteOutcome`] owns.
    ///
    /// `obs` threads the optional observability hooks through the pipeline:
    /// `None` does no observation work; `Some` records metrics into the
    /// preallocated recorder (still allocation-free on the steady path,
    /// relay load deduplicated by the scratch's receipt stamps) and, when
    /// tracing is on, journey events into the flight recorder. Observation
    /// never feeds back into routing, so enabling it cannot change any
    /// protocol state.
    #[hotpath]
    fn disseminate_scratch(
        &self,
        scr: &mut PublishScratch,
        b: u32,
        subscribers: &[u32],
        nonce: u64,
        obs: Option<&mut Observer>,
    ) -> DisseminationReport {
        self.plan_into_scratch(scr, b, subscribers);
        self.deliver_planned(scr, b, subscribers, nonce, obs)
    }

    /// The planning half of the pipeline: seeds the scratch epoch, marks the
    /// subscriber set and records the two-stage BFS parents (§III-E) into
    /// `scr`. Pure with respect to overlay state; after it returns, the plan
    /// in `scr` stays valid until the next [`PublishScratch::begin`] — which
    /// is exactly what lets one traversal serve a whole same-source batch of
    /// [`Self::deliver_planned`] calls. Adjacency comes from the connection
    /// index ([`SelectNetwork::connections`]): planning merges no lists.
    #[hotpath]
    fn plan_into_scratch(&self, scr: &mut PublishScratch, b: u32, subscribers: &[u32]) {
        self.plan_social_flood(scr, b, subscribers);
        self.plan_bucket_bfs(scr, subscribers);
    }

    /// Stage 1: BFS over connections restricted to {b} ∪ subscribers — the
    /// relay-free part of the tree. Depth is tracked from the publisher so
    /// the hop budget bounds the *full* path, not a stage.
    #[hotpath]
    fn plan_social_flood(&self, scr: &mut PublishScratch, b: u32, subscribers: &[u32]) {
        scr.begin(self.len());
        for &s in subscribers {
            scr.mark_subscriber(s);
        }
        let max_hops = self.cfg.max_route_hops;
        scr.set_parent(b, b, 0);
        scr.queue.push_back(b);
        while let Some(u) = scr.queue.pop_front() {
            let d = scr.depth_of(u);
            if d >= max_hops {
                continue;
            }
            for &v in self.connections(u) {
                if scr.is_subscriber(v) && !scr.has_parent(v) {
                    scr.set_parent(v, u, d + 1);
                    scr.queue.push_back(v);
                }
            }
        }
    }

    /// Stage 2: every peer holding the message keeps forwarding (§III-E
    /// applies at every hop, not just at the publisher), so the online
    /// subscribers stage 1 missed are reached by a multi-source BFS from the
    /// already-reached set over the full connection graph; intermediates
    /// picked up here are non-subscribers — the relay nodes. Expansion goes
    /// level by level in publisher-distance order, so stage-1 depth plus
    /// the stage-2 extension can never exceed the hop budget combined.
    ///
    /// The search runs from the subscribers' side. Before level `d` is
    /// expanded it is complete, and every still-missing subscriber `s` with
    /// a connection at level `d` takes the smallest such peer as parent, at
    /// depth `d + 1`. That is the parent the sorted forward scan of level
    /// `d` would give it: the scan parents `s` from the first level-`d`
    /// peer whose row holds `s`, and for online peers `v ∈ row(u)` exactly
    /// when `u ∈ row(v)` (the auditor's `connection-symmetry`). The one
    /// asymmetric row, an offline publisher's own, is level 0's only peer,
    /// and a missing subscriber is never in it — stage 1 would have reached
    /// it. An offline subscriber is in no row and stays unparented.
    ///
    /// So the forward scan only ever finds relays: a level is expanded only
    /// while a subscriber is still missing, and level `max_route_hops − 1`
    /// never is (its children could parent nobody within the budget).
    /// Parents are first-come and never rewritten, so every subscriber's
    /// chain, the plan [`Self::planned_path_into`] reads back, is the one the
    /// exhaustive level-by-level BFS records.
    #[hotpath]
    fn plan_bucket_bfs(&self, scr: &mut PublishScratch, subscribers: &[u32]) {
        let mut want = std::mem::take(&mut scr.want);
        want.clear();
        want.extend(
            subscribers
                .iter()
                .copied()
                .filter(|&s| !scr.has_parent(s) && self.is_peer_online(s)),
        );
        if !want.is_empty() {
            let max_hops = self.cfg.max_route_hops;
            scr.ensure_buckets(max_hops + 1);
            for i in 0..scr.reached().len() {
                let p = scr.reached()[i];
                let d = scr.depth_of(p);
                scr.buckets[d].push(p);
            }
            for d in 0..max_hops {
                want.retain(|&s| {
                    if scr.has_parent(s) {
                        return false; // a repeated subscriber, placed already
                    }
                    let parent = self
                        .connections(s)
                        .iter()
                        .copied()
                        .filter(|&u| scr.depth_if_reached(u) == Some(d))
                        .min();
                    if let Some(u) = parent {
                        scr.set_parent(s, u, d + 1);
                        scr.buckets[d + 1].push(s);
                    }
                    parent.is_none()
                });
                if want.is_empty() || d + 1 == max_hops {
                    break;
                }
                let mut frontier = std::mem::take(&mut scr.buckets[d]);
                frontier.sort_unstable(); // deterministic expansion order
                for &u in &frontier {
                    for &v in self.connections(u) {
                        if !scr.has_parent(v) {
                            scr.set_parent(v, u, d + 1);
                            scr.buckets[d + 1].push(v);
                        }
                    }
                }
                frontier.clear();
                scr.buckets[d] = frontier; // hand the capacity back
            }
        }
        scr.want = want;
    }

    /// The delivery half of the pipeline: walks the BFS plan recorded in
    /// `scr` by [`Self::plan_into_scratch`] and produces the report for one
    /// publication `nonce`. Never mutates the plan (only the reusable path
    /// and fault buffers are taken and restored), so it can run any number
    /// of times over one plan — fault schedules and observation are
    /// per-nonce, the traversal is shared.
    ///
    /// One walk serves both regimes. Each subscriber's planned path is
    /// walked once as attempt 0; a delivered path goes straight into the
    /// tree, a lost one is queued (its path copied into the scratch's lost
    /// arena) for the ack-driven retry waves, which walk it (or a reroute
    /// around observed-dead relays) again. With the fault plan inactive
    /// nothing is drawn, every edge crosses, and the queue stays empty —
    /// the fault-free publish is that walk with no draws and zero telemetry.
    #[hotpath]
    fn deliver_planned(
        &self,
        scr: &mut PublishScratch,
        b: u32,
        subscribers: &[u32],
        nonce: u64,
        obs: Option<&mut Observer>,
    ) -> DisseminationReport {
        self.deliver_along(scr, b, subscribers, nonce, obs, Self::planned_path_into)
    }

    /// [`Self::deliver_planned`] with the per-subscriber path builder as a
    /// parameter (the reference planner in the tests brings its own).
    fn deliver_along(
        &self,
        scr: &mut PublishScratch,
        b: u32,
        subscribers: &[u32],
        nonce: u64,
        obs: Option<&mut Observer>,
        path_of: impl Fn(&Self, u32, u32, &PublishScratch, &mut Vec<u32>) -> Option<PathKind>,
    ) -> DisseminationReport {
        let (metrics, flight) = match obs {
            Some(o) => (Some(&mut o.metrics), o.flight.as_mut()),
            None => (None, None),
        };
        let mut walk = Walk {
            b,
            nonce,
            plan: self.cfg.fault_plan,
            seed: self.cfg.seed,
            latency: osn_sim::LinkModel::default(),
            telemetry: DeliveryTelemetry::default(),
            edge_fate: std::mem::take(&mut scr.edge_fate),
            dead: std::mem::take(&mut scr.dead),
            metrics,
            flight,
            tree: RoutingTree::new(b),
            total_hops: 0,
            total_relays: 0,
        };
        // Peers holding a copy live in the scratch arena's per-delivery
        // receipt stamps; the publisher holds it from the start.
        scr.begin_delivery(self.len());
        scr.first_receipt(b);
        let mut path = std::mem::take(&mut scr.path);
        let mut pending = std::mem::take(&mut scr.lost);
        let mut lost_nodes = std::mem::take(&mut scr.lost_nodes);
        for &s in subscribers {
            let journey = walk.begin(s);
            match path_of(self, b, s, scr, &mut path) {
                None => walk.fail(s, journey),
                Some(kind) => {
                    if walk.walk(scr, &path, 0, kind, journey) {
                        walk.deliver(scr, &path, 0, journey);
                    } else {
                        let start = lost_nodes.len() as u32;
                        lost_nodes.extend_from_slice(&path);
                        pending.push(Lost {
                            subscriber: s,
                            start,
                            end: lost_nodes.len() as u32,
                            journey,
                        });
                    }
                }
            }
        }
        scr.path = path;

        // Ack-driven retries with bounded exponential backoff: each wave
        // retransmits to every still-unacked subscriber, re-routing
        // around relays observed dead.
        let mut backoff = self.cfg.retry_backoff_ms;
        for attempt in 1..=self.cfg.retry_max as u32 {
            if pending.is_empty() {
                break;
            }
            walk.telemetry.backoff_ms += backoff;
            let wave = TraceEvent::RetryWave {
                attempt,
                backoff_ms: backoff as u32,
            };
            backoff = (backoff * 2).min(self.cfg.retry_backoff_ms << 8);
            pending.retain(|lost| {
                let (s, journey) = (lost.subscriber, lost.journey);
                walk.telemetry.retries += 1;
                walk.event(journey, || wave);
                let rerouted = if walk.dead.is_empty() {
                    None
                } else {
                    match route_greedy_excluding(self, b, s, self.cfg.max_route_hops, &walk.dead) {
                        RouteOutcome::Delivered { path } => Some(path),
                        RouteOutcome::Failed { .. } => None,
                    }
                };
                if let Some(via) = &rerouted {
                    walk.telemetry.reroutes += 1;
                    if let Some(&first) = via.get(1) {
                        walk.event(journey, || TraceEvent::Reroute { via: first });
                    }
                }
                let original = &lost_nodes[lost.start as usize..lost.end as usize];
                let path = rerouted.as_deref().unwrap_or(original);
                let delivered = walk.walk(scr, path, attempt, PathKind::Retry, journey);
                if delivered {
                    walk.deliver(scr, path, attempt, journey);
                }
                !delivered
            });
        }
        walk.telemetry.residual_losses = pending.len() as u64;
        for lost in pending.drain(..) {
            walk.fail(lost.subscriber, lost.journey);
        }
        if let Some(m) = walk.metrics {
            m.note_retries(walk.telemetry.retries);
        }
        // Hand the fault buffers back, emptied, with their capacity.
        lost_nodes.clear();
        walk.edge_fate.clear();
        walk.dead.clear();
        (scr.lost, scr.lost_nodes) = (pending, lost_nodes);
        (scr.edge_fate, scr.dead) = (walk.edge_fate, walk.dead);

        let delivered = walk.tree.num_paths();
        let per_path = |total: usize| match delivered {
            0 => 0.0,
            n => total as f64 / n as f64,
        };
        DisseminationReport {
            publisher: b,
            subscribers: subscribers.len(),
            delivered,
            avg_hops: per_path(walk.total_hops),
            avg_relays: per_path(walk.total_relays),
            total_relays: walk.total_relays,
            delivery: walk.telemetry,
            tree: walk.tree,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectConfig;
    use osn_graph::generators::{BarabasiAlbert, Generator};
    use osn_graph::UserId;
    use std::cell::RefCell;

    fn converged(seed: u64) -> SelectNetwork {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(seed);
        let mut n = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(seed));
        n.converge(100);
        n
    }

    #[test]
    fn publish_reaches_all_friends() {
        let n = converged(1);
        for b in [0u32, 5, 50, 149] {
            let r = n.publish(b);
            assert_eq!(
                r.delivered, r.subscribers,
                "publisher {b} failed {:?}",
                r.tree.failed
            );
            assert!((r.availability() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn most_deliveries_are_one_or_two_hops() {
        let n = converged(2);
        let r = n.publish(3);
        assert!(r.subscribers > 0);
        assert!(
            r.avg_hops < 3.0,
            "SELECT should deliver in ~1-2 hops, got {}",
            r.avg_hops
        );
    }

    #[test]
    fn paths_start_at_publisher_and_end_at_friends() {
        let n = converged(3);
        let b = 10u32;
        let r = n.publish(b);
        for path in r.tree.paths() {
            assert_eq!(path[0], b);
            let s = *path.last().unwrap();
            assert!(n.graph().has_edge(UserId(b), UserId(s)));
        }
    }

    #[test]
    fn tree_edges_dedup_shared_prefixes() {
        let n = converged(4);
        let r = n.publish(0);
        let edges = r.tree.edges();
        let raw: usize = r.tree.paths().map(|p| p.len() - 1).sum();
        assert!(edges.len() <= raw);
        // Every path edge is in the set.
        for path in r.tree.paths() {
            for w in path.windows(2) {
                assert!(edges.contains(&(w[0], w[1])));
            }
        }
    }

    #[test]
    fn forwards_count_distinct_children() {
        let tree = RoutingTree::from_paths(0, [vec![0, 1, 2], vec![0, 1, 3], vec![0, 4]]);
        let f = tree.forwards_per_peer();
        // 0 forwards twice (0->1 shared, 0->4); 1 forwards twice (1->2,
        // 1->3); leaf 2 forwards nothing and is absent.
        assert_eq!(f, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn relays_exclude_subscribers() {
        // Hand-built: publisher 0 friends with 1 and 2; path to 2 goes via 1
        // (a subscriber) → 0 relays.
        let n = converged(5);
        let r = n.publish(7);
        // Sanity: relays are never negative and bounded by hops.
        assert!(r.avg_relays <= r.avg_hops);
    }

    #[test]
    fn offline_subscribers_are_not_targeted() {
        let mut n = converged(6);
        let b = 0u32;
        let before = n.publish(b).subscribers;
        let f = n.online_friends(b)[0];
        n.set_offline(f);
        let after = n.publish(b).subscribers;
        assert_eq!(after, before - 1);
    }

    #[test]
    fn fault_free_run_reports_zero_telemetry() {
        let n = converged(8);
        let r = n.publish(0);
        assert_eq!(r.delivery, Default::default());
        assert_eq!(r.delivery.faults_injected(), 0);
    }

    #[test]
    fn drops_with_retries_still_deliver() {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(9);
        let mut n = SelectNetwork::bootstrap(
            g,
            SelectConfig::default()
                .with_seed(9)
                .with_fault_plan(osn_sim::FaultPlan::seeded(9).with_drop_prob(0.10))
                .with_retry_max(6),
        );
        n.converge(100);
        let mut drops = 0;
        let mut retries = 0;
        for (i, b) in [0u32, 3, 7, 20, 50, 90].iter().enumerate() {
            let r = n.publish_at(*b, i as u64);
            assert_eq!(
                r.delivered, r.subscribers,
                "retries should recover 10% drops: {:?}",
                r.delivery
            );
            drops += r.delivery.drops_injected;
            retries += r.delivery.retries;
        }
        assert!(drops > 0, "fault plan never fired");
        assert!(retries > 0, "drops happened but nothing was retried");
    }

    #[test]
    fn retries_disabled_measurably_degrade_availability() {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(10);
        let plan = osn_sim::FaultPlan::seeded(10).with_drop_prob(0.15);
        let build = |retries: usize| {
            let mut n = SelectNetwork::bootstrap(
                g.clone(),
                SelectConfig::default()
                    .with_seed(10)
                    .with_fault_plan(plan)
                    .with_retry_max(retries),
            );
            n.converge(100);
            n
        };
        let reliable = build(6);
        let fire_and_forget = build(0);
        let avail = |net: &SelectNetwork| {
            let mut total = 0.0;
            for nonce in 0..20u64 {
                total += net.publish_at((nonce * 7) as u32, nonce).availability();
            }
            total / 20.0
        };
        let with_retries = avail(&reliable);
        let without = avail(&fire_and_forget);
        assert!(
            with_retries > without + 0.05,
            "retries must be load-bearing: {with_retries} vs {without}"
        );
        assert!(
            with_retries > 0.99,
            "reliable delivery should recover drops"
        );
    }

    #[test]
    fn crashed_relays_are_routed_around() {
        let g = BarabasiAlbert::with_closure(200, 4, 0.4).generate(11);
        let mut n = SelectNetwork::bootstrap(
            g,
            SelectConfig::default()
                .with_seed(11)
                .with_fault_plan(
                    osn_sim::FaultPlan::seeded(11)
                        .with_crash_prob(0.08)
                        .with_drop_prob(0.02),
                )
                .with_retry_max(6),
        );
        n.converge(100);
        let mut tele = crate::stats::DeliveryTelemetry::default();
        for nonce in 0..30u64 {
            let r = n.publish_at((nonce * 5) as u32, nonce);
            tele.absorb(&r.delivery);
        }
        assert!(tele.crash_losses > 0, "crash schedule never fired");
        assert!(
            tele.reroutes > 0,
            "crashes observed but no retry ever re-routed: {tele:?}"
        );
    }

    #[test]
    fn same_nonce_replays_bit_identically() {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(12);
        let mut n = SelectNetwork::bootstrap(
            g,
            SelectConfig::default()
                .with_seed(12)
                .with_fault_plan(
                    osn_sim::FaultPlan::seeded(12)
                        .with_drop_prob(0.2)
                        .with_crash_prob(0.05),
                )
                .with_retry_max(4),
        );
        n.converge(100);
        let a = n.publish_at(5, 77);
        let b = n.publish_at(5, 77);
        assert_eq!(a.delivery, b.delivery);
        assert_eq!(a.tree, b.tree);
        // A different nonce draws a fresh schedule (with these rates, 20
        // publications with identical faults would be astronomical luck).
        let c = n.publish_at(5, 78);
        assert!(
            a.delivery != c.delivery || a.tree != c.tree,
            "nonces 77 and 78 drew identical fault schedules"
        );
    }

    #[test]
    fn full_paths_respect_hop_budget() {
        // Regression: stage 2 used to bound only its own extension depth,
        // so stage-1 depth + stage-2 extension could exceed max_route_hops.
        for seed in [13u64, 14, 15] {
            let g = BarabasiAlbert::with_closure(200, 3, 0.4).generate(seed);
            let mut cfg = SelectConfig::default().with_seed(seed);
            cfg.max_route_hops = 3;
            let mut n = SelectNetwork::bootstrap(g, cfg);
            n.converge(100);
            for b in (0..200u32).step_by(17) {
                let r = n.publish(b);
                for path in r.tree.paths() {
                    assert!(
                        path.len() - 1 <= 3,
                        "publisher {b}: path {path:?} exceeds max_route_hops=3"
                    );
                }
            }
        }
    }

    #[test]
    fn availability_with_no_subscribers_is_one() {
        let mut n = converged(7);
        let b = 0u32;
        for f in n.online_friends(b) {
            n.set_offline(f);
        }
        let r = n.publish(b);
        assert_eq!(r.subscribers, 0);
        assert_eq!(r.availability(), 1.0);
    }

    /// Field-by-field equality of two reports (`DisseminationReport` has no
    /// `PartialEq`: `avg_hops` is a float and telemetry compares exactly).
    fn assert_reports_equal(a: &DisseminationReport, b: &DisseminationReport, ctx: &str) {
        assert_eq!(a.publisher, b.publisher, "{ctx}: publisher");
        assert_eq!(a.subscribers, b.subscribers, "{ctx}: subscribers");
        assert_eq!(a.delivered, b.delivered, "{ctx}: delivered");
        assert_eq!(
            a.avg_hops.to_bits(),
            b.avg_hops.to_bits(),
            "{ctx}: avg_hops"
        );
        assert_eq!(
            a.avg_relays.to_bits(),
            b.avg_relays.to_bits(),
            "{ctx}: avg_relays"
        );
        assert_eq!(a.total_relays, b.total_relays, "{ctx}: total_relays");
        assert_eq!(a.delivery, b.delivery, "{ctx}: delivery telemetry");
        assert_eq!(a.tree, b.tree, "{ctx}: routing tree");
    }

    #[test]
    fn batched_publish_matches_sequential_fault_free() {
        let n = converged(21);
        for b in [0u32, 7, 50, 149] {
            let batch = n.publish_batch_at(b, 100, 5);
            assert_eq!(batch.len(), 5);
            for (i, r) in batch.iter().enumerate() {
                let seq = n.publish_at(b, 100 + i as u64);
                assert_reports_equal(r, &seq, &format!("publisher {b}, nonce {}", 100 + i));
            }
        }
        assert!(n.publish_batch_at(0, 0, 0).is_empty());
    }

    #[test]
    fn batched_publish_matches_sequential_under_faults() {
        let g = BarabasiAlbert::with_closure(150, 4, 0.4).generate(22);
        let mut n = SelectNetwork::bootstrap(
            g,
            SelectConfig::default()
                .with_seed(22)
                .with_fault_plan(
                    osn_sim::FaultPlan::seeded(22)
                        .with_drop_prob(0.15)
                        .with_crash_prob(0.04),
                )
                .with_retry_max(5),
        );
        n.converge(100);
        let batch = n.publish_batch_at(9, 40, 6);
        let mut distinct = false;
        for (i, r) in batch.iter().enumerate() {
            let seq = n.publish_at(9, 40 + i as u64);
            assert_reports_equal(r, &seq, &format!("fault nonce {}", 40 + i));
            if r.delivery != batch[0].delivery || r.tree != batch[0].tree {
                distinct = true;
            }
        }
        assert!(
            distinct,
            "fault schedules should differ across the batch's nonces"
        );
    }

    #[test]
    fn observed_batch_matches_sequential_observation() {
        let n = converged(23);
        let b = 3u32;
        let count = 4usize;
        let mut obs_batch = Observer::for_peers(n.len()).with_tracing(16);
        let mut obs_seq = Observer::for_peers(n.len()).with_tracing(16);
        let batch = n.publish_batch_observed(b, 10, count, &mut obs_batch);
        assert_eq!(batch.len(), count);
        for (i, r) in batch.iter().enumerate() {
            let seq = n.publish_observed(b, 10 + i as u64, &mut obs_seq);
            assert_reports_equal(r, &seq, &format!("observed nonce {}", 10 + i));
        }
        assert_eq!(
            obs_batch.metrics, obs_seq.metrics,
            "batched observation must aggregate identically"
        );
        assert_eq!(obs_batch.batch_sizes.count(), 1);
        assert_eq!(obs_batch.batch_sizes.sum(), count as u64);
        assert_eq!(
            obs_seq.batch_sizes.count(),
            0,
            "plain publishes record no batch"
        );
    }

    /// What the exhaustive planner met in one publication: where stage 2
    /// placed the subscribers stage 1 missed, and how the §III-E shortcut
    /// check decided.
    #[derive(Debug, Default)]
    struct Shape {
        /// The level (parent depth) at which stage 2 placed each subscriber.
        placed_at: Vec<usize>,
        /// A subscriber placed by stage 2 is the parent of another.
        subscriber_relays: bool,
        /// An online subscriber was still missing when the budget ran out.
        unreachable: bool,
        /// Shortcut checks whose lookup path replaced the chain.
        shortcut_accepted: usize,
        /// Shortcut checks whose unbounded lookup delivered a path with no
        /// fewer nodes than the chain — where the budgeted lookup stops.
        shortcut_too_long: usize,
    }

    impl SelectNetwork {
        /// The planner as it was before the row check: stage 2 copies out a
        /// connection list per expansion and expands every level within the
        /// hop budget, whatever is still missing. (Each list is checked
        /// against a fresh merge by the debug assertion in
        /// [`SelectNetwork::connections`].)
        fn plan_reference(&self, scr: &mut PublishScratch, b: u32, subscribers: &[u32]) -> Shape {
            self.plan_social_flood(scr, b, subscribers);
            let missing: Vec<u32> = subscribers
                .iter()
                .copied()
                .filter(|&s| !scr.has_parent(s) && self.is_peer_online(s))
                .collect();
            let mut shape = Shape::default();
            if missing.is_empty() {
                return shape;
            }
            let max_hops = self.cfg.max_route_hops;
            let mut conn = Vec::new();
            scr.ensure_buckets(max_hops + 1);
            for i in 0..scr.reached().len() {
                let p = scr.reached()[i];
                let d = scr.depth_of(p);
                scr.buckets[d].push(p);
            }
            for d in 0..max_hops {
                let mut frontier = std::mem::take(&mut scr.buckets[d]);
                frontier.sort_unstable();
                for &u in &frontier {
                    self.connections_of_into(u, &mut conn);
                    for &v in &conn {
                        if !scr.has_parent(v) {
                            scr.set_parent(v, u, d + 1);
                            scr.buckets[d + 1].push(v);
                            if missing.contains(&v) {
                                shape.placed_at.push(d);
                                shape.subscriber_relays |= missing.contains(&u);
                            }
                        }
                    }
                }
                frontier.clear();
                scr.buckets[d] = frontier;
            }
            shape.unreachable = missing.iter().any(|&s| !scr.has_parent(s));
            shape
        }

        /// [`Self::planned_path_into`] as it was before the shortcut budget:
        /// the shortcut check runs the unbounded [`Self::lookup`]. Counts
        /// the check's decisions into `shape`.
        fn reference_path_into(
            &self,
            b: u32,
            s: u32,
            scr: &PublishScratch,
            out: &mut Vec<u32>,
            shape: &RefCell<Shape>,
        ) -> Option<PathKind> {
            if !scr.has_parent(s) {
                return match self.lookup(b, s) {
                    RouteOutcome::Delivered { path } => {
                        out.clone_from(&path);
                        Some(PathKind::Routed)
                    }
                    RouteOutcome::Failed { .. } => None,
                };
            }
            out.clear();
            out.push(s);
            while *out.last().unwrap() != b {
                out.push(scr.parent_of(*out.last().unwrap()));
            }
            out.reverse();
            if out.len() > 3 {
                if let RouteOutcome::Delivered { path: direct } = self.lookup(b, s) {
                    let relays = direct[1..direct.len() - 1]
                        .iter()
                        .filter(|&&q| !scr.is_subscriber(q))
                        .count();
                    if direct.len() < out.len() && relays <= 1 {
                        shape.borrow_mut().shortcut_accepted += 1;
                        out.clone_from(&direct);
                        return Some(PathKind::Routed);
                    }
                    if direct.len() >= out.len() {
                        shape.borrow_mut().shortcut_too_long += 1;
                    }
                }
            }
            Some(PathKind::Flood)
        }

        /// One dissemination planned by [`Self::plan_reference`], its paths
        /// built by [`Self::reference_path_into`], and delivered by the
        /// production delivery walk.
        fn disseminate_reference(
            &self,
            b: u32,
            subscribers: &[u32],
            nonce: u64,
            obs: Option<&mut Observer>,
        ) -> (DisseminationReport, Shape) {
            PUBLISH_SCRATCH.with(|cell| {
                let scr = &mut *cell.borrow_mut();
                let shape = RefCell::new(self.plan_reference(scr, b, subscribers));
                let report =
                    self.deliver_along(scr, b, subscribers, nonce, obs, |net, b, s, scr, out| {
                        net.reference_path_into(b, s, scr, out, &shape)
                    });
                (report, shape.into_inner())
            })
        }
    }

    fn journeys(obs: &Observer) -> Vec<String> {
        let flight = obs.flight.as_ref().expect("tracing is on");
        flight.journeys().map(|j| j.to_string()).collect()
    }

    /// Which planner shapes a sweep of [`assert_matches_reference`] met.
    #[derive(Debug, Default)]
    struct Coverage {
        stage2: usize,
        /// A subscriber placed by the row check at level ≥ 2.
        placed_deep: usize,
        /// A level that placed a subscriber was still expanded, because a
        /// deeper one remained.
        expanded_for_deeper: usize,
        /// A subscriber stage 1 missed relays for another.
        subscriber_relays: usize,
        /// A subscriber unreachable within `max_route_hops`.
        unreachable: usize,
        /// Shortcut checks accepted / rejected as too long, with lookahead
        /// on (`[1]`) and off (`[0]`).
        shortcut_accepted: [usize; 2],
        shortcut_too_long: [usize; 2],
        /// `disseminate_at` calls with an offline subscriber in the list.
        offline_subscriber: usize,
    }

    impl Coverage {
        fn note(&mut self, shape: &Shape, lookahead: bool) {
            let look = usize::from(lookahead);
            self.shortcut_accepted[look] += shape.shortcut_accepted;
            self.shortcut_too_long[look] += shape.shortcut_too_long;
            if shape.placed_at.is_empty() && !shape.unreachable {
                return;
            }
            self.stage2 += 1;
            let levels = shape.placed_at.iter();
            self.placed_deep += usize::from(levels.clone().any(|&d| d >= 2));
            let (lo, hi) = (levels.clone().min(), levels.max());
            self.expanded_for_deeper += usize::from(lo < hi);
            self.subscriber_relays += usize::from(shape.subscriber_relays);
            self.unreachable += usize::from(shape.unreachable);
        }
    }

    /// Every online publisher of `n`: `publish_at`, `publish_observed`
    /// (journeys included), `publish_batch_at` and `disseminate_at` (every
    /// subscriber repeated, plus an offline peer when there is one) against
    /// the reference planner.
    fn assert_matches_reference(n: &SelectNetwork, ctx: &str, seen: &mut Coverage) {
        let offline = (0..n.len() as u32).find(|&p| !n.is_peer_online(p));
        for b in (0..n.len() as u32).filter(|&b| n.is_peer_online(b)) {
            let nonce = 1_000 + b as u64;
            let ctx = format!("{ctx}, publisher {b}");
            let subs = n.online_friends(b);
            let (want, shape) = n.disseminate_reference(b, &subs, nonce, None);
            assert_reports_equal(&n.publish_at(b, nonce), &want, &ctx);
            seen.note(&shape, n.cfg.use_lookahead);
            for (i, r) in n.publish_batch_at(b, nonce, 2).iter().enumerate() {
                let (want, _) = n.disseminate_reference(b, &subs, nonce + i as u64, None);
                assert_reports_equal(r, &want, &format!("{ctx}, batch slot {i}"));
            }
            let mut obs = Observer::for_peers(n.len()).with_tracing(512);
            let mut obs_ref = Observer::for_peers(n.len()).with_tracing(512);
            let got = n.publish_observed(b, nonce, &mut obs);
            let (want, _) = n.disseminate_reference(b, &subs, nonce, Some(&mut obs_ref));
            assert_reports_equal(&got, &want, &format!("{ctx}, observed"));
            assert_eq!(obs.metrics, obs_ref.metrics, "{ctx}: metrics");
            assert_eq!(journeys(&obs), journeys(&obs_ref), "{ctx}: journeys");

            let mut listed = subs.clone();
            listed.extend_from_within(..);
            listed.extend(offline);
            seen.offline_subscriber += usize::from(offline.is_some());
            let (want, _) = n.disseminate_reference(b, &listed, nonce, None);
            let got = n.disseminate_at(b, listed, nonce);
            assert_reports_equal(&got, &want, &format!("{ctx}, disseminate_at"));
        }
    }

    #[test]
    fn stage2_plans_match_the_exhaustive_reference() {
        let mut seen = Coverage::default();
        for seed in 30u64..36 {
            let g = BarabasiAlbert::with_closure(150, 3, 0.3).generate(seed);
            // A tight hop budget on half the overlays, so stage 2 runs out
            // of levels with subscribers still missing.
            let mut cfg = SelectConfig::default().with_seed(seed);
            if seed % 2 == 1 {
                cfg.max_route_hops = 2;
            }
            // Faults on a third: the retry machinery reads the same plan.
            if seed % 3 == 1 {
                cfg = cfg
                    .with_fault_plan(
                        osn_sim::FaultPlan::seeded(seed)
                            .with_drop_prob(0.1)
                            .with_crash_prob(0.03),
                    )
                    .with_retry_max(3);
            }
            // Plain greedy shortcut lookups on another third.
            cfg.use_lookahead = seed % 3 != 2;
            let mut n = SelectNetwork::bootstrap(g, cfg);
            // Stopped mid-convergence: few long links, deep stage-2 floods.
            assert_matches_reference(&n, &format!("seed {seed}, bootstrap"), &mut seen);
            for round in 1..=3 {
                n.gossip_round();
                assert_matches_reference(&n, &format!("seed {seed}, round {round}"), &mut seen);
            }
            // Under churn: a third of the peers gone, then one repair step.
            for p in (0..n.len() as u32).filter(|p| (p + seed as u32) % 3 == 1) {
                n.set_offline(p);
            }
            assert_matches_reference(&n, &format!("seed {seed}, churned"), &mut seen);
            n.probe_round();
            n.gossip_round();
            assert_matches_reference(&n, &format!("seed {seed}, repaired"), &mut seen);
        }
        let shortcuts = |c: [usize; 2]| c.iter().all(|&k| k > 0);
        assert!(
            seen.placed_deep > 0
                && seen.expanded_for_deeper > 0
                && seen.subscriber_relays > 0
                && seen.unreachable > 0
                && shortcuts(seen.shortcut_accepted)
                && shortcuts(seen.shortcut_too_long)
                && seen.offline_subscriber > 0
                && seen.stage2 > 100,
            "sweep missed a planner shape: {seen:?}"
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The arena layout (`nodes` + end offsets) must round-trip any path
        /// set exactly: `from_paths` → `num_paths`/`path(i)`/`paths()` give
        /// back the input, and `edges()` is the sorted dedup of consecutive
        /// pairs.
        #[test]
        fn routing_tree_arena_round_trip(
            publisher in any::<u32>(),
            paths in proptest::collection::vec(
                proptest::collection::vec(any::<u32>(), 0..6),
                0..10,
            ),
        ) {
            let tree = RoutingTree::from_paths(publisher, &paths);
            prop_assert_eq!(tree.publisher, publisher);
            prop_assert_eq!(tree.num_paths(), paths.len());
            for (i, p) in paths.iter().enumerate() {
                prop_assert_eq!(tree.path(i), p.as_slice());
            }
            let collected: Vec<Vec<u32>> = tree.paths().map(|p| p.to_vec()).collect();
            prop_assert_eq!(collected, paths.clone());
            let edges = tree.edges();
            prop_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges sorted + deduped");
            for &(a, b) in &edges {
                prop_assert!(
                    paths.iter().any(|p| p.windows(2).any(|w| w == [a, b])),
                    "edge ({a}, {b}) not in any input path"
                );
            }
        }
    }
}
