//! The peer runtime: **one** actor loop and **one** driver, generic over a
//! [`Link`].
//!
//! This is the stand-in for the paper's WebRTC browser peers: every peer
//! runs on its own OS thread and forwards real `bytes::Bytes` payloads to
//! its dissemination-tree children. What a peer *does* with a frame — dedup
//! by publication id, ack before forwarding, re-stamp the trace context,
//! draw the fault plan's fate per child, answer probes, stop on shutdown —
//! is written once, in `peer_loop`. What differs between runtimes is only
//! **how a frame reaches the next peer**, behind two small traits: [`Peers`]
//! (the address table the driver's injections and the peers' forwards both
//! go through) and [`Link`] (one peer's endpoint: inbound frames, events to
//! the driver, the jitter scale, the upload pace).
//!
//! Three link families implement them: crossbeam channels ([`ChannelLink`],
//! below — the **reference transport**: deterministic, fast, the baseline
//! the conformance test replays against), bandwidth-throttled channels
//! ([`crate::throttled`]) and loopback TCP ([`crate::socket`]).
//! [`PeerNetwork`] is the one driver — spawn, readiness handshake, publish,
//! probe, shutdown, the single [`Transport`] impl — and the public network
//! types are aliases of it. The loop is monomorphised per family: no `dyn`
//! sits between a frame's arrival and its forwards.
//!
//! The runtime checks *behaviour* (every subscriber receives exactly one
//! copy, forwarding follows the tree, concurrent publications don't
//! interfere); timing fidelity is the job of [`crate::timing`].

use crate::codec::{encoded_frame_len, WireError};
use crate::stats::TransportStats;
use crate::transport::{publish_over, PeerAddr, PublishResult, Transport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use osn_graph::ids::to_u32;
use osn_obs::trace::{span_id, SpanRecord};
use osn_sim::{FaultPlan, FrameFate};
use select_core::pubsub::RoutingTree;
use select_core::wire::{children_for, TraceContext, WireMsg};
use std::collections::{HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a link family reaches peers: the address table shared by the driver
/// (injections) and every peer (forwards).
pub trait Peers: Clone + Send + 'static {
    /// What a fan-out hands to each child: prepared once per forward, so a
    /// family that serializes does it once however many children follow.
    type Frame;

    /// Number of peers.
    fn count(&self) -> usize;

    /// Where `peer` is reachable, if it exists.
    fn addr(&self, peer: u32) -> Option<PeerAddr>;

    /// Prepares `msg` for [`Peers::carry`]; `None` if it cannot cross this
    /// family's links (oversized for the codec).
    fn frame(msg: WireMsg) -> Option<Self::Frame>;

    /// Carries `frame` to peer `to`. Returns `false` if there is no such
    /// peer or it is no longer reachable. `stats` is for what only the
    /// family can see (TCP's session connects); frame counting is the
    /// caller's.
    fn carry(&self, to: u32, frame: &Self::Frame, stats: &TransportStats) -> bool;

    /// Releases whatever the table holds open towards the peers, once they
    /// have all exited. Default: nothing to release. TCP drops its pooled
    /// streams here — a write into a dead peer's socket buffer would still
    /// succeed, and a stopped network must refuse.
    fn close(&self) {}
}

/// One peer's endpoint in a link family.
pub trait Link: Send + 'static {
    /// How this family reaches other peers.
    type Peers: Peers;

    /// Whether event frames are a lossless in-process hand-off — the one
    /// family-keyed decision in the shared code. When true their rx is
    /// counted at the send site and the driver builds spans from ack
    /// echoes; when false (TCP) the family's event reader counts rx and
    /// peers record spans themselves, with real attempts and per-hop stamps.
    const IN_PROCESS: bool;

    /// Carries an event frame (join, ack, probe reply) to the driver.
    fn event(&mut self, msg: WireMsg) -> bool;

    /// Blocks for the next inbound frame; `None` once nothing more will
    /// arrive. An `Err` is bytes that did not decode: it costs the sender
    /// its connection, never the peer — the loop counts it and keeps
    /// serving.
    fn recv(&mut self) -> Option<Result<WireMsg, WireError>>;

    /// Wall sleep for `virtual_ms` of fault-plan jitter. Default: virtual
    /// ms compressed to wall µs, so tests stay fast while ordering pressure
    /// is real.
    fn wall(&self, virtual_ms: f64) -> Duration {
        Duration::from_micros(virtual_ms.ceil() as u64)
    }

    /// Wall time one upload of `len` payload bytes occupies this peer's
    /// uplink before the frame leaves. Default: unpaced.
    fn pace(&self, _len: usize) -> Duration {
        Duration::ZERO
    }
}

/// A network of peer actors over link family `L`: the one driver behind
/// [`ThreadedNetwork`], [`crate::ThrottledNetwork`] and
/// [`crate::SocketNetwork`].
pub struct PeerNetwork<L: Link> {
    pub(crate) peers: L::Peers,
    /// Peer threads, yielding the spans they recorded, plus the helper
    /// threads a family parked here (TCP's control readers, yielding none).
    pub(crate) handles: Vec<JoinHandle<Vec<SpanRecord>>>,
    /// Driver-bound event frames: acks, probe replies (joins are drained
    /// by the spawn handshake).
    events: Receiver<WireMsg>,
    pub(crate) next_pub_id: u64,
    /// Retransmission waves `publish` may use after the first ack window.
    retry_max: u32,
    drops: Arc<AtomicU64>,
    /// Wire telemetry, shared with every peer thread. In-process links are
    /// lossless and peers drain their queues before honouring Shutdown, so
    /// runs that quiesce first count a pure function of the plan.
    pub(crate) stats: Arc<TransportStats>,
    /// Whether publish frames are stamped with a root [`TraceContext`].
    pub(crate) tracing: bool,
    /// Origin of every span wall stamp, driver- or peer-side.
    pub(crate) epoch: Instant,
    /// Collected spans. In-process: one per traced ack, pushed as the
    /// driver processes it — a per-delivery write into a cold per-thread
    /// buffer costs ~10% of the publish path on a busy single-core box,
    /// while this vec stays cache-hot under the ack loop. TCP: the peers'
    /// own buffers, collected when their threads are joined.
    pub(crate) spans: Vec<SpanRecord>,
}

impl<L: Link> PeerNetwork<L> {
    /// Starts one peer thread per seat, `open` turning each seat into that
    /// peer's link (and parking any helper thread in `handles`), then waits
    /// for every peer's [`WireMsg::Join`], so the network is fully up before
    /// the first publication. The struct exists before the first thread
    /// does, so every error path tears down through `shutdown`.
    pub(crate) fn spawn_over<S>(
        peers: L::Peers,
        events: Receiver<WireMsg>,
        plan: FaultPlan,
        retry_max: u32,
        seats: Vec<S>,
        mut open: impl FnMut(S, &mut Self) -> io::Result<L>,
    ) -> io::Result<Self> {
        let n = seats.len();
        let mut net = PeerNetwork {
            peers,
            handles: Vec::with_capacity(n),
            events,
            next_pub_id: 1,
            retry_max,
            drops: Arc::new(AtomicU64::new(0)),
            stats: Arc::new(TransportStats::new()),
            tracing: false,
            // One shared epoch makes cross-peer span deltas meaningful.
            // Wall time is a measurement here, never a protocol decision.
            // selint: allow(ambient-nondet, span wall stamps; canonical trace trees exclude them)
            epoch: Instant::now(),
            spans: Vec::new(),
        };
        for (id, seat) in seats.into_iter().enumerate() {
            let id = to_u32(id, "peer id");
            let link = open(seat, &mut net)?;
            let (peers, drops, stats) = (net.peers.clone(), net.drops.clone(), net.stats.clone());
            let epoch = net.epoch;
            net.handles.push(std::thread::spawn(move || {
                peer_loop(id, link, &peers, plan, &drops, &stats, epoch)
            }));
        }
        // Readiness handshake: drain one Join per peer so no event frame
        // from a later publication can race ahead of a still-starting peer.
        let mut joined = 0;
        while joined < n {
            match net.events.recv_timeout(Duration::from_secs(10)) {
                Ok(WireMsg::Join { .. }) => joined += 1,
                Ok(_) => {} // impossible before any publication; ignore
                Err(_) => return Err(io::Error::new(io::ErrorKind::TimedOut, "peer never joined")),
            }
        }
        Ok(net)
    }

    /// Publishes `payload` along `tree`, blocking until every subscriber in
    /// the tree received it (or `timeout` elapsed): [`publish_over`] with
    /// the next publication id and the constructor's retry budget.
    pub fn publish(
        &mut self,
        tree: &RoutingTree,
        payload: Bytes,
        timeout: Duration,
    ) -> PublishResult {
        let pub_id = self.next_pub_id;
        self.next_pub_id += 1;
        let retry_max = self.retry_max;
        publish_over(self, tree, payload, timeout, retry_max, pub_id)
    }

    /// Probes `peer` for liveness over the wire vocabulary: injects a
    /// [`WireMsg::Probe`] and waits up to `timeout` for the matching
    /// [`WireMsg::ProbeReply`]. Returns the reply's `online` flag, or
    /// `None` on timeout / unknown peer.
    pub fn probe(&mut self, peer: u32, nonce: u64, timeout: Duration) -> Option<bool> {
        let probe = WireMsg::Probe {
            from: u32::MAX,
            nonce,
            trace: None,
        };
        if !self.send_to(peer, probe) {
            return None;
        }
        // selint: allow(ambient-nondet, real-I/O probe deadline; the reply itself is plan-independent)
        let deadline = Instant::now() + timeout;
        loop {
            // selint: allow(ambient-nondet, countdown against the waived deadline above)
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.recv_event(remaining) {
                Some(WireMsg::ProbeReply {
                    from,
                    nonce: echoed,
                    online,
                }) if from == peer && echoed == nonce => return Some(online),
                Some(_) => {} // stale ack from an earlier publication
                None => return None,
            }
        }
    }

    /// Stops every peer (a [`WireMsg::Shutdown`] frame each) and joins all
    /// threads, collecting the spans peers recorded. Idempotent: calling it
    /// again (or dropping the network afterwards) is a no-op.
    pub fn shutdown(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        for peer in 0..to_u32(self.peers.count(), "peer count") {
            self.send_to(peer, WireMsg::Shutdown);
        }
        // Helper threads end once their peer did (TCP readers see EOF when
        // the peer drops its control stream), so any join order terminates.
        for h in self.handles.drain(..) {
            if let Ok(spans) = h.join() {
                self.spans.extend(spans);
            }
        }
        self.peers.close();
    }
}

impl<L: Link> Drop for PeerNetwork<L> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<L: Link> Transport for PeerNetwork<L> {
    fn len(&self) -> usize {
        self.peers.count()
    }

    fn send_to(&mut self, to: u32, msg: WireMsg) -> bool {
        let (tag, bytes) = (msg.tag(), encoded_frame_len(&msg));
        let ok = <L::Peers>::frame(msg).is_some_and(|f| self.peers.carry(to, &f, &self.stats));
        if ok {
            self.stats.record_tx(tag, bytes);
        }
        ok
    }

    fn recv_event(&mut self, timeout: Duration) -> Option<WireMsg> {
        let msg = self.events.recv_timeout(timeout).ok()?;
        // Driver-side span materialization for in-process families: each
        // traced ack echoes the context its delivery happened under (parent
        // = forwarder's span, hop = tree depth), so the driver can build
        // the record without the peers buffering anything. Wall stamps are
        // ack-processing times; the events channel preserves causal order
        // (a peer acks before it forwards), so they stay monotone along
        // every chain. The delivering attempt is not in the ack: these
        // spans always say attempt 0.
        if L::IN_PROCESS {
            if let WireMsg::Ack {
                peer,
                trace: Some(ctx),
                ..
            } = &msg
            {
                self.spans.push(delivery_span(*ctx, *peer, 0, self.epoch));
            }
        }
        Some(msg)
    }

    fn drops_injected(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    fn peer_addr(&self, peer: u32) -> Option<PeerAddr> {
        self.peers.addr(peer)
    }

    fn shutdown(&mut self) {
        PeerNetwork::shutdown(self);
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn tracing(&self) -> bool {
        self.tracing
    }

    fn drain_spans(&mut self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans)
    }
}

/// Sends a driver-bound event frame and counts it. In-process the driver's
/// rx is counted here too: the hand-off is lossless, so the totals stay a
/// pure function of the plan even when the ack loop returns before
/// draining every event.
fn send_event<L: Link>(link: &mut L, stats: &TransportStats, msg: WireMsg) -> bool {
    let (tag, bytes) = (msg.tag(), encoded_frame_len(&msg));
    let ok = link.event(msg);
    if ok {
        stats.record_tx(tag, bytes);
        if L::IN_PROCESS {
            stats.record_rx(tag, bytes);
        }
    }
    ok
}

/// The span of `peer`'s first delivery under `ctx`, stamped now. The span
/// id is a pure function of (trace, peer), so the driver and the peer
/// build the same record.
fn delivery_span(ctx: TraceContext, peer: u32, attempt: u32, epoch: Instant) -> SpanRecord {
    SpanRecord {
        trace_id: ctx.trace_id,
        span_id: span_id(ctx.trace_id, peer),
        parent_span: ctx.parent_span,
        peer,
        hop: ctx.hop,
        attempt,
        wall_us: epoch.elapsed().as_micros() as u64,
    }
}

/// How many of the publications it handled last a peer remembers for
/// duplicate suppression. Duplicates (diamond trees, retransmissions) arrive
/// within one publication's ack windows, never hundreds of publications
/// later; forgetting one that old costs at most a stale ack, which the
/// driver already ignores.
const DEDUP_WINDOW: usize = 256;

/// The publication ids a peer handled most recently: a set for the lookup,
/// a FIFO beside it so the set stays at [`DEDUP_WINDOW`] entries however
/// many publications the peer lives through.
#[derive(Default)]
struct RecentPubs {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
}

impl RecentPubs {
    /// Records `pub_id`; `false` if it is a duplicate inside the window.
    fn first_sight(&mut self, pub_id: u64) -> bool {
        if !self.seen.insert(pub_id) {
            return false;
        }
        if self.order.len() == DEDUP_WINDOW {
            if let Some(oldest) = self.order.pop_front() {
                self.seen.remove(&oldest);
            }
        }
        self.order.push_back(pub_id);
        true
    }
}

fn nap(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

/// One peer: announce, then serve frames until shutdown or close. Returns
/// the spans it recorded (always empty on in-process links).
fn peer_loop<L: Link>(
    id: u32,
    mut link: L,
    peers: &L::Peers,
    plan: FaultPlan,
    drops: &AtomicU64,
    stats: &TransportStats,
    epoch: Instant,
) -> Vec<SpanRecord> {
    let mut spans: Vec<SpanRecord> = Vec::new();
    if !send_event(&mut link, stats, WireMsg::Join { peer: id }) {
        return spans; // driver is gone; nothing to serve
    }
    // Publications this peer already handled: duplicate forwards (diamond
    // trees, retransmissions) deliver once.
    let mut recent = RecentPubs::default();
    while let Some(inbound) = link.recv() {
        let Ok(msg) = inbound else {
            stats.note_garbage_frame();
            stats.note_codec_error_conn();
            continue;
        };
        stats.record_rx(msg.tag(), encoded_frame_len(&msg));
        match msg {
            WireMsg::Publish {
                pub_id,
                attempt,
                publisher,
                children,
                payload,
                trace,
            } => {
                if !recent.first_sight(pub_id) {
                    continue;
                }
                // First delivery of a traced publication: echo the delivery
                // context verbatim in the ack (the ack convention every
                // family shares) and stamp forwards with this peer's own
                // span as their parent. Off-process, also record the span
                // here, with the real attempt and a per-hop wall stamp.
                let fwd_trace: Option<TraceContext> = trace.map(|ctx| {
                    if !L::IN_PROCESS {
                        spans.push(delivery_span(ctx, id, attempt, epoch));
                    }
                    ctx.child_of(span_id(ctx.trace_id, id))
                });
                let ack = WireMsg::Ack {
                    pub_id,
                    peer: id,
                    bytes: payload.len() as u64,
                    trace,
                };
                send_event(&mut link, stats, ack);
                let Some(kids) = children_for(&children, id) else {
                    continue; // leaf: deliver locally, forward nothing
                };
                // Uploads serialize — each peer is one thread, like one NIC
                // draining — so the pace is paid before *each* child.
                let upload = link.pace(payload.len());
                let fwd = WireMsg::Publish {
                    pub_id,
                    attempt,
                    publisher,
                    children: children.clone(),
                    payload,
                    trace: fwd_trace,
                };
                let bytes = encoded_frame_len(&fwd);
                let Some(frame) = <L::Peers>::frame(fwd) else {
                    continue; // unencodable (oversized) — cannot forward
                };
                for &c in kids {
                    // The fault boundary: one fate per (publication,
                    // attempt, directed link), drop drawn first.
                    match plan.frame_fate(pub_id, attempt, id, c) {
                        FrameFate::Drop => {
                            // The uplink drained before the frame was lost.
                            nap(upload);
                            drops.fetch_add(1, Ordering::Relaxed);
                        }
                        FrameFate::Deliver { delay_ms } => {
                            nap(upload + link.wall(delay_ms));
                            // `carry` refuses malformed tree edges (no such
                            // peer) and peers that already stopped.
                            if peers.carry(c, &frame, stats) {
                                stats.record_tx(6, bytes);
                            }
                        }
                    }
                }
            }
            WireMsg::Probe {
                from: _,
                nonce,
                trace: _,
            } => {
                let reply = WireMsg::ProbeReply {
                    from: id,
                    nonce,
                    online: true,
                };
                send_event(&mut link, stats, reply);
            }
            WireMsg::Shutdown => break,
            // Gossip exchange frames route through the superstep engine,
            // and ack/join frames are driver-bound: a peer receiving one
            // ignores it rather than crashing the network. The list is
            // spelled out (no `_`) so a new wire tag fails to compile until
            // the runtime decides what to do with it.
            WireMsg::ExchangeRt { .. }
            | WireMsg::ExchangeReply { .. }
            | WireMsg::Join { .. }
            | WireMsg::Ack { .. }
            | WireMsg::ProbeReply { .. } => {}
        }
    }
    spans
}

/// The channel family's address table: one sender per peer.
#[derive(Clone)]
pub struct ChannelPeers(Arc<[Sender<WireMsg>]>);

impl Peers for ChannelPeers {
    type Frame = WireMsg;

    fn count(&self) -> usize {
        self.0.len()
    }

    fn addr(&self, peer: u32) -> Option<PeerAddr> {
        ((peer as usize) < self.0.len()).then_some(PeerAddr::InProc(peer))
    }

    fn frame(msg: WireMsg) -> Option<WireMsg> {
        Some(msg)
    }

    /// Payload buffers are reference-counted and the child map sits behind
    /// an `Arc`, so the per-child clone is O(1) — a relay handing on a
    /// buffer it holds.
    fn carry(&self, to: u32, frame: &WireMsg, _stats: &TransportStats) -> bool {
        self.0
            .get(to as usize)
            .is_some_and(|tx| tx.send(frame.clone()).is_ok())
    }
}

/// A peer endpoint on crossbeam channels: lossless, ordered, in-process.
pub struct ChannelLink {
    inbox: Receiver<WireMsg>,
    events: Sender<WireMsg>,
}

impl ChannelLink {
    /// Builds the channels for `n` peers: every peer's link, the address
    /// table reaching them, and the driver's end of the event channel.
    pub(crate) fn fabric(n: usize) -> (Vec<ChannelLink>, ChannelPeers, Receiver<WireMsg>) {
        let (event_tx, events) = unbounded();
        let (senders, inboxes): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let links = inboxes
            .into_iter()
            .map(|inbox| ChannelLink {
                inbox,
                events: event_tx.clone(),
            })
            .collect();
        (links, ChannelPeers(senders.into()), events)
    }
}

impl Link for ChannelLink {
    type Peers = ChannelPeers;
    const IN_PROCESS: bool = true;

    fn event(&mut self, msg: WireMsg) -> bool {
        self.events.send(msg).is_ok()
    }

    fn recv(&mut self) -> Option<Result<WireMsg, WireError>> {
        self.inbox.recv().ok().map(Ok)
    }
}

/// A network of peer actors linked by crossbeam channels.
pub type ThreadedNetwork = PeerNetwork<ChannelLink>;

impl ThreadedNetwork {
    /// Spawns `n` peer actors on a fault-free network.
    pub fn spawn(n: usize) -> Self {
        Self::spawn_with_faults(n, FaultPlan::disabled(), 0)
    }

    /// Spawns `n` peer actors whose forwards run through `plan`: before
    /// each child send the peer draws the plan's frame fate (keyed by
    /// publication, attempt and directed link — deterministic and
    /// replayable): drops are discarded and counted, delay jitter sleeps
    /// before the send (virtual ms compressed to wall µs). `retry_max`
    /// bounds the publisher-side ack-driven retransmission waves of
    /// [`PeerNetwork::publish`].
    pub fn spawn_with_faults(n: usize, plan: FaultPlan, retry_max: u32) -> Self {
        let (links, peers, events) = ChannelLink::fabric(n);
        PeerNetwork::spawn_over(peers, events, plan, retry_max, links, |link, _| Ok(link))
            // selint: allow(panic-path, constructor not delivery; channel links cannot fail to open or join)
            .expect("in-process peers always open and join")
    }
}

#[cfg(test)]
mod tests {
    //! `publish_over` behaviour that no link family can change, checked
    //! once over the reference family. What every family owes the driver
    //! is in [`crate::contract`].

    use super::*;
    use crate::contract::tree;

    #[test]
    fn publisher_delivery_excluded() {
        let mut net = ThreadedNetwork::spawn(3);
        let t = tree(0, vec![vec![0, 1]]);
        let r = net.publish(&t, Bytes::from_static(b"x"), Duration::from_secs(5));
        assert!(!r.delivered_to.contains(&0));
        net.shutdown();
    }

    #[test]
    fn sequential_publications_do_not_interfere() {
        let mut net = ThreadedNetwork::spawn(4);
        let t1 = tree(0, vec![vec![0, 1], vec![0, 2]]);
        let t2 = tree(3, vec![vec![3, 2]]);
        let r1 = net.publish(&t1, Bytes::from_static(b"aa"), Duration::from_secs(5));
        let r2 = net.publish(&t2, Bytes::from_static(b"bbb"), Duration::from_secs(5));
        assert_eq!(r1.delivered_to, HashSet::from([1, 2]));
        assert_eq!(r2.delivered_to, HashSet::from([2]));
        assert_eq!(r2.bytes_received, 3);
        net.shutdown();
    }

    #[test]
    fn empty_tree_returns_immediately() {
        let mut net = ThreadedNetwork::spawn(2);
        let t = tree(0, vec![]);
        let r = net.publish(&t, Bytes::from_static(b"y"), Duration::from_millis(200));
        assert!(r.delivered_to.is_empty());
        net.shutdown();
    }

    #[test]
    fn fault_free_spawn_reports_zero_faults() {
        let mut net = ThreadedNetwork::spawn(4);
        let t = tree(0, vec![vec![0, 1, 2], vec![0, 3]]);
        let r = net.publish(&t, Bytes::from_static(b"z"), Duration::from_secs(5));
        assert_eq!(r.delivered_to, HashSet::from([1, 2, 3]));
        assert_eq!(r.drops_injected, 0);
        assert_eq!(r.retries, 0);
        net.shutdown();
    }

    #[test]
    fn record_into_populates_hops_and_relay_load() {
        let mut net = ThreadedNetwork::spawn(6);
        let t = tree(0, vec![vec![0, 1, 2], vec![0, 3], vec![0, 1, 4]]);
        let r = net.publish(&t, Bytes::from_static(b"m"), Duration::from_secs(5));
        net.shutdown();
        let mut rec = osn_obs::PublishRecorder::preallocated(6);
        r.record_into(&t, &mut rec);
        assert_eq!(rec.hops.count(), 3, "one hop sample per delivered path");
        assert_eq!(rec.hops.max(), 2);
        assert_eq!(rec.retries.count(), 1);
        // Peer 0 fans out to {1, 3} (peer 1 deduped), peer 1 to {2, 4}.
        assert_eq!(rec.relay_load()[0], 2);
        assert_eq!(rec.relay_load()[1], 2);
    }

    #[test]
    fn publisher_in_child_list_does_not_burn_ack_windows() {
        // A path that revisits the publisher puts it into a child list, so
        // it lands in the expectation set unless filtered. Before the fix
        // the ack loop could never satisfy `delivered_to.len() >=
        // expect.len()` (the publisher's local delivery is excluded) and
        // burned the entire timeout across every retry window.
        let mut net = ThreadedNetwork::spawn_with_faults(3, FaultPlan::disabled(), 3);
        let t = tree(0, vec![vec![0, 1, 0], vec![0, 2]]);
        let start = std::time::Instant::now();
        let r = net.publish(&t, Bytes::from_static(b"p"), Duration::from_secs(8));
        let elapsed = start.elapsed();
        assert_eq!(r.delivered_to, HashSet::from([1, 2]));
        assert_eq!(r.retries, 0, "fault-free publish must not retransmit");
        assert!(
            elapsed < Duration::from_secs(4),
            "ack loop burned the timeout ({elapsed:?}) waiting on the publisher's own ack"
        );
        net.shutdown();
    }

    #[test]
    fn tiny_timeout_with_large_retry_budget_still_waits_for_acks() {
        // timeout (2 ms) < retry_max + 1 (101) used to yield zero-length
        // ack windows: recv_timeout broke instantly and 100 retransmission
        // waves fired back-to-back. The floored window gives the first
        // wave time to be acked, so a fault-free star needs no retries.
        let mut net = ThreadedNetwork::spawn_with_faults(5, FaultPlan::disabled(), 100);
        let paths: Vec<Vec<u32>> = (1..=4u32).map(|c| vec![0, c]).collect();
        let t = tree(0, paths);
        let r = net.publish(&t, Bytes::from_static(b"w"), Duration::from_millis(2));
        assert_eq!(r.delivered_to, HashSet::from([1, 2, 3, 4]));
        assert_eq!(r.retries, 0, "floored ack window must absorb the acks");
        net.shutdown();
    }

    #[test]
    fn delay_jitter_does_not_lose_messages() {
        let plan = FaultPlan::seeded(7).with_max_delay_ms(30.0);
        let mut net = ThreadedNetwork::spawn_with_faults(5, plan, 0);
        let t = tree(0, vec![vec![0, 1, 2], vec![0, 3, 4]]);
        let r = net.publish(&t, Bytes::from_static(b"j"), Duration::from_secs(5));
        assert_eq!(r.delivered_to, HashSet::from([1, 2, 3, 4]));
        assert_eq!(r.drops_injected, 0);
        net.shutdown();
    }

    #[test]
    fn dedup_remembers_a_bounded_window_of_publications() {
        // One peer, 2,000 publications: its dedup state stops growing at
        // the window, so memory is flat in publications handled.
        let mut recent = RecentPubs::default();
        for pub_id in 1..=2_000u64 {
            assert!(recent.first_sight(pub_id));
        }
        assert_eq!(recent.seen.len(), DEDUP_WINDOW);
        assert_eq!(recent.order.len(), DEDUP_WINDOW);
        // A duplicate inside the window is refused — `peer_loop` then neither
        // acks nor forwards it (`diamond_tree_delivers_once`).
        assert!(!recent.first_sight(2_000));
        assert!(!recent.first_sight(2_001 - DEDUP_WINDOW as u64));
        assert!(recent.first_sight(2_000 - DEDUP_WINDOW as u64), "aged out");
        assert_eq!(recent.seen.len(), DEDUP_WINDOW);
    }

    #[test]
    fn transport_send_and_events_cover_the_driver_surface() {
        let mut net = ThreadedNetwork::spawn(2);
        assert_eq!(Transport::len(&net), 2);
        assert_eq!(net.peer_addr(1), Some(PeerAddr::InProc(1)));
        assert_eq!(net.peer_addr(2), None);
        assert!(!net.send_to(7, WireMsg::Shutdown));
        net.shutdown();
    }
}
