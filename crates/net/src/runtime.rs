//! The peer runtime: **one** step function, **one** pump and **one**
//! driver, generic over a [`Link`] — the stand-in for the paper's WebRTC
//! browser peers (DESIGN.md §12).
//!
//! What a peer does with a frame is written once, in the non-blocking
//! [`PeerState::on_frame`]. A **pump** runs it for a contiguous range of
//! peers on one worker thread: forwards inside the range are local queue
//! pushes, delayed ones wait in a `(not_before, seq)` queue, the rest
//! arrives through the worker's [`Link`]. Families differ only behind
//! [`Peers`] (the address table injections and cross-worker forwards use)
//! and [`Link`]: channels ([`ChannelLink`], the deterministic reference),
//! paced channels ([`crate::throttled`]) and loopback TCP
//! ([`crate::socket`]), all on `max(1, cores − 1)` workers. [`PeerNetwork`]
//! is the one driver, and the pump is monomorphised per family. The
//! runtime checks *behaviour*; timing fidelity is [`crate::timing`]'s job.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::wildcard_enum_match_arm)]

use crate::codec::encoded_frame_len;
use crate::stats::TransportStats;
use crate::transport::{publish_over, PeerAddr, PublishResult, Transport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use osn_graph::ids::to_u32;
use osn_obs::trace::{span_id, SpanRecord};
use osn_sim::latency::transfer_time;
use osn_sim::{FaultPlan, FrameFate};
use select_core::pubsub::RoutingTree;
use select_core::wire::{children_for, TraceContext, WireMsg};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::convert::Infallible;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a link family reaches peers: the address table shared by the driver
/// (injections) and every worker (cross-worker forwards).
pub trait Peers: Clone + Send + 'static {
    /// What a fan-out hands to each child: prepared once per forward, so a
    /// family that serializes does it once however many children follow.
    type Frame: Send + Sync + 'static;

    /// Number of peers.
    fn count(&self) -> usize;

    /// Where `peer` is reachable, if it exists.
    fn addr(&self, peer: u32) -> Option<PeerAddr>;

    /// Prepares `msg` for [`Peers::carry`]; `None` if it cannot cross this
    /// family's links (oversized for the codec).
    fn frame(msg: WireMsg) -> Option<Self::Frame>;

    /// The message in `frame`, for a hand-off inside one worker that skips
    /// the link. Default `None`: every forward crosses the link (TCP).
    fn unframe(_frame: &Self::Frame) -> Option<WireMsg> {
        None
    }

    /// Carries `frame` to peer `to`; `false` if there is no such peer or it
    /// is unreachable. `stats` is for what only the family sees (connects).
    fn carry(&self, to: u32, frame: &Self::Frame, stats: &TransportStats) -> bool;

    /// Records that `peer` took its Shutdown: later carries to it are
    /// refused.
    fn stop(&self, peer: u32);

    /// Pushes out frames [`Peers::carry`] left buffered. Runs after every
    /// driver injection; a family that buffers also flushes before its
    /// links block. Default: nothing is buffered.
    fn flush(&self, _stats: &TransportStats) {}

    /// Releases whatever the table holds open towards the peers, once they
    /// have all exited. Default: nothing to release (TCP drops its pooled
    /// streams).
    fn close(&self) {}
}

/// An inbound frame and its peer. Bytes that do not decode never get this
/// far: the family's reader counts them and drops their connection.
pub type Inbound = (u32, WireMsg);

/// One worker's endpoint in a link family.
pub trait Link: Send + 'static {
    /// How this family reaches other workers' peers.
    type Peers: Peers;

    /// Whether event frames are a lossless in-process hand-off, the one
    /// family-keyed decision in the shared code: then their rx counts at the
    /// send site and the driver builds spans from ack echoes; otherwise
    /// (TCP) the event reader counts rx and peers record their own spans.
    const IN_PROCESS: bool;

    /// Carries an event frame (join, ack, probe reply) to the driver.
    fn event(&mut self, msg: WireMsg) -> bool;

    /// The next inbound frame for this worker's peers, waiting until
    /// `deadline` at most; `Disconnected` once nothing more will arrive.
    fn recv(&mut self, deadline: Option<Instant>) -> Result<Inbound, RecvTimeoutError>;
}

/// How long a forward waits before it leaves: the virtual-ms-to-wall scale
/// (jitter, modelled transfers) and each paced peer's upload bandwidth.
pub(crate) struct Pace {
    /// Virtual ms per wall ms.
    pub(crate) compression: f64,
    /// Bytes per virtual ms, by peer; empty for unpaced uplinks.
    pub(crate) bandwidth: Vec<f64>,
}

impl Pace {
    /// Unpaced uplinks, jitter's virtual ms read as wall µs: tests stay
    /// fast while ordering pressure is real.
    pub(crate) const UNPACED: Pace = Pace {
        compression: 1_000.0,
        bandwidth: Vec::new(),
    };
}

/// A worker's contiguous range of peer ids, and what its link is built from.
pub(crate) type Shard<S> = (Range<u32>, S);

/// A network of peers over link family `L`: the one driver behind
/// [`ThreadedNetwork`], [`crate::ThrottledNetwork`] and
/// [`crate::SocketNetwork`].
pub struct PeerNetwork<L: Link> {
    pub(crate) peers: L::Peers,
    /// Workers, yielding their peers' spans, and a family's helper threads.
    pub(crate) handles: Vec<JoinHandle<Vec<SpanRecord>>>,
    /// Worker threads the peers were spread over.
    workers: usize,
    /// Driver-bound event frames (joins are drained by the handshake).
    events: Receiver<WireMsg>,
    pub(crate) next_pub_id: u64,
    /// Retransmission waves `publish` may use after the first ack window.
    retry_max: u32,
    drops: Arc<AtomicU64>,
    /// Wire telemetry, shared with every worker.
    pub(crate) stats: Arc<TransportStats>,
    /// Whether publish frames are stamped with a root [`TraceContext`].
    pub(crate) tracing: bool,
    /// Origin of every span wall stamp, driver- or peer-side.
    pub(crate) epoch: Instant,
    /// Collected spans: in-process, one per traced ack as the driver takes
    /// it (cache-hot, unlike per-peer buffers); TCP, the peers' own buffers
    /// once their workers are joined.
    pub(crate) spans: Vec<SpanRecord>,
}

impl<L: Link> PeerNetwork<L> {
    /// Starts one worker per shard (a range of peer ids and the seat `open`
    /// turns into its link, parking helper threads in `handles`), then waits
    /// for every peer's [`WireMsg::Join`]. The struct exists before the
    /// first thread does, so every error path tears down through `shutdown`.
    pub(crate) fn spawn_over<S>(
        peers: L::Peers,
        events: Receiver<WireMsg>,
        plan: FaultPlan,
        retry_max: u32,
        pace: Pace,
        shards: Vec<Shard<S>>,
        mut open: impl FnMut(S, &mut Self) -> io::Result<L>,
    ) -> io::Result<Self> {
        let n = peers.count();
        let mut net = PeerNetwork {
            peers,
            handles: Vec::with_capacity(shards.len()),
            workers: shards.len(),
            events,
            next_pub_id: 1,
            retry_max,
            drops: Arc::new(AtomicU64::new(0)),
            stats: Arc::new(TransportStats::new()),
            tracing: false,
            // One shared epoch makes cross-peer span deltas meaningful.
            // Wall time is a measurement here, never a protocol decision.
            #[expect(
                clippy::disallowed_methods,
                reason = "span wall stamps; canonical trace trees exclude them"
            )]
            epoch: Instant::now(),
            spans: Vec::new(),
        };
        let bandwidth = |id: u32| pace.bandwidth.get(id as usize).copied();
        for (range, seat) in shards {
            let link = open(seat, &mut net)?;
            let pump = Pump {
                link,
                peers: net.peers.clone(),
                first: range.start,
                states: range.map(|id| PeerState::new(id, bandwidth(id))).collect(),
                local: VecDeque::new(),
                delayed: BTreeMap::new(),
                seq: 0,
                out: Outbox {
                    plan,
                    compression: pace.compression,
                    drops: net.drops.clone(),
                    stats: net.stats.clone(),
                    epoch: net.epoch,
                    now: None,
                    events: Vec::new(),
                    forwards: Vec::new(),
                },
            };
            net.handles.push(std::thread::spawn(move || pump.run()));
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

    /// Worker threads serving the peers: derived, never configured.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Publishes `payload` along `tree` until every subscriber acked or
    /// `timeout` elapsed: [`publish_over`] with the next id and retry budget.
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
    #[expect(
        clippy::disallowed_methods,
        reason = "real-I/O probe deadline; the reply itself is plan-independent"
    )]
    pub fn probe(&mut self, peer: u32, nonce: u64, timeout: Duration) -> Option<bool> {
        let probe = WireMsg::Probe {
            from: u32::MAX,
            nonce,
            trace: None,
        };
        if !self.send_to(peer, probe) {
            return None;
        }
        let deadline = Instant::now() + timeout;
        loop {
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
        // Helper threads end once their worker did (a TCP worker's link,
        // dropped as it exits, closes its control stream and wakes its
        // acceptor), so any join order terminates.
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
        self.peers.flush(&self.stats);
        if ok {
            self.stats.record_tx(tag, bytes);
        }
        ok
    }

    fn recv_event(&mut self, timeout: Duration) -> Option<WireMsg> {
        let msg = self.events.recv_timeout(timeout).ok()?;
        // In-process, a traced ack echoes its delivery context, so the
        // driver builds the span: stamped as the ack is taken (monotone
        // along a chain, since a peer acks before it forwards) and always
        // attempt 0, which the ack does not carry.
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
        #[expect(
            clippy::cast_possible_truncation,
            reason = "microseconds since the epoch overflow u64 only after 584,000 years"
        )]
        wall_us: epoch.elapsed().as_micros() as u64,
    }
}

/// Publications a peer remembers for dedup. Duplicates (diamonds,
/// retransmissions) arrive within one publication's ack windows; forgetting
/// an older one costs at most a stale ack, which the driver ignores.
const DEDUP_WINDOW: usize = 256;

/// The publication ids a peer handled last: a set for the lookup, a FIFO
/// that keeps it at [`DEDUP_WINDOW`] entries.
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

/// One child's copy of a forward. The frame is shared by the whole fan-out.
struct Forward<P: Peers> {
    to: u32,
    frame: Arc<P::Frame>,
    /// Encoded size, for tx accounting.
    bytes: u64,
    /// Earliest wall time it may leave; `None` leaves at once.
    not_before: Option<Instant>,
}

/// What [`PeerState::on_frame`] reads besides the peer (plan, wall scale,
/// clock) and where it writes (events, forwards, counters).
pub(crate) struct Outbox<L: Link> {
    plan: FaultPlan,
    /// Virtual ms per wall ms, for jitter and paced uploads.
    compression: f64,
    drops: Arc<AtomicU64>,
    stats: Arc<TransportStats>,
    epoch: Instant,
    /// The step's wall clock: read at most once per step, and only when a
    /// forward is paced or jittered.
    now: Option<Instant>,
    events: Vec<WireMsg>,
    forwards: Vec<Forward<L::Peers>>,
}

impl<L: Link> Outbox<L> {
    fn wall(&self, virtual_ms: f64) -> Duration {
        Duration::from_secs_f64((virtual_ms / self.compression / 1_000.0).max(0.0))
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "release times of paced and jittered forwards; which frames arrive never depends on them"
    )]
    fn now(&mut self) -> Instant {
        *self.now.get_or_insert_with(Instant::now)
    }
}

/// One peer: everything a frame's handling reads or writes that belongs to
/// the peer rather than to its worker.
pub(crate) struct PeerState {
    id: u32,
    /// Publications this peer already handled: duplicate forwards (diamond
    /// trees, retransmissions) deliver once.
    recent: RecentPubs,
    /// Spans recorded peer-side (off-process families only).
    spans: Vec<SpanRecord>,
    /// Upload bandwidth, bytes per virtual ms; `None` for an unpaced uplink.
    bandwidth: Option<f64>,
    /// When the uplink has finished the uploads already scheduled on it.
    uplink: Option<Instant>,
    /// Took its Shutdown: serves nothing more.
    stopped: bool,
}

impl PeerState {
    fn new(id: u32, bandwidth: Option<f64>) -> Self {
        PeerState {
            id,
            recent: RecentPubs::default(),
            spans: Vec::new(),
            bandwidth,
            uplink: None,
            stopped: false,
        }
    }

    /// Handles one inbound frame. Never blocks: what a peer sends goes into
    /// `out`, forwards stamped with when they may leave.
    pub(crate) fn on_frame<L: Link>(&mut self, msg: WireMsg, out: &mut Outbox<L>) {
        let id = self.id;
        out.stats.record_rx(msg.tag(), encoded_frame_len(&msg));
        match msg {
            WireMsg::Publish {
                pub_id,
                attempt,
                publisher,
                children,
                payload,
                trace,
            } => {
                if !self.recent.first_sight(pub_id) {
                    return;
                }
                // Traced: the ack echoes the delivery context, forwards carry
                // this peer's span as parent; off-process the peer records
                // its span itself, with the real attempt and a wall stamp.
                let fwd_trace: Option<TraceContext> = trace.map(|ctx| {
                    if !L::IN_PROCESS {
                        self.spans.push(delivery_span(ctx, id, attempt, out.epoch));
                    }
                    ctx.child_of(span_id(ctx.trace_id, id))
                });
                out.events.push(WireMsg::Ack {
                    pub_id,
                    peer: id,
                    bytes: payload.len() as u64,
                    trace,
                });
                let Some(kids) = children_for(&children, id) else {
                    return; // leaf: deliver locally, forward nothing
                };
                let upload = self.bandwidth.map_or(Duration::ZERO, |bw| {
                    out.wall(transfer_time(payload.len() as u64, bw))
                });
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
                    return; // unencodable (oversized) — cannot forward
                };
                let frame = Arc::new(frame);
                for &c in kids {
                    // Uploads serialize on the uplink, one child after the
                    // other; a dropped upload occupies it too (the NIC
                    // drained before the frame was lost).
                    let sent = if upload.is_zero() {
                        None
                    } else {
                        let now = out.now();
                        let start = self.uplink.map_or(now, |t| t.max(now));
                        self.uplink = Some(start + upload);
                        self.uplink
                    };
                    // The fault boundary: one fate per (publication,
                    // attempt, directed link), drop drawn first.
                    match out.plan.frame_fate(pub_id, attempt, id, c) {
                        FrameFate::Drop => {
                            out.drops.fetch_add(1, Ordering::Relaxed);
                        }
                        FrameFate::Deliver { delay_ms } => {
                            let jitter = out.wall(delay_ms);
                            let not_before = match sent {
                                Some(t) => Some(t + jitter),
                                None if jitter.is_zero() => None,
                                None => Some(out.now() + jitter),
                            };
                            out.forwards.push(Forward {
                                to: c,
                                frame: frame.clone(),
                                bytes,
                                not_before,
                            });
                        }
                    }
                }
            }
            WireMsg::Probe {
                from: _,
                nonce,
                trace: _,
            } => out.events.push(WireMsg::ProbeReply {
                from: id,
                nonce,
                online: true,
            }),
            WireMsg::Shutdown => self.stopped = true,
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
}

/// One worker: steps the peers of a contiguous id range until every one of
/// them took its Shutdown and nothing it owes is left queued.
struct Pump<L: Link> {
    link: L,
    peers: L::Peers,
    /// Id of `states[0]`.
    first: u32,
    states: Vec<PeerState>,
    /// Forwards between peers of the range, served before the link.
    local: VecDeque<(u32, WireMsg)>,
    /// Forwards waiting out pace and jitter, by `(not_before, seq)`.
    delayed: BTreeMap<(Instant, u64), Forward<L::Peers>>,
    seq: u64,
    out: Outbox<L>,
}

impl<L: Link> Pump<L> {
    /// Announces every peer, then serves frames. Returns the spans the
    /// peers recorded (always empty on in-process links).
    fn run(mut self) -> Vec<SpanRecord> {
        for id in self.first..self.first + to_u32(self.states.len(), "peer count") {
            if !send_event(&mut self.link, &self.out.stats, WireMsg::Join { peer: id }) {
                return Vec::new(); // driver is gone; nothing to serve
            }
        }
        loop {
            self.release_due();
            let (to, msg) = match self.local.pop_front() {
                Some(local) => local,
                None if self.delayed.is_empty() && self.states.iter().all(|s| s.stopped) => break,
                None => match self.link.recv(self.delayed.keys().next().map(|k| k.0)) {
                    Ok(inbound) => inbound,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
            };
            self.step(to, msg);
        }
        self.states.into_iter().flat_map(|s| s.spans).collect()
    }

    /// Hands on every delayed forward that is due.
    fn release_due(&mut self) {
        if self.delayed.is_empty() {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "releases paced and jittered forwards; which frames arrive never depends on it"
        )]
        let now = Instant::now();
        while let Some(due) = self.delayed.first_entry().filter(|d| d.key().0 <= now) {
            let fwd = due.remove();
            self.forward(fwd);
        }
    }

    /// Runs one frame through its peer's step and acts on what it emitted:
    /// events first (ack before forward), then forwards.
    fn step(&mut self, to: u32, msg: WireMsg) {
        let index = to.checked_sub(self.first).map(|i| i as usize);
        let Some(state) = index.and_then(|i| self.states.get_mut(i)) else {
            return;
        };
        if state.stopped {
            return; // raced its peer's Shutdown: never served
        }
        self.out.now = None;
        state.on_frame(msg, &mut self.out);
        if state.stopped {
            self.peers.stop(to);
        }
        for msg in self.out.events.drain(..) {
            send_event(&mut self.link, &self.out.stats, msg);
        }
        for fwd in std::mem::take(&mut self.out.forwards) {
            match fwd.not_before {
                Some(at) => {
                    self.seq += 1;
                    self.delayed.insert((at, self.seq), fwd);
                }
                None => self.forward(fwd),
            }
        }
    }

    /// Hands `fwd` to its child: a local queue push when the child is on
    /// this worker, the link otherwise. A child that already stopped (or
    /// does not exist) refuses it, and only accepted frames count as tx.
    fn forward(&mut self, fwd: Forward<L::Peers>) {
        let index = fwd.to.checked_sub(self.first).map(|i| i as usize);
        let local = index.and_then(|i| self.states.get(i)).map(|s| s.stopped);
        if local == Some(true) {
            return;
        }
        let sent = match local.and_then(|_| <L::Peers>::unframe(&fwd.frame)) {
            Some(msg) => {
                self.local.push_back((fwd.to, msg));
                true
            }
            None => self.peers.carry(fwd.to, &fwd.frame, &self.out.stats),
        };
        if sent {
            self.out.stats.record_tx(6, fwd.bytes);
        }
    }
}

/// A family's address table: what reaches each shard of `span` contiguous
/// peers, and per peer whether it took its Shutdown.
pub(crate) struct Roster<S> {
    pub(crate) shards: Vec<S>,
    span: usize,
    stopped: Vec<AtomicBool>,
}

impl<S> Roster<S> {
    /// Cuts `n` peers into at most `workers` shards; `shard` builds, from a
    /// shard's range, what reaches it and the seat its worker's link opens.
    pub(crate) fn build<T, E>(
        n: usize,
        workers: usize,
        mut shard: impl FnMut(&Range<u32>) -> Result<(S, T), E>,
    ) -> Result<(Self, Vec<Shard<T>>), E> {
        let span = n.div_ceil(workers.max(1)).max(1);
        let (mut shards, mut seats) = (Vec::new(), Vec::new());
        for lo in (0..n).step_by(span) {
            let range = to_u32(lo, "peer id")..to_u32((lo + span).min(n), "peer id");
            let (reach, seat) = shard(&range)?;
            shards.push(reach);
            seats.push((range, seat));
        }
        let stopped = (0..n).map(|_| AtomicBool::new(false)).collect();
        Ok((
            Roster {
                shards,
                span,
                stopped,
            },
            seats,
        ))
    }

    pub(crate) fn count(&self) -> usize {
        self.stopped.len()
    }

    /// What reaches `peer`, if it exists.
    pub(crate) fn shard(&self, peer: u32) -> Option<&S> {
        self.stopped.get(peer as usize)?;
        self.shards.get(peer as usize / self.span)
    }

    /// What reaches `peer`, if it exists and has not taken its Shutdown.
    pub(crate) fn live(&self, peer: u32) -> Option<&S> {
        let stopped = self.stopped.get(peer as usize)?.load(Ordering::Relaxed);
        self.shard(peer).filter(|_| !stopped)
    }

    pub(crate) fn stop(&self, peer: u32) {
        if let Some(s) = self.stopped.get(peer as usize) {
            s.store(true, Ordering::Relaxed);
        }
    }
}

/// The channel family's address table: one inbox per worker.
#[derive(Clone)]
pub struct ChannelPeers(Arc<Roster<Sender<(u32, WireMsg)>>>);

impl Peers for ChannelPeers {
    type Frame = WireMsg;

    fn count(&self) -> usize {
        self.0.count()
    }

    fn addr(&self, peer: u32) -> Option<PeerAddr> {
        self.0.shard(peer).map(|_| PeerAddr::InProc(peer))
    }

    fn frame(msg: WireMsg) -> Option<WireMsg> {
        Some(msg)
    }

    /// Payload buffers are reference-counted and the child map sits behind
    /// an `Arc`, so the per-child clone is O(1) — a relay handing on a
    /// buffer it holds.
    fn unframe(frame: &WireMsg) -> Option<WireMsg> {
        Some(frame.clone())
    }

    fn carry(&self, to: u32, frame: &WireMsg, _stats: &TransportStats) -> bool {
        let inbox = self.0.live(to);
        inbox.is_some_and(|tx| tx.send((to, frame.clone())).is_ok())
    }

    fn stop(&self, peer: u32) {
        self.0.stop(peer);
    }
}

/// A worker endpoint on crossbeam channels: lossless, ordered, in-process.
pub struct ChannelLink {
    inbox: Receiver<(u32, WireMsg)>,
    events: Sender<WireMsg>,
}

impl ChannelLink {
    /// Builds the channels for `n` peers on at most `workers` workers, each
    /// serving a contiguous range: every worker's range and link, the
    /// address table reaching them, and the driver's end of the event
    /// channel.
    pub(crate) fn fabric(
        n: usize,
        workers: usize,
    ) -> (Vec<Shard<ChannelLink>>, ChannelPeers, Receiver<WireMsg>) {
        let (event_tx, events) = unbounded();
        let Ok((roster, shards)) = Roster::build(n, workers, |_| {
            let (tx, inbox) = unbounded();
            let events = event_tx.clone();
            Ok::<_, Infallible>((tx, ChannelLink { inbox, events }))
        });
        (shards, ChannelPeers(Arc::new(roster)), events)
    }
}

impl Link for ChannelLink {
    type Peers = ChannelPeers;
    const IN_PROCESS: bool = true;

    fn event(&mut self, msg: WireMsg) -> bool {
        self.events.send(msg).is_ok()
    }

    fn recv(&mut self, deadline: Option<Instant>) -> Result<Inbound, RecvTimeoutError> {
        recv_until(&self.inbox, deadline)
    }
}

/// The next item of `inbox`, waiting until `deadline` at most.
pub(crate) fn recv_until<T>(
    inbox: &Receiver<T>,
    deadline: Option<Instant>,
) -> Result<T, RecvTimeoutError> {
    match deadline {
        None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        Some(at) => inbox.recv_deadline(at),
    }
}

/// Workers a family runs `n` peers on: every core but the one the driver
/// keeps, at least one, never more than there are peers.
pub(crate) fn worker_count(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    cores.saturating_sub(1).clamp(1, n.max(1))
}

/// A network of peers linked by crossbeam channels.
pub type ThreadedNetwork = PeerNetwork<ChannelLink>;

impl ThreadedNetwork {
    /// Spawns `n` peers on a fault-free network.
    pub fn spawn(n: usize) -> Self {
        Self::spawn_with_faults(n, FaultPlan::disabled(), 0)
    }

    /// Spawns `n` peers whose forwards run through `plan`: before each
    /// child send the peer draws the plan's frame fate (keyed by
    /// publication, attempt and directed link — deterministic and
    /// replayable): drops are discarded and counted, delay jitter holds the
    /// frame back (virtual ms compressed to wall µs). `retry_max` bounds
    /// the publisher-side ack-driven retransmission waves of
    /// [`PeerNetwork::publish`].
    pub fn spawn_with_faults(n: usize, plan: FaultPlan, retry_max: u32) -> Self {
        Self::spawn_on(worker_count(n), n, plan, retry_max)
    }

    /// [`ThreadedNetwork::spawn_with_faults`] on at most `workers` workers:
    /// the seam that lets tests cross shards on any core count.
    #[expect(
        clippy::expect_used,
        reason = "constructor not delivery; channel links cannot fail to open or join"
    )]
    pub(crate) fn spawn_on(workers: usize, n: usize, plan: FaultPlan, retry_max: u32) -> Self {
        let (shards, peers, events) = ChannelLink::fabric(n, workers);
        PeerNetwork::spawn_over(
            peers,
            events,
            plan,
            retry_max,
            Pace::UNPACED,
            shards,
            |link, _| Ok(link),
        )
        .expect("in-process peers always open and join")
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::cast_possible_truncation)] // tests are exempt
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
        // A duplicate inside the window is refused — `on_frame` then neither
        // acks nor forwards it (`diamond_tree_delivers_once`).
        assert!(!recent.first_sight(2_000));
        assert!(!recent.first_sight(2_001 - DEDUP_WINDOW as u64));
        assert!(recent.first_sight(2_000 - DEDUP_WINDOW as u64), "aged out");
        assert_eq!(recent.seen.len(), DEDUP_WINDOW);
    }

    #[test]
    fn diamond_across_shards_delivers_once() {
        // Six peers on three workers: {0, 1}, {2, 3}, {4, 5}. Peer 3 hears
        // from 1 across shards and from 2 on its own worker; 0 → 1 and
        // 2 → 3 are local queue pushes, every other edge crosses a shard.
        let mut net = ThreadedNetwork::spawn_on(3, 6, FaultPlan::disabled(), 0);
        assert_eq!(net.workers(), 3);
        let t = tree(0, vec![vec![0, 1, 3, 4], vec![0, 2, 3, 5]]);
        let r = net.publish(&t, Bytes::from_static(b"dd"), Duration::from_secs(10));
        assert_eq!(r.delivered_to, HashSet::from([1, 2, 3, 4, 5]));
        assert_eq!(r.bytes_received, 5 * 2, "the duplicate copy must not ack");
        // The last ack can precede the duplicate copy's landing; settle.
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.stats().snapshot().frames_rx[6] < 7 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        net.shutdown();
        let snap = net.stats().snapshot();
        assert_eq!(snap.frames_rx[6], 7, "inject + six tree edges");
        assert_eq!(snap.frames_tx[6], 7);
        assert_eq!(snap.frames_tx[7], 6, "one ack per peer, publisher included");
    }

    /// Injects a star publication whose every surviving forward waits out
    /// at least 200 ms of jitter, shuts down at once, and snapshots the
    /// counters and the drop total.
    fn shutdown_amid_jitter(workers: usize) -> (crate::StatsSnapshot, u64) {
        let plan = FaultPlan::seeded(5)
            .with_drop_prob(0.3)
            .with_max_delay_ms(400_000.0);
        let pub_id = (1..10_000u64)
            .find(|&p| {
                let dropped = (1..=8u32).filter(|&c| plan.drops(p, 0, 0, c)).count();
                let slow = (1..=8u32)
                    .filter(|&c| plan.drops(p, 0, 0, c) || plan.delay_ms(p, 0, 0, c) >= 200_000.0);
                (1..=3).contains(&dropped) && slow.count() == 8
            })
            .expect("such a publication within 10k draws");
        let mut net = ThreadedNetwork::spawn_on(workers, 9, plan, 0);
        let publish = WireMsg::Publish {
            pub_id,
            attempt: 0,
            publisher: 0,
            children: Arc::new(vec![(0, (1..=8).collect())]),
            payload: Bytes::from_static(b"j"),
            trace: None,
        };
        assert!(net.send_to(0, publish));
        net.shutdown();
        (net.stats().snapshot(), net.drops_injected())
    }

    #[test]
    fn shutdown_amid_jitter_counts_the_same_on_any_shard_count() {
        // Every child takes its Shutdown long before its jittered copy is
        // due, so each copy is refused when released: only the injection
        // and the publisher's own ack cross, on one worker or three.
        let (snap, drops) = shutdown_amid_jitter(1);
        assert_eq!((snap.frames_tx[6], snap.frames_rx[6]), (1, 1), "{snap:?}");
        assert_eq!((snap.frames_tx[7], snap.frames_tx[8]), (1, 9), "{snap:?}");
        assert!(drops > 0);
        assert_eq!(shutdown_amid_jitter(1), (snap, drops), "replay");
        assert_eq!(shutdown_amid_jitter(3), (snap, drops), "three shards");
        assert_eq!(
            shutdown_amid_jitter(3),
            (snap, drops),
            "three shards, replay"
        );
    }

    #[test]
    fn delayed_forwards_outlive_their_senders_shutdown() {
        // Shard {0, 1, 2} takes its Shutdowns while its jittered forwards
        // to the other two shards are still queued: its worker releases
        // them before it exits, so every child still delivers.
        let plan = FaultPlan::seeded(3).with_max_delay_ms(20_000.0);
        let pub_id = (1..10_000u64)
            .find(|&p| (3..9u32).all(|c| plan.delay_ms(p, 0, 0, c) >= 5_000.0))
            .expect("such a publication within 10k draws");
        let mut net = ThreadedNetwork::spawn_on(3, 9, plan, 0);
        let publish = WireMsg::Publish {
            pub_id,
            attempt: 0,
            publisher: 0,
            children: Arc::new(vec![(0, (3..9).collect())]),
            payload: Bytes::from_static(b"late"),
            trace: None,
        };
        assert!(net.send_to(0, publish));
        for peer in 0..3 {
            assert!(net.send_to(peer, WireMsg::Shutdown));
        }
        let mut acked = HashSet::new();
        while acked.len() < 7 {
            match net.recv_event(Duration::from_secs(5)) {
                Some(WireMsg::Ack { peer, .. }) => acked.insert(peer),
                Some(_) => continue,
                None => break,
            };
        }
        assert_eq!(acked, (0..1).chain(3..9).collect());
        net.shutdown();
    }

    #[test]
    fn frames_to_a_stopped_peer_are_refused_and_not_counted() {
        for workers in [1, 3] {
            // Shards {0, 1}, {2, 3}, {4, 5} at three workers: 0 → 1 is a
            // local push, 2 → 1 crosses a shard.
            let mut net = ThreadedNetwork::spawn_on(workers, 6, FaultPlan::disabled(), 0);
            assert!(net.send_to(1, WireMsg::Shutdown));
            // Peer 0 shares peer 1's worker, so its reply orders after the
            // Shutdown was taken.
            assert_eq!(net.probe(0, 1, Duration::from_secs(5)), Some(true));
            let before = net.stats().snapshot();
            let probe = WireMsg::Probe {
                from: u32::MAX,
                nonce: 2,
                trace: None,
            };
            assert!(!net.send_to(1, probe), "driver injection refused");
            let wait = Duration::from_millis(200);
            let r = net.publish(&tree(0, vec![vec![0, 1], vec![0, 2]]), Bytes::new(), wait);
            assert_eq!(r.delivered_to, HashSet::from([2]));
            let r = net.publish(&tree(2, vec![vec![2, 1], vec![2, 3]]), Bytes::new(), wait);
            assert_eq!(r.delivered_to, HashSet::from([3]));
            let after = net.stats().snapshot();
            assert_eq!(after.frames_tx[4], before.frames_tx[4]);
            assert_eq!(
                after.frames_tx[6] - before.frames_tx[6],
                4,
                "two injections, two forwards"
            );
            net.shutdown();
            let snap = net.stats().snapshot();
            assert_eq!(
                snap.frames_tx, snap.frames_rx,
                "refused frames count nowhere"
            );
        }
    }

    #[test]
    fn two_thousand_peers_share_the_derived_workers() {
        let n = 2_000;
        let mut net = ThreadedNetwork::spawn(n);
        assert_eq!(net.workers(), net.handles.len());
        assert!(
            net.handles.len() <= worker_count(n),
            "{} workers",
            net.handles.len()
        );
        let paths = (1..n as u32).map(|c| vec![0, c]).collect();
        let r = net.publish(
            &tree(0, paths),
            Bytes::from_static(b"*"),
            Duration::from_secs(30),
        );
        assert_eq!(r.delivered_to.len(), n - 1);
        net.shutdown();
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
