//! The [`Transport`] abstraction: what a network runtime owes the publish
//! driver.
//!
//! [`Transport`] pins what the publisher needs — inject a frame, hear
//! events back, count the fault plan's drops, shut down — and
//! [`publish_over`] implements the ack-window/retransmission loop **once**
//! against it, so retry policy cannot drift between link families. Its one
//! implementor is [`crate::runtime::PeerNetwork`]; harnesses hold `&mut dyn
//! Transport`. Injections draw no fault decision (only peer→child forwards
//! consult [`osn_sim::FaultPlan::frame_fate`]), each peer acks a
//! publication exactly once, and shutdown is idempotent and runs on drop.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::stats::TransportStats;
use bytes::Bytes;
use osn_obs::trace::SpanRecord;
use select_core::pubsub::RoutingTree;
use select_core::wire::{children_of, TraceContext, WireMsg};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Where a peer lives, for diagnostics and harness wiring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerAddr {
    /// An in-process actor, addressed by peer id over channels.
    InProc(u32),
    /// A socket peer listening on a real (loopback) TCP address.
    Tcp(SocketAddr),
}

/// One way of moving [`WireMsg`] frames between peer actors (object-safe).
pub trait Transport {
    /// Number of peers.
    fn len(&self) -> usize;

    /// True if no peers were spawned.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Injects `msg` at peer `to`, drawing no fault decision. Returns
    /// `false` if the peer does not exist or the transport is shut down.
    fn send_to(&mut self, to: u32, msg: WireMsg) -> bool;

    /// Next driver-bound event frame (ack, join, probe reply), or `None`
    /// when `timeout` elapses first.
    fn recv_event(&mut self, timeout: Duration) -> Option<WireMsg>;

    /// Total transmissions the fault plan has dropped so far.
    fn drops_injected(&self) -> u64;

    /// Where `peer` is reachable, if it exists.
    fn peer_addr(&self, peer: u32) -> Option<PeerAddr>;

    /// Stops every peer and reclaims resources. Idempotent: safe to call
    /// any number of times, and implementations also invoke it on drop.
    fn shutdown(&mut self);

    /// Live wire telemetry: tx at each frame's sender, rx at its receiver,
    /// sized by [`crate::codec::encoded_frame_len`] on every family.
    fn stats(&self) -> &TransportStats;

    /// Turns wire-level tracing on or off for subsequent publications.
    /// When on, [`publish_over`] stamps a root [`TraceContext`] into every
    /// publish frame and peers record delivery spans.
    fn set_tracing(&mut self, on: bool);

    /// Whether publish frames are currently stamped with trace contexts.
    fn tracing(&self) -> bool;

    /// Drains the span records collected so far; complete after
    /// [`Transport::shutdown`], when TCP peers have handed theirs over.
    fn drain_spans(&mut self) -> Vec<SpanRecord>;
}

/// Smallest ack window [`publish_over`] waits before a retransmission wave,
/// so huge retry budgets cannot slice the timeout too thin for any ack.
pub const MIN_ACK_WINDOW: Duration = Duration::from_millis(20);

/// Outcome of one publication over a [`Transport`].
#[derive(Clone, Debug)]
pub struct PublishResult {
    /// Peers that received the payload (excluding the publisher).
    pub delivered_to: HashSet<u32>,
    /// Total bytes received across all peers.
    pub bytes_received: usize,
    /// Transmissions the fault plan dropped during this publication.
    pub drops_injected: u64,
    /// Direct retransmissions the publisher sent after ack timeouts.
    pub retries: u64,
}

impl PublishResult {
    /// Folds this publication into `rec`: hops per delivered peer, relay
    /// load from the tree's fan-out, retransmissions. All of it derives from
    /// the tree and the delivery set, never from wall clocks, so a replay
    /// reproduces the same histograms.
    pub fn record_into(&self, tree: &RoutingTree, rec: &mut osn_obs::PublishRecorder) {
        for path in tree.paths() {
            let Some(&subscriber) = path.last() else {
                continue;
            };
            if !self.delivered_to.contains(&subscriber) {
                continue;
            }
            rec.hops.record((path.len().saturating_sub(1)) as u64);
            rec.stretch.record((path.len().saturating_sub(2)) as u64);
        }
        for (peer, sends) in tree.forwards_per_peer() {
            rec.relay_load_add(peer, sends);
        }
        rec.note_retries(self.retries);
    }
}

/// Publishes `payload` along `tree` over any [`Transport`], blocking until
/// every subscriber in the tree acked (or `timeout` elapsed).
///
/// The timeout is split into `retry_max + 1` ack windows (each at least
/// [`MIN_ACK_WINDOW`]): subscribers still unacked when a window closes are
/// retransmitted to directly, with a fresh attempt number so the fault plan
/// redraws its drop decisions. Per-peer dedup inside the transport keeps
/// redundant copies from double-delivering. `pub_id` must be unique per
/// publication on this transport — it keys both dedup and the fault plan.
pub fn publish_over<T: Transport + ?Sized>(
    net: &mut T,
    tree: &RoutingTree,
    payload: Bytes,
    timeout: Duration,
    retry_max: u32,
    pub_id: u64,
) -> PublishResult {
    // edges() is sorted, so the child map arrives ordered and forwarding
    // order is stable without re-sorting.
    let children = Arc::new(children_of(tree));
    // The publisher can appear as a tree child (cyclic paths in a malformed
    // tree, or a path that revisits the source); its local delivery is
    // filtered out of `delivered_to` below, so counting it here would make
    // the ack loop unsatisfiable and burn every retry window.
    let expect: HashSet<u32> = children
        .iter()
        .flat_map(|(_, kids)| kids.iter().copied())
        .filter(|&p| p != tree.publisher)
        .collect();
    let drops_before = net.drops_injected();

    let mut result = PublishResult {
        delivered_to: HashSet::new(),
        bytes_received: 0,
        drops_injected: 0,
        retries: 0,
    };
    // When tracing, every frame of this publication carries the root
    // context (trace id = publication id); peers re-stamp forwards with
    // themselves as parent. Presence of the context IS the sampling bit.
    let trace = net.tracing().then(|| TraceContext::root(pub_id));
    // A tree built against a different network (publisher out of range) or
    // a transport already shut down delivers nothing rather than panicking
    // mid-delivery.
    let seeded = net.send_to(
        tree.publisher,
        WireMsg::Publish {
            pub_id,
            attempt: 0,
            publisher: tree.publisher,
            children: children.clone(),
            payload: payload.clone(),
            trace,
        },
    );
    if !seeded {
        return result;
    }
    let windows = retry_max + 1;
    // Floor the per-window duration: with `timeout < retry_max + 1` ms the
    // division yields (near-)zero windows, `recv_event` returns
    // immediately, and retransmission waves fire back-to-back without ever
    // waiting for acks.
    let window = (timeout / windows).max(MIN_ACK_WINDOW);
    for attempt in 0..windows {
        #[expect(
            clippy::disallowed_methods,
            reason = "real-I/O ack deadline; delivery sets stay plan-deterministic"
        )]
        let deadline = std::time::Instant::now() + window;
        while result.delivered_to.len() < expect.len() {
            #[expect(
                clippy::disallowed_methods,
                reason = "countdown against the waived deadline above"
            )]
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            match net.recv_event(remaining) {
                // The publisher's own local delivery does not count.
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "u64 -> usize is lossless on the 64-bit hosts the wire stack runs on"
                )]
                Some(WireMsg::Ack {
                    pub_id: acked,
                    peer,
                    bytes,
                    trace: _,
                }) if acked == pub_id && peer != tree.publisher => {
                    if result.delivered_to.insert(peer) {
                        result.bytes_received += bytes as usize;
                    }
                }
                Some(_) => {} // stale ack or unrelated event frame
                None => break,
            }
        }
        if result.delivered_to.len() >= expect.len() || attempt + 1 >= windows {
            break;
        }
        // Ack window closed with subscribers missing: retransmit to each
        // directly. The shared children map rides along, so a relay that
        // lost its whole subtree re-forwards downstream.
        net.stats().note_ack_window_expiry();
        let mut unreached: Vec<u32> = expect
            .iter()
            .copied()
            .filter(|p| !result.delivered_to.contains(p))
            .collect();
        unreached.sort_unstable();
        for peer in unreached {
            // send_to refuses malformed tree edges (no such peer to retry).
            if net.send_to(
                peer,
                WireMsg::Publish {
                    pub_id,
                    attempt: attempt + 1,
                    publisher: tree.publisher,
                    children: children.clone(),
                    payload: payload.clone(),
                    trace,
                },
            ) {
                result.retries += 1;
                net.stats().note_retransmission();
            }
        }
    }
    result.drops_injected = net.drops_injected() - drops_before;
    result
}
