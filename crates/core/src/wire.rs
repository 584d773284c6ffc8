//! The SELECT wire-message vocabulary.
//!
//! Until this module existed, the protocol's message types were implicit and
//! scattered: gossip exchanges lived in [`crate::protocol`] as their own
//! enum, publish/ack payloads were ad-hoc structs inside the `osn-net`
//! runtimes, and probes/joins were function calls that never had a message
//! representation at all. [`WireMsg`] unifies all of them into one enum with
//! **stable discriminants** (the `tag` column below), so every transport —
//! the in-process superstep engine, the threaded channel runtime, and the
//! TCP socket runtime — speaks the same vocabulary and a serialized frame
//! means the same thing everywhere.
//!
//! | tag | variant         | protocol role                                   |
//! |-----|-----------------|-------------------------------------------------|
//! | 1   | `Join`          | peer announces itself to the harness/overlay    |
//! | 2   | `ExchangeRt`    | Alg. 3 line 3: active gossip `<C_p, R_p>`       |
//! | 3   | `ExchangeReply` | Alg. 4 line 6: passive reply `<nMutual, M>`     |
//! | 4   | `Probe`         | §III-F liveness probe of a routing-table link   |
//! | 5   | `ProbeReply`    | probe response feeding the per-link CMA         |
//! | 6   | `Publish`       | §III-E dissemination payload + forwarding plan  |
//! | 7   | `Ack`           | per-subscriber delivery acknowledgement         |
//! | 8   | `Shutdown`      | transport control: stop the peer actor          |
//!
//! The byte-level encoding of these messages is deliberately **not** defined
//! here: `osn-net`'s codec module owns the framing (length-prefixed
//! little-endian, magic + version header) so the format is pinned by bytes
//! on the wire, not by this enum's memory layout. This module only fixes the
//! vocabulary and the discriminants.

#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::pubsub::RoutingTree;
use bytes::Bytes;
use osn_overlay::RingId;
use std::sync::Arc;

/// Forwarding plan of one publication: for each relaying peer (ascending
/// id), the sorted list of children it forwards to. A sorted `Vec` instead
/// of a hash map so iteration order is deterministic and the structure has
/// an obvious wire representation.
pub type ChildMap = Vec<(u32, Vec<u32>)>;

/// Builds the [`ChildMap`] of `tree`: one entry per relaying peer, children
/// ascending. [`RoutingTree::edges`] is sorted, so both levels come out
/// ordered without re-sorting.
pub fn children_of(tree: &RoutingTree) -> ChildMap {
    let mut children: ChildMap = Vec::new();
    for (u, v) in tree.edges() {
        match children.last_mut() {
            Some((p, kids)) if *p == u => kids.push(v),
            _ => children.push((u, vec![v])),
        }
    }
    children
}

/// Looks up `peer`'s child list in a [`ChildMap`] (binary search — the map
/// is sorted by construction).
pub fn children_for(children: &ChildMap, peer: u32) -> Option<&[u32]> {
    children
        .binary_search_by_key(&peer, |e| e.0)
        .ok()
        .and_then(|i| children.get(i))
        .map(|e| e.1.as_slice())
}

/// Dapper-style causal trace context, carried as an **optional** field in
/// the publish/ack/probe frames (wire format v2; v1 frames decode with
/// `trace: None`). Presence of a context *is* the sampling decision: the
/// driver stamps a root context on a traced publication, every relay that
/// records a span re-stamps the forwarded frame with itself as the parent,
/// and untraced traffic carries nothing and pays nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// One end-to-end publish journey. The transports use the publication
    /// id, which is unique per transport by construction.
    pub trace_id: u64,
    /// Span id of the sender. `0` is the driver root sentinel: the frame
    /// was injected by the publish driver, not forwarded by a peer.
    pub parent_span: u64,
    /// Hop depth from the driver injection (root frames are hop 0).
    pub hop: u8,
}

impl TraceContext {
    /// The driver's root context for one publication: no parent, hop 0.
    pub fn root(trace_id: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span: 0,
            hop: 0,
        }
    }

    /// The context a peer stamps on downstream forwards after recording
    /// its own span: same trace, the peer's span as parent, one hop deeper.
    pub fn child_of(self, own_span: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: own_span,
            hop: self.hop.saturating_add(1),
        }
    }
}

/// Human-readable family name of a wire tag, used to key per-tag transport
/// metrics (the exporter has no label support, so tag names are encoded
/// into metric names). Unknown tags — possible on the rx path of a newer
/// peer — map to `"unknown"` rather than panicking.
pub fn tag_name(tag: u8) -> &'static str {
    match tag {
        1 => "join",
        2 => "exchange_rt",
        3 => "exchange_reply",
        4 => "probe",
        5 => "probe_reply",
        6 => "publish",
        7 => "ack",
        8 => "shutdown",
        _ => "unknown",
    }
}

/// One SELECT protocol message, as it crosses a transport boundary.
///
/// `Clone` is cheap where it matters: the `Publish` payload is a
/// reference-counted [`Bytes`] and the forwarding plan is behind an [`Arc`],
/// so in-process transports forward without copying buffers, exactly like a
/// real node relaying a buffer it holds.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// A peer announcing itself (tag 1). On the socket transport this is the
    /// readiness handshake every peer sends the harness before any traffic;
    /// at the protocol level it is the overlay-join announcement.
    Join {
        /// The joining peer.
        peer: u32,
    },
    /// Active gossip thread, Alg. 3 line 3 (tag 2): `Send <C_p, R_p>` plus
    /// the sender's current identifier (needed by the receiver's Alg. 2
    /// step).
    ExchangeRt {
        /// Sender.
        from: u32,
        /// Sender's current ring identifier.
        position: RingId,
        /// Sender's social neighbourhood `C_p`.
        neighbourhood: Vec<u32>,
        /// Sender's current connection set `R_p`.
        links: Vec<u32>,
    },
    /// Passive gossip thread, Alg. 4 line 6 (tag 3): `Send <nMutual, M>`
    /// plus the responder's identifier and links (the friendship-bitmap
    /// payload `M` is represented by the raw link set; the requester builds
    /// the bitmap over its own neighbourhood ordering, exactly like
    /// `constructFriendshipBitmap`).
    ExchangeReply {
        /// Responder.
        from: u32,
        /// Responder's current ring identifier.
        position: RingId,
        /// `nMutual`: |C_u ∩ C_p| computed by the responder.
        n_mutual: u32,
        /// Responder's connection set (bitmap source).
        links: Vec<u32>,
    },
    /// §III-F liveness probe of one routing-table link (tag 4).
    Probe {
        /// The probing peer.
        from: u32,
        /// Correlates the reply with this probe.
        nonce: u64,
        /// Optional causal trace context (wire v2; `None` on v1 frames).
        trace: Option<TraceContext>,
    },
    /// Response to a [`WireMsg::Probe`] (tag 5); the outcome feeds the
    /// prober's per-link Cumulative Moving Average.
    ProbeReply {
        /// The probed peer.
        from: u32,
        /// Echo of the probe's nonce.
        nonce: u64,
        /// Whether the probed peer considers itself online.
        online: bool,
    },
    /// §III-E dissemination payload (tag 6): the notification bytes plus the
    /// forwarding plan the routing tree computed. Relays look themselves up
    /// in `children` and forward downstream.
    Publish {
        /// Publication nonce (keys the fault plan's decisions).
        pub_id: u64,
        /// Retransmission attempt (0 = the original dissemination); feeds
        /// the fault plan so retries redraw their drop decisions.
        attempt: u32,
        /// The publishing peer (the tree root).
        publisher: u32,
        /// Forwarding plan: child lists per relaying peer.
        children: Arc<ChildMap>,
        /// The notification payload.
        payload: Bytes,
        /// Optional causal trace context (wire v2; `None` on v1 frames).
        /// `Some` means this journey is being traced: receivers record a
        /// span and re-stamp forwards via [`TraceContext::child_of`].
        trace: Option<TraceContext>,
    },
    /// Per-subscriber delivery acknowledgement (tag 7), sent back to the
    /// publisher's harness; drives the ack-window/retransmission loop.
    Ack {
        /// Publication being acknowledged.
        pub_id: u64,
        /// The acknowledging subscriber.
        peer: u32,
        /// Payload bytes received.
        bytes: u64,
        /// Optional causal trace context echoing the subscriber's own span
        /// (wire v2; `None` on v1 frames or untraced journeys).
        trace: Option<TraceContext>,
    },
    /// Transport control (tag 8): the peer actor stops after handling this.
    Shutdown,
}

impl WireMsg {
    /// The stable wire discriminant of this message (the codec's `tag`
    /// byte). Never renumber existing variants — append instead.
    pub fn tag(&self) -> u8 {
        match self {
            WireMsg::Join { .. } => 1,
            WireMsg::ExchangeRt { .. } => 2,
            WireMsg::ExchangeReply { .. } => 3,
            WireMsg::Probe { .. } => 4,
            WireMsg::ProbeReply { .. } => 5,
            WireMsg::Publish { .. } => 6,
            WireMsg::Ack { .. } => 7,
            WireMsg::Shutdown => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        let msgs = [
            WireMsg::Join { peer: 0 },
            WireMsg::ExchangeRt {
                from: 0,
                position: RingId::ZERO,
                neighbourhood: vec![],
                links: vec![],
            },
            WireMsg::ExchangeReply {
                from: 0,
                position: RingId::ZERO,
                n_mutual: 0,
                links: vec![],
            },
            WireMsg::Probe {
                from: 0,
                nonce: 0,
                trace: None,
            },
            WireMsg::ProbeReply {
                from: 0,
                nonce: 0,
                online: true,
            },
            WireMsg::Publish {
                pub_id: 0,
                attempt: 0,
                publisher: 0,
                children: Arc::new(vec![]),
                payload: Bytes::new(),
                trace: Some(TraceContext::root(0)),
            },
            WireMsg::Ack {
                pub_id: 0,
                peer: 0,
                bytes: 0,
                trace: None,
            },
            WireMsg::Shutdown,
        ];
        let tags: Vec<u8> = msgs.iter().map(WireMsg::tag).collect();
        assert_eq!(tags, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn tag_names_cover_every_tag() {
        let names: Vec<&str> = (1u8..=8).map(tag_name).collect();
        assert_eq!(
            names,
            vec![
                "join",
                "exchange_rt",
                "exchange_reply",
                "probe",
                "probe_reply",
                "publish",
                "ack",
                "shutdown"
            ]
        );
        assert_eq!(tag_name(0), "unknown");
        assert_eq!(tag_name(9), "unknown");
        assert_eq!(tag_name(255), "unknown");
    }

    #[test]
    fn trace_context_parenting_walks_down_the_tree() {
        let root = TraceContext::root(42);
        assert_eq!(root.parent_span, 0);
        assert_eq!(root.hop, 0);
        let child = root.child_of(0xBEEF);
        assert_eq!(child.trace_id, 42);
        assert_eq!(child.parent_span, 0xBEEF);
        assert_eq!(child.hop, 1);
        let grandchild = child.child_of(0xF00D);
        assert_eq!(grandchild.hop, 2);
        // Hop depth saturates instead of wrapping on absurd chains.
        let mut deep = root;
        for i in 0..300u64 {
            deep = deep.child_of(i + 1);
        }
        assert_eq!(deep.hop, u8::MAX);
    }

    #[test]
    fn child_map_from_tree_is_sorted_and_searchable() {
        let tree = RoutingTree::from_paths(0, vec![vec![0, 1, 2], vec![0, 3], vec![0, 1, 4]]);
        let children = children_of(&tree);
        assert_eq!(children, vec![(0, vec![1, 3]), (1, vec![2, 4])]);
        assert_eq!(children_for(&children, 0), Some(&[1u32, 3][..]));
        assert_eq!(children_for(&children, 1), Some(&[2u32, 4][..]));
        assert_eq!(children_for(&children, 2), None);
    }

    #[test]
    fn child_map_of_empty_tree_is_empty() {
        let tree = RoutingTree::new(7);
        assert!(children_of(&tree).is_empty());
    }
}
