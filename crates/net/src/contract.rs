//! The transport contract, written once and run per link family.
//!
//! Every check here is a function over a spawn closure `(n, plan) ->
//! PeerNetwork<L>` that drives the network only through [`Transport`] and
//! [`publish_over`], so it states what *any* family owes the publish
//! driver. [`contract_suite!`] instantiates the lot as `channel::` (on the
//! derived worker count), `channel_one_worker::` and
//! `channel_three_workers::` (through the test seam), `throttled::`, and
//! `socket::`, `socket_one_shard::` and `socket_three_shards::` (ci.sh's
//! `socket` filter selects the TCP runs). What only one family can promise
//! — TCP addresses and garbage handling, the throttle's arrival timing —
//! stays in that family's own test module.

use crate::codec::encoded_frame_len;
use crate::runtime::{Link, PeerNetwork};
use crate::transport::{publish_over, Transport};
use bytes::Bytes;
use osn_sim::FaultPlan;
use select_core::pubsub::RoutingTree;
use select_core::wire::WireMsg;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The routing tree made of `paths`, each starting at `publisher`.
pub(crate) fn tree(publisher: u32, paths: Vec<Vec<u32>>) -> RoutingTree {
    RoutingTree::from_paths(publisher, paths)
}

/// Star `0 -> {1..=8}` under the lossy plan the drop tests share.
fn lossy_star() -> (FaultPlan, RoutingTree) {
    let plan = FaultPlan::seeded(42).with_drop_prob(0.4);
    let paths = (1..=8u32).map(|c| vec![0, c]).collect();
    (plan, tree(0, paths))
}

fn payload_reaches_every_tree_node<L: Link>(spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>) {
    let mut net = spawn(6, FaultPlan::disabled());
    let t = tree(0, vec![vec![0, 1, 2], vec![0, 3], vec![0, 1, 4]]);
    let payload = Bytes::from(vec![7u8; 1024]);
    let r = publish_over(&mut net, &t, payload, Duration::from_secs(10), 0, 1);
    assert_eq!(r.delivered_to, HashSet::from([1, 2, 3, 4]));
    assert_eq!(r.bytes_received, 4 * 1024);
    assert_eq!((r.drops_injected, r.retries), (0, 0));
    net.shutdown();
}

fn paper_scale_payload_crosses_a_chain<L: Link>(
    spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>,
) {
    // The paper's 1.2 MB payload through a small chain.
    let mut net = spawn(3, FaultPlan::disabled());
    let t = tree(0, vec![vec![0, 1, 2]]);
    let payload = Bytes::from(vec![0u8; 1_200_000]);
    let r = publish_over(&mut net, &t, payload, Duration::from_secs(20), 0, 1);
    assert_eq!(r.delivered_to.len(), 2);
    assert_eq!(r.bytes_received, 2 * 1_200_000);
    net.shutdown();
}

fn diamond_tree_delivers_once<L: Link>(spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>) {
    // Peer 3 is a child of both 1 and 2: two copies arrive, one is acked,
    // and 3's own child hears from it once.
    let mut net = spawn(5, FaultPlan::disabled());
    let t = tree(0, vec![vec![0, 1, 3, 4], vec![0, 2, 3]]);
    let r = publish_over(
        &mut net,
        &t,
        Bytes::from_static(b"dd"),
        Duration::from_secs(10),
        0,
        1,
    );
    assert_eq!(r.delivered_to, HashSet::from([1, 2, 3, 4]));
    assert_eq!(r.bytes_received, 4 * 2, "the duplicate copy must not ack");
    // The driver returns once 4 has acked, which 3 → 4 allows before the
    // duplicate 2 → 3 copy has landed; a Shutdown overtaking that copy would
    // stop 3 short of reading it. Settle on the rx counter first.
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.stats().snapshot().frames_rx[6] < 6 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    net.shutdown();
    let snap = net.stats().snapshot();
    assert_eq!(snap.frames_rx[6], 6, "inject + 0→1, 0→2, 1→3, 2→3, 3→4");
    assert_eq!(snap.frames_tx[7], 5, "one ack per peer, publisher included");
}

fn fire_and_forget_drops_match_the_plan<L: Link>(
    spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>,
) {
    // No retries, so delivery is exactly the set of children whose (pub 1,
    // attempt 0) edge survives the plan: the deterministic oracle at the
    // heart of cross-transport conformance.
    let (plan, t) = lossy_star();
    let expected: HashSet<u32> = (1..=8u32).filter(|&c| !plan.drops(1, 0, 0, c)).collect();
    let dropped = 8 - expected.len() as u64;
    assert!(
        !expected.is_empty() && dropped > 0,
        "seed 42 should mix outcomes (expected {expected:?})"
    );
    let mut net = spawn(9, plan);
    let r = publish_over(
        &mut net,
        &t,
        Bytes::from_static(b"d"),
        Duration::from_millis(800),
        0,
        1,
    );
    assert_eq!(r.delivered_to, expected);
    assert_eq!(r.drops_injected, dropped);
    assert_eq!(r.retries, 0);
    net.shutdown();
}

fn retries_recover_dropped_subscribers<L: Link>(
    spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>,
) {
    // Same lossy star, but with a retry budget: retransmissions go
    // straight to unacked peers, so everyone is reached.
    let (plan, t) = lossy_star();
    let mut net = spawn(9, plan);
    let r = publish_over(
        &mut net,
        &t,
        Bytes::from_static(b"r"),
        Duration::from_secs(4),
        3,
        1,
    );
    assert_eq!(r.delivered_to.len(), 8, "retries should reach all peers");
    assert!(r.retries > 0, "the lossy plan must have forced retries");
    assert!(r.drops_injected > 0);
    net.shutdown();
    let snap = net.stats().snapshot();
    assert_eq!(snap.retransmissions, r.retries);
    assert!(snap.ack_window_expiries > 0, "a window must have expired");
    assert!(snap.retransmissions >= snap.ack_window_expiries);
}

fn retransmissions_redraw_downstream_fates<L: Link>(
    spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>,
) {
    // Chain 0 → 1 → 2 on a publication that loses 0→1 outright and would
    // lose 1→2 at attempt 0 but not at attempt 1. The first window ends
    // with nobody acked; the wave retransmits to 1 and 2 directly with
    // attempt 1, and relay 1 — seeing the publication for the first time —
    // forwards under *that* attempt. A family that discards the attempt
    // number redraws attempt 0's fate and counts a second drop.
    let plan = FaultPlan::seeded(42).with_drop_prob(0.4);
    let pub_id = (1..=10_000u64)
        .find(|&p| plan.drops(p, 0, 0, 1) && plan.drops(p, 0, 1, 2) && !plan.drops(p, 1, 1, 2))
        .expect("a 0.4 drop rate yields such a publication within 10k draws");
    let mut net = spawn(3, plan);
    let t = tree(0, vec![vec![0, 1, 2]]);
    let r = publish_over(
        &mut net,
        &t,
        Bytes::from_static(b"a"),
        Duration::from_millis(400),
        1,
        pub_id,
    );
    assert_eq!(r.delivered_to, HashSet::from([1, 2]));
    assert_eq!(r.retries, 2, "one direct retransmission per unacked peer");
    // Relay 1 acks before it forwards, so settle the network before
    // reading the total: its Shutdown queues behind the publication.
    net.shutdown();
    assert_eq!(net.drops_injected(), 1, "only 0→1 at attempt 0 was lost");
}

fn probe_round_trips<L: Link>(spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>) {
    let mut net = spawn(3, FaultPlan::disabled());
    assert_eq!(net.probe(2, 77, Duration::from_secs(5)), Some(true));
    assert_eq!(net.probe(9, 78, Duration::from_millis(50)), None);
    net.shutdown();
    assert_eq!(net.probe(2, 79, Duration::from_millis(50)), None);
}

fn shutdown_is_idempotent_and_drop_is_safe<L: Link>(
    spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>,
) {
    let mut net = spawn(3, FaultPlan::disabled());
    let t = tree(0, vec![vec![0, 1]]);
    let r = net.publish(&t, Bytes::from_static(b"s"), Duration::from_secs(5));
    assert_eq!(r.delivered_to, HashSet::from([1]));
    net.shutdown();
    net.shutdown(); // second call must be a no-op
    assert!(!net.send_to(1, WireMsg::Shutdown), "stopped peers refuse");
    drop(net); // and the Drop guard must not double-join
    let abandoned = spawn(2, FaultPlan::disabled());
    drop(abandoned); // never-shut-down network joins cleanly via Drop
}

fn stats_count_every_frame_per_tag<L: Link>(spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>) {
    // Fault-free star 0 -> {1, 2, 3}: every count below is a pure function
    // of the tree, so this doubles as the determinism pin.
    let mut net = spawn(4, FaultPlan::disabled());
    let shards = net.workers() as u64;
    let paths: Vec<Vec<u32>> = (1..=3u32).map(|c| vec![0, c]).collect();
    let t = tree(0, paths);
    let r = publish_over(
        &mut net,
        &t,
        Bytes::from_static(b"s"),
        Duration::from_secs(10),
        0,
        1,
    );
    assert_eq!(r.delivered_to.len(), 3);
    net.shutdown();
    let snap = net.stats().snapshot();
    // Joins, acks (the publisher acks its local delivery too) and
    // shutdowns: one per peer. Publish: 1 driver injection + 3 forwards.
    for tag in [1, 6, 7, 8] {
        assert_eq!(snap.frames_tx[tag], 4, "tag {tag}: {snap:?}");
        assert_eq!(snap.frames_rx[tag], 4, "tag {tag}: {snap:?}");
        assert_eq!(snap.bytes_tx[tag], snap.bytes_rx[tag], "lossless links");
    }
    assert_eq!(snap.retransmissions, 0);
    assert_eq!(snap.ack_window_expiries, 0);
    assert_eq!(snap.garbage_frames, 0);
    // In-process there are no sockets; on TCP every shard received a
    // data-plane frame (injection, forwards, shutdowns) and had one session
    // opened to it, reused by every later sender.
    assert_eq!(snap.reconnects, if L::IN_PROCESS { 0 } else { shards });
    // Untraced publish frames carry a 1-byte absent-trace marker: header 8
    // + pub_id 8 + attempt 4 + publisher 4 + child map (4 + (4 + 4 + 3*4))
    // + payload (4 + 1) + trace 1.
    assert_eq!(snap.bytes_tx[6], 4 * 54);
    assert_eq!(
        snap.bytes_tx[6],
        4 * encoded_frame_len(&WireMsg::Publish {
            pub_id: 1,
            attempt: 0,
            publisher: 0,
            children: Arc::new(vec![(0, vec![1, 2, 3])]),
            payload: Bytes::from_static(b"s"),
            trace: None,
        })
    );
}

fn tracing_records_a_complete_span_chain<L: Link>(
    spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>,
) {
    let mut net = spawn(3, FaultPlan::disabled());
    net.set_tracing(true);
    assert!(net.tracing());
    let t = tree(0, vec![vec![0, 1, 2]]);
    let r = net.publish(&t, Bytes::from_static(b"t"), Duration::from_secs(10));
    assert_eq!(r.delivered_to, HashSet::from([1, 2]));
    net.shutdown();
    let mut spans = net.drain_spans();
    spans.sort_by_key(|s| s.hop);
    assert_eq!(spans.len(), 3, "publisher + both chain peers: {spans:?}");
    assert_eq!(spans[0].peer, 0);
    assert_eq!(spans[0].parent_span, 0, "root span hangs off the driver");
    assert_eq!(spans[1].parent_span, spans[0].span_id);
    assert_eq!(spans[2].parent_span, spans[1].span_id);
    assert_eq!(
        spans.iter().map(|s| s.hop).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert!(spans.iter().all(|s| s.attempt == 0));
    assert!(
        spans.windows(2).all(|w| w[0].wall_us <= w[1].wall_us),
        "shared epoch orders the chain"
    );
    // Chain assembly agrees with the delivery set: every delivered peer
    // (and the publisher) has a span whose parent chain reaches the root.
    let mut asm = osn_obs::TraceAssembler::new();
    asm.absorb(spans);
    assert!(
        asm.chain_complete(1, &[0, 1, 2]),
        "gaps: {:?}",
        asm.chain_gaps(1, &[0, 1, 2])
    );
    let lat = asm.latency(1);
    assert_eq!(lat.max_hop, 2);
    // The critical path ends at the latest stamp. Peer-side stamps are
    // strictly ordered per hop; driver-side ones are ack-processing times,
    // and two acks drained in the same microsecond tie.
    if !L::IN_PROCESS {
        assert_eq!(lat.critical_path, vec![0, 1, 2]);
    }
    assert!(net.drain_spans().is_empty(), "drain takes everything");
}

fn tracing_off_records_nothing<L: Link>(spawn: impl Fn(usize, FaultPlan) -> PeerNetwork<L>) {
    let mut net = spawn(3, FaultPlan::disabled());
    let t = tree(0, vec![vec![0, 1], vec![0, 2]]);
    net.publish(&t, Bytes::from_static(b"u"), Duration::from_secs(5));
    net.shutdown();
    assert!(net.drain_spans().is_empty());
}

/// Instantiates every contract check as a `#[test]` in module `$family`.
macro_rules! contract_suite {
    ($family:ident, $spawn:expr) => {
        mod $family {
            contract_suite!(@tests $spawn;
                payload_reaches_every_tree_node,
                paper_scale_payload_crosses_a_chain,
                diamond_tree_delivers_once,
                fire_and_forget_drops_match_the_plan,
                retries_recover_dropped_subscribers,
                retransmissions_redraw_downstream_fates,
                probe_round_trips,
                shutdown_is_idempotent_and_drop_is_safe,
                stats_count_every_frame_per_tag,
                tracing_records_a_complete_span_chain,
                tracing_off_records_nothing,
            );
        }
    };
    (@tests $spawn:expr; $($check:ident,)*) => {
        $(
            #[test]
            fn $check() {
                super::$check($spawn);
            }
        )*
    };
}

contract_suite!(channel, |n, plan| {
    crate::ThreadedNetwork::spawn_with_faults(n, plan, 0)
});
// The same family forced onto one shard and onto three, whatever the core
// count: every forward a local push, and forwards crossing shards.
contract_suite!(channel_one_worker, |n, plan| {
    crate::ThreadedNetwork::spawn_on(1, n, plan, 0)
});
contract_suite!(channel_three_workers, |n, plan| {
    crate::ThreadedNetwork::spawn_on(3, n, plan, 0)
});
// A wide uplink (1 GB per virtual ms) so pacing is present but negligible,
// and the default family's jitter scale (virtual ms → wall µs).
contract_suite!(throttled, |n, plan| {
    crate::ThrottledNetwork::spawn_with_faults(n, vec![1e9; n], 1_000.0, plan)
});
contract_suite!(socket, |n, plan| {
    crate::SocketNetwork::spawn_with_faults(n, plan, 0).expect("loopback listeners")
});
contract_suite!(socket_one_shard, |n, plan| {
    crate::SocketNetwork::spawn_on(1, n, plan, 0).expect("loopback listeners")
});
contract_suite!(socket_three_shards, |n, plan| {
    crate::SocketNetwork::spawn_on(3, n, plan, 0).expect("loopback listeners")
});
