//! What 1,000 socket peers cost the process: a few descriptors and threads
//! per shard, none per peer, and nothing left once the network shut down.
//! One test in its own file, so it runs alone in its process and no other
//! test moves the counts (ci.sh runs it under `ulimit -n 1024`).

#![allow(clippy::disallowed_methods)] // tests are exempt

use bytes::Bytes;
use osn_net::SocketNetwork;
use select_core::pubsub::RoutingTree;
use std::time::{Duration, Instant};

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.unwrap().trim().parse().unwrap()
}

#[test]
fn thousand_peers_fit_the_descriptor_and_thread_budget() {
    let (fds, tids) = (open_descriptors(), threads());
    let n = 1_000u32;
    let mut net = SocketNetwork::spawn(n as usize).expect("1,000 peers within 1,024 descriptors");
    // Peer 0 reaches relays 1..=31, and each relay up to 32 leaves: every
    // other peer gets the publication.
    let paths: Vec<Vec<u32>> = (1..n)
        .map(|p| {
            if p < 32 {
                vec![0, p]
            } else {
                vec![0, p % 31 + 1, p]
            }
        })
        .collect();
    let tree = RoutingTree::from_paths(0, paths);
    let r = net.publish(&tree, Bytes::from(vec![7u8; 512]), Duration::from_secs(30));
    assert_eq!(r.delivered_to.len(), n as usize - 1, "every peer reached");
    // Per shard: a listener, the pooled session's two ends, the control
    // stream's two ends; a pump, an acceptor, a reader, a control reader.
    // The budget fits three shards, and grows only with the core count.
    let shards = net.workers();
    let (fd_growth, thread_growth) = (open_descriptors() - fds, threads() - tids);
    assert!(
        fd_growth <= 64.max(16 * shards),
        "{fd_growth} descriptors on {shards} shards"
    );
    assert!(
        thread_growth <= 16.max(4 * shards),
        "{thread_growth} threads on {shards} shards"
    );
    net.shutdown();
    assert_eq!(open_descriptors(), fds, "every descriptor is closed");
    // A joined thread leaves the count a moment after `join` returns.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != tids && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), tids, "no acceptor or reader outlives shutdown");
}
