//! Per-peer routing table: short-range ring links + long-range links.
//!
//! Mirrors the paper's `R_p = R_p^s + R_p^l` (§II-A): two short-range links
//! (successor and predecessor) keep the ring connected; up to `K` long-range
//! links carry the social (or small-world) shortcuts. Incoming-link
//! admission control ("each peer is allowed to accept only K incoming links",
//! §III-D) is tracked separately so hub peers cannot be overloaded.

use hotpath::hotpath;
use serde::{Deserialize, Serialize};

/// Routing state of one peer. Links are peer indices.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RoutingTable {
    /// Ring successor (short-range link).
    pub successor: Option<u32>,
    /// Ring predecessor (short-range link).
    pub predecessor: Option<u32>,
    /// Long-range outgoing links, capacity-bounded by the owner.
    long: Vec<u32>,
    /// Peers that opened a connection *to* this peer (incoming links).
    incoming: Vec<u32>,
    /// Maximum accepted incoming links (the paper's K).
    max_incoming: usize,
}

impl RoutingTable {
    /// A table accepting at most `max_incoming` incoming links.
    pub fn new(max_incoming: usize) -> Self {
        RoutingTable {
            successor: None,
            predecessor: None,
            long: Vec::new(),
            incoming: Vec::new(),
            max_incoming,
        }
    }

    /// The long-range link set `R_p^l`.
    pub fn long_links(&self) -> &[u32] {
        &self.long
    }

    /// The incoming link set.
    pub fn incoming_links(&self) -> &[u32] {
        &self.incoming
    }

    /// Incoming capacity K.
    pub fn max_incoming(&self) -> usize {
        self.max_incoming
    }

    /// All outgoing links: successor, predecessor and long-range links,
    /// deduplicated, excluding `self_id`.
    pub fn all_links(&self, self_id: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.long.len() + 2);
        self.all_links_into(self_id, &mut out);
        out
    }

    /// [`RoutingTable::all_links`] into a caller-owned buffer (cleared
    /// first), so hot paths can reuse one allocation across peers.
    #[hotpath]
    pub fn all_links_into(&self, self_id: u32, out: &mut Vec<u32>) {
        out.clear();
        if let Some(s) = self.successor {
            out.push(s);
        }
        if let Some(p) = self.predecessor {
            out.push(p);
        }
        out.extend_from_slice(&self.long);
        out.sort_unstable();
        out.dedup();
        out.retain(|&p| p != self_id);
    }

    /// Whether `peer` is among this table's outgoing links.
    pub fn has_link(&self, peer: u32) -> bool {
        self.successor == Some(peer) || self.predecessor == Some(peer) || self.long.contains(&peer)
    }

    /// Adds a long-range link (idempotent). Returns true if newly added.
    pub fn add_long(&mut self, peer: u32) -> bool {
        if self.long.contains(&peer) {
            false
        } else {
            self.long.push(peer);
            true
        }
    }

    /// Removes a long-range link. Returns true if it was present.
    pub fn remove_long(&mut self, peer: u32) -> bool {
        if let Some(i) = self.long.iter().position(|&p| p == peer) {
            self.long.swap_remove(i);
            true
        } else {
            false
        }
    }

    /// Drops every reference to `peer` (churn departure).
    pub fn purge(&mut self, peer: u32) {
        if self.successor == Some(peer) {
            self.successor = None;
        }
        if self.predecessor == Some(peer) {
            self.predecessor = None;
        }
        self.remove_long(peer);
        self.incoming.retain(|&p| p != peer);
    }

    /// Attempts to register an incoming connection from `peer`.
    ///
    /// Implements the paper's admission rule: accept if below capacity;
    /// at capacity, accept only if `bandwidth` beats the worst currently
    /// accepted incoming peer's bandwidth (as judged by `bw_of`), evicting
    /// that peer. Returns the evicted peer (if any) wrapped in `Accepted`,
    /// or `Rejected`.
    pub fn offer_incoming(
        &mut self,
        peer: u32,
        bandwidth: f64,
        bw_of: impl Fn(u32) -> f64,
    ) -> Admission {
        if self.incoming.contains(&peer) {
            return Admission::Accepted { evicted: None };
        }
        if self.incoming.len() < self.max_incoming {
            self.incoming.push(peer);
            return Admission::Accepted { evicted: None };
        }
        // Find the worst current incoming peer.
        let (worst_idx, worst_bw) = match self
            .incoming
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, bw_of(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        {
            Some(w) => w,
            None => return Admission::Rejected, // max_incoming == 0
        };
        if bandwidth > worst_bw {
            let evicted = self.incoming[worst_idx];
            self.incoming[worst_idx] = peer;
            Admission::Accepted {
                evicted: Some(evicted),
            }
        } else {
            Admission::Rejected
        }
    }

    /// Forcibly removes an incoming registration (e.g. the remote dropped us).
    pub fn remove_incoming(&mut self, peer: u32) {
        self.incoming.retain(|&p| p != peer);
    }
}

/// Outcome of [`RoutingTable::offer_incoming`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Connection accepted; `evicted` names a displaced worse peer, if any.
    Accepted {
        /// Peer displaced to make room, if the table was full.
        evicted: Option<u32>,
    },
    /// Connection refused (table full of better-bandwidth peers).
    Rejected,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_links_dedup_and_exclude_self() {
        let mut t = RoutingTable::new(4);
        t.successor = Some(1);
        t.predecessor = Some(2);
        t.add_long(1); // duplicate of successor
        t.add_long(3);
        t.add_long(7); // self, should be excluded by all_links(7)
        assert_eq!(t.all_links(7), vec![1, 2, 3]);
    }

    #[test]
    fn add_remove_long() {
        let mut t = RoutingTable::new(4);
        assert!(t.add_long(5));
        assert!(!t.add_long(5), "idempotent");
        assert!(t.remove_long(5));
        assert!(!t.remove_long(5));
    }

    #[test]
    fn purge_clears_everywhere() {
        let mut t = RoutingTable::new(4);
        t.successor = Some(9);
        t.predecessor = Some(9);
        t.add_long(9);
        let _ = t.offer_incoming(9, 1.0, |_| 0.0);
        t.purge(9);
        assert_eq!(t.successor, None);
        assert_eq!(t.predecessor, None);
        assert!(t.long_links().is_empty());
        assert!(t.incoming_links().is_empty());
    }

    #[test]
    fn incoming_admission_below_capacity() {
        let mut t = RoutingTable::new(2);
        assert_eq!(
            t.offer_incoming(1, 0.5, |_| 0.0),
            Admission::Accepted { evicted: None }
        );
        assert_eq!(
            t.offer_incoming(1, 0.5, |_| 0.0),
            Admission::Accepted { evicted: None },
            "re-offer of an existing link is a no-op accept"
        );
        assert_eq!(t.incoming_links(), &[1]);
    }

    #[test]
    fn incoming_eviction_by_bandwidth() {
        let mut t = RoutingTable::new(2);
        let bw = |p: u32| match p {
            1 => 1.0,
            2 => 2.0,
            _ => 0.0,
        };
        let _ = t.offer_incoming(1, bw(1), bw);
        let _ = t.offer_incoming(2, bw(2), bw);
        // Worse than both: rejected.
        assert_eq!(t.offer_incoming(3, 0.5, bw), Admission::Rejected);
        // Better than peer 1: evicts it.
        assert_eq!(
            t.offer_incoming(4, 1.5, bw),
            Admission::Accepted { evicted: Some(1) }
        );
        let mut inc = t.incoming_links().to_vec();
        inc.sort_unstable();
        assert_eq!(inc, vec![2, 4]);
    }

    #[test]
    fn zero_capacity_rejects() {
        let mut t = RoutingTable::new(0);
        assert_eq!(t.offer_incoming(1, 9.9, |_| 0.0), Admission::Rejected);
    }
}
