//! Runtime overlay auditor (feature `audit`).
//!
//! After every gossip / recovery round the auditor re-derives the structural
//! invariants that Algorithms 3–6 are supposed to maintain and reports the
//! **first** violation with peer/slot context:
//!
//! * **ring-membership** — every online peer is on the ring at its recorded
//!   identifier; no offline peer is on the ring.
//! * **ring-symmetry** — each peer's short-range links match the ring
//!   (`successor`/`predecessor` agree with [`RingIndex`]), and follow the
//!   mutual relation `pred(succ(p)) == p`.
//! * **long-degree** — at most `K` outgoing long links, no duplicates, no
//!   self-links, only social friends.
//! * **incoming-degree** — at most `max_incoming` (the paper's K) incoming
//!   links.
//! * **link-symmetry** — `u ∈ long(p)` ⇔ `p ∈ incoming(u)` in both
//!   directions (links survive churn on both sides or neither).
//! * **lsh-representative** — every Algorithm 5 proposal elects exactly one
//!   representative per non-empty LSH bucket. This one is checked at
//!   *selection time* inside the link superstep (see
//!   `gossip::assert_one_representative_per_bucket`), not against
//!   end-of-round state: links carried over from earlier rounds were chosen
//!   under an older bucketing and may legitimately collide after the
//!   neighbourhood re-buckets.
//! * **csr-agreement** — the CMA and bucket side tables are exactly
//!   `num_directed_edges` long and every stored bucket id is `< K` or the
//!   [`NO_BUCKET`] sentinel.
//! * **cma-range** — every CMA availability estimate lies in `[0, 1]`.
//! * **connection-index** — if a connection index is held, every row equals
//!   a fresh merge of that peer's tables and liveness: the writers of the
//!   round just audited all dropped it.
//! * **connection-symmetry** — if a connection index is held, for online
//!   `u` and `v`, `v ∈ row(u)` exactly when `u ∈ row(v)`: the property
//!   stage 2 of the publish planner reads rows by (`pubsub.rs`,
//!   `plan_bucket_bfs`). Ring-symmetry and link-symmetry imply it for the
//!   rows the next reader builds from the tables. An offline peer's own row
//!   is exempt: it may still list online peers that have dropped it — the
//!   row an offline publisher floods from.
//! * **incoming-floor** — every peer's stored admission floor is the lowest
//!   bandwidth in its full incoming set (−∞ while the set has room).
//! * **link-cache** — every link cache the stamp rule calls valid, and the
//!   bucket slots stored with it, equal a from-scratch Algorithm 5 run: no
//!   writer of a proposal's inputs forgot its stamp.
//!
//! The auditor is read-only and O(n·(deg+K²)) per call, which is why it sits
//! behind the `audit` feature instead of running unconditionally.

use crate::network::{SelectNetwork, NO_BUCKET};
use std::fmt;

/// A violated structural invariant, with enough context to find the peer and
/// CSR slot involved.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Stable name of the invariant that failed (see module docs).
    pub invariant: &'static str,
    /// The peer the check was evaluated for, if peer-scoped.
    pub peer: Option<u32>,
    /// The CSR side-table slot involved, if slot-scoped.
    pub slot: Option<usize>,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.invariant)?;
        if let Some(p) = self.peer {
            write!(f, " peer {p}")?;
        }
        if let Some(s) = self.slot {
            write!(f, " slot {s}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

macro_rules! violated {
    ($inv:expr, $peer:expr, $slot:expr, $($msg:tt)*) => {
        return Err(AuditViolation {
            invariant: $inv,
            peer: $peer,
            slot: $slot,
            detail: format!($($msg)*),
        })
    };
}

impl SelectNetwork {
    /// Checks every structural invariant and returns the first violation.
    pub fn audit_overlay(&self) -> Result<(), AuditViolation> {
        let n = self.graph.num_nodes();
        let edges = self.graph.num_directed_edges();
        if self.cma.len() != edges || self.link_buckets.len() != edges {
            violated!(
                "csr-agreement",
                None,
                None,
                "side tables must mirror the CSR: cma={} buckets={} edges={}",
                self.cma.len(),
                self.link_buckets.len(),
                edges
            );
        }

        for (slot, &b) in self.link_buckets.iter().enumerate() {
            if b != NO_BUCKET && (b as usize) >= self.k {
                violated!(
                    "csr-agreement",
                    None,
                    Some(slot),
                    "bucket id {b} out of range (K = {})",
                    self.k
                );
            }
        }
        for (slot, cma) in self.cma.iter().enumerate() {
            let v = cma.value();
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                violated!("cma-range", None, Some(slot), "CMA estimate {v} ∉ [0, 1]");
            }
        }

        if let Some(p) = self.first_stale_connection_row() {
            violated!(
                "connection-index",
                Some(p),
                None,
                "held index row differs from a fresh merge (a writer did not drop the index)"
            );
        }

        if let Some((u, v)) = self.first_asymmetric_connection() {
            violated!(
                "connection-symmetry",
                Some(u),
                None,
                "online peer {v} is in {u}'s connection row, but {u} is not in {v}'s"
            );
        }

        if let Some(u) = self.first_stale_incoming_floor() {
            violated!(
                "incoming-floor",
                Some(u),
                None,
                "stored admission floor differs from the recomputed one"
            );
        }

        for p in 0..n as u32 {
            if !self.is_peer_online(p) {
                if self.ring.contains(p) {
                    violated!(
                        "ring-membership",
                        Some(p),
                        None,
                        "offline peer still on the ring"
                    );
                }
                continue;
            }
            self.audit_peer(p)?;
        }
        Ok(())
    }

    /// Invariants scoped to one online peer.
    fn audit_peer(&self, p: u32) -> Result<(), AuditViolation> {
        let table = self.table(p);

        // ring-membership: the ring stores exactly the recorded identifier.
        match self.ring.position_of(p) {
            Some(pos) if pos == self.positions[p as usize] => {}
            got => violated!(
                "ring-membership",
                Some(p),
                None,
                "ring has {:?}, positions[] has {:?}",
                got,
                self.positions[p as usize]
            ),
        }

        // ring-symmetry: short links mirror the ring, and succ/pred are
        // mutual through the neighbouring peers' tables.
        let succ = self.ring.successor_of_peer(p);
        let pred = self.ring.predecessor_of_peer(p);
        if table.successor != succ || table.predecessor != pred {
            violated!(
                "ring-symmetry",
                Some(p),
                None,
                "table (succ {:?}, pred {:?}) disagrees with ring (succ {:?}, pred {:?})",
                table.successor,
                table.predecessor,
                succ,
                pred
            );
        }
        if let Some(s) = succ {
            if self.table(s).predecessor != Some(p) {
                violated!(
                    "ring-symmetry",
                    Some(p),
                    None,
                    "successor {s} does not point back (its pred: {:?})",
                    self.table(s).predecessor
                );
            }
        }
        if let Some(q) = pred {
            if self.table(q).successor != Some(p) {
                violated!(
                    "ring-symmetry",
                    Some(p),
                    None,
                    "predecessor {q} does not point back (its succ: {:?})",
                    self.table(q).successor
                );
            }
        }

        // long-degree + link-symmetry (outgoing side).
        let long = table.long_links();
        if long.len() > self.k {
            violated!(
                "long-degree",
                Some(p),
                None,
                "{} long links exceed K = {}",
                long.len(),
                self.k
            );
        }
        for (i, &u) in long.iter().enumerate() {
            if u == p {
                violated!("long-degree", Some(p), None, "self long link");
            }
            if long[..i].contains(&u) {
                violated!("long-degree", Some(p), None, "duplicate long link to {u}");
            }
            let Some(slot) = self.edge_slot(p, u) else {
                violated!(
                    "long-degree",
                    Some(p),
                    None,
                    "long link to non-friend {u} (no CSR slot)"
                );
            };
            if !self.table(u).incoming_links().contains(&p) {
                violated!(
                    "link-symmetry",
                    Some(p),
                    Some(slot),
                    "long link to {u} missing from {u}'s incoming set"
                );
            }
        }

        // incoming-degree + link-symmetry (incoming side).
        let incoming = table.incoming_links();
        if incoming.len() > table.max_incoming() {
            violated!(
                "incoming-degree",
                Some(p),
                None,
                "{} incoming links exceed capacity {}",
                incoming.len(),
                table.max_incoming()
            );
        }
        for &q in incoming {
            if !self.table(q).long_links().contains(&p) {
                violated!(
                    "link-symmetry",
                    Some(p),
                    None,
                    "incoming link from {q} missing from {q}'s long set"
                );
            }
        }

        if self.cfg.use_lsh_picker && self.link_cache_valid(p) {
            if let Some(what) = self.link_cache_divergence(p) {
                violated!(
                    "link-cache",
                    Some(p),
                    None,
                    "{what} diverged from the rebuild (a writer did not stamp)"
                );
            }
        }

        Ok(())
    }

    /// Panics with full context on the first violated invariant. Called
    /// after each superstep round when the `audit` feature is on.
    #[track_caller]
    pub fn assert_overlay_invariants(&self, context: &str) {
        if let Err(v) = self.audit_overlay() {
            panic!("overlay audit failed after {context}: {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SelectConfig;
    use crate::network::SelectNetwork;
    use osn_graph::generators::{BarabasiAlbert, Generator};

    fn converged() -> SelectNetwork {
        let g = BarabasiAlbert::with_closure(120, 4, 0.3).generate(7);
        let mut net = SelectNetwork::bootstrap(g, SelectConfig::default().with_seed(7));
        net.converge(60);
        net
    }

    #[test]
    fn converged_overlay_passes() {
        let net = converged();
        net.assert_overlay_invariants("test convergence");
    }

    #[test]
    fn foreign_long_link_is_caught() {
        let mut net = converged();
        // A long link to a non-friend breaks `long-degree`.
        let p = 0u32;
        let stranger = (0..net.len() as u32)
            .find(|&q| q != p && net.edge_slot(p, q).is_none())
            .expect("some non-friend exists");
        net.table_mut_unchecked(p).add_long(stranger);
        let err = net.audit_overlay().unwrap_err();
        assert_eq!(err.invariant, "long-degree");
        assert_eq!(err.peer, Some(p));
    }

    #[test]
    fn asymmetric_link_is_caught() {
        let mut net = converged();
        // Dropping only the incoming half of an established link breaks
        // `link-symmetry`.
        let (p, u) = (0..net.len() as u32)
            .find_map(|p| net.table(p).long_links().first().map(|&u| (p, u)))
            .expect("converged overlay has long links");
        net.remove_incoming(u, p);
        let err = net.audit_overlay().unwrap_err();
        assert_eq!(err.invariant, "link-symmetry");
    }

    #[test]
    fn asymmetric_connection_row_is_caught() {
        let mut net = converged();
        // A long link to a friend written past `add_long`: `u` enters `p`'s
        // row, `p` never enters `u`'s incoming set or row. The planner's
        // next read builds the index from those tables.
        let (p, u) = (0..net.len() as u32)
            .find_map(|p| {
                let row = net.connections_of(p);
                let u = net.online_friends(p).into_iter().find(|&u| {
                    u != p && !row.contains(&u) && !net.connections_of(u).contains(&p)
                })?;
                Some((p, u))
            })
            .expect("some friends are not connected");
        net.table_mut_unchecked(p).add_long(u);
        assert!(net.connections_of(p).contains(&u));
        assert!(!net.connections_of(u).contains(&p));
        let err = net.audit_overlay().unwrap_err();
        assert_eq!((err.invariant, err.peer), ("connection-symmetry", Some(p)));
    }

    #[test]
    fn corrupted_ring_position_is_caught() {
        let mut net = converged();
        let p = 3u32;
        let pos = net.positions[p as usize];
        net.positions[p as usize] = osn_overlay::RingId(pos.0.wrapping_add(1));
        let err = net.audit_overlay().unwrap_err();
        assert_eq!(err.invariant, "ring-membership");
        assert_eq!(err.peer, Some(p));
    }

    #[test]
    fn out_of_range_bucket_is_caught() {
        let mut net = converged();
        net.link_buckets[0] = net.k as u16; // one past the last valid id
        let err = net.audit_overlay().unwrap_err();
        assert_eq!(err.invariant, "csr-agreement");
        assert_eq!(err.slot, Some(0));
    }
}
