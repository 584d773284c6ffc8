//! Prefix-routing DHT in the style of Tapestry/Pastry.
//!
//! Bayeux (Zhuang et al., NOSSDAV'01) builds its per-topic dissemination
//! trees on Tapestry: node identifiers are digit strings (here: hex digits of
//! a 64-bit hash) and each hop corrects one more digit toward the target, so
//! a route between any two nodes takes at most `log16(n) + O(1)` hops.
//!
//! This module materializes per-node routing tables honestly — entry
//! `(level l, digit d)` of node `x` is a node sharing `x`'s first `l` digits
//! whose digit `l` is `d` (XOR-closest such node, deterministic) — and routes
//! by longest-prefix correction. Topic keys map to a rendezvous *root* node
//! (longest shared prefix, ties by smallest id distance), which Bayeux uses
//! as the tree root.

use crate::id::RingId;
use std::collections::BTreeMap;

const DIGITS: usize = 16; // hex digits
const LEVELS: usize = 16; // 64 bits / 4 bits per digit

#[inline]
fn digit(id: u64, level: usize) -> usize {
    ((id >> (60 - 4 * level)) & 0xF) as usize
}

#[inline]
fn prefix(id: u64, level: usize) -> u64 {
    if level == 0 {
        0
    } else {
        id >> (64 - 4 * level)
    }
}

/// A prefix-routing DHT over a fixed peer set.
#[derive(Clone, Debug)]
pub struct PrefixDht {
    /// `ids[p]` is the DHT identifier of peer `p`.
    ids: Vec<u64>,
    /// Per-peer table: `tables[p][l * 16 + d]` is the entry for level `l`,
    /// digit `d` (`u32::MAX` = empty). Levels beyond `depth` are all empty.
    tables: Vec<Vec<u32>>,
    /// Number of levels actually populated.
    depth: usize,
    online: Vec<bool>,
}

impl PrefixDht {
    /// Builds the DHT for peers `0..n` with hash ids derived from `seed`.
    pub fn build(n: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let ids: Vec<u64> = (0..n as u64)
            .map(|p| RingId::hash_of(p ^ seed.rotate_left(29)).0)
            .collect();

        // Bucket nodes by prefix per level until every bucket is a singleton.
        let mut depth = 0usize;
        let mut buckets_per_level: Vec<BTreeMap<u64, Vec<u32>>> = Vec::new();
        loop {
            let mut buckets: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for (p, &id) in ids.iter().enumerate() {
                buckets.entry(prefix(id, depth)).or_default().push(p as u32);
            }
            let all_singleton = buckets.values().all(|v| v.len() == 1);
            buckets_per_level.push(buckets);
            depth += 1;
            if all_singleton || depth >= LEVELS {
                break;
            }
        }

        let mut tables = vec![vec![u32::MAX; depth * DIGITS]; n];
        for (p, &id) in ids.iter().enumerate() {
            for l in 0..depth {
                let bucket = &buckets_per_level[l][&prefix(id, l)];
                if bucket.len() == 1 {
                    continue;
                }
                for &q in bucket {
                    if q == p as u32 {
                        continue;
                    }
                    let d = digit(ids[q as usize], l);
                    let slot = &mut tables[p][l * DIGITS + d];
                    // XOR-closest deterministic choice.
                    if *slot == u32::MAX || (ids[q as usize] ^ id) < (ids[*slot as usize] ^ id) {
                        *slot = q;
                    }
                }
            }
        }
        PrefixDht {
            ids,
            tables,
            depth,
            online: vec![true; n],
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the DHT is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Populated routing-table depth (≈ `log16 n`).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Marks a peer offline/online (used by churn experiments).
    pub fn set_online(&mut self, peer: u32, online: bool) {
        self.online[peer as usize] = online;
    }

    /// Whether `peer` is online.
    pub fn is_online(&self, peer: u32) -> bool {
        self.online[peer as usize]
    }

    /// The rendezvous root for `key`: the online node with the longest
    /// common prefix, ties broken by XOR distance then index. Deterministic,
    /// so every peer agrees on the root — Bayeux's rendezvous point.
    pub fn root_of(&self, key: u64) -> Option<u32> {
        self.ids
            .iter()
            .enumerate()
            .filter(|&(p, _)| self.online[p])
            .min_by_key(|&(p, &id)| (id ^ key, p))
            .map(|(p, _)| p as u32)
    }

    /// Routes from `from` to the peer `to` by prefix correction.
    /// Returns the path including both endpoints, or `None` when stuck
    /// (offline hole with no bypass entry).
    pub fn route(&self, from: u32, to: u32) -> Option<Vec<u32>> {
        let target = self.ids[to as usize];
        let mut path = vec![from];
        let mut current = from;
        if !self.online[from as usize] || !self.online[to as usize] {
            return None;
        }
        for _ in 0..=self.depth {
            if current == to {
                return Some(path);
            }
            let cur_id = self.ids[current as usize];
            // First level where the digits disagree.
            let mut l = 0;
            while l < self.depth && digit(cur_id, l) == digit(target, l) {
                l += 1;
            }
            if l >= self.depth {
                // Identifiers agree on all populated levels but peers differ:
                // only possible if ids collide; bail out.
                return None;
            }
            let entry = self.tables[current as usize][l * DIGITS + digit(target, l)];
            if entry == u32::MAX || !self.online[entry as usize] {
                return None;
            }
            current = entry;
            path.push(current);
        }
        (current == to).then_some(path)
    }

    /// Routes from `from` toward `key`'s rendezvous root; returns
    /// `(root, path)`.
    pub fn route_to_key(&self, from: u32, key: u64) -> Option<(u32, Vec<u32>)> {
        let root = self.root_of(key)?;
        let path = self.route(from, root)?;
        Some((root, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_extraction() {
        let id = 0xF123_4567_89AB_CDEF_u64;
        assert_eq!(digit(id, 0), 0xF);
        assert_eq!(digit(id, 1), 0x1);
        assert_eq!(digit(id, 15), 0xF);
        assert_eq!(prefix(id, 0), 0);
        assert_eq!(prefix(id, 2), 0xF1);
    }

    #[test]
    fn all_pairs_route_small() {
        let d = PrefixDht::build(40, 11);
        for a in 0..40u32 {
            for b in 0..40u32 {
                let path = d.route(a, b).unwrap_or_else(|| panic!("{a}->{b} stuck"));
                assert_eq!(*path.first().unwrap(), a);
                assert_eq!(*path.last().unwrap(), b);
                assert!(path.len() <= d.depth() + 2);
            }
        }
    }

    #[test]
    fn path_length_is_logarithmic() {
        use rand::{Rng, SeedableRng};
        let n = 4096;
        let d = PrefixDht::build(n, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut max_hops = 0;
        for _ in 0..300 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            let path = d.route(a, b).expect("route");
            max_hops = max_hops.max(path.len() - 1);
        }
        // log16(4096) = 3, allow slack for shared prefixes.
        assert!(max_hops <= 6, "max hops {max_hops} too large");
    }

    #[test]
    fn root_is_consistent_from_everywhere() {
        let d = PrefixDht::build(200, 5);
        let key = 0xDEAD_BEEF_0BAD_F00D;
        let root = d.root_of(key).unwrap();
        for from in [0u32, 17, 99, 199] {
            let (r, path) = d.route_to_key(from, key).expect("route to key");
            assert_eq!(r, root);
            assert_eq!(*path.last().unwrap(), root);
        }
    }

    #[test]
    fn offline_root_is_skipped() {
        let mut d = PrefixDht::build(50, 2);
        let key = 42;
        let r1 = d.root_of(key).unwrap();
        d.set_online(r1, false);
        let r2 = d.root_of(key).unwrap();
        assert_ne!(r1, r2);
    }

    #[test]
    fn offline_endpoint_fails() {
        let mut d = PrefixDht::build(30, 9);
        d.set_online(7, false);
        assert!(d.route(7, 3).is_none());
        assert!(d.route(3, 7).is_none());
    }

    #[test]
    fn deterministic_build() {
        let a = PrefixDht::build(64, 8);
        let b = PrefixDht::build(64, 8);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.tables, b.tables);
    }
}
