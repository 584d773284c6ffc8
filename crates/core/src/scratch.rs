//! Per-thread scratch state for the publish pipeline.
//!
//! A publication needs a parent/depth map for the two BFS stages, a
//! subscriber membership test, per-depth frontier pools and a handful of
//! list buffers. Allocating those per publish dominated the hot path, so
//! they live in one thread-local [`PublishScratch`] and are recycled with
//! an epoch stamp: bumping the epoch invalidates every entry in O(1), no
//! clearing pass, no hashing.

use std::cell::RefCell;
use std::collections::VecDeque;

thread_local! {
    /// One scratch arena per thread; `disseminate` borrows it for the
    /// duration of a publication.
    pub(crate) static PUBLISH_SCRATCH: RefCell<PublishScratch> =
        RefCell::new(PublishScratch::default());
}

/// Reusable dense state for one publication (see module docs).
#[derive(Default)]
pub(crate) struct PublishScratch {
    /// Current publication epoch; a stamp equal to it marks a live entry.
    epoch: u32,
    /// Stamp guarding `parent`/`depth` per peer.
    stamp: Vec<u32>,
    parent: Vec<u32>,
    depth: Vec<u32>,
    /// Stamp-based subscriber membership (the old per-publish `HashSet`).
    sub_stamp: Vec<u32>,
    /// Per-delivery receipt epoch; independent of `epoch` because one plan
    /// serves many deliveries in a batch, each with its own receipt set.
    msg_epoch: u32,
    /// Stamp-based "peer already holds a copy" membership: the delivery
    /// walk's duplicate suppression and relay-load dedup.
    msg_stamp: Vec<u32>,
    /// Peers with a parent assigned this publication, in insertion order.
    reached: Vec<u32>,
    /// Per-depth frontier pools for the stage-2 bucket BFS.
    pub buckets: Vec<Vec<u32>>,
    /// Stage-1 BFS queue.
    pub queue: VecDeque<u32>,
    /// Path-construction buffer.
    pub path: Vec<u32>,
    /// Subscriber-list buffer for `publish_at`.
    pub subs: Vec<u32>,
}

impl PublishScratch {
    /// Starts a new publication over `n` peers: invalidates all per-peer
    /// state by epoch bump and clears the list buffers (capacity kept).
    pub fn begin(&mut self, n: usize) {
        if self.epoch == u32::MAX {
            // Stamp wrap: one full reset every 2^32 - 1 publications.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.sub_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.parent.resize(n, 0);
            self.depth.resize(n, 0);
            self.sub_stamp.resize(n, 0);
        }
        self.reached.clear();
        self.queue.clear();
        for b in &mut self.buckets {
            b.clear();
        }
    }

    /// Starts one delivery walk over `n` peers: invalidates the receipt set
    /// by epoch bump. Independent of [`Self::begin`] — the BFS plan stays
    /// valid while each delivery of a batch gets a fresh receipt set.
    pub fn begin_delivery(&mut self, n: usize) {
        if self.msg_epoch == u32::MAX {
            self.msg_stamp.iter_mut().for_each(|s| *s = 0);
            self.msg_epoch = 0;
        }
        self.msg_epoch += 1;
        if self.msg_stamp.len() < n {
            self.msg_stamp.resize(n, 0);
        }
    }

    /// Marks `v` as holding a copy of the current delivery's message.
    /// Returns true on the first receipt, false if `v` already had it
    /// (a duplicate the reliable-delivery layer suppresses).
    #[inline]
    pub fn first_receipt(&mut self, v: u32) -> bool {
        let slot = &mut self.msg_stamp[v as usize];
        if *slot == self.msg_epoch {
            false
        } else {
            *slot = self.msg_epoch;
            true
        }
    }

    /// Ensures the per-depth pools cover depths `0..len`.
    pub fn ensure_buckets(&mut self, len: usize) {
        if self.buckets.len() < len {
            self.buckets.resize_with(len, Vec::new);
        }
    }

    /// Marks `v` as a subscriber of the current publication.
    #[inline]
    pub fn mark_subscriber(&mut self, v: u32) {
        self.sub_stamp[v as usize] = self.epoch;
    }

    /// Whether `v` is a subscriber of the current publication.
    #[inline]
    pub fn is_subscriber(&self, v: u32) -> bool {
        self.sub_stamp[v as usize] == self.epoch
    }

    /// Records that `v` was reached via `parent` at `depth` hops.
    #[inline]
    pub fn set_parent(&mut self, v: u32, parent: u32, depth: usize) {
        self.stamp[v as usize] = self.epoch;
        self.parent[v as usize] = parent;
        self.depth[v as usize] = depth as u32;
        self.reached.push(v);
    }

    /// Whether `v` has been reached this publication.
    #[inline]
    pub fn has_parent(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// The recorded parent of `v` (valid only if [`Self::has_parent`]).
    #[inline]
    pub fn parent_of(&self, v: u32) -> u32 {
        debug_assert!(self.has_parent(v));
        self.parent[v as usize]
    }

    /// The recorded publisher-distance of `v` (valid only if
    /// [`Self::has_parent`]).
    #[inline]
    pub fn depth_of(&self, v: u32) -> usize {
        debug_assert!(self.has_parent(v));
        self.depth[v as usize] as usize
    }

    /// The peers reached so far, in assignment order.
    #[inline]
    pub fn reached(&self) -> &[u32] {
        &self.reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bump_invalidates_previous_publication() {
        let mut s = PublishScratch::default();
        s.begin(8);
        s.mark_subscriber(3);
        s.set_parent(3, 0, 1);
        assert!(s.is_subscriber(3));
        assert!(s.has_parent(3));
        assert_eq!(s.parent_of(3), 0);
        assert_eq!(s.depth_of(3), 1);
        assert_eq!(s.reached(), &[3]);

        s.begin(8);
        assert!(!s.is_subscriber(3), "stale subscriber survived epoch bump");
        assert!(!s.has_parent(3), "stale parent survived epoch bump");
        assert!(s.reached().is_empty());
    }

    #[test]
    fn grows_to_larger_networks() {
        let mut s = PublishScratch::default();
        s.begin(4);
        s.begin(100);
        s.mark_subscriber(99);
        assert!(s.is_subscriber(99));
        s.ensure_buckets(5);
        assert!(s.buckets.len() >= 5);
    }

    #[test]
    fn stamp_wrap_resets_cleanly() {
        let mut s = PublishScratch::default();
        s.begin(4);
        s.mark_subscriber(1);
        s.epoch = u32::MAX; // fast-forward to the wrap boundary
        s.begin(4);
        assert_eq!(s.epoch, 1);
        assert!(!s.is_subscriber(1));
        assert!(!s.has_parent(1));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Entries stamped before the u32 epoch wrap must never resurface
        /// after it, wherever the wrap lands relative to the publication
        /// and however many publications follow.
        #[test]
        fn wraparound_never_leaks_stale_entries(
            start_back in 0u32..4,
            peers in proptest::collection::vec(0u32..16, 1..8),
            rounds in 1usize..8,
        ) {
            let mut s = PublishScratch::default();
            s.begin(16);
            s.epoch = u32::MAX - start_back; // fast-forward near the boundary
            for &v in &peers {
                s.mark_subscriber(v);
                s.set_parent(v, 0, 1);
            }
            for _ in 0..rounds {
                s.begin(16);
                for v in 0..16u32 {
                    prop_assert!(!s.is_subscriber(v), "stale subscriber {v}");
                    prop_assert!(!s.has_parent(v), "stale parent {v}");
                }
                prop_assert!(s.reached().is_empty());
            }
        }

        /// Model check: across publications that straddle the epoch wrap,
        /// the stamped arena agrees with a naive BTreeMap/BTreeSet per
        /// publication — membership, parent/depth values and the insertion
        /// order of `reached()`.
        #[test]
        fn scratch_matches_model_across_wrap(
            start_back in 0u32..6,
            ops in proptest::collection::vec(
                (0u32..12, 0u32..12, 0usize..4, any::<bool>()),
                1..40,
            ),
            splits in proptest::collection::vec(0usize..40, 0..6),
        ) {
            use std::collections::{BTreeMap, BTreeSet};
            let mut s = PublishScratch::default();
            s.begin(12);
            s.epoch = u32::MAX - start_back;
            let mut subs: BTreeSet<u32> = BTreeSet::new();
            let mut parents: BTreeMap<u32, (u32, usize)> = BTreeMap::new();
            let mut reached: Vec<u32> = Vec::new();
            for (i, &(v, parent, depth, is_sub)) in ops.iter().enumerate() {
                if splits.contains(&i) {
                    // New publication: the model resets, the arena only
                    // bumps its epoch (possibly across the wrap).
                    s.begin(12);
                    subs.clear();
                    parents.clear();
                    reached.clear();
                }
                if is_sub {
                    s.mark_subscriber(v);
                    subs.insert(v);
                } else {
                    s.set_parent(v, parent, depth);
                    parents.insert(v, (parent, depth));
                    reached.push(v);
                }
                for q in 0..12u32 {
                    prop_assert_eq!(s.is_subscriber(q), subs.contains(&q));
                    prop_assert_eq!(s.has_parent(q), parents.contains_key(&q));
                    if let Some(&(mp, md)) = parents.get(&q) {
                        prop_assert_eq!(s.parent_of(q), mp);
                        prop_assert_eq!(s.depth_of(q), md);
                    }
                }
                prop_assert_eq!(s.reached(), reached.as_slice());
            }
        }
    }
}
