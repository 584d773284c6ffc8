//! Connection establishment (paper §III-D, Algorithms 5 and 6).
//!
//! Peer `p` indexes the friendship bitmaps of its online neighbourhood into
//! `|H| = K` LSH buckets and establishes **at most one long-range link per
//! bucket**: friends with similar connection sets are redundant, so one
//! representative suffices, chosen by the *picker* — highest neighbourhood
//! coverage first, upgraded to the runner-up when the runner-up has strictly
//! better bandwidth (Algorithm 6).

use crate::bitmaps::{coverage, friendship_bitmap};
use crate::network::NO_BUCKET;
use osn_lsh::{BitSampling, Bitmap, LshFamily};
use std::cmp::Ordering;

/// A candidate friend for a long-range link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkCandidate {
    /// The candidate peer.
    pub peer: u32,
    /// How many of `p`'s friends it covers ([`coverage`]).
    pub coverage: usize,
    /// Its upload bandwidth.
    pub bandwidth: f64,
}

/// Algorithm 6: chooses the connection target from one bucket's members.
///
/// Members are ranked by descending coverage (ties: descending bandwidth,
/// then ascending id for determinism). If the top candidate has strictly
/// worse bandwidth than the runner-up, the runner-up wins.
///
/// # Panics
/// Panics on an empty bucket.
pub fn picker(members: &[LinkCandidate]) -> u32 {
    let mut best = TopTwo::default();
    members.iter().for_each(|&c| best.offer(c));
    best.choice().expect("picker requires a non-empty bucket")
}

/// The two best candidates offered so far under [`picker`]'s ranking — all
/// the runner-up rule needs, kept in one pass instead of a full sort.
#[derive(Clone, Copy, Debug, Default)]
struct TopTwo {
    top: Option<LinkCandidate>,
    runner_up: Option<LinkCandidate>,
}

impl TopTwo {
    fn offer(&mut self, c: LinkCandidate) {
        let outranks = |a: &LinkCandidate, b: &LinkCandidate| {
            b.coverage
                .cmp(&a.coverage)
                .then(b.bandwidth.total_cmp(&a.bandwidth))
                .then(a.peer.cmp(&b.peer))
                == Ordering::Less
        };
        if self.top.is_none_or(|t| outranks(&c, &t)) {
            self.runner_up = self.top.replace(c);
        } else if self.runner_up.is_none_or(|r| outranks(&c, &r)) {
            self.runner_up = Some(c);
        }
    }

    /// Algorithm 6's pick; `None` if nothing was offered.
    fn choice(&self) -> Option<u32> {
        let top = self.top?;
        Some(match self.runner_up {
            Some(r) if top.bandwidth < r.bandwidth => r.peer,
            _ => top.peer,
        })
    }
}

/// Result of Algorithm 5 for one peer.
#[derive(Clone, Debug, Default)]
pub struct LinkSelection {
    /// Chosen long-range link targets, at most `K`.
    pub targets: Vec<u32>,
    /// Full bucket contents (bucket id → members), kept for the recovery
    /// mechanism's "replace with another peer from the same bucket" rule.
    pub buckets: Vec<Vec<u32>>,
}

impl LinkSelection {
    /// Other members of the bucket containing `peer` (replacement pool).
    pub fn bucket_peers_of(&self, peer: u32) -> &[u32] {
        self.buckets
            .iter()
            .find(|b| b.contains(&peer))
            .map(|b| b.as_slice())
            .unwrap_or(&[])
    }
}

/// Algorithm 5 (`createLinks`): selects up to `k` long-range targets for a
/// peer whose online neighbourhood is `neighbourhood`, where `links_of(u)`
/// yields `u`'s current connection set and `bandwidth_of(u)` its uplink.
///
/// `lsh_seed` keeps the hash family stable per peer across rounds so bucket
/// membership (and hence recovery replacement pools) is consistent.
///
/// `neighbourhood` must be sorted ascending (every caller passes a CSR
/// neighbour row or a sorted key list); bit positions and coverage are
/// index-aligned with it.
pub fn create_links(
    neighbourhood: &[u32],
    k: usize,
    lsh_samples: usize,
    lsh_seed: u64,
    links_of: impl Fn(u32) -> Vec<u32>,
    bandwidth_of: impl Fn(u32) -> f64,
) -> LinkSelection {
    let mut scratch = SelectionScratch::default();
    let targets = create_links_from_bitmaps(
        neighbourhood,
        k,
        lsh_samples,
        lsh_seed,
        |j, bm| *bm = friendship_bitmap(neighbourhood, &links_of(neighbourhood[j])),
        bandwidth_of,
        &mut scratch,
    );
    let mut buckets = Vec::new();
    if !targets.is_empty() {
        buckets.resize(k, Vec::new());
        for (&u, &b) in neighbourhood.iter().zip(&scratch.bucket_of) {
            buckets[b as usize].push(u);
        }
    }
    LinkSelection { targets, buckets }
}

/// Reusable buffers of [`create_links_from_bitmaps`], so a caller running it
/// once per peer per round (a gossip shard) allocates only the result.
#[derive(Clone, Debug, Default)]
pub(crate) struct SelectionScratch {
    family: BitSampling,
    best: Vec<TopTwo>,
    bm: Bitmap,
    /// Output: the bucket id of each neighbourhood member, index-aligned
    /// with the neighbourhood ([`NO_BUCKET`] if nothing was selected).
    pub bucket_of: Vec<u16>,
}

impl SelectionScratch {
    /// The last selection's bucket ids spread over the owner's whole CSR
    /// neighbour row, as `SelectNetwork::store_buckets` takes them:
    /// `in_neighbourhood` says, slot by slot, whether that friend was in the
    /// neighbourhood; the others read [`NO_BUCKET`].
    pub(crate) fn row_buckets(&self, in_neighbourhood: impl Iterator<Item = bool>) -> Vec<u16> {
        let mut ids = self.bucket_of.iter();
        let mut next = || *ids.next().expect("one bucket id per neighbourhood member");
        in_neighbourhood
            .map(|member| if member { next() } else { NO_BUCKET })
            // selint: allow(hotpath-alloc, the proposal's second result — one allocation per recomputed proposal, none per friend)
            .collect()
    }
}

/// The Algorithm 5 core behind [`create_links`]: `fill_bitmap(j, bm)` writes
/// the friendship bitmap of `neighbourhood[j]` into one `|C_p|`-bit buffer
/// that is reused for every friend, so a caller holding word-packed rows
/// (the gossip round's triangle matrix) builds no per-friend link set.
/// Returns the targets; the bucket assignment is left in `scratch.bucket_of`.
pub(crate) fn create_links_from_bitmaps(
    neighbourhood: &[u32],
    k: usize,
    lsh_samples: usize,
    lsh_seed: u64,
    mut fill_bitmap: impl FnMut(usize, &mut Bitmap),
    bandwidth_of: impl Fn(u32) -> f64,
    scratch: &mut SelectionScratch,
) -> Vec<u32> {
    debug_assert!(
        neighbourhood.windows(2).all(|w| w[0] < w[1]),
        "create_links neighbourhood must be sorted ascending"
    );
    let dim = neighbourhood.len();
    scratch.bucket_of.clear();
    if dim == 0 || k == 0 {
        scratch.bucket_of.resize(dim, NO_BUCKET);
        return Vec::new();
    }
    debug_assert!(k < NO_BUCKET as usize, "bucket id overflow");
    scratch.family.reseed(dim, k, lsh_samples.max(1), lsh_seed);
    scratch.best.clear();
    scratch.best.resize(k, TopTwo::default());
    scratch.bm.reset(dim);
    for (j, &u) in neighbourhood.iter().enumerate() {
        fill_bitmap(j, &mut scratch.bm);
        let b = scratch.family.bucket_of(&scratch.bm);
        scratch.bucket_of.push(b as u16);
        scratch.best[b].offer(LinkCandidate {
            peer: u,
            coverage: coverage(&scratch.bm),
            bandwidth: bandwidth_of(u),
        });
    }
    // Sized for the gossip caller, which appends every other friend.
    let mut targets = Vec::with_capacity(dim);
    targets.extend(scratch.best.iter().filter_map(TopTwo::choice));
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(peer: u32, coverage: usize, bandwidth: f64) -> LinkCandidate {
        LinkCandidate {
            peer,
            coverage,
            bandwidth,
        }
    }

    #[test]
    fn picker_prefers_coverage() {
        let got = picker(&[cand(1, 5, 1.0), cand(2, 9, 1.0), cand(3, 2, 1.0)]);
        assert_eq!(got, 2);
    }

    #[test]
    fn picker_upgrades_to_faster_runner_up() {
        // Top by coverage is slow; runner-up is faster → runner-up wins.
        let got = picker(&[cand(1, 9, 1.0), cand(2, 5, 3.0)]);
        assert_eq!(got, 2);
        // Runner-up no faster → top wins.
        let got = picker(&[cand(1, 9, 3.0), cand(2, 5, 1.0)]);
        assert_eq!(got, 1);
    }

    proptest::proptest! {
        /// The one-pass top-two equals the definition: sort the bucket by
        /// (coverage desc, bandwidth desc, id asc), then the runner-up rule.
        #[test]
        fn picker_equals_full_sort(
            keys in proptest::collection::vec((0usize..4, 0u8..3), 1..12),
        ) {
            let members: Vec<LinkCandidate> = keys
                .iter()
                .enumerate()
                .map(|(i, &(coverage, bw))| cand((i as u32 * 7 + 3) % 13, coverage, bw as f64))
                .collect();
            let mut sorted = members.clone();
            sorted.sort_by(|a, b| {
                b.coverage
                    .cmp(&a.coverage)
                    .then(b.bandwidth.total_cmp(&a.bandwidth))
                    .then(a.peer.cmp(&b.peer))
            });
            let want = if sorted.len() > 1 && sorted[0].bandwidth < sorted[1].bandwidth {
                sorted[1].peer
            } else {
                sorted[0].peer
            };
            proptest::prop_assert_eq!(picker(&members), want);
        }
    }

    #[test]
    fn picker_singleton() {
        assert_eq!(picker(&[cand(7, 0, 0.0)]), 7);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn picker_empty_panics() {
        picker(&[]);
    }

    #[test]
    fn create_links_bounds_by_k() {
        let friends: Vec<u32> = (0..40).collect();
        let sel = create_links(
            &friends,
            5,
            8,
            42,
            |u| vec![(u + 1) % 40, (u + 2) % 40],
            |_| 1.0,
        );
        assert!(sel.targets.len() <= 5);
        assert!(!sel.targets.is_empty());
        // Targets are drawn from the neighbourhood.
        assert!(sel.targets.iter().all(|t| friends.contains(t)));
        // No duplicate targets (one per bucket).
        let mut t = sel.targets.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), sel.targets.len());
    }

    #[test]
    fn identical_friends_collapse_to_one_bucket() {
        // All friends have the same links → same bitmap → same bucket →
        // exactly one target.
        let friends: Vec<u32> = (0..10).collect();
        let sel = create_links(&friends, 4, 8, 1, |_| vec![0, 1], |_| 1.0);
        assert_eq!(sel.targets.len(), 1);
        assert_eq!(sel.bucket_peers_of(sel.targets[0]).len(), 10);
    }

    #[test]
    fn empty_neighbourhood_selects_nothing() {
        let sel = create_links(&[], 4, 8, 1, |_| vec![], |_| 1.0);
        assert!(sel.targets.is_empty());
    }

    #[test]
    fn bucket_peers_of_unknown_is_empty() {
        let sel = create_links(&[1, 2], 2, 4, 1, |_| vec![], |_| 1.0);
        assert!(sel.bucket_peers_of(99).is_empty());
    }

    #[test]
    fn bandwidth_aware_pick_inside_bucket() {
        // Two friends with identical bitmaps (same bucket); the faster one
        // must be picked (equal coverage → bandwidth tie-break in sort).
        let friends = [1u32, 2];
        let sel = create_links(
            &friends,
            1,
            4,
            3,
            |_| vec![1, 2],
            |u| if u == 2 { 9.0 } else { 1.0 },
        );
        assert_eq!(sel.targets, vec![2]);
    }
}
