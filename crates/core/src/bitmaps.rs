//! Friendship bitmaps (paper §III-D).
//!
//! When peer `p` evaluates its neighbourhood `C_p`, each friend `u ∈ C_p` is
//! summarized by a `|C_p|`-bit bitmap: bit `j` is set iff `u` currently links
//! `p`'s `j`-th friend (`(u, c_j) ∈ R_u`). Friends with similar bitmaps cover
//! the same part of `p`'s neighbourhood — the redundancy LSH bucketing then
//! collapses.

use osn_lsh::Bitmap;

/// Builds the friendship bitmap of friend `u` over `p`'s neighbourhood.
///
/// * `neighbourhood` — `p`'s friend list `C_p`, defining bit positions;
///   sorted ascending, so each link finds its bit by binary search.
/// * `links_of_u` — `u`'s current connection set `R_u` (any order,
///   duplicates allowed).
pub fn friendship_bitmap(neighbourhood: &[u32], links_of_u: &[u32]) -> Bitmap {
    debug_assert!(
        neighbourhood.windows(2).all(|w| w[0] < w[1]),
        "friendship_bitmap neighbourhood must be sorted ascending"
    );
    let mut bm = Bitmap::zeros(neighbourhood.len());
    for link in links_of_u {
        if let Ok(j) = neighbourhood.binary_search(link) {
            bm.set(j, true);
        }
    }
    bm
}

/// Number of `p`'s friends that `u` covers (the picker's primary sort key —
/// "the maximum number of social connections", Algorithm 6).
pub fn coverage(bm: &Bitmap) -> usize {
    bm.count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_positions_follow_neighbourhood_order() {
        let c_p = [10u32, 20, 30, 40];
        let r_u = [30u32, 10, 99];
        let bm = friendship_bitmap(&c_p, &r_u);
        assert!(bm.get(0)); // 10
        assert!(!bm.get(1)); // 20
        assert!(bm.get(2)); // 30
        assert!(!bm.get(3)); // 40
        assert_eq!(coverage(&bm), 2);
    }

    #[test]
    fn empty_links_empty_bitmap() {
        let bm = friendship_bitmap(&[1, 2, 3], &[]);
        assert_eq!(coverage(&bm), 0);
    }

    #[test]
    fn identical_link_sets_identical_bitmaps() {
        let c_p = [5u32, 6, 7];
        let a = friendship_bitmap(&c_p, &[6, 7]);
        let b = friendship_bitmap(&c_p, &[7, 6]);
        assert_eq!(a, b, "order of R_u must not matter");
    }

    #[test]
    fn links_outside_neighbourhood_are_ignored() {
        let bm = friendship_bitmap(&[1, 2], &[3, 4, 5]);
        assert_eq!(coverage(&bm), 0);
    }

    /// The definition the binary-search form replaced: one linear
    /// `contains` scan of `R_u` per bit position.
    fn friendship_bitmap_by_scan(neighbourhood: &[u32], links_of_u: &[u32]) -> Bitmap {
        Bitmap::from_set_bits(
            neighbourhood.len(),
            neighbourhood
                .iter()
                .enumerate()
                .filter(|&(_, &c)| links_of_u.contains(&c))
                .map(|(j, _)| j),
        )
    }

    proptest::proptest! {
        /// Sorted neighbourhoods of every word-boundary size against link
        /// sets that are unsorted, duplicated and may contain `u` itself.
        #[test]
        fn binary_search_form_equals_contains_form(
            members in proptest::collection::btree_set(0u32..400, 0..200),
            links in proptest::collection::vec(0u32..400, 0..120),
        ) {
            let neighbourhood: Vec<u32> = members.into_iter().collect();
            proptest::prop_assert_eq!(
                friendship_bitmap(&neighbourhood, &links),
                friendship_bitmap_by_scan(&neighbourhood, &links)
            );
        }
    }
}
