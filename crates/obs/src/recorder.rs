//! The publish-path metrics recorder.
//!
//! One [`PublishRecorder`] bundles the five dissemination metrics the
//! evaluation reports as distributions: hop count, route stretch, retry
//! count, per-peer relay load, and delivery latency (virtual ms). The
//! recorder is designed for the 23-allocs-per-publish budget pinned by the
//! hot-path bench: every array is preallocated (or grown once, on first
//! use at a given network size), and it keeps no per-publish state. Which
//! sends count towards relay load — a tree prefix shared by several paths
//! is one transmission — is decided by the publish walk, from the receipt
//! stamps of `select-core`'s `PublishScratch`.

use crate::hist::Histogram;

/// Records dissemination metrics across publishes. Merging two recorders
/// (bucket-wise histogram adds plus element-wise relay-load adds) is
/// order-independent, so sharded per-thread recorders combined at a
/// superstep barrier are bit-identical at any thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PublishRecorder {
    /// Path length (edges) per delivered subscriber.
    pub hops: Histogram,
    /// Extra hops over the 1-hop social ideal per delivery (`hops − 1`):
    /// the overlay's detour cost relative to a direct publisher→subscriber
    /// link, which the social graph would provide if every subscriber were
    /// a friend.
    pub stretch: Histogram,
    /// Retransmission attempts needed per publication (0 = first try).
    pub retries: Histogram,
    /// Delivery latency per subscriber, in virtual milliseconds.
    pub latency_ms: Histogram,
    /// Cumulative transmissions per peer, indexed by peer id.
    relay_load: Vec<u64>,
}

impl PublishRecorder {
    /// A recorder with all histograms and the per-peer arrays preallocated
    /// for a network of `n` peers — nothing on the publish path allocates
    /// after this.
    pub fn preallocated(n: usize) -> Self {
        PublishRecorder {
            hops: Histogram::preallocated(),
            stretch: Histogram::preallocated(),
            retries: Histogram::preallocated(),
            latency_ms: Histogram::preallocated(),
            relay_load: vec![0; n],
        }
    }

    /// Records one delivered subscriber: path length in edges and delivery
    /// latency in virtual milliseconds. Stretch is derived (`hops − 1`).
    #[inline]
    pub fn note_delivery(&mut self, hops: u64, latency_ms: u64) {
        self.hops.record(hops);
        self.stretch.record(hops.saturating_sub(1));
        self.latency_ms.record(latency_ms);
    }

    /// Records how many retransmission waves one publication needed.
    #[inline]
    pub fn note_retries(&mut self, attempts: u64) {
        self.retries.record(attempts);
    }

    /// Adds `sends` transmissions to `peer`'s relay load, growing the
    /// per-peer array if `peer` is beyond it.
    #[inline]
    pub fn relay_load_add(&mut self, peer: u32, sends: u64) {
        if (peer as usize) >= self.relay_load.len() {
            self.relay_load.resize(peer as usize + 1, 0);
        }
        self.relay_load[peer as usize] += sends;
    }

    /// Cumulative transmissions per peer, indexed by peer id.
    pub fn relay_load(&self) -> &[u64] {
        &self.relay_load
    }

    /// The per-peer relay-load *distribution*: one histogram observation
    /// per peer (peers that never relayed contribute a 0). This is the
    /// Fig. 7-style load view.
    pub fn relay_load_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for &load in &self.relay_load {
            h.record(load);
        }
        h
    }

    /// Merges `other` into `self`. Histograms add bucket-wise; relay loads
    /// add element-wise — both commutative, so shard merge order (and
    /// therefore thread count) cannot change the result.
    pub fn merge(&mut self, other: &PublishRecorder) {
        self.hops.merge(&other.hops);
        self.stretch.merge(&other.stretch);
        self.retries.merge(&other.retries);
        self.latency_ms.merge(&other.latency_ms);
        if self.relay_load.len() < other.relay_load.len() {
            self.relay_load.resize(other.relay_load.len(), 0);
        }
        for (d, s) in self.relay_load.iter_mut().zip(other.relay_load.iter()) {
            *d += *s;
        }
    }

    /// Clears every metric, keeping allocations.
    pub fn reset(&mut self) {
        self.hops.reset();
        self.stretch.reset();
        self.retries.reset();
        self.latency_ms.reset();
        self.relay_load.fill(0);
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hops.count() == 0
            && self.retries.count() == 0
            && self.latency_ms.count() == 0
            && self.relay_load.iter().all(|&l| l == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_populates_hops_stretch_latency() {
        let mut r = PublishRecorder::preallocated(4);
        r.note_delivery(1, 40);
        r.note_delivery(3, 120);
        assert_eq!(r.hops.count(), 2);
        assert_eq!(r.hops.max(), 3);
        assert_eq!(r.stretch.min(), 0, "1-hop delivery has zero stretch");
        assert_eq!(r.stretch.max(), 2);
        assert_eq!(r.latency_ms.sum(), 160);
    }

    #[test]
    fn merge_matches_single_recorder() {
        let mut a = PublishRecorder::preallocated(4);
        let mut b = PublishRecorder::preallocated(4);
        let mut whole = PublishRecorder::preallocated(4);
        a.relay_load_add(0, 1);
        whole.relay_load_add(0, 1);
        a.note_delivery(2, 80);
        whole.note_delivery(2, 80);
        b.relay_load_add(1, 1);
        whole.relay_load_add(1, 1);
        b.note_retries(2);
        whole.note_retries(2);

        let mut fwd = PublishRecorder::default();
        fwd.merge(&a);
        fwd.merge(&b);
        let mut rev = PublishRecorder::default();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(fwd, rev, "merge is order independent");
        assert_eq!(fwd, whole, "merge equals recording into one");
    }

    #[test]
    fn relay_load_histogram_includes_idle_peers() {
        let mut r = PublishRecorder::preallocated(3);
        r.relay_load_add(0, 1);
        r.relay_load_add(0, 1);
        let h = r.relay_load_histogram();
        assert_eq!(h.count(), 3, "one observation per peer");
        assert_eq!(h.max(), 2);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn reset_and_empty() {
        let mut r = PublishRecorder::preallocated(2);
        assert!(r.is_empty());
        r.relay_load_add(0, 1);
        r.note_retries(1);
        assert!(!r.is_empty());
        r.reset();
        assert!(r.is_empty());
        assert_eq!(r, PublishRecorder::preallocated(2));
    }

    #[test]
    fn relay_load_grows_to_any_peer() {
        let mut r = PublishRecorder::default();
        r.relay_load_add(2, 3);
        r.relay_load_add(0, 1);
        assert_eq!(r.relay_load(), &[1, 0, 3]);
    }
}
