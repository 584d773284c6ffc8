//! Fixed-size log-bucketed histograms (HDR-lite) with deterministic merge.
//!
//! The paper's evaluation (Figs. 5–7) reports *distributions* — hop counts,
//! relay load, notification latency — so the observability layer records
//! full histograms, not means. The design constraints come from the rest of
//! the workspace:
//!
//! * **No ambient time.** Values are integers in domain units (hops, virtual
//!   milliseconds from `osn_sim::latency`, retry attempts). Nothing in this
//!   crate reads a clock; its `clippy.toml` bans them.
//! * **Deterministic merge.** Buckets are `u64` counters and merging is
//!   bucket-wise addition — commutative and associative — so sharded
//!   per-thread recorders merged at the superstep apply barrier produce
//!   bit-identical totals at any thread count.
//! * **Bounded, allocation-light.** The bucket array has a fixed compile-time
//!   size and is lazily boxed on the first `record`, so an empty histogram
//!   is a single `None` and `Default` costs nothing on the publish hot path.
//!
//! Bucketing follows the HDR idea with `SUB_BITS = 4` sub-bucket precision:
//! values below 16 are exact (hop counts and retry attempts never leave this
//! range in practice), and larger values land in buckets of ≤ 6.25% relative
//! width — plenty for p50/p95/p99 latency tails.

/// Sub-bucket precision bits: 2^4 = 16 sub-buckets per power of two.
const SUB_BITS: u32 = 4;
/// Sub-buckets per log segment.
const SUBS: usize = 1 << SUB_BITS;
/// Number of log segments above the exact range (u64 domain).
const SEGMENTS: usize = 64 - SUB_BITS as usize;
/// Total bucket count: one exact segment plus `SEGMENTS` log segments.
pub const BUCKETS: usize = SUBS * (SEGMENTS + 1);

/// Maps a value to its bucket index. Values `< 16` map to themselves
/// (exact); above that, `shift = msb − SUB_BITS` selects the log segment
/// and the top `SUB_BITS` bits below the msb select the sub-bucket.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let shift = (63 - v.leading_zeros()) - SUB_BITS;
        let sub = ((v >> shift) & (SUBS as u64 - 1)) as usize;
        SUBS * (1 + shift as usize) + sub
    }
}

/// Lower bound of the value range covered by bucket `idx` — the value
/// quantiles report. Inverse of [`bucket_of`] up to bucket granularity.
#[inline]
fn bucket_floor(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let shift = (idx / SUBS - 1) as u32;
        let sub = (idx % SUBS) as u64;
        (SUBS as u64 + sub) << shift
    }
}

/// A fixed-size log-bucketed histogram over `u64` values.
///
/// Equality compares logical contents (an all-zero boxed array equals the
/// unallocated empty histogram), so telemetry equality pins stay meaningful.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Lazily allocated bucket counters; `None` means "never recorded".
    buckets: Option<Box<[u64; BUCKETS]>>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram. No allocation until the first [`record`].
    ///
    /// [`record`]: Histogram::record
    pub fn new() -> Self {
        Self::default()
    }

    /// A histogram with its bucket array preallocated, for hot paths that
    /// must not allocate while recording.
    pub fn preallocated() -> Self {
        let mut h = Self::default();
        h.touch();
        h
    }

    #[inline]
    fn touch(&mut self) -> &mut [u64; BUCKETS] {
        self.buckets.get_or_insert_with(|| Box::new([0; BUCKETS]))
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v` at once.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum += v.saturating_mul(n);
        self.touch()[bucket_of(v)] += n;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// holding the observation of rank `ceil(q · count)`. Values below 16
    /// are exact; above that the answer is within the bucket's ≤ 6.25%
    /// relative width. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(buckets) = &self.buckets else {
            return 0;
        };
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        self.max
    }

    /// Convenience: `(p50, p95, p99)`.
    pub fn tails(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// Merges `other` into `self` by bucket-wise addition. Commutative and
    /// associative, so any merge order (shard order, thread count) yields
    /// bit-identical totals.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        let dst = self.touch();
        if let Some(src) = &other.buckets {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += *s;
            }
        }
    }

    /// Clears all counters, keeping the bucket allocation for reuse.
    pub fn reset(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.min = 0;
        self.max = 0;
        if let Some(b) = &mut self.buckets {
            b.fill(0);
        }
    }

    /// Iterates non-empty buckets as `(lower_bound, count)` pairs, in
    /// ascending value order — the exporter surface.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().enumerate())
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_floor(i), c))
    }

    /// Iterates non-empty buckets as `(upper_bound_inclusive,
    /// cumulative_count)` pairs — the Prometheus `le` convention. The last
    /// pair's cumulative count equals [`count`](Histogram::count).
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .flat_map(|b| b.iter().enumerate())
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| {
                cum += c;
                let upper = if i + 1 < BUCKETS {
                    bucket_floor(i + 1) - 1
                } else {
                    u64::MAX
                };
                (upper, cum)
            })
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        if (self.count, self.sum, self.min(), self.max())
            != (other.count, other.sum, other.min(), other.max())
        {
            return false;
        }
        // Compare bucket contents, treating a missing array as all-zero so
        // `preallocated()` == `new()` while both are empty.
        const ZERO: [u64; BUCKETS] = [0; BUCKETS];
        let a = self.buckets.as_deref().unwrap_or(&ZERO);
        let b = other.buckets.as_deref().unwrap_or(&ZERO);
        a == b
    }
}

impl Eq for Histogram {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_floor(bucket_of(v)), v);
        }
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for v in [16u64, 17, 31, 32, 100, 1_000, 65_535, 1 << 40, u64::MAX] {
            let idx = bucket_of(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            assert_eq!(bucket_of(floor), idx, "floor must land in its own bucket");
            // Relative error bound: bucket width is floor / 16.
            assert!((v - floor) as f64 <= floor as f64 / 16.0 + 1.0);
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_on_known_data() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        // p50 = rank 50 → value 50; its bucket [50, 51] floors back to 50.
        assert_eq!(h.quantile(0.5), 50);
        // p95 = rank 95 → value 95 lands in the 4-wide bucket [92, 95].
        assert_eq!(h.quantile(0.95), 92);
        // Exact range: small values come back exactly.
        let mut small = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            small.record(v);
        }
        assert_eq!(small.quantile(0.5), 5);
        assert_eq!(small.quantile(0.95), 10);
        assert_eq!(small.quantile(1.0), 10);
        assert_eq!(small.quantile(0.0), 1, "q=0 clamps to rank 1");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.tails(), (0, 0, 0));
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn preallocated_equals_empty() {
        assert_eq!(Histogram::preallocated(), Histogram::new());
        let mut a = Histogram::preallocated();
        let mut b = Histogram::new();
        a.record(7);
        b.record(7);
        assert_eq!(a, b);
        b.record(9);
        assert_ne!(a, b);
    }

    #[test]
    fn merge_is_order_independent() {
        let shards: Vec<Vec<u64>> = vec![
            vec![1, 2, 3, 100, 5_000],
            vec![4, 4, 4, 70_000],
            vec![],
            vec![9, 1 << 33],
        ];
        let hists: Vec<Histogram> = shards
            .iter()
            .map(|vs| {
                let mut h = Histogram::new();
                for &v in vs {
                    h.record(v);
                }
                h
            })
            .collect();
        let mut forward = Histogram::new();
        for h in &hists {
            forward.merge(h);
        }
        let mut backward = Histogram::new();
        for h in hists.iter().rev() {
            backward.merge(h);
        }
        assert_eq!(forward, backward);
        let total: u64 = shards.iter().map(|s| s.len() as u64).sum();
        assert_eq!(forward.count(), total);
        assert_eq!(forward.min(), 1);
        assert_eq!(forward.max(), 1 << 33);
    }

    #[test]
    fn reset_keeps_allocation_and_equals_empty() {
        let mut h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h, Histogram::new());
        h.record(3);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(37, 5);
        for _ in 0..5 {
            b.record(37);
        }
        assert_eq!(a, b);
        a.record_n(11, 0);
        assert_eq!(a, b, "n = 0 is a no-op");
    }
}
