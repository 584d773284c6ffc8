//! Property-based tests for the simulation substrate.

use osn_sim::collect::{gini, Mean};
use osn_sim::engine::EventQueue;
use osn_sim::{ChurnModel, Cma, Exponential, LogNormal};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CMA always equals the arithmetic mean of its inputs.
    #[test]
    fn cma_equals_mean(xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let mut cma = Cma::new();
        for &x in &xs {
            cma.observe(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((cma.value() - mean).abs() < 1e-9);
    }

    /// Log-normal samples are always strictly positive.
    #[test]
    fn lognormal_positive(mu in -3.0f64..3.0, sigma in 0.0f64..2.0, seed in any::<u64>()) {
        let d = LogNormal::new(mu, sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    /// Exponential samples are non-negative.
    #[test]
    fn exponential_non_negative(lambda in 0.01f64..10.0, seed in any::<u64>()) {
        let d = Exponential::new(lambda);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    /// Churn never violates the online floor, for arbitrary model params.
    #[test]
    fn churn_respects_floor(
        median in 0.001f64..0.9,
        sigma in 0.0f64..1.5,
        floor in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let model = ChurnModel::new(LogNormal::with_median(median, sigma), floor);
        let mut rng = StdRng::seed_from_u64(seed);
        let total = 500usize;
        let mut online = total;
        for _ in 0..20 {
            let leave = model.sample_departures(&mut rng, online, total);
            prop_assert!(leave <= online);
            online -= leave;
            prop_assert!(online as f64 >= (floor * total as f64).ceil() - 1.0);
            online = total; // reset each step, as the paper's model does
        }
    }

    /// At every observation step the CMA stays within the closed hull of the
    /// inputs seen so far — the incremental update never over/undershoots.
    #[test]
    fn cma_observe_is_numerically_stable(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut cma = Cma::new();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in &xs {
            cma.observe(x);
            lo = lo.min(x);
            hi = hi.max(x);
            prop_assert!(
                cma.value() >= lo - 1e-6 && cma.value() <= hi + 1e-6,
                "CMA {} escaped hull [{lo}, {hi}]",
                cma.value()
            );
        }
    }

    /// A seeded CMA behaves exactly like `count` prior observations at the
    /// seed mean: further observations land on the weighted mean.
    #[test]
    fn cma_seeded_matches_weighted_mean(
        seed_mean in -100.0f64..100.0,
        seed_count in 1u64..50,
        xs in proptest::collection::vec(-100.0f64..100.0, 1..50),
    ) {
        let mut cma = Cma::seeded(seed_mean, seed_count);
        for &x in &xs {
            cma.observe(x);
        }
        let expect = (seed_mean * seed_count as f64 + xs.iter().sum::<f64>())
            / (seed_count + xs.len() as u64) as f64;
        prop_assert!((cma.value() - expect).abs() < 1e-9);
        prop_assert_eq!(cma.count(), seed_count + xs.len() as u64);
    }

    /// Event queue pops in non-decreasing time order, always.
    #[test]
    fn event_queue_is_time_ordered(times in proptest::collection::vec(0u64..10_000, 1..60)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last = 0u64;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Interleaved schedule/pop programs never violate time order, FIFO
    /// tie-breaking, or conservation of events.
    #[test]
    fn event_queue_interleaved_scheduling_stays_ordered(
        ops in proptest::collection::vec((0u64..100, 0usize..4), 1..80),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut scheduled = 0usize;
        let mut popped: Vec<(u64, usize)> = Vec::new();
        for (id, &(delta, pops)) in ops.iter().enumerate() {
            // Scheduling is always relative to `now`, so causality holds.
            q.schedule(q.now() + delta, id);
            scheduled += 1;
            for _ in 0..pops {
                if let Some(e) = q.pop() {
                    popped.push(e);
                }
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), scheduled, "events lost or duplicated");
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
            if w[0].0 == w[1].0 {
                // Equal timestamps must come out in insertion order (the
                // payload here is the insertion sequence number).
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated: {w:?}");
            }
        }
    }


    /// Gini is within [0, 1) for non-negative inputs and 0 for equal ones.
    #[test]
    fn gini_bounds(values in proptest::collection::vec(0.0f64..1000.0, 1..50)) {
        let g = gini(&values);
        prop_assert!((-1e-9..1.0).contains(&g), "gini {g}");
    }

    /// Mean accumulator merge is equivalent to concatenation.
    #[test]
    fn mean_merge_equals_concat(
        xs in proptest::collection::vec(-50.0f64..50.0, 1..30),
        ys in proptest::collection::vec(-50.0f64..50.0, 1..30),
    ) {
        let mut a = Mean::new();
        for &x in &xs { a.add(x); }
        let mut b = Mean::new();
        for &y in &ys { b.add(y); }
        a.merge(&b);
        let mut c = Mean::new();
        for &v in xs.iter().chain(&ys) { c.add(v); }
        prop_assert!((a.mean() - c.mean()).abs() < 1e-9);
        prop_assert_eq!(a.count(), c.count());
        prop_assert_eq!(a.min(), c.min());
        prop_assert_eq!(a.max(), c.max());
    }
}
