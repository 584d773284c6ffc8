//! Publish-path allocation budget with observability enabled (feature
//! `count-allocs`).
//!
//! One test function on purpose: the counting allocator is process-global,
//! and an integration-test binary with a single test is the only place the
//! counter deltas are not polluted by concurrently running tests.

#![cfg(feature = "count-allocs")]

use osn_bench::allocs;
use osn_graph::datasets::Dataset;
use osn_obs::Observer;
use osn_sim::FaultPlan;
use select_core::{SelectConfig, SelectNetwork};

/// The hot-path budget pinned by the flattened-storage refactor: a
/// steady-state publish may average at most this many heap allocations —
/// metrics recording included.
const ALLOC_BUDGET: f64 = 23.0;

/// Ceiling for a publish under drops and crashes (drop 0.08, crash 0.02,
/// 3 retries; measured 23.1 on Facebook-300): the edge memo, crash list
/// and retry queue are publish-scratch buffers and a lost path is copied
/// into the scratch's arena, so beyond the fault-free publish only the
/// reroutes allocate, each for the path its `RouteOutcome` owns.
const FAULT_ALLOC_CEILING: f64 = 24.0;

#[test]
fn publish_with_metrics_stays_within_alloc_budget() {
    let n = 300usize;
    let graph = Dataset::Facebook.generate_with_nodes(n, 42);
    let net = {
        let mut net =
            SelectNetwork::bootstrap(graph, SelectConfig::default().with_seed(42).with_threads(1));
        net.converge(300);
        net
    };
    let faulty = {
        let plan = FaultPlan::seeded(42)
            .with_drop_prob(0.08)
            .with_crash_prob(0.02);
        let cfg = SelectConfig::default()
            .with_seed(42)
            .with_threads(1)
            .with_fault_plan(plan)
            .with_retry_max(3);
        let mut net = SelectNetwork::bootstrap(Dataset::Facebook.generate_with_nodes(n, 42), cfg);
        net.converge(300);
        net
    };
    let mut obs = Observer::for_peers(n);

    // Warm-up: every publisher once per mode, so scratch arenas and the
    // recorder's lazily-grown buffers reach steady state before counting.
    for b in 0..n as u32 {
        std::hint::black_box(net.publish_at(b, b as u64));
        std::hint::black_box(net.publish_observed(b, b as u64, &mut obs));
        std::hint::black_box(faulty.publish_at(b, b as u64));
    }

    let publishes = 2_000usize;
    let per_publish = |f: &mut dyn FnMut(usize)| {
        let before = allocs::snapshot().expect("count-allocs is on");
        for i in 0..publishes {
            f(i);
        }
        let after = allocs::snapshot().expect("count-allocs is on");
        (after.0 - before.0) as f64 / publishes as f64
    };

    let plain = per_publish(&mut |i| {
        std::hint::black_box(net.publish_at((i % n) as u32, i as u64));
    });
    let with_metrics = per_publish(&mut |i| {
        std::hint::black_box(net.publish_observed((i % n) as u32, i as u64, &mut obs));
    });
    let under_faults = per_publish(&mut |i| {
        std::hint::black_box(faulty.publish_at((i % n) as u32, i as u64));
    });

    assert!(
        with_metrics <= ALLOC_BUDGET,
        "publish with metrics averaged {with_metrics:.2} allocs (budget {ALLOC_BUDGET})"
    );
    // With tracing off (no flight recorder), the observed path must not
    // allocate beyond the bare publish path: recording is arena writes only.
    assert!(
        with_metrics <= plain + 0.01,
        "metrics recording allocated: {with_metrics:.3} vs bare {plain:.3} allocs/publish"
    );
    assert!(
        under_faults <= FAULT_ALLOC_CEILING,
        "publish under faults averaged {under_faults:.2} allocs (ceiling {FAULT_ALLOC_CEILING})"
    );
}
