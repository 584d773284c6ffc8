//! Golden-state regression pin for the hot-path storage refactor.
//!
//! The hash below was captured on the pre-refactor `HashMap`-per-peer
//! storage (commit f1fcd4e) and covers everything the flattened CSR/SoA
//! layout must reproduce bit-for-bit: converged identifiers, long links,
//! incoming links, and 20 full publish traces (per-path node sequences and
//! the failed set), at 1 and 8 worker threads. Any layout change that
//! perturbs protocol results — bucket ordering, CMA trust decisions,
//! scratch-buffer reuse leaking state between publications — shows up here
//! as a one-word diff.

use select::core::{SelectConfig, SelectNetwork};
use select::graph::prelude::*;

/// FNV-1a over a stream of u64 words; stable across platforms.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

/// Converge on Facebook-200 (seed 42), then hash the full overlay state and
/// 20 publish traces. With `observed`, every publish additionally runs the
/// full metrics + flight-recorder instrumentation — the hash must not move
/// (observation is read-only; the observer-effect pin).
fn converged_state_hash_observed(threads: usize, observed: bool) -> u64 {
    let graph = datasets::Dataset::Facebook.generate_with_nodes(200, 42);
    let mut net = SelectNetwork::bootstrap(
        graph,
        SelectConfig::default().with_seed(42).with_threads(threads),
    );
    let report = net.converge(300);
    assert!(report.converged, "threads={threads} did not converge");
    let mut obs = select::obs::Observer::for_peers(net.len()).with_tracing(8);

    let mut h = Fnv::new();
    h.word(report.rounds as u64);
    for p in 0..net.len() as u32 {
        h.word(net.identifier_of(p).0);
        let table = net.table(p);
        h.word(table.long_links().len() as u64);
        for &l in table.long_links() {
            h.word(l as u64);
        }
        let mut incoming = table.incoming_links().to_vec();
        incoming.sort_unstable();
        h.word(incoming.len() as u64);
        for l in incoming {
            h.word(l as u64);
        }
    }
    for b in 0..20u32 {
        let r = if observed {
            net.publish_observed(b, 0, &mut obs)
        } else {
            net.publish(b)
        };
        h.word(r.delivered as u64);
        h.word(r.subscribers as u64);
        h.word(r.avg_hops.to_bits());
        h.word(r.total_relays as u64);
        for path in r.tree.paths() {
            h.word(path.len() as u64);
            for &q in path.iter() {
                h.word(q as u64);
            }
        }
        for &s in &r.tree.failed {
            h.word(s as u64);
        }
    }
    h.0
}

/// Pre-refactor golden hash; see module docs.
const GOLDEN: u64 = 0xFDE0_9894_F723_B576;

#[test]
fn flattened_storage_reproduces_pinned_overlay_single_thread() {
    assert_eq!(
        converged_state_hash_observed(1, false),
        GOLDEN,
        "converged overlay diverged from the pre-refactor golden state (threads=1)"
    );
}

#[test]
fn flattened_storage_reproduces_pinned_overlay_eight_threads() {
    assert_eq!(
        converged_state_hash_observed(8, false),
        GOLDEN,
        "converged overlay diverged from the pre-refactor golden state (threads=8)"
    );
}

/// Same pin over the batched publish path: each of the 20 traces comes out
/// of a `publish_batch_at` batch instead of a standalone `publish`. The
/// nonce-0 report of every batch must be bit-identical to the standalone
/// publish, so the hash must not move.
fn converged_state_hash_batched(threads: usize) -> u64 {
    let graph = datasets::Dataset::Facebook.generate_with_nodes(200, 42);
    let mut net = SelectNetwork::bootstrap(
        graph,
        SelectConfig::default().with_seed(42).with_threads(threads),
    );
    let report = net.converge(300);
    assert!(report.converged, "threads={threads} did not converge");

    let mut h = Fnv::new();
    h.word(report.rounds as u64);
    for p in 0..net.len() as u32 {
        h.word(net.identifier_of(p).0);
        let table = net.table(p);
        h.word(table.long_links().len() as u64);
        for &l in table.long_links() {
            h.word(l as u64);
        }
        let mut incoming = table.incoming_links().to_vec();
        incoming.sort_unstable();
        h.word(incoming.len() as u64);
        for l in incoming {
            h.word(l as u64);
        }
    }
    for b in 0..20u32 {
        let batch = net.publish_batch_at(b, 0, 4);
        assert_eq!(batch.len(), 4);
        let r = &batch[0];
        h.word(r.delivered as u64);
        h.word(r.subscribers as u64);
        h.word(r.avg_hops.to_bits());
        h.word(r.total_relays as u64);
        for path in r.tree.paths() {
            h.word(path.len() as u64);
            for &q in path.iter() {
                h.word(q as u64);
            }
        }
        for &s in &r.tree.failed {
            h.word(s as u64);
        }
    }
    h.0
}

#[test]
fn batched_publishes_keep_the_golden_hash_single_thread() {
    assert_eq!(
        converged_state_hash_batched(1),
        GOLDEN,
        "batched publish path diverged from the golden state (threads=1)"
    );
}

#[test]
fn batched_publishes_keep_the_golden_hash_eight_threads() {
    assert_eq!(
        converged_state_hash_batched(8),
        GOLDEN,
        "batched publish path diverged from the golden state (threads=8)"
    );
}

#[test]
fn observed_publishes_keep_the_golden_hash_single_thread() {
    assert_eq!(
        converged_state_hash_observed(1, true),
        GOLDEN,
        "metrics/tracing recording perturbed protocol state (threads=1)"
    );
}

#[test]
fn observed_publishes_keep_the_golden_hash_eight_threads() {
    assert_eq!(
        converged_state_hash_observed(8, true),
        GOLDEN,
        "metrics/tracing recording perturbed protocol state (threads=8)"
    );
}

/// Everything an [`Observer`](select::obs::Observer) retained: the bucket
/// counts of the four publish histograms, the per-peer relay load, and
/// every retained journey (stamp, nonce, subscriber, status, truncation
/// flag and events).
fn hash_observer(h: &mut Fnv, obs: &select::obs::Observer) {
    let m = &obs.metrics;
    for hist in [&m.hops, &m.stretch, &m.retries, &m.latency_ms] {
        h.word(hist.count());
        for (floor, count) in hist.nonzero_buckets() {
            h.word(floor);
            h.word(count);
        }
    }
    h.word(m.relay_load().len() as u64);
    for &load in m.relay_load() {
        h.word(load);
    }
    let flight = obs.flight.as_ref().expect("tracing is on");
    for j in flight.journeys() {
        h.word(j.seq);
        h.word(j.nonce);
        h.word(j.subscriber as u64);
        h.word(j.status as u64);
        h.word(j.truncated as u64);
        h.word(j.events().len() as u64);
        for ev in j.events() {
            for byte in format!("{ev:?}").bytes() {
                h.word(byte as u64);
            }
        }
    }
}

/// Observation pin on Facebook-200 (seed 42): 20 fault-free publishes, then
/// 40 publishes under a drop 0.08 / crash 0.02 fault plan with 3 retries,
/// each phase recorded by one observer with tracing on. The faulty phase is
/// recorded twice: once into a ring that keeps every journey, once into an
/// 8-slot ring that recycles journeys while their publication is still
/// being delivered.
fn observed_metrics_and_journeys_hash(threads: usize) -> u64 {
    let converged = |cfg: SelectConfig| {
        let graph = datasets::Dataset::Facebook.generate_with_nodes(200, 42);
        let mut net = SelectNetwork::bootstrap(graph, cfg.with_seed(42).with_threads(threads));
        assert!(
            net.converge(300).converged,
            "threads={threads} did not converge"
        );
        net
    };
    let mut h = Fnv::new();

    let net = converged(SelectConfig::default());
    let mut obs = select::obs::Observer::for_peers(net.len()).with_tracing(4096);
    for b in 0..20u32 {
        net.publish_observed(b, b as u64, &mut obs);
    }
    hash_observer(&mut h, &obs);

    let plan = select::sim::FaultPlan::seeded(42)
        .with_drop_prob(0.08)
        .with_crash_prob(0.02);
    let net = converged(
        SelectConfig::default()
            .with_fault_plan(plan)
            .with_retry_max(3),
    );
    for capacity in [4096, 8] {
        let mut obs = select::obs::Observer::for_peers(net.len()).with_tracing(capacity);
        for i in 0..40u64 {
            net.publish_observed((i * 5 % 200) as u32, 1_000 + i, &mut obs);
        }
        hash_observer(&mut h, &obs);
    }
    h.0
}

/// Observed hops, stretch, retries, latency, relay load and journeys, as
/// recorded by the two-branch delivery walk this pin was captured on.
const OBSERVED: u64 = 0xC7B4_9579_343E_4702;

#[test]
fn observed_metrics_and_journeys_match_the_pin_single_thread() {
    assert_eq!(
        observed_metrics_and_journeys_hash(1),
        OBSERVED,
        "observed metrics or journeys moved (threads=1)"
    );
}

#[test]
fn observed_metrics_and_journeys_match_the_pin_eight_threads() {
    assert_eq!(
        observed_metrics_and_journeys_hash(8),
        OBSERVED,
        "observed metrics or journeys moved (threads=8)"
    );
}
