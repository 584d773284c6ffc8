//! Everything a run feeds the program, derived from `--seed`: graph,
//! publisher schedule, churn draws, fault plan. The program receives only
//! these generated inputs; the same seed gives the same inputs.

use osn_graph::datasets::Dataset;
use osn_graph::SocialGraph;
use osn_sim::{ChurnModel, FaultPlan, LogNormal, PublishWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use select_core::SelectConfig;
use std::sync::Arc;

/// Independent input streams split off the run seed.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Generation of the run's `i`-th social graph.
    Graph(u64),
    /// Overlay bootstrap seed of the `i`-th overlay over one graph.
    Overlay(u64),
    /// Publisher schedule over the `i`-th graph.
    Schedule(u64),
    /// Churn departures.
    Churn,
    /// Fault plan.
    Fault,
    /// Seeded peers and pairs of the layer probes.
    Probe,
}

/// splitmix64 finaliser: the one bit mixer behind input streams and digests.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `seed` into the sub-seed of one input stream.
pub fn derive(seed: u64, stream: Stream) -> u64 {
    let salt: u64 = match stream {
        Stream::Graph(i) => 0x1000_0000 + i,
        Stream::Overlay(i) => 0x2000_0000 + i,
        Stream::Schedule(i) => 0x3000_0000 + i,
        Stream::Churn => 0x4000_0000,
        Stream::Fault => 0x5000_0000,
        Stream::Probe => 0x6000_0000,
    };
    mix64(
        seed.wrapping_add(salt)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Sizes of one workload. `--smoke` swaps in [`Sizes::smoke`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Graph preset.
    pub dataset: Dataset,
    /// Peers.
    pub n: usize,
    /// Publications per pass of the fixed schedule.
    pub pubs_per_pass: usize,
    /// Whole passes (or episodes, or overlay cycles) a run makes at least.
    pub min_passes: usize,
    /// Set-ups per run; `setup_s` is their median. Cheap set-ups repeat
    /// more often, which also gives `rounds` more overlays to average over.
    pub setups: usize,
    /// Overlays converged after the set-ups only to steady `converge_s`,
    /// `round_ms_p50` and `rounds` where set-ups are too dear to repeat
    /// (`publish_tcp` pays 1.3 s of transport spawn per set-up).
    pub extra_converges: usize,
    /// Overlays a cycle of `converge_*` runs, each on a graph and bootstrap
    /// seed of its own. Rounds-to-converge moves by ±1 and relays per path
    /// by a third from one seeded graph to the next; the converge metrics
    /// average over a cycle so that step does not land in them whole.
    pub overlays: usize,
    /// Churn steps per episode (`churn_faults`) or of the repair side probe.
    pub churn_steps: usize,
    /// Publications per churn step (`churn_faults` only).
    pub pubs_per_step: usize,
    /// Seeded lookup pairs of the routing probe.
    pub lookup_pairs: usize,
}

impl Sizes {
    /// The reference sizes, chosen so one run (set-up three times, the
    /// measured `run_seconds`, the side probes) stays near 15 s on 2 cores.
    pub fn reference(workload: &str) -> Sizes {
        let base = Sizes {
            dataset: Dataset::Facebook,
            n: 300,
            pubs_per_pass: 1_000,
            min_passes: 3,
            setups: 3,
            extra_converges: 0,
            overlays: 3,
            churn_steps: 5,
            pubs_per_step: 0,
            lookup_pairs: 5_000,
        };
        match workload {
            "converge_sparse" => Sizes {
                n: 10_000,
                pubs_per_pass: 1_200 * 3,
                min_passes: 1,
                setups: 9,
                ..base
            },
            "converge_dense" => Sizes {
                dataset: Dataset::GooglePlus,
                n: 500,
                pubs_per_pass: 1_600 * 3,
                min_passes: 1,
                setups: 25,
                ..base
            },
            "publish_sim" => Sizes {
                n: 6_000,
                pubs_per_pass: 5_000,
                ..base
            },
            "publish_inproc" => Sizes {
                setups: 9,
                churn_steps: 30,
                ..base
            },
            "publish_tcp" => Sizes {
                extra_converges: 6,
                churn_steps: 30,
                ..base
            },
            "churn_faults" => Sizes {
                n: 4_000,
                pubs_per_pass: 200 * 30,
                min_passes: 1,
                churn_steps: 30,
                pubs_per_step: 200,
                ..base
            },
            other => panic!("unknown workload {other}"),
        }
    }

    /// Tiny sizes: one pass, seconds in total.
    pub fn smoke(workload: &str) -> Sizes {
        let r = Sizes::reference(workload);
        Sizes {
            dataset: r.dataset,
            n: if r.dataset == Dataset::GooglePlus {
                260
            } else {
                r.n.min(200)
            },
            pubs_per_pass: if r.pubs_per_step > 0 { 20 * 3 } else { 100 },
            min_passes: 1,
            setups: 3,
            extra_converges: r.extra_converges.min(1),
            overlays: 2,
            churn_steps: 3,
            pubs_per_step: r.pubs_per_step.min(20),
            lookup_pairs: 200,
        }
    }
}

/// Generates the run's `i`-th social graph.
pub fn graph(sizes: &Sizes, seed: u64, i: u64) -> Arc<SocialGraph> {
    Arc::new(
        sizes
            .dataset
            .generate_with_nodes(sizes.n, derive(seed, Stream::Graph(i))),
    )
}

/// The fixed publisher schedule over the run's `i`-th graph: `count`
/// publishers drawn degree-weighted by `PublishWorkload::default()`.
pub fn schedule(graph: &SocialGraph, count: usize, seed: u64, i: u64) -> Vec<u32> {
    let weights: Vec<usize> = graph.nodes().map(|u| graph.degree(u)).collect();
    let mut rng = StdRng::seed_from_u64(derive(seed, Stream::Schedule(i)));
    PublishWorkload::default()
        .generate(&mut rng, &weights, u64::MAX, count)
        .into_iter()
        .map(|e| e.publisher)
        .collect()
}

/// The fault plan of `churn_faults`.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(derive(seed, Stream::Fault))
        .with_drop_prob(0.08)
        .with_crash_prob(0.02)
}

/// The churn process: the paper's per-step departures with the count pinned
/// at `ChurnModel::default()`'s median share of the network; who leaves is
/// drawn from the seed. The default's log-normal count (sigma 0.8) puts an
/// 18 % seed-to-seed deviation into the median of a 30-step episode, more
/// than any admissible bound on `repair_ms_p50` could hold.
pub fn churn_model() -> ChurnModel {
    let d = ChurnModel::default();
    ChurnModel::new(
        LogNormal::new(d.departure_fraction.mu, 0.0),
        d.min_online_fraction,
    )
}

/// Overlay configuration `overlay` of a run: `threads` round-loop workers,
/// `retry_max = 3`, faults only where the workload asks for them.
pub fn config(seed: u64, overlay: u64, threads: usize, faults: bool) -> SelectConfig {
    let cfg = SelectConfig::default()
        .with_seed(derive(seed, Stream::Overlay(overlay)))
        .with_threads(threads)
        .with_retry_max(3);
    if faults {
        cfg.with_fault_plan(fault_plan(seed))
    } else {
        cfg
    }
}
