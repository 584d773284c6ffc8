//! The six workloads. Closed loop, one client, one driver thread: the next
//! operation starts when the previous one returned. Each workload repeats
//! whole passes over its fixed seeded schedule until the time budget is
//! spent; rates and latency percentiles are medians over passes.
//!
//! Every workload reports all twelve end-to-end metrics. Those outside its
//! own focus come from side measurements on its own overlay: publish and
//! churn workloads converge during set-up (so `converge_s` is a part of
//! their `setup_s`), converge workloads publish 500 notifications on each
//! converged overlay, and every workload ends with a short fault-free churn
//! episode for `repair_ms_p50`.

use crate::inputs::{self, derive, Sizes, Stream};
use crate::probes;
use crate::span::Recorder;
use crate::stats::{mean, median, percentile, sorted};
use bytes::Bytes;
use osn_graph::{SocialGraph, UserId};
use osn_net::{publish_over, SocketNetwork, ThreadedNetwork, Transport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use select_core::{
    ConvergenceReport, ConvergenceTelemetry, DeliveryTelemetry, RecoveryReport, SelectConfig,
    SelectNetwork,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round cap handed to `converge`; the reference sizes converge in 8–16.
pub const MAX_ROUNDS: usize = 300;
/// Payload of the wire workloads.
pub const PAYLOAD_BYTES: usize = 4 * 1024;
const ACK_TIMEOUT: Duration = Duration::from_secs(10);
const RETRY_MAX: u32 = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny sizes, one pass.
    pub smoke: bool,
}

/// Result of one run.
pub struct Outcome {
    /// Oracle violations; the run is correct iff there are none.
    pub violations: Vec<String>,
    /// Timed operations: passes (`converge_*`) or publications.
    pub attempted: u64,
    /// Operations whose own result broke the oracle.
    pub failed: u64,
    /// The twelve end-to-end metrics (meaningful on the untraced run).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics the run produced; absent layers read 0.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Sample counts: passes, rounds, publications, ...
    pub samples: Vec<(&'static str, u64)>,
    /// Workload parameters, for the provenance stamp.
    pub params: Vec<(&'static str, String)>,
    /// Digest of every exact count and delivery set of the run; two runs of
    /// one seed must agree on it.
    pub digest: u64,
    /// Digest of the delivery sets alone; equal on `publish_inproc` and
    /// `publish_tcp` for one seed.
    pub delivery_digest: u64,
    /// Recorded spans (traced run).
    pub recorder: Recorder,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
    /// Round-loop threads.
    pub threads: usize,
}

impl Outcome {
    /// Every oracle held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Collects oracle violations; the run is correct iff none were noted.
#[derive(Default)]
pub struct Oracle {
    violations: Vec<String>,
}

impl Oracle {
    /// Notes a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.violations.len() < 32 {
            self.violations.push(what());
        }
    }
}

/// Order-sensitive digest step, for exact-count digests.
pub fn fold(acc: u64, v: u64) -> u64 {
    inputs::mix64(acc ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One bootstrap + converge.
pub struct Converged {
    /// Bootstrap through converged, seconds.
    pub wall_s: f64,
    /// Bootstrap alone, ms.
    pub boot_ms: f64,
    /// The program's own report.
    pub report: ConvergenceReport,
}

/// `converge(MAX_ROUNDS)` spelled out round by round so each round gets its
/// own span; must stop exactly where `converge` stops.
fn converge_by_round(rec: &mut Recorder, id: u64, net: &mut SelectNetwork) -> ConvergenceReport {
    let started = Instant::now();
    let window = net.config().stability_window;
    let mut telemetry = ConvergenceTelemetry::new(net.config().resolved_threads());
    let (mut quiet, mut rounds, mut converged) = (0usize, 0usize, false);
    for round in 1..=MAX_ROUNDS {
        let tel = rec.scope("round", id, |_| net.gossip_round_telemetry());
        let quiescent = tel.is_quiescent();
        telemetry.rounds.push(tel);
        rounds = round;
        quiet = if quiescent { quiet + 1 } else { 0 };
        if quiescent && quiet >= window {
            converged = true;
            break;
        }
    }
    telemetry.total_wall_nanos = started.elapsed().as_nanos() as u64;
    ConvergenceReport {
        rounds,
        converged,
        telemetry,
    }
}

/// Bootstraps and converges one overlay; with the recorder on, as
/// `bootstrap | round[i]` spans of operation `id`.
pub fn converge_overlay(
    rec: &mut Recorder,
    id: u64,
    graph: &Arc<SocialGraph>,
    cfg: SelectConfig,
) -> (SelectNetwork, Converged) {
    let t0 = Instant::now();
    let mut net = rec.scope("bootstrap", id, |_| {
        SelectNetwork::bootstrap(graph.clone(), cfg)
    });
    let boot_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = if rec.enabled() {
        converge_by_round(rec, id, &mut net)
    } else {
        net.converge(MAX_ROUNDS)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    (
        net,
        Converged {
            wall_s,
            boot_ms,
            report,
        },
    )
}

/// Sums over the publications of one pass (or several).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct PubTotals {
    /// Publications issued.
    pub publications: u64,
    /// Online subscribers targeted.
    pub targeted: u64,
    /// Subscribers reached.
    pub delivered: u64,
    /// Hops over delivered paths.
    pub hops: u64,
    /// Relay nodes over delivered paths.
    pub relays: u64,
    /// Publications whose own report broke the per-publication oracle.
    pub failed_ops: u64,
    /// Summed fault telemetry.
    pub delivery: DeliveryTelemetry,
}

impl PubTotals {
    fn absorb(&mut self, o: &PubTotals) {
        self.publications += o.publications;
        self.targeted += o.targeted;
        self.delivered += o.delivered;
        self.hops += o.hops;
        self.relays += o.relays;
        self.failed_ops += o.failed_ops;
        self.delivery.absorb(&o.delivery);
    }

    fn digest(&self) -> u64 {
        let d = &self.delivery;
        [
            self.publications,
            self.targeted,
            self.delivered,
            self.hops,
            self.relays,
            d.drops_injected,
            d.crash_losses,
            d.retries,
            d.reroutes,
            d.residual_losses,
        ]
        .iter()
        .fold(0x5E1E, |acc, &v| fold(acc, v))
    }
}

/// One timed pass of `publish_at` over `publishers`. Latency is the call
/// alone; oracle work happens between timed calls. `faulty` relaxes
/// "everyone reached" to "nobody reached twice".
#[allow(clippy::too_many_arguments)]
pub fn publish_pass(
    rec: &mut Recorder,
    oracle: &mut Oracle,
    net: &SelectNetwork,
    publishers: &[u32],
    nonce0: u64,
    faulty: bool,
    check_paths: bool,
    lat_us: &mut Vec<f64>,
) -> (PubTotals, f64) {
    let mut tot = PubTotals::default();
    let mut busy_s = 0.0;
    let graph = net.graph();
    for (i, &b) in publishers.iter().enumerate() {
        let nonce = nonce0 + i as u64;
        let t0 = Instant::now();
        let rep = rec.scope("publish", nonce, |rec| {
            rec.scope("plan", nonce, |_| net.publish_at(b, nonce))
        });
        let dt = t0.elapsed().as_secs_f64();
        busy_s += dt;
        lat_us.push(dt * 1e6);
        tot.publications += 1;
        tot.targeted += rep.subscribers as u64;
        tot.delivered += rep.delivered as u64;
        tot.relays += rep.total_relays as u64;
        tot.hops += (rep.avg_hops * rep.delivered as f64).round() as u64;
        tot.delivery.absorb(&rep.delivery);
        let mut ok = rep.delivered + rep.tree.failed.len() == rep.subscribers
            && (faulty || rep.delivered == rep.subscribers);
        if check_paths {
            for path in rep.tree.paths() {
                let end = *path.last().unwrap_or(&b);
                ok &= path.first() == Some(&b)
                    && net.is_peer_online(end)
                    && graph.has_edge(UserId(b), UserId(end));
            }
        }
        if !ok {
            tot.failed_ops += 1;
            oracle.check(false, || {
                format!(
                    "publication {nonce} from {b}: delivered {}/{} or a path does not run publisher → online friend",
                    rep.delivered, rep.subscribers
                )
            });
        }
    }
    (tot, busy_s)
}

/// Transports the wire workloads drive: `Transport` plus the liveness probe
/// both runtimes implement as an inherent method.
pub trait Wire: Transport {
    /// One probe hop to `peer` and back.
    fn probe_peer(&mut self, peer: u32, nonce: u64) -> Option<bool>;
}

impl Wire for ThreadedNetwork {
    fn probe_peer(&mut self, peer: u32, nonce: u64) -> Option<bool> {
        self.probe(peer, nonce, ACK_TIMEOUT)
    }
}

impl Wire for SocketNetwork {
    fn probe_peer(&mut self, peer: u32, nonce: u64) -> Option<bool> {
        self.probe(peer, nonce, ACK_TIMEOUT)
    }
}

/// Spawns the transport `kind` (`"inproc"` or `"tcp"`) with `n` peers.
pub fn spawn_wire(kind: &str, n: usize) -> Box<dyn Wire> {
    match kind {
        "inproc" => Box::new(ThreadedNetwork::spawn(n)),
        _ => Box::new(SocketNetwork::spawn(n).expect("loopback listeners")),
    }
}

/// Sums of one wire pass.
#[derive(Default)]
pub struct WireTotals {
    /// Plan-side sums (`publish_at` reports).
    pub plan: PubTotals,
    /// Peers that received the payload, relays included.
    pub received: u64,
    /// Seconds inside `publish_at`.
    pub plan_s: f64,
    /// Seconds inside `publish_over`.
    pub over_s: f64,
    /// Order-independent digest of (publication, receiving peer) pairs.
    pub delivery_digest: u64,
}

/// One timed pass over a transport: `publish_at` → `publish_over`, latency
/// from the call to the last ack.
#[allow(clippy::too_many_arguments)]
pub fn wire_pass(
    rec: &mut Recorder,
    oracle: &mut Oracle,
    net: &SelectNetwork,
    wire: &mut dyn Wire,
    publishers: &[u32],
    payload: &Bytes,
    next_id: &mut u64,
    lat_us: &mut Vec<f64>,
) -> WireTotals {
    let mut tot = WireTotals::default();
    for (i, &b) in publishers.iter().enumerate() {
        let id = *next_id;
        *next_id += 1;
        let t0 = Instant::now();
        let (rep, res, plan_s) = rec.scope("publish", id, |rec| {
            let rep = rec.scope("plan", id, |_| net.publish_at(b, i as u64));
            let plan_s = t0.elapsed().as_secs_f64();
            let res = rec.scope("publish_over", id, |_| {
                publish_over(
                    &mut *wire,
                    &rep.tree,
                    payload.clone(),
                    ACK_TIMEOUT,
                    RETRY_MAX,
                    id,
                )
            });
            (rep, res, plan_s)
        });
        let dt = t0.elapsed().as_secs_f64();
        lat_us.push(dt * 1e6);
        tot.plan_s += plan_s;
        tot.over_s += dt - plan_s;

        // Oracle: the delivery set is exactly the non-publisher tree nodes.
        let mut expect: Vec<u32> = rep
            .tree
            .paths()
            .flat_map(|p| p.iter().copied())
            .filter(|&p| p != b)
            .collect();
        expect.sort_unstable();
        expect.dedup();
        let mut got: Vec<u32> = res.delivered_to.iter().copied().collect();
        got.sort_unstable();
        let reached = rep
            .tree
            .paths()
            .filter(|p| p.last().is_some_and(|s| res.delivered_to.contains(s)))
            .count();
        let ok = got == expect
            && res.bytes_received == payload.len() * got.len()
            && res.retries == 0
            && rep.delivered == rep.subscribers;
        tot.plan.publications += 1;
        tot.plan.targeted += rep.subscribers as u64;
        tot.plan.delivered += reached as u64;
        tot.plan.relays += rep.total_relays as u64;
        tot.plan.hops += (rep.avg_hops * rep.delivered as f64).round() as u64;
        tot.received += got.len() as u64;
        for &p in &got {
            tot.delivery_digest = tot
                .delivery_digest
                .wrapping_add(fold(fold(0xD16E, i as u64), p as u64));
        }
        if !ok {
            tot.plan.failed_ops += 1;
            oracle.check(false, || {
                format!(
                    "wire publication {id} from {b}: got {} peers, tree has {}; {} bytes, {} retries",
                    got.len(),
                    expect.len(),
                    res.bytes_received,
                    res.retries
                )
            });
        }
    }
    tot
}

/// Measurements of one churn episode.
#[derive(Default)]
pub struct Episode {
    /// Per step: `set_offline`s + `probe_round` + `gossip_round` + `set_online`s, ms.
    pub repair_ms: Vec<f64>,
    /// Per step: `probe_round`, ms.
    pub probe_ms: Vec<f64>,
    /// Per step: `gossip_round`, ms.
    pub gossip_ms: Vec<f64>,
    /// Per call: `set_offline`, µs.
    pub offline_us: Vec<f64>,
    /// Per call: `set_online`, µs.
    pub online_us: Vec<f64>,
    /// Publications of the episode.
    pub pubs: PubTotals,
    /// Seconds inside `publish_at`.
    pub busy_s: f64,
    /// Summed recovery counters.
    pub probes: u64,
    /// Links replaced by recovery.
    pub replaced: u64,
    /// Evicted links recovery could not re-establish.
    pub eviction_losses: u64,
    /// Peers that departed, over all steps.
    pub departures: u64,
}

impl Episode {
    fn digest(&self) -> u64 {
        [
            self.pubs.digest(),
            self.probes,
            self.replaced,
            self.eviction_losses,
            self.departures,
        ]
        .iter()
        .fold(0xC401, |acc, &v| fold(acc, v))
    }
}

/// One churn episode on `net`: per step {`inputs::churn_model()` departures
/// → `set_offline` each → `probe_round` → `gossip_round` → `pubs_per_step`
/// scheduled `publish_at` from online publishers → `set_online` each}. The
/// overlay is back to everyone-online when it returns.
#[allow(clippy::too_many_arguments)]
pub fn churn_episode(
    rec: &mut Recorder,
    oracle: &mut Oracle,
    net: &mut SelectNetwork,
    publishers: &[u32],
    steps: usize,
    pubs_per_step: usize,
    seed: u64,
    faulty: bool,
    lat_us: &mut Vec<f64>,
) -> Episode {
    let mut ep = Episode::default();
    let mut rng = StdRng::seed_from_u64(derive(seed, Stream::Churn));
    let model = inputs::churn_model();
    let n = net.len();
    let everyone: Vec<u32> = (0..n as u32).collect();
    let mut cursor = 0usize;
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for step in 0..steps as u64 {
        rec.scope("step", step, |rec| {
            let departing = model.sample_departing_peers(&mut rng, &everyone, n);
            ep.departures += departing.len() as u64;
            let t_step = Instant::now();
            rec.scope("set_offline", step, |_| {
                for &p in &departing {
                    net.set_offline(p);
                }
            });
            if !departing.is_empty() {
                ep.offline_us
                    .push(ms(t_step) * 1e3 / departing.len() as f64);
            }
            let t = Instant::now();
            let recov: RecoveryReport = rec.scope("probe_round", step, |_| net.probe_round());
            ep.probe_ms.push(ms(t));
            let t = Instant::now();
            rec.scope("gossip_round", step, |_| net.gossip_round());
            ep.gossip_ms.push(ms(t));
            let mut repair = ms(t_step);
            ep.probes += recov.probes as u64;
            ep.replaced += recov.replaced as u64;
            ep.eviction_losses += recov.eviction_losses as u64;

            // The next scheduled publishers that are online right now.
            let mut batch = Vec::with_capacity(pubs_per_step);
            let mut skipped = 0usize;
            while batch.len() < pubs_per_step && skipped <= publishers.len() {
                let b = publishers[cursor % publishers.len()];
                cursor += 1;
                if net.is_peer_online(b) {
                    batch.push(b);
                } else {
                    skipped += 1;
                }
            }
            let (tot, busy) = publish_pass(
                rec,
                oracle,
                net,
                &batch,
                step * 1_000_000,
                faulty,
                step == 0,
                lat_us,
            );
            ep.pubs.absorb(&tot);
            ep.busy_s += busy;

            let t = Instant::now();
            rec.scope("set_online", step, |_| {
                for &p in &departing {
                    net.set_online(p);
                }
            });
            if !departing.is_empty() {
                ep.online_us.push(ms(t) * 1e3 / departing.len() as f64);
            }
            repair += ms(t);
            ep.repair_ms.push(repair);
        });
    }
    oracle.check(net.online_count() == n, || {
        format!(
            "{} of {n} peers online after the episode",
            net.online_count()
        )
    });
    ep
}

/// Which of the six workloads a run is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `converge_sparse`, `converge_dense`.
    Converge,
    /// `publish_sim`.
    Publish,
    /// `publish_inproc` / `publish_tcp`, with the transport's prefix.
    Wire(&'static str),
    /// `churn_faults`.
    Churn,
}

/// Per-workload state one set-up builds.
struct Instance {
    /// One graph and schedule; one per overlay of the cycle on `converge_*`.
    graphs: Vec<Arc<SocialGraph>>,
    schedules: Vec<Vec<u32>>,
    /// Converged overlay and its convergence (all but `converge_*`).
    net: Option<SelectNetwork>,
    converged: Option<Converged>,
    wire: Option<Box<dyn Wire>>,
    generate_ms: f64,
    spawn_ms: f64,
}

/// Running sums of the measured phase.
#[derive(Default)]
struct Measured {
    converges: Vec<Converged>,
    /// Mean pass wall of each whole overlay cycle.
    cycle_converge_s: Vec<f64>,
    pass_rates: Vec<f64>,
    /// Nearest-rank percentiles of each untraced pass's latencies. The run
    /// reports their median over passes, so that one scheduler stall moves
    /// one pass's tail and not the run's.
    pass_p50_us: Vec<f64>,
    pass_p99_us: Vec<f64>,
    latency_samples: u64,
    /// Exact sums of the first pass / cycle / episode.
    first: PubTotals,
    repair_ms: Vec<f64>,
    passes: u64,
    failed_ops: u64,
    publications: u64,
    digest: u64,
    delivery_digest: u64,
    /// Per-pass seconds of comparable plain and traced work, for
    /// `trace.overhead_pct`.
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
}

impl Measured {
    /// Books one pass: traced passes only feed `trace.overhead_pct`.
    fn note_pass(&mut self, traced: bool, publications: u64, busy_s: f64, lat_us: Vec<f64>) {
        if traced {
            self.traced_s.push(busy_s);
            return;
        }
        self.plain_s.push(busy_s);
        self.pass_rates.push(publications as f64 / busy_s.max(1e-9));
        self.note_latencies(lat_us);
    }

    fn note_latencies(&mut self, lat_us: Vec<f64>) {
        let lat = sorted(lat_us);
        self.pass_p50_us.push(percentile(&lat, 50.0));
        self.pass_p99_us.push(percentile(&lat, 99.0));
        self.latency_samples += lat.len() as u64;
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// State of one run, shared by its phases.
struct Harness<'a> {
    args: &'a RunArgs,
    kind: Kind,
    sizes: Sizes,
    threads: usize,
    rec: Recorder,
    oracle: Oracle,
    layers: BTreeMap<&'static str, f64>,
    m: Measured,
    /// Start of the measured phase.
    started: Instant,
}

impl Harness<'_> {
    fn faulty(&self) -> bool {
        self.kind == Kind::Churn
    }

    /// In the traced run plain and traced passes alternate, plain first.
    fn traced_pass(&self, pass: u64) -> bool {
        self.args.trace && pass % 2 == 1
    }

    /// Whole passes until the budget is spent, at least `min_passes` (of
    /// each kind on the traced run).
    fn enough(&self) -> bool {
        let whole = if self.args.trace { 2 } else { 1 } * self.sizes.min_passes as u64;
        self.m.passes >= whole && self.started.elapsed().as_secs_f64() >= self.args.seconds
    }

    /// Set-up `i` of `setups`: everything before the first timed operation.
    fn set_up(&mut self, i: u64, setups: u64) -> (Instance, f64) {
        let (sizes, seed, threads, kind) = (self.sizes, self.args.seed, self.threads, self.kind);
        let faulty = self.faulty();
        self.rec.set_enabled(self.args.trace);
        let t0 = Instant::now();
        let inst = self.rec.scope("setup", i, |rec| {
            let copies = if kind == Kind::Converge {
                sizes.overlays
            } else {
                1
            };
            let graphs: Vec<Arc<SocialGraph>> = rec.scope("generate", i, |_| {
                (0..copies as u64)
                    .map(|j| inputs::graph(&sizes, seed, j))
                    .collect()
            });
            let generate_ms = t0.elapsed().as_secs_f64() * 1e3 / copies as f64;
            let schedules: Vec<Vec<u32>> = graphs
                .iter()
                .zip(0u64..)
                .map(|(g, j)| inputs::schedule(g, sizes.pubs_per_pass / copies, seed, j))
                .collect();
            let (mut net, mut converged, mut wire, mut spawn_ms) = (None, None, None, 0.0);
            if kind != Kind::Converge {
                // The set-up that is kept always builds overlay 0, however
                // many set-ups a workload makes.
                let cfg = inputs::config(seed, setups - 1 - i, threads, faulty);
                let (mut overlay, c) = converge_overlay(rec, i, &graphs[0], cfg);
                if faulty {
                    for _ in 0..5 {
                        rec.scope("warmup_probe_round", i, |_| overlay.probe_round());
                    }
                }
                net = Some(overlay);
                converged = Some(c);
                if let Kind::Wire(prefix) = kind {
                    let t = Instant::now();
                    wire = Some(rec.scope("spawn", i, |_| spawn_wire(prefix, sizes.n)));
                    spawn_ms = t.elapsed().as_secs_f64() * 1e3;
                }
            }
            Instance {
                graphs,
                schedules,
                net,
                converged,
                wire,
                generate_ms,
                spawn_ms,
            }
        });
        let setup_s = t0.elapsed().as_secs_f64();
        self.rec.set_enabled(false);
        (inst, setup_s)
    }

    /// `converge_*`: one pass = bootstrap + converge on a shared graph; a
    /// cycle runs the `overlays` (graph, bootstrap seed) pairs once. Each
    /// converged overlay then takes its share of the publications, timed on
    /// their own and not part of `converge_s`. Returns the last overlay.
    fn measure_converge(&mut self, inst: &Instance) -> SelectNetwork {
        let (seed, threads, overlays) = (self.args.seed, self.threads, self.sizes.overlays);
        let mut last = None;
        while !self.enough() {
            let cycle = self.m.passes;
            let traced = self.traced_pass(cycle);
            let mut walls = Vec::with_capacity(overlays);
            let (mut cycle_pubs, mut cycle_busy) = (PubTotals::default(), 0.0);
            for j in 0..overlays {
                let id = cycle * overlays as u64 + j as u64;
                self.rec.set_enabled(traced);
                let (mut net, c) = self.rec.scope("pass", id, |rec| {
                    let cfg = inputs::config(seed, j as u64, threads, false);
                    converge_overlay(rec, id, &inst.graphs[j], cfg)
                });
                self.rec.set_enabled(false);
                walls.push(c.wall_s);
                let quiet = net.gossip_round_telemetry().is_quiescent();
                self.oracle.check(c.report.converged && quiet, || {
                    format!(
                        "overlay {j}: converged={} after {} rounds, next round quiescent={quiet}",
                        c.report.converged, c.report.rounds
                    )
                });
                if !(c.report.converged && quiet) {
                    self.m.failed_ops += 1;
                }
                if let Some(first) = self.m.converges.get(j) {
                    self.oracle.check(first.report == c.report, || {
                        format!("overlay {j}: convergence report differs between cycles")
                    });
                }
                let mut lat = Vec::new();
                let (tot, busy) = publish_pass(
                    &mut self.rec,
                    &mut self.oracle,
                    &net,
                    &inst.schedules[j],
                    j as u64 * 1_000_000,
                    false,
                    cycle == 0,
                    &mut lat,
                );
                self.m.note_latencies(lat);
                cycle_pubs.absorb(&tot);
                cycle_busy += busy;
                if cycle == 0 {
                    self.m.digest = fold(self.m.digest, c.report.rounds as u64);
                }
                self.m.converges.push(c);
                last = Some(net);
            }
            self.m
                .pass_rates
                .push(cycle_pubs.publications as f64 / cycle_busy.max(1e-9));
            self.m.publications += cycle_pubs.publications;
            if cycle == 0 {
                self.m.digest = fold(self.m.digest, cycle_pubs.digest());
                self.m.first = cycle_pubs;
            }
            if traced {
                self.m.traced_s.push(walls.iter().sum());
            } else {
                self.m.plain_s.push(walls.iter().sum());
                self.m.cycle_converge_s.push(mean(&walls));
            }
            self.m.passes += 1;
        }
        last.expect("at least one cycle ran")
    }

    /// `publish_sim`: whole passes of `publish_at` over the schedule.
    fn measure_publish(&mut self, net: &SelectNetwork, publishers: &[u32]) {
        while !self.enough() {
            let traced = self.traced_pass(self.m.passes);
            self.rec.set_enabled(traced);
            let mut lat = Vec::new();
            let (tot, busy) = publish_pass(
                &mut self.rec,
                &mut self.oracle,
                net,
                publishers,
                0,
                false,
                self.m.passes == 0,
                &mut lat,
            );
            self.rec.set_enabled(false);
            self.m.note_pass(traced, tot.publications, busy, lat);
            if self.m.passes == 0 {
                self.m.digest = tot.digest();
                self.m.first = tot.clone();
            } else {
                let pass = self.m.passes;
                self.oracle.check(tot.digest() == self.m.digest, || {
                    format!("pass {pass}: counts differ from pass 0")
                });
            }
            self.m.failed_ops += tot.failed_ops;
            self.m.publications += tot.publications;
            self.m.passes += 1;
        }
    }

    /// `publish_inproc` / `publish_tcp`: whole passes of `publish_at` →
    /// `publish_over`; the transport's own counters become its layer metrics.
    fn measure_wire(
        &mut self,
        prefix: &str,
        wire: &mut dyn Wire,
        net: &SelectNetwork,
        publishers: &[u32],
        payload: &Bytes,
    ) {
        let before = wire.stats().snapshot();
        let (mut over_s, mut next_id) = (0.0, 1u64);
        while !self.enough() {
            let traced = self.traced_pass(self.m.passes);
            self.rec.set_enabled(traced);
            let mut lat = Vec::new();
            let tot = wire_pass(
                &mut self.rec,
                &mut self.oracle,
                net,
                wire,
                publishers,
                payload,
                &mut next_id,
                &mut lat,
            );
            self.rec.set_enabled(false);
            let busy = lat.iter().sum::<f64>() / 1e6;
            self.m.note_pass(traced, tot.plan.publications, busy, lat);
            over_s += tot.over_s;
            if self.m.passes == 0 {
                self.m.first = tot.plan.clone();
                self.m.delivery_digest = tot.delivery_digest;
                self.m.digest = fold(tot.plan.digest(), tot.delivery_digest);
            } else {
                let pass = self.m.passes;
                self.oracle
                    .check(tot.delivery_digest == self.m.delivery_digest, || {
                        format!("pass {pass}: delivery sets differ from pass 0")
                    });
            }
            self.m.failed_ops += tot.plan.failed_ops;
            self.m.publications += tot.plan.publications;
            self.m.passes += 1;
        }
        let after = wire.stats().snapshot();
        let frames = (after.total_frames_tx() - before.total_frames_tx()) as f64;
        let pubs = self.m.publications as f64;
        probes::wire_counters(&mut self.layers, prefix, &before, &after, pubs);
        probes::put(
            &mut self.layers,
            prefix,
            "us_per_frame",
            over_s * 1e6 / frames.max(1.0),
        );
        probes::put(
            &mut self.layers,
            prefix,
            "deliver_per_s",
            (self.m.first.delivered * self.m.passes) as f64 / over_s.max(1e-9),
        );
        self.oracle.check(after.retransmissions == 0, || {
            format!(
                "{} retransmissions on a fault-free wire",
                after.retransmissions
            )
        });
    }

    /// `churn_faults`: whole episodes. Every episode starts from a copy of
    /// the overlay the set-up left and draws the same departures, so
    /// episodes are identical work.
    fn measure_churn(&mut self, base: &SelectNetwork, publishers: &[u32]) {
        while !self.enough() {
            let pass = self.m.passes;
            let traced = self.traced_pass(pass);
            let mut net = base.clone();
            self.rec.set_enabled(traced);
            let mut lat = Vec::new();
            let (sizes, seed, oracle) = (self.sizes, self.args.seed, &mut self.oracle);
            let ep = self.rec.scope("episode", pass, |rec| {
                churn_episode(
                    rec,
                    oracle,
                    &mut net,
                    publishers,
                    sizes.churn_steps,
                    sizes.pubs_per_step,
                    seed,
                    true,
                    &mut lat,
                )
            });
            self.rec.set_enabled(false);
            let work_s = ep.busy_s + ep.repair_ms.iter().sum::<f64>() / 1e3;
            if traced {
                self.m.traced_s.push(work_s);
            } else {
                self.m.plain_s.push(work_s);
                self.m
                    .pass_rates
                    .push(ep.pubs.publications as f64 / ep.busy_s.max(1e-9));
                self.m.note_latencies(lat);
                self.m.repair_ms.extend_from_slice(&ep.repair_ms);
            }
            if pass == 0 {
                self.m.first = ep.pubs.clone();
                self.m.digest = ep.digest();
                probes::recovery_layers(&mut self.layers, &ep);
            } else {
                self.oracle.check(ep.digest() == self.m.digest, || {
                    format!("episode {pass}: counts differ from episode 0")
                });
            }
            self.m.failed_ops += ep.pubs.failed_ops;
            self.m.publications += ep.pubs.publications;
            self.m.passes += 1;
        }
    }

    /// Side measurement of the fault-free workloads: `repair_ms_p50` from a
    /// short churn episode on a copy of the overlay.
    fn repair_side_probe(&mut self, net: &SelectNetwork, publishers: &[u32]) {
        self.rec.set_enabled(self.args.trace);
        let mut churned = net.clone();
        let (steps, seed, oracle) = (self.sizes.churn_steps, self.args.seed, &mut self.oracle);
        let ep = self.rec.scope("repair_probe", 0, |rec| {
            churn_episode(
                rec,
                oracle,
                &mut churned,
                publishers,
                steps,
                0,
                seed,
                false,
                &mut Vec::new(),
            )
        });
        self.rec.set_enabled(false);
        self.m.digest = fold(self.m.digest, ep.digest());
        probes::recovery_layers(&mut self.layers, &ep);
        self.m.repair_ms = ep.repair_ms;
    }

    /// The end-to-end metrics (all but `peak_rss_mb`, read last) from the
    /// run's set-ups, its convergences and its measured passes.
    fn end_to_end(&self, setup_s: &[f64], converges: &[Converged]) -> BTreeMap<&'static str, f64> {
        let round_ms = sorted(
            converges
                .iter()
                .flat_map(|c| c.report.telemetry.rounds.iter())
                .map(|r| r.wall_nanos as f64 / 1e6)
                .collect(),
        );
        // `rounds` and `converge_s` average over the run's distinct
        // overlays: one cycle on `converge_*`, the set-ups elsewhere.
        let distinct = if self.kind == Kind::Converge {
            self.sizes.overlays.min(converges.len())
        } else {
            converges.len()
        };
        let rounds: Vec<f64> = converges[..distinct]
            .iter()
            .map(|c| c.report.rounds as f64)
            .collect();
        let converge_s = if self.kind == Kind::Converge {
            median(&self.m.cycle_converge_s)
        } else {
            mean(&converges.iter().map(|c| c.wall_s).collect::<Vec<_>>())
        };
        let first = &self.m.first;
        let per_delivered = |sum: u64| sum as f64 / first.delivered.max(1) as f64;
        BTreeMap::from([
            ("setup_s", median(setup_s)),
            ("converge_s", converge_s),
            ("round_ms_p50", percentile(&round_ms, 50.0)),
            ("rounds", mean(&rounds)),
            ("pub_per_s", median(&self.m.pass_rates)),
            ("pub_p50_us", median(&self.m.pass_p50_us)),
            ("pub_p99_us", median(&self.m.pass_p99_us)),
            (
                "delivery_ratio",
                first.delivered as f64 / first.targeted.max(1) as f64,
            ),
            ("hops_mean", per_delivered(first.hops)),
            ("relays_mean", per_delivered(first.relays)),
            ("repair_ms_p50", median(&self.m.repair_ms)),
        ])
    }
}

/// Runs one workload once.
pub fn run(args: &RunArgs) -> Outcome {
    let w = args.workload.as_str();
    let kind = match w {
        "converge_sparse" | "converge_dense" => Kind::Converge,
        "publish_inproc" => Kind::Wire("inproc"),
        "publish_tcp" => Kind::Wire("tcp"),
        "churn_faults" => Kind::Churn,
        _ => Kind::Publish,
    };
    let sizes = if args.smoke {
        Sizes::smoke(w)
    } else {
        Sizes::reference(w)
    };
    let mut h = Harness {
        args,
        kind,
        sizes,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rec: Recorder::new(),
        oracle: Oracle::default(),
        layers: BTreeMap::new(),
        m: Measured::default(),
        started: Instant::now(),
    };
    let payload = Bytes::from(vec![0x5Eu8; PAYLOAD_BYTES]);

    // Set-up, several times over so `setup_s` is a median; the last one is
    // kept. The traced run sets up once and records it.
    let setups = if args.trace { 1 } else { sizes.setups as u64 };
    let mut setup_s = Vec::new();
    let mut setup_converges = Vec::new();
    let mut inst = None;
    for i in 0..setups {
        drop(inst.take());
        let (mut built, wall_s) = h.set_up(i, setups);
        setup_s.push(wall_s);
        setup_converges.extend(built.converged.take());
        inst = Some(built);
    }
    let mut inst = inst.expect("at least one set-up");
    if !args.trace {
        for j in 0..sizes.extra_converges as u64 {
            let cfg = inputs::config(args.seed, setups + j, h.threads, false);
            setup_converges.push(converge_overlay(&mut h.rec, j, &inst.graphs[0], cfg).1);
        }
    }
    // The graph and schedule under the overlay the run ends with.
    let graph = inst.graphs.last().expect("a graph").clone();
    let publishers = inst.schedules.last().expect("a schedule").clone();
    let edges = graph.num_directed_edges() as f64;
    h.layers.insert("graph.generate_ms", inst.generate_ms);
    h.layers.insert(
        "graph.edges_per_s",
        edges / (inst.generate_ms / 1e3).max(1e-9),
    );
    if let Kind::Wire(prefix) = kind {
        probes::put(&mut h.layers, prefix, "spawn_ms", inst.spawn_ms);
    }

    // Measured phase, then the overlay the side probes work on.
    h.started = Instant::now();
    let net = match kind {
        Kind::Converge => h.measure_converge(&inst),
        _ => {
            let net = inst.net.take().expect("set-up converged an overlay");
            match kind {
                Kind::Wire(prefix) => {
                    let wire = inst.wire.as_mut().expect("set-up spawned a transport");
                    h.measure_wire(prefix, wire.as_mut(), &net, &publishers, &payload);
                }
                Kind::Churn => h.measure_churn(&net, &publishers),
                _ => h.measure_publish(&net, &publishers),
            }
            net
        }
    };
    let measured_s = h.started.elapsed().as_secs_f64();
    if kind != Kind::Churn {
        h.repair_side_probe(&net, &publishers);
    }

    let converges: &[Converged] = if kind == Kind::Converge {
        &h.m.converges
    } else {
        &setup_converges
    };
    for c in converges {
        h.oracle.check(c.report.converged, || {
            format!("did not converge in {} rounds", c.report.rounds)
        });
    }
    let mut end_to_end = h.end_to_end(&setup_s, converges);
    let rounds_executed: usize = converges.iter().map(|c| c.report.rounds).sum();
    let mut samples = vec![
        ("passes", h.m.passes),
        ("publications", h.m.publications),
        ("latency_samples", h.m.latency_samples),
        ("rounds_executed", rounds_executed as u64),
        ("converges", converges.len() as u64),
        ("repair_steps", h.m.repair_ms.len() as u64),
        ("setups", setups),
    ];
    let link = match kind {
        Kind::Wire("tcp") => "loopback, not a real link",
        _ => "none (in-process)",
    };
    let params = vec![
        ("dataset", sizes.dataset.name().to_string()),
        ("n", sizes.n.to_string()),
        ("directed_edges", graph.num_directed_edges().to_string()),
        ("pubs_per_pass", sizes.pubs_per_pass.to_string()),
        ("overlays", sizes.overlays.to_string()),
        ("churn_steps", sizes.churn_steps.to_string()),
        ("pubs_per_step", sizes.pubs_per_step.to_string()),
        ("payload_bytes", PAYLOAD_BYTES.to_string()),
        ("link", link.to_string()),
        (
            "load_model",
            "closed loop, 1 client, 1 driver thread".to_string(),
        ),
    ];

    // Traced run: the per-layer metrics.
    if args.trace {
        if let Some(c) = converges.first() {
            probes::gossip_layers(&mut h.layers, c, edges);
        }
        h.layers.insert(
            "network.bootstrap_ms",
            median(&converges.iter().map(|c| c.boot_ms).collect::<Vec<_>>()),
        );
        h.layers.insert(
            "trace.overhead_pct",
            (median(&h.m.traced_s) / median(&h.m.plain_s).max(1e-12) - 1.0) * 100.0,
        );
        if kind == Kind::Churn {
            let d = &h.m.first.delivery;
            h.layers.insert("fault.drops", d.drops_injected as f64);
            h.layers.insert("fault.crash_losses", d.crash_losses as f64);
            h.layers.insert("fault.retries", d.retries as f64);
            h.layers.insert("fault.reroutes", d.reroutes as f64);
            h.layers
                .insert("fault.residual_losses", d.residual_losses as f64);
        }
        let mut ctx = probes::ProbeCtx {
            rec: &mut h.rec,
            oracle: &mut h.oracle,
            layers: &mut h.layers,
            graph: &graph,
            net: &net,
            publishers: &publishers,
            sizes: &sizes,
            seed: args.seed,
            threads: h.threads,
            faulty: kind == Kind::Churn,
            first: h.m.first.clone(),
        };
        probes::run_all(&mut ctx);
        if let Kind::Wire(prefix) = kind {
            probes::wire_layers(&mut ctx, &payload, prefix);
        }
        samples.push(("spans", h.rec.spans().len() as u64));
    }
    if let (Kind::Wire(prefix), Some(mut wire)) = (kind, inst.wire.take()) {
        let t = Instant::now();
        wire.shutdown();
        let shutdown_ms = t.elapsed().as_secs_f64() * 1e3;
        probes::put(&mut h.layers, prefix, "shutdown_ms", shutdown_ms);
    }
    end_to_end.insert("peak_rss_mb", peak_rss_mb());

    Outcome {
        violations: h.oracle.violations,
        attempted: if kind == Kind::Converge {
            h.m.converges.len() as u64
        } else {
            h.m.publications
        },
        failed: h.m.failed_ops,
        end_to_end,
        per_layer: h.layers,
        samples,
        params,
        digest: h.m.digest,
        delivery_digest: h.m.delivery_digest,
        recorder: h.rec,
        measured_s,
        threads: h.threads,
    }
}
