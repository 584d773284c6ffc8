//! `select` — command-line front end for the SELECT reproduction.
//!
//! ```text
//! select demo    [--dataset NAME] [--nodes N] [--seed S]   converge + publish
//! select compare [--dataset NAME] [--nodes N] [--seed S]   all five systems
//! select churn   [--dataset NAME] [--nodes N] [--steps T]  availability storm
//! select stats   [--dataset NAME] [--nodes N]              overlay statistics
//! ```
//!
//! All commands accept `--threads N` (round-loop workers; `0` = available
//! parallelism — results are bit-identical for every value). Commands that
//! converge print the per-round telemetry the run recorded.
//!
//! Fault injection (demo and churn): `--drop-prob P` drops each transmission
//! with probability P, `--crash-prob P` fails relays mid-publication,
//! `--delay-ms MS` adds up-to-MS delivery jitter, `--fault-seed S` seeds the
//! plan (defaults to `--seed`), and `--retries N` bounds the ack-driven
//! retransmission waves (default 3; 0 = fire-and-forget). All decisions are
//! deterministic in the seed, so a faulty run replays bit-identically.
//!
//! Transport replay (demo): `--transport inproc|tcp` additionally replays
//! each demo publication's routing tree over a real message-passing
//! transport — peers speaking the binary wire format over crossbeam
//! channels (`inproc`, many peers per worker thread) or loopback TCP sockets
//! (`tcp`, one thread per peer; see DESIGN.md §12) — with the same fault plan applied at the transport
//! boundary, and reports delivered counts and wall latency per publication.
//!
//! Observability (demo and churn): `--metrics-out FILE` writes the publish
//! histograms (hops, stretch, retries, relay load, latency) after the run —
//! Prometheus text format if FILE ends in `.prom`, JSON otherwise. When a
//! transport replay ran, its wire telemetry (per-tag frame/byte counters,
//! retransmissions, reconnects, garbage frames) is merged into the same
//! snapshot as `select_wire_*` gauges.
//! `--trace-failed` keeps a flight recorder on every publication and dumps
//! the hop-by-hop journeys of failed deliveries to stderr.
//!
//! Wire tracing (demo): `--trace-out FILE` (requires `--transport`) stamps
//! a trace context into every replayed publish frame, drains the span
//! buffers peers recorded, and writes the assembled cross-peer trace trees
//! — canonical form, per-hop and critical-path latency, and the replayed
//! hop-by-hop journeys — to FILE. Try:
//! `select demo --transport tcp --trace-out traces.txt`.
//!
//! For regenerating the paper's tables and figures use the `repro` binary in
//! `osn-bench`; this CLI is the quick interactive front end.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use select::baselines::{build_system, SystemKind};
use select::core::{ConvergenceTelemetry, SelectConfig, SelectNetwork};
use select::graph::prelude::*;
use select::net::{publish_over, SocketNetwork, StatsSnapshot, ThreadedNetwork, Transport};
use select::obs::{FlightRecorder, MetricsSnapshot, Observer, TraceAssembler};
use select::sim::{ChurnModel, FaultPlan, Mean};
use std::fmt::Write as _;

/// Which real transport `--transport` replays demo publications over.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TransportKind {
    /// Crossbeam channels between peer threads (the reference transport).
    Inproc,
    /// Loopback TCP sockets framing the binary wire format.
    Tcp,
}

struct Opts {
    dataset: datasets::Dataset,
    nodes: usize,
    seed: u64,
    steps: usize,
    threads: usize,
    drop_prob: f64,
    crash_prob: f64,
    delay_ms: f64,
    fault_seed: Option<u64>,
    retries: usize,
    metrics_out: Option<String>,
    trace_failed: bool,
    trace_out: Option<String>,
    transport: Option<TransportKind>,
}

impl Opts {
    fn fault_plan(&self) -> FaultPlan {
        FaultPlan::seeded(self.fault_seed.unwrap_or(self.seed))
            .with_drop_prob(self.drop_prob)
            .with_crash_prob(self.crash_prob)
            .with_max_delay_ms(self.delay_ms)
    }

    /// Builds the publish observer when `--metrics-out` or `--trace-failed`
    /// asked for one; `None` keeps the publish path un-instrumented.
    fn observer(&self, n: usize) -> Option<Observer> {
        if self.metrics_out.is_none() && !self.trace_failed {
            return None;
        }
        let o = Observer::for_peers(n);
        Some(if self.trace_failed {
            o.with_tracing(64)
        } else {
            o
        })
    }
}

/// Writes `--metrics-out` (Prometheus text for `.prom`, JSON otherwise) and
/// dumps failed journeys to stderr when tracing was on. `wire` carries the
/// transport replay's telemetry, merged in as `select_wire_*` gauges.
fn flush_observer(
    opts: &Opts,
    obs: &Observer,
    conv: &ConvergenceTelemetry,
    bootstrap_ms: f64,
    wire: Option<(&str, StatsSnapshot)>,
) {
    if let Some(fr) = &obs.flight {
        let mut dump = String::new();
        let failed = fr.dump_failed(16, &mut dump);
        if failed > 0 {
            eprint!("[select] {failed} failed journey(s):\n{dump}");
        } else {
            eprintln!(
                "[select] no failed deliveries among the last {} traced journeys",
                fr.recorded().min(fr.capacity() as u64)
            );
        }
    }
    let Some(path) = &opts.metrics_out else {
        return;
    };
    let m = &obs.metrics;
    let mut snap = MetricsSnapshot::new()
        .with_histogram("select_publish_hops", m.hops.clone())
        .with_histogram("select_publish_stretch", m.stretch.clone())
        .with_histogram("select_publish_retries", m.retries.clone())
        .with_histogram("select_publish_latency_virtual_ms", m.latency_ms.clone())
        .with_histogram("select_relay_load", m.relay_load_histogram());
    // Where the bootstrap and the convergence run's time went. Wall-clock,
    // so these are the only gauges that differ between two runs of the
    // same seed.
    snap = snap.with_gauge("select_bootstrap_ms", bootstrap_ms);
    for (phase, nanos) in conv.phase_nanos() {
        snap = snap.with_gauge(
            &format!("select_gossip_phase_{phase}_ms"),
            nanos as f64 / 1e6,
        );
    }
    if let Some((transport, stats)) = wire {
        snap = stats.merge_into(snap, transport);
    }
    let rendered = if path.ends_with(".prom") {
        snap.to_prometheus()
    } else {
        snap.to_json()
    };
    match std::fs::write(path, rendered) {
        Ok(()) => eprintln!("[select] metrics written to {path}"),
        Err(e) => eprintln!("[select] cannot write {path}: {e}"),
    }
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut cmd = None;
    let mut opts = Opts {
        dataset: datasets::Dataset::Facebook,
        nodes: 600,
        seed: 42,
        steps: 20,
        threads: 0,
        drop_prob: 0.0,
        crash_prob: 0.0,
        delay_ms: 0.0,
        fault_seed: None,
        retries: 3,
        metrics_out: None,
        trace_failed: false,
        trace_out: None,
        transport: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dataset" => {
                let name = it.next().ok_or("--dataset needs a value")?;
                opts.dataset = match name.to_ascii_lowercase().as_str() {
                    "facebook" => datasets::Dataset::Facebook,
                    "twitter" => datasets::Dataset::Twitter,
                    "slashdot" => datasets::Dataset::Slashdot,
                    "gplus" | "googleplus" => datasets::Dataset::GooglePlus,
                    other => return Err(format!("unknown dataset '{other}'")),
                };
            }
            "--nodes" => {
                opts.nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--nodes needs a number")?;
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--steps" => {
                opts.steps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--steps needs a number")?;
            }
            "--threads" => {
                opts.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--drop-prob" => {
                opts.drop_prob = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or("--drop-prob needs a probability in [0, 1]")?;
            }
            "--crash-prob" => {
                opts.crash_prob = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or("--crash-prob needs a probability in [0, 1]")?;
            }
            "--delay-ms" => {
                opts.delay_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|d: &f64| *d >= 0.0)
                    .ok_or("--delay-ms needs a non-negative number")?;
            }
            "--fault-seed" => {
                opts.fault_seed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--fault-seed needs a number")?,
                );
            }
            "--retries" => {
                opts.retries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--retries needs a number")?;
            }
            "--metrics-out" => {
                opts.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?.clone());
            }
            "--trace-failed" => {
                opts.trace_failed = true;
            }
            "--trace-out" => {
                opts.trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            "--transport" => {
                let name = it.next().ok_or("--transport needs 'inproc' or 'tcp'")?;
                opts.transport = Some(match name.to_ascii_lowercase().as_str() {
                    "inproc" => TransportKind::Inproc,
                    "tcp" => TransportKind::Tcp,
                    other => return Err(format!("unknown transport '{other}'")),
                });
            }
            other if cmd.is_none() && !other.starts_with("--") => {
                cmd = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if opts.trace_out.is_some() && opts.transport.is_none() {
        return Err("--trace-out traces the wire replay; pass --transport inproc|tcp too".into());
    }
    Ok((cmd.unwrap_or_else(|| "demo".into()), opts))
}

/// Bootstraps and converges the overlay; the last field is the bootstrap's
/// wall time in ms (the strength ranking dominates it), which no per-round
/// line covers.
fn converged(opts: &Opts) -> (SocialGraph, SelectNetwork, ConvergenceTelemetry, f64) {
    let graph = opts.dataset.generate_with_nodes(opts.nodes, opts.seed);
    eprintln!(
        "[select] {} preset: {} users, avg degree {:.1}",
        opts.dataset.name(),
        graph.num_nodes(),
        metrics::average_degree(&graph)
    );
    let plan = opts.fault_plan();
    if plan.is_active() {
        eprintln!(
            "[select] fault plan: drop {:.1}%, crash {:.1}%, delay ≤{:.0} ms, retries {}",
            opts.drop_prob * 100.0,
            opts.crash_prob * 100.0,
            opts.delay_ms,
            opts.retries
        );
    }
    let t0 = std::time::Instant::now();
    let mut net = SelectNetwork::bootstrap(
        graph.clone(),
        SelectConfig::default()
            .with_seed(opts.seed)
            .with_threads(opts.threads)
            .with_fault_plan(plan)
            .with_retry_max(opts.retries),
    );
    let bootstrap_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("[select] bootstrap {bootstrap_ms:.2} ms");
    let conv = net.converge(300);
    eprintln!(
        "[select] {} in {} rounds: {}",
        if conv.converged {
            "converged"
        } else {
            "round cap hit"
        },
        conv.rounds,
        conv.telemetry.summary()
    );
    // Per-round telemetry: every round until quiescence, one line each,
    // ending in how many peers re-ran Algorithm 5 (the rest reused their
    // cached proposal) and the round's phase split (wall segments, then the
    // per-shard CPU sums inside the link compute half).
    for r in &conv.telemetry.rounds {
        let phases: Vec<String> = r
            .phase_nanos()
            .iter()
            .map(|(phase, nanos)| format!("{phase} {:.2} ms", *nanos as f64 / 1e6))
            .collect();
        eprintln!(
            "[select]   round {:3}: {:4} msgs, {:3} id moves ({:.4} ring), \
             {:4} link changes, bucket hit rate {:5.1}%, {:.2} ms, \
             {:4} links_recomputed [wall: {}; cpu: {}]",
            r.round,
            r.messages,
            r.id_moves,
            r.id_movement,
            r.link_changes,
            r.bucket_hit_rate() * 100.0,
            r.wall_nanos as f64 / 1e6,
            r.links_recomputed,
            phases[..4].join(", "),
            phases[4..].join(", ")
        );
    }
    (graph, net, conv.telemetry, bootstrap_ms)
}

fn cmd_demo(opts: &Opts) {
    let (graph, net, conv, bootstrap_ms) = converged(opts);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let fault_mode = opts.fault_plan().is_active();
    let mut observer = opts.observer(graph.num_nodes());
    let mut trees = Vec::new();
    for nonce in 1..=5u64 {
        let b = rng.gen_range(0..graph.num_nodes() as u32);
        let r = match observer.as_mut() {
            Some(obs) => net.publish_observed(b, nonce, obs),
            None => net.publish_at(b, nonce),
        };
        println!(
            "publish from {b:5}: {:3}/{:3} delivered, {:.2} hops, {:.3} relays",
            r.delivered, r.subscribers, r.avg_hops, r.avg_relays
        );
        if fault_mode {
            println!("                   {}", r.delivery.summary());
        }
        trees.push((b, r.tree));
    }
    // The replay runs before the observer flush so its wire telemetry can
    // ride along in the metrics snapshot.
    let wire = opts
        .transport
        .and_then(|kind| replay_over_transport(opts, kind, graph.num_nodes(), &trees));
    if let Some(obs) = &observer {
        let (p50, p95, p99) = obs.metrics.latency_ms.tails();
        eprintln!("[select] delivery latency p50/p95/p99: {p50}/{p95}/{p99} virtual ms");
        flush_observer(
            opts,
            obs,
            &conv,
            bootstrap_ms,
            wire.as_ref().map(|(name, s)| (*name, *s)),
        );
    }
}

/// `--transport`: replays the demo's routing trees over a real
/// message-passing transport — the same wire vocabulary, the same fault
/// plan at the transport boundary — and reports per-publication wall
/// latency. The in-simulation results above and this replay agree on the
/// delivery *sets* by construction (the conformance suite pins it).
///
/// Returns the transport's name and frozen wire telemetry so the caller
/// can fold them into `--metrics-out`.
fn replay_over_transport(
    opts: &Opts,
    kind: TransportKind,
    n: usize,
    trees: &[(u32, select::core::RoutingTree)],
) -> Option<(&'static str, StatsSnapshot)> {
    let plan = opts.fault_plan();
    let retry_max = opts.retries as u32;
    let (name, mut transport): (&'static str, Box<dyn Transport>) = match kind {
        TransportKind::Inproc => {
            let net = ThreadedNetwork::spawn_with_faults(n, plan, retry_max);
            eprintln!("[select] replaying over in-process channel transport");
            eprintln!("[select] inproc: {n} peers on {} workers", net.workers());
            ("inproc", Box::new(net))
        }
        TransportKind::Tcp => {
            eprintln!("[select] replaying over loopback TCP transport ({n} peer sockets)");
            match SocketNetwork::spawn_with_faults(n, plan, retry_max) {
                Ok(t) => {
                    eprintln!("[select] tcp: {n} peers on {} workers", t.workers());
                    ("tcp", Box::new(t))
                }
                Err(e) => {
                    eprintln!("[select] cannot spawn socket transport: {e}");
                    return None;
                }
            }
        }
    };
    if opts.trace_out.is_some() {
        transport.set_tracing(true);
    }
    let payload = bytes::Bytes::from(vec![0x5Eu8; 4 * 1024]);
    for (i, (b, tree)) in trees.iter().enumerate() {
        let t0 = std::time::Instant::now();
        // A short overall budget keeps the per-retry ack windows (budget
        // split retry_max + 1 ways) demo-sized; dropped frames only surface
        // by a window expiring.
        let r = publish_over(
            transport.as_mut(),
            tree,
            payload.clone(),
            std::time::Duration::from_secs(2),
            retry_max,
            i as u64 + 1,
        );
        let wall = t0.elapsed();
        println!(
            "wire publish from {b:5}: {:3} delivered, {:2} drops, {:2} retries, {:7.2} ms wall",
            r.delivered_to.len(),
            r.drops_injected,
            r.retries,
            wall.as_secs_f64() * 1_000.0
        );
    }
    transport.shutdown();
    if let Some(path) = &opts.trace_out {
        // Peers flushed their span buffers at shutdown; assemble them into
        // cross-peer publish trees.
        let mut asm = TraceAssembler::new();
        asm.absorb(transport.drain_spans());
        write_trace_out(path, name, &asm);
    }
    Some((name, transport.stats().snapshot()))
}

/// Renders assembled wire traces — canonical trees, latency breakdowns,
/// and the replayed hop-by-hop journeys — into `path`.
fn write_trace_out(path: &str, transport: &str, asm: &TraceAssembler) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# wire traces over {transport}: {} span(s) across {} publication(s)",
        asm.len(),
        asm.trace_ids().len()
    );
    out.push_str(&asm.render_all());
    for id in asm.trace_ids() {
        let lat = asm.latency(id);
        let chain = lat
            .critical_path
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" -> ");
        let _ = writeln!(
            out,
            "trace {id} latency: critical path [{chain}], per-hop {:?} us, end-to-end {} us",
            lat.per_hop_us, lat.critical_path_us
        );
    }
    let mut fr = FlightRecorder::with_capacity(asm.len().max(1));
    asm.replay_into(&mut fr);
    for j in fr.journeys() {
        let _ = writeln!(out, "{j}");
    }
    match std::fs::write(path, out) {
        Ok(()) => eprintln!("[select] wire traces written to {path}"),
        Err(e) => eprintln!("[select] cannot write {path}: {e}"),
    }
}

fn cmd_compare(opts: &Opts) {
    let graph = opts.dataset.generate_with_nodes(opts.nodes, opts.seed);
    let k = ((opts.nodes as f64).log2().round() as usize).max(2);
    println!(
        "{:<10} {:>9} {:>9} {:>13} {:>11}",
        "system", "avg hops", "relays", "availability", "iterations"
    );
    for kind in SystemKind::ALL {
        let sys = build_system(kind, graph.clone(), k, opts.seed);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let (mut hops, mut relays, mut avail) = (Mean::new(), Mean::new(), Mean::new());
        for _ in 0..30 {
            let b = rng.gen_range(0..opts.nodes as u32);
            if graph.degree(UserId(b)) == 0 {
                continue;
            }
            let r = sys.publish(b);
            if r.delivered > 0 {
                hops.add(r.avg_hops);
                relays.add(r.avg_relays);
            }
            avail.add(r.availability());
        }
        println!(
            "{:<10} {:>9.2} {:>9.3} {:>12.1}% {:>11}",
            kind.name(),
            hops.mean(),
            relays.mean(),
            avail.mean() * 100.0,
            sys.construction_iterations()
                .map_or("-".into(), |i| i.to_string()),
        );
    }
}

fn cmd_churn(opts: &Opts) {
    let (graph, mut net, conv, bootstrap_ms) = converged(opts);
    for _ in 0..5 {
        net.probe_round();
    }
    let model = ChurnModel::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let n = graph.num_nodes();
    let mut overall = Mean::new();
    let mut delivery = select::core::DeliveryTelemetry::default();
    let mut observer = opts.observer(n);
    let mut nonce = 0u64;
    for step in 1..=opts.steps {
        let online: Vec<u32> = (0..n as u32).filter(|&p| net.is_peer_online(p)).collect();
        let gone = model.sample_departing_peers(&mut rng, &online, n);
        for &p in &gone {
            net.set_offline(p);
        }
        let rec = net.probe_round();
        let mut avail = Mean::new();
        for _ in 0..5 {
            let b = loop {
                let b = rng.gen_range(0..n as u32);
                if net.is_peer_online(b) {
                    break b;
                }
            };
            nonce += 1;
            let r = match observer.as_mut() {
                Some(obs) => net.publish_observed(b, nonce, obs),
                None => net.publish_at(b, nonce),
            };
            delivery.absorb(&r.delivery);
            avail.add(r.availability());
        }
        overall.add(avail.mean());
        println!(
            "step {step:3}: {:4} departed, availability {:6.2}%, {} links kept on trust, {} replaced",
            gone.len(),
            avail.mean() * 100.0,
            rec.kept,
            rec.replaced
        );
        for &p in &gone {
            net.set_online(p);
        }
    }
    println!("overall availability: {:.2}%", overall.mean() * 100.0);
    if opts.fault_plan().is_active() {
        println!("fault telemetry     : {}", delivery.summary());
    }
    if let Some(obs) = &observer {
        flush_observer(opts, obs, &conv, bootstrap_ms, None);
    }
}

fn cmd_stats(opts: &Opts) {
    let (_, net, _, _) = converged(opts);
    let s = net.overlay_stats(5_000);
    println!("online peers            : {}", s.online);
    println!("friend distance (ring)  : {:.4}", s.mean_friend_distance);
    println!("random distance (ring)  : {:.4}", s.mean_random_distance);
    println!("clustering ratio        : {:.3}", s.clustering_ratio());
    println!(
        "friend coverage         : {:.1}%",
        s.friend_coverage * 100.0
    );
    println!(
        "long links social       : {:.1}%",
        s.social_link_fraction * 100.0
    );
    println!("mean connections        : {:.1}", s.mean_connections);
    println!("max connections         : {}", s.max_connections);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((cmd, opts)) => match cmd.as_str() {
            "demo" => cmd_demo(&opts),
            "compare" => cmd_compare(&opts),
            "churn" => cmd_churn(&opts),
            "stats" => cmd_stats(&opts),
            other => {
                eprintln!("unknown command '{other}'; see the source header for usage");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
