//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions on the workload's own graph and converged overlay.
//! Layers a workload does not enter (the transports outside the two wire
//! workloads, fault counters on a fault-free plan) are left at 0.

use crate::inputs::{self, derive, Sizes, Stream};
use crate::span::Recorder;
use crate::spec::PER_LAYER;
use crate::stats::{mean, median, percentile, sorted};
use crate::workloads::{
    converge_overlay, publish_pass, spawn_wire, wire_pass, Converged, Episode, Oracle, PubTotals,
};
use bytes::Bytes;
use osn_graph::{SocialGraph, UserId};
use osn_lsh::{BitSampling, LshIndex};
use osn_net::codec::{decode, encode_into};
use osn_net::StatsSnapshot;
use osn_obs::Observer;
use osn_sim::SuperstepEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use select_core::bitmaps::friendship_bitmap;
use select_core::links::create_links;
use select_core::protocol::ProtocolNetwork;
use select_core::reassign::evaluate_position;
use select_core::strength::StrengthIndex;
use select_core::wire::{children_of, WireMsg};
use select_core::SelectNetwork;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

type Layers = BTreeMap<&'static str, f64>;

/// What the probes work on.
pub struct ProbeCtx<'a> {
    /// Span recorder of the run.
    pub rec: &'a mut Recorder,
    /// Oracle of the run.
    pub oracle: &'a mut Oracle,
    /// Per-layer results.
    pub layers: &'a mut Layers,
    /// The workload's graph.
    pub graph: &'a Arc<SocialGraph>,
    /// Its converged overlay, everyone online.
    pub net: &'a SelectNetwork,
    /// Its publisher schedule.
    pub publishers: &'a [u32],
    /// Its sizes.
    pub sizes: &'a Sizes,
    /// Run seed.
    pub seed: u64,
    /// Round-loop threads.
    pub threads: usize,
    /// Whether the overlay carries the fault plan.
    pub faulty: bool,
    /// Exact sums of the first measured pass.
    pub first: PubTotals,
}

/// Stores `<kind>.<suffix>` under the spec's name for it.
pub fn put(layers: &mut Layers, kind: &str, suffix: &str, value: f64) {
    let full = format!("{kind}.{suffix}");
    let name = PER_LAYER
        .iter()
        .find(|m| m.name == full)
        .unwrap_or_else(|| panic!("{full} is not a per-layer metric"))
        .name;
    layers.insert(name, value);
}

fn ns_per(t: Instant, ops: usize) -> f64 {
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `gossip.*` from one convergence's own telemetry.
pub fn gossip_layers(layers: &mut Layers, c: &Converged, directed_edges: f64) {
    let tel = &c.report.telemetry;
    let walls = sorted(tel.rounds.iter().map(|r| r.wall_nanos as f64).collect());
    let p50 = percentile(&walls, 50.0);
    layers.insert(
        "gossip.round_ms_first",
        tel.rounds
            .first()
            .map_or(0.0, |r| r.wall_nanos as f64 / 1e6),
    );
    layers.insert("gossip.round_ms_p50", p50 / 1e6);
    layers.insert("gossip.ns_per_edge_round", p50 / directed_edges.max(1.0));
    layers.insert("gossip.id_moves", tel.total_id_moves() as f64);
    layers.insert("gossip.link_changes", tel.total_link_changes() as f64);
    layers.insert("gossip.messages", tel.total_messages() as f64);
    layers.insert("gossip.bucket_hit_rate", tel.bucket_hit_rate());
}

/// `recovery.*` from one churn episode.
pub fn recovery_layers(layers: &mut Layers, ep: &Episode) {
    layers.insert("recovery.probe_round_ms_p50", median(&ep.probe_ms));
    layers.insert("recovery.repair_gossip_ms_p50", median(&ep.gossip_ms));
    layers.insert("recovery.set_offline_us", mean(&ep.offline_us));
    layers.insert("recovery.set_online_us", mean(&ep.online_us));
    layers.insert("recovery.probes", ep.probes as f64);
    layers.insert("recovery.replaced", ep.replaced as f64);
    layers.insert("recovery.eviction_losses", ep.eviction_losses as f64);
}

/// Counter deltas of one transport over `pubs` publications.
pub fn wire_counters(
    layers: &mut Layers,
    kind: &str,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    pubs: f64,
) {
    let per = |a: u64, b: u64| (a - b) as f64 / pubs.max(1.0);
    put(
        layers,
        kind,
        "frames_per_pub",
        per(after.total_frames_tx(), before.total_frames_tx()),
    );
    put(
        layers,
        kind,
        "wire_bytes_per_pub",
        per(after.total_bytes_tx(), before.total_bytes_tx()),
    );
    put(
        layers,
        kind,
        "reconnects_per_pub",
        per(after.reconnects, before.reconnects),
    );
    put(
        layers,
        kind,
        "retransmissions",
        (after.retransmissions - before.retransmissions) as f64,
    );
    put(
        layers,
        kind,
        "ack_window_expiries",
        (after.ack_window_expiries - before.ack_window_expiries) as f64,
    );
}

/// Seeded peers with at least two friends, the unit of the link probes.
fn seeded_peers(graph: &SocialGraph, count: usize, seed: u64) -> Vec<u32> {
    let n = graph.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(derive(seed, Stream::Probe));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count * 20 {
        let p = rng.gen_range(0..n);
        if graph.degree(UserId(p)) >= 2 {
            out.push(p);
            if out.len() == count {
                break;
            }
        }
    }
    out
}

/// Every probe that needs no transport.
pub fn run_all(ctx: &mut ProbeCtx<'_>) {
    let strengths = strength(ctx);
    links_bitmaps_lsh(ctx);
    reassign(ctx, &strengths);
    engine(ctx);
    protocol(ctx);
    quiescent_round(ctx);
    routing(ctx);
    pubsub(ctx);
    obs(ctx);
    fault_fate(ctx);
    codec(ctx);
}

/// Times `StrengthIndex::build` and hands the index on to the next probe.
fn strength(ctx: &mut ProbeCtx<'_>) -> StrengthIndex {
    let graph = ctx.graph;
    let mut walls = Vec::with_capacity(3);
    let mut built = None;
    for i in 0..3 {
        let t = Instant::now();
        built = Some(
            ctx.rec
                .scope("strength.build", i, |_| StrengthIndex::build(graph)),
        );
        walls.push(ms(t));
    }
    let build_ms = median(&walls);
    ctx.layers.insert("strength.build_ms", build_ms);
    ctx.layers.insert(
        "strength.ns_per_edge",
        build_ms * 1e6 / graph.num_directed_edges().max(1) as f64,
    );
    built.expect("built three times")
}

fn links_bitmaps_lsh(ctx: &mut ProbeCtx<'_>) {
    let (net, graph) = (ctx.net, ctx.graph);
    let peers = seeded_peers(graph, 200, ctx.seed);
    let k = net.k();
    let lsh_samples = net.config().lsh_samples;
    let mut link_us = Vec::with_capacity(peers.len());
    let (mut bitmap_ns, mut bitmaps_built) = (0.0, 0usize);
    let (mut bucket_ns, mut bucketed) = (0.0, 0usize);
    for &p in &peers {
        let neigh: Vec<u32> = graph.neighbors(UserId(p)).iter().map(|f| f.0).collect();
        let lsh_seed = derive(ctx.seed, Stream::Probe) ^ p as u64;
        let t = Instant::now();
        let sel = ctx.rec.scope("links.create_links", p as u64, |_| {
            create_links(
                &neigh,
                k,
                lsh_samples,
                lsh_seed,
                |u| net.connections_of(u),
                |u| net.bandwidth_of(u),
            )
        });
        link_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(sel.targets.len());

        let link_sets: Vec<Vec<u32>> = neigh.iter().map(|&u| net.connections_of(u)).collect();
        let t = Instant::now();
        let bitmaps: Vec<_> = link_sets
            .iter()
            .map(|links| friendship_bitmap(&neigh, links))
            .collect();
        bitmap_ns += t.elapsed().as_nanos() as f64;
        bitmaps_built += bitmaps.len();

        let index = LshIndex::new(BitSampling::new(neigh.len(), k, lsh_samples, lsh_seed));
        let t = Instant::now();
        for bm in &bitmaps {
            black_box(index.bucket_of(bm));
        }
        bucket_ns += t.elapsed().as_nanos() as f64;
        bucketed += bitmaps.len();
    }
    ctx.layers
        .insert("links.create_links_us_p50", median(&link_us));
    ctx.layers.insert(
        "bitmaps.friendship_bitmap_ns",
        bitmap_ns / bitmaps_built.max(1) as f64,
    );
    ctx.layers
        .insert("lsh.bucket_of_ns", bucket_ns / bucketed.max(1) as f64);
}

fn reassign(ctx: &mut ProbeCtx<'_>, strengths: &StrengthIndex) {
    let net = ctx.net;
    let n = net.len() as u32;
    let t = Instant::now();
    for p in 0..n {
        black_box(evaluate_position(p, strengths, |f| {
            Some(net.identifier_of(f))
        }));
    }
    ctx.layers
        .insert("reassign.evaluate_ns", ns_per(t, n as usize));
}

fn engine(ctx: &mut ProbeCtx<'_>) {
    let n = ctx.net.len();
    let mut eng: SuperstepEngine<u8> = SuperstepEngine::new(n);
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        eng.step_parallel(true, ctx.threads, |v, _mail, _out| {
            black_box(v);
        });
    }
    ctx.layers
        .insert("engine.empty_step_ns_per_vertex", ns_per(t, n * reps));

    // One pass on one thread against the same pass on every core; the two
    // reports must be equal (equality ignores wall time and thread count).
    let pass = |rec: &mut Recorder, threads: usize| {
        converge_overlay(
            rec,
            threads as u64,
            ctx.graph,
            inputs::config(ctx.seed, 0, threads, ctx.faulty),
        )
        .1
    };
    let serial = pass(ctx.rec, 1);
    let parallel = pass(ctx.rec, ctx.threads);
    ctx.oracle.check(serial.report == parallel.report, || {
        format!(
            "threads=1 and threads={} converge to different reports",
            ctx.threads
        )
    });
    ctx.layers.insert(
        "engine.threads_speedup",
        serial.wall_s / parallel.wall_s.max(1e-12),
    );
}

fn protocol(ctx: &mut ProbeCtx<'_>) {
    let fresh = SelectNetwork::bootstrap(
        ctx.graph.clone(),
        inputs::config(ctx.seed, 0, ctx.threads, false),
    );
    let mut proto = ProtocolNetwork::new(fresh);
    let walls: Vec<f64> = (0..5)
        .map(|i| {
            let t = Instant::now();
            black_box(ctx.rec.scope("protocol.round", i, |_| proto.round()));
            ms(t)
        })
        .collect();
    ctx.layers.insert("protocol.round_ms_p50", median(&walls));
}

/// One more round on the converged overlay: the `LinkCache` fast path.
fn quiescent_round(ctx: &mut ProbeCtx<'_>) {
    let mut net = ctx.net.clone();
    // The first extra round may still refresh caches; time the second.
    net.gossip_round();
    let t = Instant::now();
    let tel = ctx.rec.scope("gossip.quiescent_round", 0, |_| {
        net.gossip_round_telemetry()
    });
    ctx.layers.insert("gossip.round_ms_quiescent", ms(t));
    ctx.oracle.check(tel.is_quiescent(), || {
        "a round on the converged overlay was not quiescent".to_string()
    });
}

fn routing(ctx: &mut ProbeCtx<'_>) {
    let (net, graph) = (ctx.net, ctx.graph);
    let n = net.len() as u32;
    let mut rng = StdRng::seed_from_u64(derive(ctx.seed, Stream::Probe) ^ 0x10_07);
    let mut strangers = Vec::with_capacity(ctx.sizes.lookup_pairs);
    let mut friends = Vec::with_capacity(ctx.sizes.lookup_pairs);
    while strangers.len() < ctx.sizes.lookup_pairs {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b && !graph.has_edge(UserId(a), UserId(b)) {
            strangers.push((a, b));
        }
    }
    while friends.len() < ctx.sizes.lookup_pairs {
        let a = rng.gen_range(0..n);
        let row = graph.neighbors(UserId(a));
        if !row.is_empty() {
            friends.push((a, row[rng.gen_range(0..row.len())].0));
        }
    }
    let time_lookups = |rec: &mut Recorder, name: &'static str, pairs: &[(u32, u32)]| {
        let mut us = Vec::with_capacity(pairs.len());
        let (mut hops, mut delivered) = (0usize, 0usize);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let t = Instant::now();
            let out = rec.scope(name, i as u64, |_| net.lookup(a, b));
            us.push(t.elapsed().as_secs_f64() * 1e6);
            if out.delivered() {
                hops += out.hops();
                delivered += 1;
            }
        }
        (
            median(&us),
            hops as f64 / delivered.max(1) as f64,
            delivered,
        )
    };
    let (us, hops, delivered) = time_lookups(ctx.rec, "routing.lookup", &strangers);
    ctx.layers.insert("routing.lookup_us_p50", us);
    ctx.layers.insert("routing.lookup_hops_mean", hops);
    ctx.oracle.check(delivered == strangers.len(), || {
        format!("{delivered} of {} lookups delivered", strangers.len())
    });
    let (us, _, _) = time_lookups(ctx.rec, "routing.friend_lookup", &friends);
    ctx.layers.insert("routing.friend_lookup_us_p50", us);
}

fn pubsub(ctx: &mut ProbeCtx<'_>) {
    let net = ctx.net;
    let mut lat = Vec::new();
    let was = ctx.rec.enabled();
    ctx.rec.set_enabled(true);
    let (tot, busy) = publish_pass(
        ctx.rec,
        ctx.oracle,
        net,
        ctx.publishers,
        0,
        ctx.faulty,
        false,
        &mut lat,
    );
    ctx.rec.set_enabled(was);
    ctx.layers.insert(
        "pubsub.plan_us_mean",
        mean(&ctx.rec.durations_ns("plan")) / 1e3,
    );
    ctx.layers.insert(
        "pubsub.us_per_delivery",
        busy * 1e6 / tot.delivered.max(1) as f64,
    );
    ctx.layers.insert(
        "pubsub.fanout_mean",
        ctx.first.delivered as f64 / ctx.first.publications.max(1) as f64,
    );
    let sample = &ctx.publishers[..ctx.publishers.len().min(500)];
    let edges: usize = sample
        .iter()
        .enumerate()
        .map(|(i, &b)| net.publish_at(b, i as u64).tree.edges().len())
        .sum();
    ctx.layers.insert(
        "pubsub.tree_edges_mean",
        edges as f64 / sample.len().max(1) as f64,
    );
    let batch_sources = &ctx.publishers[..ctx.publishers.len().min(1_000)];
    let t = Instant::now();
    for (i, &b) in batch_sources.iter().enumerate() {
        black_box(ctx.rec.scope("pubsub.batch8", i as u64, |_| {
            net.publish_batch_at(b, i as u64 * 8, 8)
        }));
    }
    ctx.layers.insert(
        "pubsub.batch8_pub_per_s",
        (batch_sources.len() * 8) as f64 / t.elapsed().as_secs_f64().max(1e-9),
    );
}

/// Cost of observation on the same schedule: plain, metrics on, tracing on.
/// Interleaved repeats, minimum of each, so a stall lands on no one mode.
fn obs(ctx: &mut ProbeCtx<'_>) {
    let net = ctx.net;
    let schedule = &ctx.publishers[..ctx.publishers.len().min(1_000)];
    let mut best = [f64::INFINITY; 3];
    for _ in 0..3 {
        let t = Instant::now();
        for (i, &b) in schedule.iter().enumerate() {
            black_box(net.publish_at(b, i as u64));
        }
        best[0] = best[0].min(t.elapsed().as_secs_f64());
        let mut metrics = Observer::for_peers(net.len());
        let t = Instant::now();
        for (i, &b) in schedule.iter().enumerate() {
            black_box(net.publish_observed(b, i as u64, &mut metrics));
        }
        best[1] = best[1].min(t.elapsed().as_secs_f64());
        let mut tracing = Observer::for_peers(net.len()).with_tracing(4_096);
        let t = Instant::now();
        for (i, &b) in schedule.iter().enumerate() {
            black_box(net.publish_observed(b, i as u64, &mut tracing));
        }
        best[2] = best[2].min(t.elapsed().as_secs_f64());
    }
    let pct = |with: f64| (with / best[0].max(1e-12) - 1.0) * 100.0;
    ctx.layers.insert("obs.observed_overhead_pct", pct(best[1]));
    ctx.layers.insert("obs.tracing_overhead_pct", pct(best[2]));
}

fn fault_fate(ctx: &mut ProbeCtx<'_>) {
    let plan = inputs::fault_plan(ctx.seed);
    let n = ctx.net.len() as u32;
    let ops = 1_000_000u32;
    let t = Instant::now();
    for i in 0..ops {
        black_box(plan.frame_fate(i as u64 >> 4, i & 3, i % n, (i + 1) % n));
    }
    ctx.layers
        .insert("fault.frame_fate_ns", ns_per(t, ops as usize));
}

/// Encode and decode of real `WireMsg::Publish` frames: the routing trees of
/// the first scheduled publications with their child maps, at two payloads.
fn codec(ctx: &mut ProbeCtx<'_>) {
    let net = ctx.net;
    let sources = &ctx.publishers[..ctx.publishers.len().min(64)];
    let frames = |payload_len: usize| -> Vec<WireMsg> {
        let payload = Bytes::from(vec![0x5Eu8; payload_len]);
        sources
            .iter()
            .enumerate()
            .map(|(i, &b)| WireMsg::Publish {
                pub_id: i as u64,
                attempt: 0,
                publisher: b,
                children: Arc::new(children_of(&net.publish_at(b, i as u64).tree)),
                payload: payload.clone(),
                trace: None,
            })
            .collect()
    };
    let reps = 50;
    for (len, enc_name, dec_name) in [
        (64usize, "codec.encode_ns_64b", "codec.decode_ns_64b"),
        (4_096, "codec.encode_ns_4k", "codec.decode_ns_4k"),
    ] {
        let msgs = frames(len);
        let mut buf = Vec::new();
        let t = Instant::now();
        for _ in 0..reps {
            for m in &msgs {
                buf.clear();
                encode_into(m, &mut buf).expect("publish frame fits");
                black_box(buf.len());
            }
        }
        ctx.layers.insert(enc_name, ns_per(t, reps * msgs.len()));
        let encoded: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| {
                let mut b = Vec::new();
                encode_into(m, &mut b).expect("publish frame fits");
                b
            })
            .collect();
        let t = Instant::now();
        let mut round_trips = 0usize;
        for _ in 0..reps {
            for (m, bytes) in msgs.iter().zip(&encoded) {
                let (back, used) = decode(bytes).expect("own frame decodes");
                round_trips += (used == bytes.len() && back.tag() == m.tag()) as usize;
            }
        }
        ctx.layers.insert(dec_name, ns_per(t, reps * msgs.len()));
        ctx.oracle.check(round_trips == reps * msgs.len(), || {
            format!("{len}-byte publish frames did not round-trip through the codec")
        });
        if len == 4_096 {
            let sizes: Vec<f64> = encoded.iter().map(|b| b.len() as f64).collect();
            ctx.layers.insert("codec.frame_bytes_mean", mean(&sizes));
        }
    }
}

/// Both transports on the workload's overlay: spawn and shutdown, one pass
/// at the reference payload (counters, per-frame cost), one at 64 bytes
/// (where per-frame cost dominates), and one-hop probes. The transport the
/// workload itself measured (`own`) keeps the numbers of its measured phase.
pub fn wire_layers(ctx: &mut ProbeCtx<'_>, payload: &Bytes, own: &str) {
    let n = ctx.net.len();
    let small = Bytes::from(vec![0x5Eu8; 64]);
    let schedule = &ctx.publishers[..ctx.publishers.len().min(300)];
    for kind in ["inproc", "tcp"] {
        let mut spawn_ms = Vec::new();
        let mut shutdown_ms = Vec::new();
        for i in 0..2 {
            let t = Instant::now();
            let mut w = ctx.rec.scope("wire.spawn", i, |_| spawn_wire(kind, n));
            spawn_ms.push(ms(t));
            let t = Instant::now();
            ctx.rec.scope("wire.shutdown", i, |_| w.shutdown());
            shutdown_ms.push(ms(t));
        }
        let t = Instant::now();
        let mut wire = spawn_wire(kind, n);
        spawn_ms.push(ms(t));
        let mut next_id = 1u64;
        let mut lat = Vec::new();

        if own != kind {
            let before = wire.stats().snapshot();
            let tot = wire_pass(
                ctx.rec,
                ctx.oracle,
                ctx.net,
                wire.as_mut(),
                schedule,
                payload,
                &mut next_id,
                &mut lat,
            );
            let after = wire.stats().snapshot();
            let pubs = schedule.len() as f64;
            wire_counters(ctx.layers, kind, &before, &after, pubs);
            let frames = (after.total_frames_tx() - before.total_frames_tx()) as f64;
            put(
                ctx.layers,
                kind,
                "us_per_frame",
                tot.over_s * 1e6 / frames.max(1.0),
            );
            put(
                ctx.layers,
                kind,
                "deliver_per_s",
                tot.plan.delivered as f64 / tot.over_s.max(1e-9),
            );
            put(ctx.layers, kind, "spawn_ms", median(&spawn_ms));
        }

        lat.clear();
        let tot = wire_pass(
            ctx.rec,
            ctx.oracle,
            ctx.net,
            wire.as_mut(),
            schedule,
            &small,
            &mut next_id,
            &mut lat,
        );
        put(
            ctx.layers,
            kind,
            "pub_per_s_64b",
            schedule.len() as f64 / (tot.plan_s + tot.over_s).max(1e-9),
        );

        let mut rtt_us = Vec::with_capacity(200);
        for i in 0..200u64 {
            let peer = (i % n as u64) as u32;
            let t = Instant::now();
            let alive = ctx.rec.scope("wire.probe", i, |_| wire.probe_peer(peer, i));
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            ctx.oracle.check(alive == Some(true), || {
                format!("{kind} probe of peer {peer} answered {alive:?}")
            });
        }
        put(ctx.layers, kind, "probe_rtt_us_p50", median(&rtt_us));

        let t = Instant::now();
        wire.shutdown();
        shutdown_ms.push(ms(t));
        if own != kind {
            put(ctx.layers, kind, "shutdown_ms", median(&shutdown_ms));
        }
    }
}
