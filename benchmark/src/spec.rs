//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is [`render_benchmark_json`] of these tables (pinned by a test), so
//! the names later issues quote live in exactly one place.

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// One workload and the reason it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// The six workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "converge_sparse",
        why: "many low-degree peers: superstep engine, Alg. 2 reassignment and barrier merges dominate; bypasses bitmap/LSH cost",
    },
    Workload {
        name: "converge_dense",
        why: "few high-degree peers: create_links, friendship bitmaps and LSH bucketing dominate; engine overhead is noise",
    },
    Workload {
        name: "publish_sim",
        why: "unbatched publish_at on a large converged overlay: plan, route and deliver with no transport",
    },
    Workload {
        name: "publish_inproc",
        why: "publish_over on channel actors: actor loop without codec or syscalls; bypass workload for TCP changes",
    },
    Workload {
        name: "publish_tcp",
        why: "same graph, schedule and payload over loopback TCP sockets: codec, connect-per-frame and syscalls dominate",
    },
    Workload {
        name: "churn_faults",
        why: "overlay mutated between publications under drops and crashes: cache invalidation, retries and reroutes run",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// A pure function of the seed: two runs of one seed must agree exactly.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The twelve end-to-end metrics. Every workload reports all of them; the
/// README says which workload is the reference for which metric.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("converge_s", "s", Better::Lower, 0.25, false),
    e2e("round_ms_p50", "ms", Better::Lower, 0.25, false),
    e2e("rounds", "count", Better::Lower, 0.25, true),
    e2e("pub_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("pub_p50_us", "us", Better::Lower, 0.25, false),
    e2e("pub_p99_us", "us", Better::Lower, 0.25, false),
    e2e("delivery_ratio", "ratio", Better::Higher, 0.005, true),
    e2e("hops_mean", "count", Better::Lower, 0.04, true),
    e2e("relays_mean", "count", Better::Lower, 0.25, true),
    e2e("repair_ms_p50", "ms", Better::Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, false),
];

/// A metric of a single layer (`crate.module` prefix); no bound.
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// A count the program makes: repeats exactly for a seed.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// The per-layer metrics of the traced run. A layer the workload does not
/// enter reads 0.
pub const PER_LAYER: [PerLayer; 71] = [
    time("graph.generate_ms", "ms"),
    rate("graph.edges_per_s", "1/s"),
    time("strength.build_ms", "ms"),
    time("strength.ns_per_edge", "ns"),
    time("network.bootstrap_ms", "ms"),
    time("gossip.round_ms_first", "ms"),
    time("gossip.round_ms_p50", "ms"),
    time("gossip.round_ms_quiescent", "ms"),
    time("gossip.ns_per_edge_round", "ns"),
    count("gossip.id_moves", "count"),
    count("gossip.link_changes", "count"),
    count("gossip.messages", "count"),
    PerLayer {
        name: "gossip.bucket_hit_rate",
        unit: "ratio",
        better: Better::Higher,
        exact: true,
    },
    time("links.create_links_us_p50", "us"),
    time("bitmaps.friendship_bitmap_ns", "ns"),
    time("lsh.bucket_of_ns", "ns"),
    time("reassign.evaluate_ns", "ns"),
    time("engine.empty_step_ns_per_vertex", "ns"),
    rate("engine.threads_speedup", "ratio"),
    time("protocol.round_ms_p50", "ms"),
    time("routing.lookup_us_p50", "us"),
    count("routing.lookup_hops_mean", "count"),
    time("routing.friend_lookup_us_p50", "us"),
    time("pubsub.plan_us_mean", "us"),
    time("pubsub.us_per_delivery", "us"),
    count("pubsub.fanout_mean", "count"),
    count("pubsub.tree_edges_mean", "count"),
    rate("pubsub.batch8_pub_per_s", "1/s"),
    time("obs.observed_overhead_pct", "%"),
    time("obs.tracing_overhead_pct", "%"),
    time("recovery.probe_round_ms_p50", "ms"),
    time("recovery.set_offline_us", "us"),
    time("recovery.set_online_us", "us"),
    time("recovery.repair_gossip_ms_p50", "ms"),
    count("recovery.probes", "count"),
    count("recovery.replaced", "count"),
    count("recovery.eviction_losses", "count"),
    time("fault.frame_fate_ns", "ns"),
    count("fault.drops", "count"),
    count("fault.crash_losses", "count"),
    count("fault.retries", "count"),
    count("fault.reroutes", "count"),
    count("fault.residual_losses", "count"),
    time("codec.encode_ns_64b", "ns"),
    time("codec.encode_ns_4k", "ns"),
    time("codec.decode_ns_64b", "ns"),
    time("codec.decode_ns_4k", "ns"),
    count("codec.frame_bytes_mean", "B"),
    time("inproc.spawn_ms", "ms"),
    time("inproc.shutdown_ms", "ms"),
    time("inproc.us_per_frame", "us"),
    time("inproc.probe_rtt_us_p50", "us"),
    rate("inproc.pub_per_s_64b", "1/s"),
    // Counter snapshots race the last publication's in-flight frames: not exact.
    time("inproc.frames_per_pub", "count"),
    time("inproc.wire_bytes_per_pub", "B"),
    time("inproc.reconnects_per_pub", "count"),
    count("inproc.retransmissions", "count"),
    count("inproc.ack_window_expiries", "count"),
    rate("inproc.deliver_per_s", "1/s"),
    time("tcp.spawn_ms", "ms"),
    time("tcp.shutdown_ms", "ms"),
    time("tcp.us_per_frame", "us"),
    time("tcp.probe_rtt_us_p50", "us"),
    rate("tcp.pub_per_s_64b", "1/s"),
    // Counter snapshots race the last publication's in-flight frames: not exact.
    time("tcp.frames_per_pub", "count"),
    time("tcp.wire_bytes_per_pub", "B"),
    time("tcp.reconnects_per_pub", "count"),
    count("tcp.retransmissions", "count"),
    count("tcp.ack_window_expiries", "count"),
    rate("tcp.deliver_per_s", "1/s"),
    time("trace.overhead_pct", "%"),
];

/// Renders `BENCHMARK.json` from the tables above.
pub fn render_benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
