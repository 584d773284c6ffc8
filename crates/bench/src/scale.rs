//! `repro scale` — end-to-end convergence at the paper's full data-set
//! sizes, emitted as the machine-readable `BENCH_scale.json`.
//!
//! Table II's four snapshots range from 63k peers (Facebook) to 3.99
//! million (Twitter, 294M directed connections). This harness generates
//! each preset at full size with the streaming CSR builder, bootstraps the
//! SELECT overlay, runs `converge`, and records the wall-time of each phase
//! together with three independent memory measurements:
//!
//! * `peak_rss_kb` — the kernel's `VmHWM` high-water mark (process
//!   lifetime, so earlier presets in the same invocation can dominate it;
//!   runs are ordered smallest-first so the largest preset owns the peak);
//! * `statm_rss_kb` — `/proc/self/statm` resident-set sample taken right
//!   after converge (current, not peak: region-local);
//! * `heap_peak_bytes` — the counting allocator's live-heap high-water mark
//!   across the preset's own generate→converge span (feature
//!   `count-allocs`; null otherwise). This is the per-preset number
//!   `bytes_per_peer` is derived from when available.
//!
//! The CI gate (`repro scale --check`) re-runs the 63k Facebook preset and
//! enforces [`FACEBOOK_GATE`]; the Twitter run is a release-mode experiment
//! recorded in EXPERIMENTS.md, not a CI job.

use crate::allocs;
use crate::hotpath::json::{self, ObjExt};
use osn_graph::datasets::Dataset;
use select_core::{SelectConfig, SelectNetwork};
use std::time::Instant;

/// One named full-scale preset.
#[derive(Clone, Copy, Debug)]
pub struct ScalePreset {
    /// CLI key (`repro scale <key>`).
    pub key: &'static str,
    /// Source data set.
    pub dataset: Dataset,
    /// Gossip-round cap handed to `converge`.
    pub max_rounds: usize,
}

/// The four Table II presets at paper size, smallest first so the
/// process-lifetime `VmHWM` is owned by the largest preset measured.
pub const PRESETS: [ScalePreset; 4] = [
    ScalePreset {
        key: "facebook",
        dataset: Dataset::Facebook,
        max_rounds: 300,
    },
    ScalePreset {
        key: "slashdot",
        dataset: Dataset::Slashdot,
        max_rounds: 300,
    },
    ScalePreset {
        key: "gplus",
        dataset: Dataset::GooglePlus,
        max_rounds: 300,
    },
    // Twitter is the 3.99M-peer scalability claim; on one core a full
    // convergence is an hours-long run, so the preset caps the rounds and
    // reports per-round wall time — EXPERIMENTS.md records the release run.
    ScalePreset {
        key: "twitter",
        dataset: Dataset::Twitter,
        max_rounds: 2,
    },
];

/// Looks up a preset by CLI key.
pub fn preset(key: &str) -> Option<&'static ScalePreset> {
    PRESETS.iter().find(|p| p.key == key)
}

/// Budget the CI gate enforces on the Facebook preset (63 731 peers).
///
/// Measured on the reference 1-core container in release mode
/// (`count-allocs` on): converge ≈ 23 s wall over 10 rounds, ≈ 2.4 KiB of
/// peak live heap per peer. The budgets leave several-fold headroom so the
/// gate catches order-of-magnitude regressions (an accidental
/// re-materialized edge list, a per-peer `HashMap` creeping back), not
/// machine jitter.
pub struct ScaleGate {
    /// Upper bound on `converge_wall_ms`.
    pub max_converge_wall_ms: f64,
    /// Upper bound on `bytes_per_peer`.
    pub max_bytes_per_peer: f64,
}

/// See [`ScaleGate`].
pub const FACEBOOK_GATE: ScaleGate = ScaleGate {
    max_converge_wall_ms: 30_000.0,
    max_bytes_per_peer: 8_192.0,
};

/// One measured preset run (also the unit parsed back out of
/// `BENCH_scale.json` when merging partial runs).
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleRun {
    /// Data-set display name (`Dataset::name`).
    pub dataset: String,
    /// Peers in the generated graph.
    pub n: usize,
    /// Directed adjacency entries (2x undirected edges).
    pub directed_edges: usize,
    /// Wall-clock of graph generation, milliseconds.
    pub generate_wall_ms: f64,
    /// Wall-clock of overlay bootstrap, milliseconds.
    pub bootstrap_wall_ms: f64,
    /// Wall-clock of `converge`, milliseconds.
    pub converge_wall_ms: f64,
    /// Gossip rounds executed.
    pub rounds: usize,
    /// Whether the stability window was reached before the round cap.
    pub converged: bool,
    /// Process-lifetime `VmHWM` in KiB after the run (0 without /proc).
    pub peak_rss_kb: u64,
    /// `/proc/self/statm` resident set in KiB right after converge.
    pub statm_rss_kb: u64,
    /// Live-heap high-water mark across this preset's span, bytes
    /// (`None` without the `count-allocs` feature).
    pub heap_peak_bytes: Option<u64>,
    /// Peak memory attributed to one peer: `heap_peak_bytes / n` when
    /// available, otherwise `statm_rss_kb * 1024 / n`.
    pub bytes_per_peer: f64,
}

/// Resident set size in KiB sampled from `/proc/self/statm` (Linux; field 2
/// is resident pages, page size 4 KiB on this platform). 0 when
/// unavailable.
pub fn statm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map(|pages| pages * 4)
        .unwrap_or(0)
}

/// Process-lifetime peak resident set (`VmHWM`) in KiB; 0 without /proc.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs one preset at full paper size.
pub fn measure(p: &ScalePreset, seed: u64) -> ScaleRun {
    measure_at(p.dataset, p.dataset.paper_users(), p.max_rounds, seed)
}

/// Runs one data set at an explicit node count (tests use small `n`; the
/// presets use `paper_users`).
pub fn measure_at(dataset: Dataset, n: usize, max_rounds: usize, seed: u64) -> ScaleRun {
    allocs::reset_high_water();
    let t0 = Instant::now();
    let graph = dataset.generate_with_nodes(n, seed);
    let generate_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let directed_edges = graph.num_directed_edges();

    let t1 = Instant::now();
    let mut net = SelectNetwork::bootstrap(
        graph,
        SelectConfig::default().with_seed(seed).with_threads(1),
    );
    let bootstrap_wall_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let report = net.converge(max_rounds);
    let converge_wall_ms = t2.elapsed().as_secs_f64() * 1e3;

    let statm = statm_rss_kb();
    let heap_peak_bytes = allocs::live_high_water();
    let bytes_per_peer = match heap_peak_bytes {
        Some(b) => b as f64 / n as f64,
        None => statm as f64 * 1024.0 / n as f64,
    };
    ScaleRun {
        dataset: dataset.name().to_string(),
        n,
        directed_edges,
        generate_wall_ms,
        bootstrap_wall_ms,
        converge_wall_ms,
        rounds: report.rounds,
        converged: report.converged,
        peak_rss_kb: peak_rss_kb(),
        statm_rss_kb: statm,
        heap_peak_bytes,
        bytes_per_peer,
    }
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

/// Renders `BENCH_scale.json` from a set of runs (typically the merge of a
/// fresh measurement with the runs already on disk).
pub fn render_json(seed: u64, runs: &[ScaleRun]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"select-scale/v1\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"dataset\": \"{}\",\n", r.dataset));
        out.push_str(&format!("      \"n\": {},\n", r.n));
        out.push_str(&format!(
            "      \"directed_edges\": {},\n",
            r.directed_edges
        ));
        out.push_str(&format!(
            "      \"generate_wall_ms\": {:.3},\n",
            r.generate_wall_ms
        ));
        out.push_str(&format!(
            "      \"bootstrap_wall_ms\": {:.3},\n",
            r.bootstrap_wall_ms
        ));
        out.push_str(&format!(
            "      \"converge_wall_ms\": {:.3},\n",
            r.converge_wall_ms
        ));
        out.push_str(&format!("      \"rounds\": {},\n", r.rounds));
        out.push_str(&format!("      \"converged\": {},\n", r.converged));
        out.push_str(&format!("      \"peak_rss_kb\": {},\n", r.peak_rss_kb));
        out.push_str(&format!("      \"statm_rss_kb\": {},\n", r.statm_rss_kb));
        out.push_str(&format!(
            "      \"heap_peak_bytes\": {},\n",
            fmt_opt_u64(r.heap_peak_bytes)
        ));
        out.push_str(&format!(
            "      \"bytes_per_peer\": {:.1}\n",
            r.bytes_per_peer
        ));
        out.push_str(if i + 1 == runs.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Parses the `runs` array back out of a `BENCH_scale.json`, so partial
/// invocations (`repro scale facebook` after a full sweep) can merge rather
/// than clobber the other presets' recorded numbers.
pub fn parse_runs(text: &str) -> Result<Vec<ScaleRun>, String> {
    let v = json::parse(text)?;
    let obj = v.as_object().ok_or("top level is not an object")?;
    match obj.field("schema") {
        Some(json::Value::Str(s)) if s == "select-scale/v1" => {}
        other => return Err(format!("bad schema tag {other:?}")),
    }
    let runs = match obj.field("runs") {
        Some(json::Value::Arr(items)) => items,
        _ => return Err("\"runs\" missing or not an array".into()),
    };
    let num = |o: &[(String, json::Value)], k: &str| -> Result<f64, String> {
        match o.field(k) {
            Some(json::Value::Num(x)) => Ok(*x),
            _ => Err(format!("run field \"{k}\" missing or not a number")),
        }
    };
    runs.iter()
        .map(|item| {
            let o = item.as_object().ok_or("run entry is not an object")?;
            let dataset = match o.field("dataset") {
                Some(json::Value::Str(s)) => s.clone(),
                _ => return Err("run field \"dataset\" missing or not a string".into()),
            };
            let converged = match o.field("converged") {
                Some(json::Value::Bool(b)) => *b,
                _ => return Err("run field \"converged\" missing or not a bool".into()),
            };
            let heap_peak_bytes = match o.field("heap_peak_bytes") {
                Some(json::Value::Num(x)) => Some(*x as u64),
                Some(json::Value::Null) => None,
                _ => return Err("run field \"heap_peak_bytes\" has a bad type".into()),
            };
            Ok(ScaleRun {
                dataset,
                n: num(o, "n")? as usize,
                directed_edges: num(o, "directed_edges")? as usize,
                generate_wall_ms: num(o, "generate_wall_ms")?,
                bootstrap_wall_ms: num(o, "bootstrap_wall_ms")?,
                converge_wall_ms: num(o, "converge_wall_ms")?,
                rounds: num(o, "rounds")? as usize,
                converged,
                peak_rss_kb: num(o, "peak_rss_kb")? as u64,
                statm_rss_kb: num(o, "statm_rss_kb")? as u64,
                heap_peak_bytes,
                bytes_per_peer: num(o, "bytes_per_peer")?,
            })
        })
        .collect()
}

/// Validates a `BENCH_scale.json` against the `select-scale/v1` schema.
pub fn check_json(text: &str) -> Result<(), String> {
    parse_runs(text).map(|_| ())
}

/// Merges fresh runs over previously recorded ones: a fresh run replaces
/// the recorded run of the same data set, everything else is kept. Output
/// is ordered by ascending `n` (smallest preset first, like [`PRESETS`]).
pub fn merge_runs(existing: Vec<ScaleRun>, fresh: Vec<ScaleRun>) -> Vec<ScaleRun> {
    let mut merged: Vec<ScaleRun> = existing
        .into_iter()
        .filter(|r| !fresh.iter().any(|f| f.dataset == r.dataset))
        .collect();
    merged.extend(fresh);
    merged.sort_by_key(|r| (r.n, r.dataset.clone()));
    merged
}

/// Enforces [`FACEBOOK_GATE`] on a parsed document: the Facebook run must be
/// present, converged, and inside the wall-time and bytes-per-peer budgets.
pub fn check_gate(text: &str) -> Result<ScaleRun, String> {
    let runs = parse_runs(text)?;
    let fb = runs
        .iter()
        .find(|r| r.dataset == "Facebook")
        .ok_or("no Facebook run recorded (run `repro scale facebook` first)")?;
    if !fb.converged {
        return Err(format!(
            "scale gate failed: Facebook did not converge within {} rounds",
            fb.rounds
        ));
    }
    if fb.converge_wall_ms > FACEBOOK_GATE.max_converge_wall_ms {
        return Err(format!(
            "scale gate failed: Facebook converge took {:.0} ms (budget: {:.0} ms)",
            fb.converge_wall_ms, FACEBOOK_GATE.max_converge_wall_ms
        ));
    }
    if fb.bytes_per_peer > FACEBOOK_GATE.max_bytes_per_peer {
        return Err(format!(
            "scale gate failed: Facebook uses {:.0} bytes/peer (budget: {:.0})",
            fb.bytes_per_peer, FACEBOOK_GATE.max_bytes_per_peer
        ));
    }
    Ok(fb.clone())
}

/// Human-readable summary table.
pub fn render_table(runs: &[ScaleRun]) -> String {
    let mut out = String::new();
    out.push_str("Full-scale convergence (threads=1)\n");
    out.push_str(
        "  dataset      n        edges      gen_ms   boot_ms   converge_ms rounds conv  B/peer\n",
    );
    for r in runs {
        out.push_str(&format!(
            "  {:<10} {:>9} {:>11} {:>9.0} {:>9.0} {:>12.0} {:>6} {:>5} {:>7.0}\n",
            r.dataset,
            r.n,
            r.directed_edges,
            r.generate_wall_ms,
            r.bootstrap_wall_ms,
            r.converge_wall_ms,
            r.rounds,
            r.converged,
            r.bytes_per_peer
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(dataset: &str, n: usize) -> ScaleRun {
        ScaleRun {
            dataset: dataset.to_string(),
            n,
            directed_edges: n * 10,
            generate_wall_ms: 12.5,
            bootstrap_wall_ms: 100.0,
            converge_wall_ms: 5_000.0,
            rounds: 40,
            converged: true,
            peak_rss_kb: 200_000,
            statm_rss_kb: 150_000,
            heap_peak_bytes: Some(64 * 1024 * 1024),
            bytes_per_peer: 64.0 * 1024.0 * 1024.0 / n as f64,
        }
    }

    #[test]
    fn json_round_trips_through_parse() {
        let runs = vec![
            sample_run("Facebook", 63_731),
            sample_run("Twitter", 3_990_418),
        ];
        let text = render_json(42, &runs);
        check_json(&text).expect("emitted JSON failed its own schema check");
        let parsed = parse_runs(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].dataset, "Facebook");
        assert_eq!(parsed[0].n, 63_731);
        assert_eq!(parsed[0].heap_peak_bytes, Some(64 * 1024 * 1024));
        assert_eq!(parsed[1].rounds, 40);
        // Null heap field (no count-allocs) still round-trips.
        let mut nr = sample_run("Slashdot", 82_168);
        nr.heap_peak_bytes = None;
        let text2 = render_json(42, &[nr]);
        let parsed2 = parse_runs(&text2).unwrap();
        assert_eq!(parsed2[0].heap_peak_bytes, None);
    }

    #[test]
    fn check_rejects_malformed_documents() {
        assert!(check_json("not json").is_err());
        assert!(check_json("{}").is_err());
        assert!(check_json("{\"schema\": \"select-scale/v1\"}").is_err());
        let good = render_json(42, &[sample_run("Facebook", 100)]);
        let bad = good.replace("\"converge_wall_ms\"", "\"converge_wall_ms_typo\"");
        assert!(check_json(&bad).is_err());
        let bad2 = good.replace("select-scale/v1", "select-scale/v0");
        assert!(check_json(&bad2).is_err());
    }

    #[test]
    fn merge_replaces_same_dataset_and_keeps_others() {
        let old_fb = sample_run("Facebook", 63_731);
        let tw = sample_run("Twitter", 3_990_418);
        let mut new_fb = sample_run("Facebook", 63_731);
        new_fb.rounds = 99;
        let merged = merge_runs(vec![old_fb, tw.clone()], vec![new_fb.clone()]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], new_fb, "fresh Facebook replaces recorded one");
        assert_eq!(merged[1], tw, "untouched preset survives the merge");
    }

    #[test]
    fn gate_checks_presence_convergence_and_budgets() {
        // Passing document.
        let good = render_json(42, &[sample_run("Facebook", 63_731)]);
        check_gate(&good).expect("in-budget run must pass the gate");
        // Missing Facebook.
        let missing = render_json(42, &[sample_run("Twitter", 3_990_418)]);
        assert!(check_gate(&missing)
            .unwrap_err()
            .contains("no Facebook run"));
        // Did not converge.
        let mut r = sample_run("Facebook", 63_731);
        r.converged = false;
        let err = check_gate(&render_json(42, &[r])).unwrap_err();
        assert!(err.contains("did not converge"), "{err}");
        // Over the wall-time budget.
        let mut r = sample_run("Facebook", 63_731);
        r.converge_wall_ms = FACEBOOK_GATE.max_converge_wall_ms + 1.0;
        let err = check_gate(&render_json(42, &[r])).unwrap_err();
        assert!(err.contains("converge took"), "{err}");
        // Over the memory budget.
        let mut r = sample_run("Facebook", 63_731);
        r.bytes_per_peer = FACEBOOK_GATE.max_bytes_per_peer + 1.0;
        let err = check_gate(&render_json(42, &[r])).unwrap_err();
        assert!(err.contains("bytes/peer"), "{err}");
    }

    #[test]
    fn small_measured_run_is_consistent() {
        let r = measure_at(Dataset::Facebook, 300, 300, 7);
        assert_eq!(r.dataset, "Facebook");
        assert_eq!(r.n, 300);
        assert!(r.directed_edges > 0);
        assert!(r.rounds > 0);
        assert!(r.converged, "300 peers must converge within 300 rounds");
        assert!(r.bytes_per_peer > 0.0);
        let text = render_json(7, &[r]);
        check_json(&text).expect("measured run must emit valid JSON");
    }
}
