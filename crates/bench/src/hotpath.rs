//! Hot-path micro-benchmark: converge + publish cost of the SELECT overlay,
//! emitted as the machine-readable `BENCH_hotpath.json` so every PR has a
//! perf trajectory to move.
//!
//! The harness times `SelectNetwork::bootstrap` + `converge` (the per-round
//! hot path) and a steady-state publish loop (the per-publication hot path),
//! and — when the `count-allocs` feature is on — attributes heap allocations
//! to each publish via the counting global allocator in [`crate::allocs`].
//! The emitted JSON carries the **pre-refactor baseline** (captured on the
//! `HashMap`-per-peer storage at commit f1fcd4e with this same harness)
//! alongside the current measurement, so the reduction is recorded in the
//! file itself rather than in a lost terminal scrollback.

use crate::allocs;
use osn_graph::datasets::Dataset;
use select_core::{SelectConfig, SelectNetwork};
use std::time::Instant;

/// One measured run of the hot-path harness.
#[derive(Clone, Copy, Debug)]
pub struct HotpathMetrics {
    /// Peers in the network.
    pub n: usize,
    /// Gossip rounds `converge` executed.
    pub rounds: usize,
    /// Wall-clock time of bootstrap + converge, milliseconds.
    pub converge_wall_ms: f64,
    /// Publications in the timed loop.
    pub publishes: usize,
    /// Steady-state publication throughput.
    pub publishes_per_sec: f64,
    /// Peak resident set size (VmHWM) in KiB; 0 when /proc is unavailable.
    pub peak_rss_kb: u64,
    /// Heap allocations per publish (None without `count-allocs`).
    pub allocs_per_publish: Option<f64>,
    /// Heap bytes requested per publish (None without `count-allocs`).
    pub bytes_per_publish: Option<f64>,
}

/// The pre-refactor reference a current run is compared against.
#[derive(Clone, Copy, Debug)]
pub struct HotpathBaseline {
    /// Commit the baseline was captured at.
    pub commit: &'static str,
    /// See [`HotpathMetrics::converge_wall_ms`].
    pub converge_wall_ms: f64,
    /// See [`HotpathMetrics::publishes_per_sec`].
    pub publishes_per_sec: f64,
    /// See [`HotpathMetrics::peak_rss_kb`].
    pub peak_rss_kb: u64,
    /// See [`HotpathMetrics::allocs_per_publish`].
    pub allocs_per_publish: f64,
    /// See [`HotpathMetrics::bytes_per_publish`].
    pub bytes_per_publish: f64,
}

/// Harness sizing per `repro` preset: (peers, timed publishes).
pub fn preset_params(preset: &str) -> (usize, usize) {
    match preset {
        "quick" => (600, 2_000),
        "full" => (4_000, 10_000),
        _ => (2_000, 6_000),
    }
}

/// Pre-refactor numbers for `preset_params(preset)`, captured with this
/// harness (threads = 1, seed 42, `count-allocs` on, release mode) on the
/// cloned-graph / `HashMap`-per-peer storage. `None` for presets with no
/// recorded baseline.
pub fn baseline_for(preset: &str) -> Option<HotpathBaseline> {
    match preset {
        "quick" => Some(HotpathBaseline {
            commit: "f1fcd4e",
            converge_wall_ms: 516.3,
            publishes_per_sec: 4_871.8,
            peak_rss_kb: 4_672,
            allocs_per_publish: 898.2,
            bytes_per_publish: 105_520.5,
        }),
        "standard" => Some(HotpathBaseline {
            commit: "f1fcd4e",
            converge_wall_ms: 1_639.3,
            publishes_per_sec: 3_988.0,
            peak_rss_kb: 8_260,
            allocs_per_publish: 693.9,
            bytes_per_publish: 102_338.2,
        }),
        _ => None,
    }
}

/// Same-source publications grouped per batch in the timed loop — the
/// batched routing path plans one scratch traversal per `BATCH` publishes.
pub const BATCH: usize = 8;

/// Publishes/sec this harness recorded at the optimization stages before
/// the current one (threads = 1, seed 42, `count-allocs` on, release mode),
/// oldest first, so `BENCH_hotpath.json` carries the full trajectory:
/// HashMap-era baseline → flattened sequential (the sequential publish loop
/// immediately before batched routing) → batched → connection index (the
/// run being written). `None` for presets with no recorded history.
pub fn recorded_stages_for(preset: &str) -> Option<&'static [(&'static str, f64)]> {
    match preset {
        "quick" => Some(&[("flattened-sequential", 9_381.96), ("batched", 82_170.224)]),
        _ => None,
    }
}

/// Runs the hot-path harness: bootstrap + converge on Facebook-`n`, one
/// warm-up pass over the publishers, then `publishes` timed publications
/// issued as same-source batches of [`BATCH`] (each report bit-identical to
/// the equivalent sequential `publish_at`, pinned by the core test suite).
pub fn measure(n: usize, publishes: usize, seed: u64) -> HotpathMetrics {
    let graph = Dataset::Facebook.generate_with_nodes(n, seed);
    let started = Instant::now();
    let mut net = SelectNetwork::bootstrap(
        graph,
        SelectConfig::default().with_seed(seed).with_threads(1),
    );
    let report = net.converge(300);
    let converge_wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Warm-up: touch every publisher once so lazily-grown buffers and CPU
    // caches reach steady state before the timed loop.
    for b in 0..(n as u32).min(256) {
        let _ = net.publish(b);
    }

    let before = allocs::snapshot();
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < publishes {
        let batch = BATCH.min(publishes - i);
        let b = ((i / BATCH) % n) as u32;
        std::hint::black_box(net.publish_batch_at(b, i as u64, batch));
        i += batch;
    }
    let secs = t0.elapsed().as_secs_f64();
    let after = allocs::snapshot();

    let per_publish = |delta: u64| delta as f64 / publishes as f64;
    HotpathMetrics {
        n,
        rounds: report.rounds,
        converge_wall_ms,
        publishes,
        publishes_per_sec: publishes as f64 / secs,
        peak_rss_kb: peak_rss_kb(),
        allocs_per_publish: after.zip(before).map(|(a, b)| per_publish(a.0 - b.0)),
        bytes_per_publish: after.zip(before).map(|(a, b)| per_publish(a.1 - b.1)),
    }
}

/// Peak resident set size in KiB from `/proc/self/status` (Linux).
fn peak_rss_kb() -> u64 {
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

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.3}"),
        _ => "null".to_string(),
    }
}

/// Renders `BENCH_hotpath.json`: schema tag, harness parameters, the current
/// measurement, the recorded pre-refactor baseline (or null), and the
/// percentage reductions current achieves over it.
pub fn render_json(preset: &str, seed: u64, m: &HotpathMetrics) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"select-hotpath/v1\",\n");
    out.push_str(&format!("  \"preset\": \"{preset}\",\n"));
    out.push_str(&format!("  \"n\": {},\n", m.n));
    out.push_str(&format!("  \"publishes\": {},\n", m.publishes));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"current\": {\n");
    out.push_str(&format!("    \"rounds\": {},\n", m.rounds));
    out.push_str(&format!(
        "    \"converge_wall_ms\": {:.3},\n",
        m.converge_wall_ms
    ));
    out.push_str(&format!(
        "    \"publishes_per_sec\": {:.3},\n",
        m.publishes_per_sec
    ));
    out.push_str(&format!("    \"peak_rss_kb\": {},\n", m.peak_rss_kb));
    out.push_str(&format!(
        "    \"allocs_per_publish\": {},\n",
        fmt_opt(m.allocs_per_publish)
    ));
    out.push_str(&format!(
        "    \"bytes_per_publish\": {}\n",
        fmt_opt(m.bytes_per_publish)
    ));
    out.push_str("  },\n");
    match baseline_for(preset) {
        Some(b) => {
            out.push_str("  \"baseline\": {\n");
            out.push_str(&format!("    \"commit\": \"{}\",\n", b.commit));
            out.push_str(&format!(
                "    \"converge_wall_ms\": {:.3},\n",
                b.converge_wall_ms
            ));
            out.push_str(&format!(
                "    \"publishes_per_sec\": {:.3},\n",
                b.publishes_per_sec
            ));
            out.push_str(&format!("    \"peak_rss_kb\": {},\n", b.peak_rss_kb));
            out.push_str(&format!(
                "    \"allocs_per_publish\": {:.3},\n",
                b.allocs_per_publish
            ));
            out.push_str(&format!(
                "    \"bytes_per_publish\": {:.3}\n",
                b.bytes_per_publish
            ));
            out.push_str("  },\n");
            let red = |cur: f64, base: f64| {
                if base > 0.0 && cur.is_finite() {
                    format!("{:.1}", (1.0 - cur / base) * 100.0)
                } else {
                    "null".to_string()
                }
            };
            out.push_str("  \"reduction_pct\": {\n");
            out.push_str(&format!(
                "    \"converge_wall_ms\": {},\n",
                red(m.converge_wall_ms, b.converge_wall_ms)
            ));
            out.push_str(&format!(
                "    \"allocs_per_publish\": {},\n",
                red(
                    m.allocs_per_publish.unwrap_or(f64::NAN),
                    b.allocs_per_publish
                )
            ));
            out.push_str(&format!(
                "    \"bytes_per_publish\": {}\n",
                red(m.bytes_per_publish.unwrap_or(f64::NAN), b.bytes_per_publish)
            ));
            out.push_str("  },\n");
        }
        None => {
            out.push_str("  \"baseline\": null,\n");
            out.push_str("  \"reduction_pct\": null,\n");
        }
    }
    // Throughput trajectory across the optimization PRs. `check_json` ignores
    // keys it does not know, so older validators keep accepting this file.
    match recorded_stages_for(preset) {
        Some(stages) => {
            out.push_str("  \"trajectory\": [\n");
            if let Some(b) = baseline_for(preset) {
                out.push_str(&format!(
                    "    {{ \"stage\": \"hashmap-baseline\", \"commit\": \"{}\", \
                     \"publishes_per_sec\": {:.3} }},\n",
                    b.commit, b.publishes_per_sec
                ));
            }
            for (stage, per_sec) in stages {
                out.push_str(&format!(
                    "    {{ \"stage\": \"{stage}\", \"publishes_per_sec\": {per_sec:.3} }},\n"
                ));
            }
            out.push_str(&format!(
                "    {{ \"stage\": \"connection-index\", \"publishes_per_sec\": {:.3} }}\n",
                m.publishes_per_sec
            ));
            out.push_str("  ]\n");
        }
        None => out.push_str("  \"trajectory\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// Human-readable summary table printed alongside the JSON file.
pub fn render_table(preset: &str, m: &HotpathMetrics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Hot-path bench ({preset}: n={}, {} publishes, threads=1)\n",
        m.n, m.publishes
    ));
    out.push_str(&format!(
        "  converge: {} rounds in {:.1} ms\n",
        m.rounds, m.converge_wall_ms
    ));
    out.push_str(&format!(
        "  publish:  {:.0}/sec, peak RSS {} KiB\n",
        m.publishes_per_sec, m.peak_rss_kb
    ));
    match (m.allocs_per_publish, m.bytes_per_publish) {
        (Some(a), Some(bytes)) => out.push_str(&format!(
            "  allocs:   {a:.1}/publish, {bytes:.0} bytes/publish\n"
        )),
        _ => out.push_str("  allocs:   n/a (build with --features count-allocs)\n"),
    }
    if let Some(b) = baseline_for(preset) {
        out.push_str(&format!(
            "  baseline ({}): {:.1} ms converge, {:.0} pub/s, {:.1} allocs/publish\n",
            b.commit, b.converge_wall_ms, b.publishes_per_sec, b.allocs_per_publish
        ));
    }
    out
}

/// Validates an emitted `BENCH_hotpath.json` against the `select-hotpath/v1`
/// schema: top-level keys, the `current` block's numeric fields (alloc
/// fields may be null), and — when `baseline` is not null — the baseline
/// block's fields. Returns a description of the first violation.
pub fn check_json(text: &str) -> Result<(), String> {
    use json::ObjExt;
    let v = json::parse(text)?;
    let obj = v.as_object().ok_or("top level is not an object")?;
    let get = |k: &str| obj.field(k).ok_or(format!("missing key \"{k}\""));
    match get("schema")? {
        json::Value::Str(s) if s == "select-hotpath/v1" => {}
        other => return Err(format!("bad schema tag {other:?}")),
    }
    if !matches!(get("preset")?, json::Value::Str(_)) {
        return Err("\"preset\" is not a string".into());
    }
    for k in ["n", "publishes", "seed"] {
        if !matches!(get(k)?, json::Value::Num(_)) {
            return Err(format!("\"{k}\" is not a number"));
        }
    }
    let current = get("current")?
        .as_object()
        .ok_or("\"current\" is not an object")?;
    let block_fields = |block: &[(String, json::Value)], name: &str| -> Result<(), String> {
        for k in [
            "converge_wall_ms",
            "publishes_per_sec",
            "peak_rss_kb",
            "allocs_per_publish",
            "bytes_per_publish",
        ] {
            match block.iter().find(|(key, _)| key == k) {
                Some((_, json::Value::Num(_))) => {}
                Some((_, json::Value::Null)) if k.ends_with("_publish") => {}
                Some((_, other)) => return Err(format!("{name}.{k} has bad type {other:?}")),
                None => return Err(format!("missing {name}.{k}")),
            }
        }
        Ok(())
    };
    block_fields(current, "current")?;
    if !matches!(
        current.iter().find(|(k, _)| k == "rounds"),
        Some((_, json::Value::Num(_)))
    ) {
        return Err("current.rounds missing or not a number".into());
    }
    match get("baseline")? {
        json::Value::Null => {}
        b => {
            let b = b.as_object().ok_or("\"baseline\" is not an object")?;
            if !matches!(
                b.iter().find(|(k, _)| k == "commit"),
                Some((_, json::Value::Str(_)))
            ) {
                return Err("baseline.commit missing or not a string".into());
            }
            block_fields(b, "baseline")?;
        }
    }
    match get("reduction_pct")? {
        json::Value::Null | json::Value::Obj(_) => Ok(()),
        other => Err(format!("\"reduction_pct\" has bad type {other:?}")),
    }
}

/// Enforces the batched-routing acceptance gate on an emitted
/// `BENCH_hotpath.json`: `current.publishes_per_sec` must be at least
/// `min_ratio` × `baseline.publishes_per_sec`. Returns the achieved ratio,
/// or `Ok(None)` when the document records no baseline (presets without a
/// recorded history are not gated). Schema errors and regressions both come
/// back as `Err` so callers can fail the build with the message verbatim.
///
/// Deliberately separate from [`check_json`]: the schema check must keep
/// accepting structurally-valid documents regardless of the numbers in them.
pub fn check_speedup(text: &str, min_ratio: f64) -> Result<Option<f64>, String> {
    use json::ObjExt;
    let v = json::parse(text)?;
    let obj = v.as_object().ok_or("top level is not an object")?;
    let pub_rate = |block: &[(String, json::Value)], name: &str| -> Result<f64, String> {
        match block.field("publishes_per_sec") {
            Some(json::Value::Num(x)) => Ok(*x),
            _ => Err(format!("missing numeric {name}.publishes_per_sec")),
        }
    };
    let base = match obj.field("baseline").ok_or("missing key \"baseline\"")? {
        json::Value::Null => return Ok(None),
        b => pub_rate(
            b.as_object().ok_or("\"baseline\" is not an object")?,
            "baseline",
        )?,
    };
    let cur = pub_rate(
        obj.field("current")
            .ok_or("missing key \"current\"")?
            .as_object()
            .ok_or("\"current\" is not an object")?,
        "current",
    )?;
    if base <= 0.0 || base.is_nan() {
        return Err(format!("baseline.publishes_per_sec {base} is not positive"));
    }
    let ratio = cur / base;
    if ratio >= min_ratio {
        Ok(Some(ratio))
    } else {
        Err(format!(
            "throughput gate failed: current {cur:.1} pub/s is only {ratio:.2}x the \
             recorded baseline {base:.1} pub/s (required: {min_ratio:.1}x)"
        ))
    }
}

/// A minimal JSON reader, sufficient to validate the bench schema without an
/// external parser dependency (also reused by [`crate::obs_overhead`]).
pub(crate) mod json {
    /// A parsed JSON value. The validator only inspects variant kinds and
    /// string payloads, so the other payloads exist for error messages and
    /// future checks.
    #[allow(dead_code)]
    #[derive(Clone, Debug)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (parsed as f64).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }
    }

    /// Helper on object slices: field lookup by key (named `field` so it
    /// does not collide with the slice's inherent `get`).
    pub trait ObjExt {
        fn field(&self, key: &str) -> Option<&Value>;
    }
    impl ObjExt for [(String, Value)] {
        fn field(&self, key: &str) -> Option<&Value> {
            self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or(format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        other => other as char,
                    });
                    *pos += 1;
                }
                c => {
                    out.push(c as char);
                    *pos += 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            let val = parse_value(b, pos)?;
            fields.push((key, val));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_json_passes_its_own_check() {
        let m = HotpathMetrics {
            n: 600,
            rounds: 40,
            converge_wall_ms: 123.4,
            publishes: 2_000,
            publishes_per_sec: 5_000.0,
            peak_rss_kb: 10_000,
            allocs_per_publish: Some(12.5),
            bytes_per_publish: Some(4_096.0),
        };
        let json = render_json("quick", 42, &m);
        check_json(&json).expect("schema check failed on our own output");
        // Alloc counters off → nulls still validate.
        let m2 = HotpathMetrics {
            allocs_per_publish: None,
            bytes_per_publish: None,
            ..m
        };
        let json2 = render_json("quick", 42, &m2);
        check_json(&json2).expect("null alloc fields must validate");
        // No recorded baseline → null baseline validates.
        let json3 = render_json("full", 42, &m);
        check_json(&json3).expect("null baseline must validate");
    }

    #[test]
    fn check_rejects_malformed_documents() {
        assert!(check_json("not json").is_err());
        assert!(check_json("{}").is_err());
        assert!(check_json("{\"schema\": \"select-hotpath/v1\"}").is_err());
        let m = HotpathMetrics {
            n: 600,
            rounds: 40,
            converge_wall_ms: 1.0,
            publishes: 10,
            publishes_per_sec: 1.0,
            peak_rss_kb: 1,
            allocs_per_publish: Some(1.0),
            bytes_per_publish: Some(1.0),
        };
        let good = render_json("quick", 42, &m);
        let bad = good.replace("\"publishes_per_sec\"", "\"publishes_per_sec_typo\"");
        assert!(check_json(&bad).is_err());
        let bad2 = good.replace("select-hotpath/v1", "select-hotpath/v0");
        assert!(check_json(&bad2).is_err());
    }

    #[test]
    fn speedup_gate_compares_current_against_baseline() {
        let m = HotpathMetrics {
            n: 600,
            rounds: 40,
            converge_wall_ms: 123.4,
            publishes: 2_000,
            publishes_per_sec: 10_000.0,
            peak_rss_kb: 10_000,
            allocs_per_publish: Some(12.5),
            bytes_per_publish: Some(4_096.0),
        };
        // Quick baseline is 4871.8 pub/s: 10000 pub/s clears a 2.0x gate...
        let json = render_json("quick", 42, &m);
        let ratio = check_speedup(&json, 2.0)
            .expect("2.0x gate must pass")
            .expect("quick preset has a baseline");
        assert!((ratio - 10_000.0 / 4_871.8).abs() < 1e-9);
        // ...but not a 3.0x gate.
        let err = check_speedup(&json, 3.0).unwrap_err();
        assert!(err.contains("throughput gate failed"), "{err}");
        // Presets without a recorded baseline are not gated.
        let ungated = render_json("full", 42, &m);
        assert_eq!(check_speedup(&ungated, 2.0), Ok(None));
        // Garbage still fails loudly.
        assert!(check_speedup("not json", 2.0).is_err());
    }

    #[test]
    fn trajectory_block_tracks_the_optimization_prs() {
        let m = HotpathMetrics {
            n: 600,
            rounds: 40,
            converge_wall_ms: 123.4,
            publishes: 2_000,
            publishes_per_sec: 10_000.0,
            peak_rss_kb: 10_000,
            allocs_per_publish: None,
            bytes_per_publish: None,
        };
        let json = render_json("quick", 42, &m);
        check_json(&json).expect("trajectory key must not break the schema");
        for stage in [
            "hashmap-baseline",
            "flattened-sequential",
            "batched",
            "connection-index",
        ] {
            assert!(json.contains(stage), "missing trajectory stage {stage}");
        }
        // No recorded history → explicit null, still schema-valid.
        let json2 = render_json("full", 42, &m);
        check_json(&json2).expect("null trajectory must validate");
        assert!(json2.contains("\"trajectory\": null"));
    }

    #[test]
    fn small_harness_run_is_consistent() {
        let m = measure(80, 50, 7);
        assert_eq!(m.n, 80);
        assert_eq!(m.publishes, 50);
        assert!(m.rounds > 0);
        assert!(m.publishes_per_sec > 0.0);
        let json = render_json("test-preset", 7, &m);
        check_json(&json).expect("measured run must emit valid JSON");
    }
}
