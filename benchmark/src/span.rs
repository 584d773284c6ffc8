//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (`pass → bootstrap | round`, `publish → plan | publish_over`, ...): name,
//! start, end, the span that caused it, and an id shared by all spans of one
//! publication or pass. They stay in memory until the run ends and are then
//! written to `benchmark/out/<workload>.trace.json`. A layer's self time is
//! its span minus the part its children cover.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer or step name.
    pub name: &'static str,
    /// Shared by every span of one publication or pass.
    pub id: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

/// Records nested spans while enabled; a disabled recorder runs the wrapped
/// call and records nothing, so plain and traced passes share one code path.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that starts disabled.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span `name` belonging to operation `id`.
    pub fn scope<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of each span: its duration minus the part of that interval its
/// direct children cover (children of one parent run one after the other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    own
}

/// Per-name totals `(name, spans, total ns, self ns)`, ordered by name.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let own = self_times_ns(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let total = s.end_ns - s.start_ns;
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += total;
                r.3 += own_ns;
            }
            None => rows.push((s.name, 1, total, own_ns)),
        }
    }
    rows.sort_by_key(|r| r.0);
    rows
}

/// Renders the trace file: the per-name self-time table, then every span as
/// `[name index, id, parent index or -1, start ns, end ns]`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let rows = summary(spans);
    let names: Vec<&str> = rows.iter().map(|r| r.0).collect();
    let mut out = format!(
        "{{\"schema\":\"select-benchmark-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\n\"names\":[{}],\n\"self_time\":[\n",
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(",")
    );
    let table: Vec<String> = rows
        .iter()
        .map(|(name, count, total, own)| {
            format!(
                "{{\"name\":\"{name}\",\"spans\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )
        })
        .collect();
    out.push_str(&table.join(",\n"));
    out.push_str("],\n\"spans\":[\n");
    let lines: Vec<String> = spans
        .iter()
        .map(|s| {
            let name = names.iter().position(|n| *n == s.name).unwrap_or(0);
            let parent = s.parent.map_or(-1, |p| p as i64);
            format!("[{name},{},{parent},{},{}]", s.id, s.start_ns, s.end_ns)
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("]}\n");
    out
}
