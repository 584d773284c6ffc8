//! Cross-peer trace assembly: Dapper-style span records → publish trees.
//!
//! The transports stamp an optional `TraceContext` (trace id, parent span,
//! hop depth) into publish/ack/probe frames. Each peer thread that first
//! delivers a traced publish records one [`SpanRecord`] into a local
//! buffer; the buffers are drained at shutdown and fed to a
//! [`TraceAssembler`], which regroups them into per-publication trees,
//! checks causal completeness against the delivery set, renders a
//! **canonical** tree (no wall-clock content, so inproc runs are
//! bit-identical at any thread count), and computes per-hop and
//! critical-path latency from the wall-clock stamps.
//!
//! This module performs no I/O and reads no clocks (`clippy.toml` bans
//! them crate-wide): wall-clock values arrive pre-stamped in the records,
//! measured by the transports against a shared epoch.

use crate::flight::{FlightRecorder, JourneyStatus, RouteChoice, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One peer's participation in one traced publish journey. Recorded at the
/// moment of first delivery; `Copy` so per-thread buffers stay allocation
/// -light.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The journey (the transports use the publication id).
    pub trace_id: u64,
    /// This span's id: [`span_id`]`(trace_id, peer)`, never 0.
    pub span_id: u64,
    /// Span id of the frame's sender; 0 = the driver injected it.
    pub parent_span: u64,
    /// The recording peer.
    pub peer: u32,
    /// Hop depth carried by the delivering frame (driver frames are 0).
    pub hop: u8,
    /// Transmission attempt of the delivering frame (0 = original wave).
    pub attempt: u32,
    /// Microseconds since the transport's shared epoch at delivery.
    /// Excluded from canonical renderings; feeds the latency breakdown.
    pub wall_us: u64,
}

/// Deterministic span id for `peer`'s participation in `trace_id`:
/// a splitmix64-style mix, pinned nonzero (0 is the driver-root sentinel).
/// Pure, so every runtime — and every thread — derives the same id for the
/// same (trace, peer) pair without coordination.
pub fn span_id(trace_id: u64, peer: u32) -> u64 {
    let mut z = trace_id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(
        u64::from(peer)
            .wrapping_add(1)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// Latency breakdown of one assembled trace, derived from the span
/// wall-clock stamps (wall content lives here, never in the canonical
/// tree text).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLatency {
    /// Spans recorded for this trace.
    pub spans: usize,
    /// Deepest hop observed.
    pub max_hop: u8,
    /// Peers along the slowest root→leaf chain, root first.
    pub critical_path: Vec<u32>,
    /// Per-hop deltas (µs) along the critical path: `per_hop_us[i]` is the
    /// time from `critical_path[i]`'s delivery to `critical_path[i+1]`'s.
    pub per_hop_us: Vec<u64>,
    /// End-to-end µs from the root span's delivery to the slowest leaf.
    pub critical_path_us: u64,
}

/// Regroups drained span buffers into per-publication trees.
#[derive(Clone, Debug, Default)]
pub struct TraceAssembler {
    spans: Vec<SpanRecord>,
}

impl TraceAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        TraceAssembler::default()
    }

    /// Absorbs one drained buffer of spans (any order, any thread).
    pub fn absorb(&mut self, spans: impl IntoIterator<Item = SpanRecord>) {
        self.spans.extend(spans);
    }

    /// Total spans absorbed so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The distinct trace ids seen, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// This trace's spans in canonical order: (hop, peer, attempt).
    pub fn spans_of(&self, trace_id: u64) -> Vec<&SpanRecord> {
        let mut spans: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .collect();
        spans.sort_by_key(|s| (s.hop, s.peer, s.attempt));
        spans
    }

    /// Everything wrong with this trace's causal chain given the delivery
    /// set the transport reported: delivered peers with no span, and spans
    /// whose parent is neither the driver sentinel nor a recorded span.
    /// Empty means the chain is complete root→leaf.
    pub fn chain_gaps(&self, trace_id: u64, delivered: &[u32]) -> Vec<String> {
        let spans = self.spans_of(trace_id);
        let mut gaps = Vec::new();
        for &peer in delivered {
            if !spans.iter().any(|s| s.peer == peer) {
                gaps.push(format!(
                    "trace {trace_id}: delivered peer {peer} has no span"
                ));
            }
        }
        for s in &spans {
            if s.parent_span != 0 && !spans.iter().any(|p| p.span_id == s.parent_span) {
                gaps.push(format!(
                    "trace {trace_id}: span of peer {} (hop {}) has unknown parent {:#x}",
                    s.peer, s.hop, s.parent_span
                ));
            }
        }
        gaps
    }

    /// True when every delivered peer has a span and every span's parent
    /// chain reaches the driver root.
    pub fn chain_complete(&self, trace_id: u64, delivered: &[u32]) -> bool {
        self.chain_gaps(trace_id, delivered).is_empty()
    }

    /// Renders this trace as a canonical indented tree. Children sort by
    /// (peer, attempt); **no wall-clock content**, so two runs that made
    /// identical delivery decisions render byte-identical text regardless
    /// of thread count or scheduling. Spans whose parent was never
    /// recorded are listed under an `orphans:` section rather than lost.
    pub fn canonical_tree(&self, trace_id: u64, out: &mut String) {
        let spans = self.spans_of(trace_id);
        let _ = writeln!(out, "trace {trace_id}: {} spans", spans.len());
        // parent span id -> children, already in canonical order.
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &spans {
            children.entry(s.parent_span).or_default().push(s);
        }
        let mut emitted = 0usize;
        let mut stack: Vec<(&SpanRecord, usize)> = Vec::new();
        for root in children.get(&0).into_iter().flatten().rev() {
            stack.push((root, 1));
        }
        while let Some((s, depth)) = stack.pop() {
            emitted += 1;
            let _ = writeln!(
                out,
                "{:indent$}peer {} hop {} attempt {}",
                "",
                s.peer,
                s.hop,
                s.attempt,
                indent = depth * 2
            );
            // Guard against a malformed parent cycle exhausting the stack.
            if emitted > spans.len() {
                break;
            }
            for child in children.get(&s.span_id).into_iter().flatten().rev() {
                stack.push((child, depth + 1));
            }
        }
        if emitted < spans.len() {
            let _ = writeln!(out, "  orphans:");
            let reachable = |s: &&SpanRecord| {
                s.parent_span == 0 || spans.iter().any(|p| p.span_id == s.parent_span)
            };
            for s in spans.iter().filter(|s| !reachable(s)) {
                let _ = writeln!(
                    out,
                    "    peer {} hop {} attempt {} parent {:#x}",
                    s.peer, s.hop, s.attempt, s.parent_span
                );
            }
        }
    }

    /// Canonical rendering of every absorbed trace, ascending by trace id.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        for id in self.trace_ids() {
            self.canonical_tree(id, &mut out);
        }
        out
    }

    /// Latency breakdown of one trace: the slowest root→leaf chain and its
    /// per-hop deltas, computed from the span wall stamps.
    pub fn latency(&self, trace_id: u64) -> TraceLatency {
        let spans = self.spans_of(trace_id);
        let mut lat = TraceLatency {
            spans: spans.len(),
            max_hop: spans.iter().map(|s| s.hop).max().unwrap_or(0),
            ..TraceLatency::default()
        };
        // Slowest span; ties break toward the smaller peer id for
        // determinism under equal (coarse) clock readings.
        let Some(slowest) = spans
            .iter()
            .max_by_key(|s| (s.wall_us, std::cmp::Reverse(s.peer)))
        else {
            return lat;
        };
        // Walk parents back to the driver root.
        let mut chain: Vec<&SpanRecord> = vec![slowest];
        let mut cur = *slowest;
        while cur.parent_span != 0 && chain.len() <= spans.len() {
            match spans.iter().find(|s| s.span_id == cur.parent_span) {
                Some(parent) => {
                    chain.push(parent);
                    cur = *parent;
                }
                None => break, // incomplete chain: report what exists
            }
        }
        chain.reverse();
        lat.critical_path = chain.iter().map(|s| s.peer).collect();
        lat.per_hop_us = chain
            .windows(2)
            .map(|w| w[1].wall_us.saturating_sub(w[0].wall_us))
            .collect();
        lat.critical_path_us = slowest
            .wall_us
            .saturating_sub(chain.first().map_or(0, |r| r.wall_us));
        lat
    }

    /// Replays the assembled traces into a [`FlightRecorder`], one journey
    /// per (publication, delivered subscriber), so wire-level traces reuse
    /// the recorder's dump/inspection machinery. Relay hops with
    /// `attempt > 0` are marked [`RouteChoice::Retry`].
    pub fn replay_into(&self, fr: &mut FlightRecorder) {
        for trace_id in self.trace_ids() {
            let spans = self.spans_of(trace_id);
            let publisher = spans
                .iter()
                .find(|s| s.parent_span == 0 && s.attempt == 0)
                .map_or(0, |s| s.peer);
            let root_wall = spans
                .iter()
                .filter(|s| s.parent_span == 0)
                .map(|s| s.wall_us)
                .min()
                .unwrap_or(0);
            for span in &spans {
                let id = fr.begin(trace_id, publisher, span.peer);
                fr.push(id, TraceEvent::Publish { publisher });
                // Rebuild the path driver→span (parent chain, reversed).
                let mut path: Vec<&SpanRecord> = vec![span];
                let mut cur = **span;
                while cur.parent_span != 0 && path.len() <= spans.len() {
                    match spans.iter().find(|s| s.span_id == cur.parent_span) {
                        Some(parent) => {
                            path.push(parent);
                            cur = **parent;
                        }
                        None => break,
                    }
                }
                path.reverse();
                for w in path.windows(2) {
                    fr.push(
                        id,
                        TraceEvent::Relay {
                            from: w[0].peer,
                            to: w[1].peer,
                            choice: if w[1].attempt > 0 {
                                RouteChoice::Retry
                            } else {
                                RouteChoice::Direct
                            },
                        },
                    );
                }
                let latency_us = span.wall_us.saturating_sub(root_wall);
                fr.push(
                    id,
                    TraceEvent::Deliver {
                        hops: u32::from(span.hop),
                        latency_ms: u32::try_from(latency_us / 1000).unwrap_or(u32::MAX),
                    },
                );
                fr.finish(id, JourneyStatus::Delivered);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, peer: u32, parent: u64, hop: u8, attempt: u32, wall: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: span_id(trace, peer),
            parent_span: parent,
            peer,
            hop,
            attempt,
            wall_us: wall,
        }
    }

    /// trace 9: driver → 0 → {1, 2}, 2 → 3; plus a hop-0 retry to peer 4.
    fn sample() -> TraceAssembler {
        let mut asm = TraceAssembler::new();
        let s0 = span_id(9, 0);
        let s2 = span_id(9, 2);
        asm.absorb(vec![
            span(9, 3, s2, 2, 0, 900),
            span(9, 0, 0, 0, 0, 100),
            span(9, 2, s0, 1, 0, 400),
            span(9, 1, s0, 1, 0, 300),
            span(9, 4, 0, 0, 1, 1500),
        ]);
        asm
    }

    #[test]
    fn span_ids_are_nonzero_and_distinct_per_peer() {
        let ids: Vec<u64> = (0..100).map(|p| span_id(7, p)).collect();
        assert!(ids.iter().all(|&i| i != 0));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_ne!(span_id(7, 3), span_id(8, 3), "trace id participates");
    }

    #[test]
    fn canonical_tree_is_insertion_order_independent() {
        let asm = sample();
        let mut reversed = TraceAssembler::new();
        let mut spans: Vec<SpanRecord> = asm.spans_of(9).into_iter().copied().collect();
        spans.reverse();
        reversed.absorb(spans);
        assert_eq!(asm.render_all(), reversed.render_all());
        let text = asm.render_all();
        assert!(text.contains("trace 9: 5 spans"), "got: {text}");
        assert!(text.contains("  peer 0 hop 0 attempt 0"), "got: {text}");
        assert!(text.contains("    peer 2 hop 1 attempt 0"), "got: {text}");
        assert!(text.contains("      peer 3 hop 2 attempt 0"), "got: {text}");
        assert!(text.contains("  peer 4 hop 0 attempt 1"), "got: {text}");
        assert!(!text.contains("orphans"), "got: {text}");
    }

    #[test]
    fn canonical_tree_excludes_wall_clock_content() {
        let mut jittered = sample();
        for s in &mut jittered.spans {
            s.wall_us = s.wall_us.wrapping_mul(31).wrapping_add(17);
        }
        assert_eq!(sample().render_all(), jittered.render_all());
    }

    #[test]
    fn chain_completeness_detects_gaps() {
        let asm = sample();
        assert!(asm.chain_complete(9, &[0, 1, 2, 3, 4]));
        // A delivered peer without a span is a gap.
        assert!(!asm.chain_complete(9, &[0, 1, 2, 3, 4, 5]));
        // A span whose parent was never recorded is a gap.
        let mut broken = sample();
        broken.absorb(vec![span(9, 6, 0xDEAD, 3, 0, 999)]);
        let gaps = broken.chain_gaps(9, &[0, 1, 2, 3, 4, 6]);
        assert_eq!(gaps.len(), 1, "{gaps:?}");
        assert!(gaps[0].contains("unknown parent"), "{gaps:?}");
        let text = broken.render_all();
        assert!(text.contains("orphans:"), "got: {text}");
    }

    #[test]
    fn latency_walks_the_critical_path() {
        let asm = sample();
        let lat = asm.latency(9);
        assert_eq!(lat.spans, 5);
        assert_eq!(lat.max_hop, 2);
        // Slowest span is the hop-0 retry to peer 4 (wall 1500).
        assert_eq!(lat.critical_path, vec![4]);
        assert_eq!(lat.critical_path_us, 0);
        // Without the retry, the slowest chain is 0 → 2 → 3.
        let mut asm = TraceAssembler::new();
        asm.absorb(
            sample()
                .spans_of(9)
                .into_iter()
                .copied()
                .filter(|s| s.peer != 4),
        );
        let lat = asm.latency(9);
        assert_eq!(lat.critical_path, vec![0, 2, 3]);
        assert_eq!(lat.per_hop_us, vec![300, 500]);
        assert_eq!(lat.critical_path_us, 800);
    }

    #[test]
    fn replay_bridges_spans_into_journeys() {
        let mut fr = FlightRecorder::with_capacity(16);
        sample().replay_into(&mut fr);
        assert_eq!(fr.recorded(), 5, "one journey per span");
        let deepest = fr
            .journeys()
            .find(|j| j.subscriber == 3)
            .expect("peer 3 journey");
        assert_eq!(deepest.publisher, 0);
        assert_eq!(deepest.nonce, 9);
        let text = deepest.to_string();
        assert!(text.contains("relay 0 -> 2 [direct]"), "got: {text}");
        assert!(text.contains("relay 2 -> 3 [direct]"), "got: {text}");
        assert!(text.contains("deliver after 2 hops"), "got: {text}");
        let retried = fr.journeys().find(|j| j.subscriber == 4).unwrap();
        assert_eq!(retried.events().len(), 2, "hop-0 retry: publish+deliver");
    }
}
