//! # osn-obs — deterministic observability for the SELECT overlay
//!
//! The paper's evaluation (Figs. 5–7) reports *distributions* — hop counts,
//! per-peer relay load, notification latency under churn — which scalar
//! telemetry cannot reproduce. This crate is the workspace's observability
//! subsystem, built under the same invariants as the protocol code it
//! watches:
//!
//! * **Deterministic.** No ambient clocks or RNG anywhere (L2, banned by
//!   this crate's `clippy.toml`). Time is the simulation's virtual time: rounds, and
//!   virtual milliseconds from `osn_sim::latency`. Sharded per-thread
//!   recorders merge by commutative bucket addition at the superstep apply
//!   barrier, so every metric is bit-identical at any `--threads` value.
//! * **Low-overhead.** Histograms are fixed-size and preallocated
//!   (HDR-style log buckets), the publish recorder's per-peer array is
//!   sized up front (no allocation on the hot path), and the flight
//!   recorder writes fixed-size journey slots into a preallocated ring.
//!   Recording disabled is a branch on an `Option`.
//! * **Exportable.** Snapshots render to the Prometheus text format or
//!   JSON (`select … --metrics-out FILE`), and failed message journeys
//!   dump hop-by-hop (`--trace-failed`).
//!
//! Modules:
//! * [`hist`] — log-bucketed [`Histogram`] with p50/p95/p99 and
//!   deterministic merge.
//! * [`recorder`] — [`PublishRecorder`] for the five dissemination metrics.
//! * [`flight`] — [`FlightRecorder`] ring buffer of message journeys.
//! * [`trace`] — cross-peer [`TraceAssembler`]: wire-level span records
//!   drained from transport threads → canonical publish trees with per-hop
//!   latency breakdown.
//! * [`export`] — [`MetricsSnapshot`] → Prometheus text / JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod hist;
pub mod recorder;
pub mod trace;

pub use export::MetricsSnapshot;
pub use flight::{FlightRecorder, Journey, JourneyId, JourneyStatus, RouteChoice, TraceEvent};
pub use hist::Histogram;
pub use recorder::PublishRecorder;
pub use trace::{span_id, SpanRecord, TraceAssembler, TraceLatency};

/// Everything the core publish path can observe, bundled so call sites
/// thread a single `Option<&mut Observer>` through the pipeline. `None`
/// keeps the steady path byte-identical to the un-instrumented build.
#[derive(Debug, Default)]
pub struct Observer {
    /// Dissemination metrics (always on when the observer is installed).
    pub metrics: PublishRecorder,
    /// Per-message journey tracing (opt-in; `None` = zero-cost).
    pub flight: Option<FlightRecorder>,
    /// Distribution of same-source publish batch sizes (one sample per
    /// `publish_batch_*` call), showing how much traversal sharing the
    /// batched routing path actually gets.
    pub batch_sizes: Histogram,
}

impl Observer {
    /// An observer with metrics preallocated for `n` peers and tracing off.
    pub fn for_peers(n: usize) -> Self {
        Observer {
            metrics: PublishRecorder::preallocated(n),
            flight: None,
            batch_sizes: Histogram::new(),
        }
    }

    /// Enables journey tracing with a ring of `capacity` journeys.
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.flight = Some(FlightRecorder::with_capacity(capacity));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_builder() {
        let o = Observer::for_peers(16);
        assert!(o.flight.is_none());
        assert!(o.metrics.is_empty());
        let o = Observer::for_peers(16).with_tracing(8);
        assert_eq!(o.flight.unwrap().capacity(), 8);
    }
}
