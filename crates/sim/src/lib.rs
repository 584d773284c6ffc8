//! # osn-sim — simulation substrate
//!
//! The paper evaluates SELECT with a vertex-centric simulator on a Flink
//! cluster ("in synchronized iteration steps, each peer produces messages to
//! other peers and updates their identifiers and their connections", §IV).
//! This crate reimplements that execution model as a deterministic,
//! single-process engine, plus the stochastic models the evaluation plugs in:
//!
//! * [`engine`] — synchronous superstep (vertex-centric) execution with
//!   per-round message exchange, and a discrete-event queue for the
//!   latency-aware realistic experiments.
//! * [`dist`] — seedable log-normal / exponential samplers (implemented
//!   in-repo; no `rand_distr` dependency).
//! * [`churn`] — the log-normal churn process of Berta et al. used in Fig. 6,
//!   and per-peer availability session traces.
//! * [`cma`] — Cumulative Moving Average online-behaviour tracking (§III-F).
//! * [`fault`] — seeded mid-flight fault injection (link drops, delay
//!   jitter, mid-publication crashes) that replays bit-identically at any
//!   thread count.
//! * [`latency`] — heterogeneous per-peer bandwidth and per-link latency
//!   models for the realistic experiments (§IV-D, 1.2 MB payloads).
//! * [`workload`] — exponential-rate publication workload (Jiang et al.).
//! * [`collect`] — metric accumulators (means, histograms, per-degree load).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod cma;
pub mod collect;
pub mod dist;
pub mod engine;
pub mod fault;
pub mod latency;
pub mod workload;

pub use churn::{AvailabilityTrace, ChurnModel};
pub use cma::Cma;
pub use collect::Mean;
pub use dist::{Exponential, LogNormal};
pub use engine::{EventQueue, ShardArenas, ShardScratch, SuperstepEngine};
pub use fault::{FaultPlan, FrameFate};
pub use latency::{BandwidthModel, LinkModel};
pub use workload::PublishWorkload;
