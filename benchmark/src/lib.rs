//! Reference benchmark of the SELECT reproduction.
//!
//! Measures the system only from outside, by timing calls into public
//! functions of `osn-graph`, `osn-sim`, `osn-lsh`, `osn-overlay`,
//! `select-core`, `osn-obs` and `osn-net`. See `README.md` for the metric
//! glossary, the workloads and how to run, trace and repeat.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inputs;
pub mod orchestrate;
pub mod probes;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;
