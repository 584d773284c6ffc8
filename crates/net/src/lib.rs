//! # osn-net — the "realistic experiments" runtime
//!
//! The paper's realistic evaluation (§IV-D) ran browser peers over WebRTC on
//! 18 VMs. This crate substitutes that testbed with a layered network stack
//! that exercises the same code paths (DESIGN.md §3, §12):
//!
//! * [`timing`] — deterministic virtual-time store-and-forward transfers
//!   (serialized uploads, per-link latency): the Fig. 7 latency series.
//! * [`transport`] — the [`Transport`] trait and [`publish_over`], the
//!   ack-window/retransmission loop written once.
//! * [`runtime`] — one peer step, one pump per worker and one driver
//!   ([`PeerNetwork`]) over a small [`runtime::Link`] trait, plus the
//!   reference channel family ([`ThreadedNetwork`]).
//! * [`codec`] — panic-free binary framing of `WireMsg`.
//! * [`socket`] — the loopback-TCP family ([`SocketNetwork`]), pinned to the
//!   reference's delivery sets by the `wire_conformance` test.
//! * [`throttled`] — channels with modelled upload bandwidth
//!   ([`ThrottledNetwork`]), validating [`timing`]'s predictions.
//! * [`stats`] — per-transport wire telemetry ([`TransportStats`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

pub mod codec;
#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests are exempt
mod contract;
pub mod runtime;
pub mod socket;
pub mod stats;
pub mod throttled;
pub mod timing;
pub mod transport;

pub use runtime::{PeerNetwork, ThreadedNetwork};
pub use socket::SocketNetwork;
pub use stats::{StatsSnapshot, TransportStats};
pub use throttled::{ThrottledNetwork, TimedPublishResult};
pub use timing::{DisseminationTiming, TransferSim};
pub use transport::{publish_over, PeerAddr, PublishResult, Transport};
