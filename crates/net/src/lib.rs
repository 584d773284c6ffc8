//! # osn-net — the "realistic experiments" runtime
//!
//! The paper's realistic evaluation (§IV-D) ran browser peers over WebRTC on
//! 18 VMs, sending 1.2 MB payloads with per-peer bandwidth heterogeneity and
//! per-link latency. This crate substitutes that testbed with a layered
//! network stack that exercises the same code paths (see DESIGN.md §3, §12):
//!
//! * [`timing`] — a deterministic virtual-time transfer simulator:
//!   store-and-forward dissemination over a routing tree where each peer's
//!   uploads are **serialized** (the star experiment's linear law) and every
//!   link carries its own propagation latency. This produces the Fig. 7
//!   latency series.
//! * [`transport`] — the [`Transport`] trait the publish driver needs, plus
//!   [`publish_over`]: the ack-window/retransmission loop written once, so
//!   retry policy cannot drift between link families.
//! * [`runtime`] — the peer runtime: **one** non-blocking peer step (dedup,
//!   ack, trace re-stamp, fault fate, fan-out, probe reply), **one** pump
//!   serving a range of peers per worker thread, and **one** driver
//!   ([`PeerNetwork`]: spawn, handshake, publish, probe, shutdown, the
//!   single `Transport` impl), generic over a small [`runtime::Link`]
//!   trait. It also hosts the reference link family — crossbeam channels,
//!   all peers on `max(1, cores − 1)` workers ([`ThreadedNetwork`]) —
//!   deterministic and fast; the baseline conformance replays against.
//! * [`codec`] — the dependency-free binary framing of `WireMsg`
//!   (length-prefixed little-endian, magic + version header); decoding is
//!   total and panic-free.
//! * [`socket`] — the loopback-TCP link family ([`SocketNetwork`]): a
//!   listener per peer, a persistent control stream to the driver, every
//!   message a codec frame. The `wire_conformance` integration test pins
//!   its delivery sets to the in-process reference under identical seeds.
//! * [`throttled`] — the channel family with modelled upload bandwidth
//!   ([`ThrottledNetwork`]): a pace policy makes forwards cost real
//!   wall-clock time, validating [`timing`]'s predictions.
//! * [`stats`] — per-transport wire telemetry ([`TransportStats`]):
//!   frame/byte counters per tag, retransmissions, reconnects, garbage
//!   frames; snapshots merge into the obs layer's Prometheus export.

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
