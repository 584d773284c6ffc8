//! # osn-graph — social graph substrate
//!
//! This crate provides the social-network layer of the SELECT reproduction
//! (Apolónia et al., IPDPS 2018): an immutable, cache-friendly CSR graph, a
//! mutable builder, random-graph generators calibrated against the paper's
//! four real-world data sets (Table II), the evolving-network growth model the
//! paper's evaluation uses (Zhu et al.), and structural metrics (degree
//! distributions, clustering, common-neighbour queries) that drive the
//! social-strength computation of Eq. 2.
//!
//! The paper evaluates on SNAP snapshots of Facebook, Twitter, Slashdot and
//! Google+. Those exact snapshots are not redistributable here, so
//! [`datasets`] synthesizes graphs matched to each data set's published user
//! count and average degree with power-law degree skew and triadic closure
//! (see DESIGN.md §3 for the substitution argument).
//!
//! ```
//! use osn_graph::prelude::*;
//!
//! let graph = datasets::Dataset::Facebook.generate_scaled(0.01, 42);
//! assert!(graph.num_nodes() > 500);
//! let deg = metrics::average_degree(&graph);
//! assert!(deg > 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod growth;
pub mod ids;
pub mod io;
pub mod metrics;
pub mod sampling;

pub use builder::GraphBuilder;
pub use csr::SocialGraph;
pub use ids::UserId;

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::csr::SocialGraph;
    pub use crate::datasets;
    pub use crate::generators;
    pub use crate::growth::{GrowthModel, JoinEvent};
    pub use crate::ids::UserId;
    pub use crate::metrics;
    pub use crate::sampling;
}
