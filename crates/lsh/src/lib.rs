//! # osn-lsh — locality-sensitive hashing over friendship bitmaps
//!
//! SELECT's connection-establishment step (paper §III-D, Algorithm 5) indexes
//! the *friendship bitmaps* of a peer's social neighbourhood into `|H| = K`
//! LSH buckets: peers whose connection sets are similar collide, and the peer
//! then establishes at most one long-range link per bucket — picking links
//! from "different zones of the overlay and avoid\[ing\] link overlap".
//!
//! The family is [`BitSampling`] (Gionis/Indyk/Motwani, VLDB'99) —
//! Hamming-distance LSH: a hash is a random sample of bit positions;
//! collision probability is `1 − h/d` per sampled bit. It is deterministic
//! given a seed, and identical bitmaps always collide
//! (a property the recovery mechanism relies on when it swaps an unresponsive
//! peer for another member of the same bucket).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod family;
pub mod index;

pub use bitmap::Bitmap;
pub use family::{BitSampling, LshFamily};
pub use index::LshIndex;
