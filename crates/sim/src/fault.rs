//! Deterministic fault injection for mid-flight failures.
//!
//! The churn machinery (`churn`, `SelectNetwork::set_offline`) fails peers
//! *between* rounds: departures are atomic at step boundaries and messages
//! never fail in flight. A [`FaultPlan`] injects the failures that happen
//! *during* a publication — per-link message drops, per-link delay jitter,
//! and peers crashing mid-dissemination — which is exactly where
//! socially-informed overlays are most fragile (high-degree relay hubs,
//! correlated departures).
//!
//! Every decision is a pure function of `(seed, publication nonce, attempt,
//! link)` via a splitmix64 hash — no RNG state is consumed, no ordering is
//! observed — so a seeded run replays **bit-identically at any thread
//! count** and a single faulty publication can be re-simulated in isolation.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// splitmix64 finalizer: a well-mixed 64-bit hash of the packed key.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to the unit interval `[0, 1)` with 53 bits of precision.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded schedule of mid-flight faults.
///
/// Probabilities of `0.0` (the [`FaultPlan::default`]) disable the
/// corresponding fault class entirely, making the plan free to thread
/// through hot paths unconditionally.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Probability that any single link transmission is dropped.
    pub drop_prob: f64,
    /// Probability that a peer crashes for the whole of one publication
    /// (it stops forwarding mid-flight; retries must route around it).
    pub crash_prob: f64,
    /// Upper bound of the uniform per-transmission delay jitter, in
    /// virtual milliseconds (`0.0` = no jitter).
    pub max_delay_ms: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            crash_prob: 0.0,
            max_delay_ms: 0.0,
        }
    }

    /// A fresh plan deriving every decision from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::disabled()
        }
    }

    /// Returns the plan with the per-transmission drop probability set.
    ///
    /// # Panics
    /// Panics unless `p` is in `[0, 1]`.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of [0,1]");
        self.drop_prob = p;
        self
    }

    /// Returns the plan with the per-publication crash probability set.
    ///
    /// # Panics
    /// Panics unless `p` is in `[0, 1]`.
    pub fn with_crash_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "crash probability out of [0,1]");
        self.crash_prob = p;
        self
    }

    /// Returns the plan with the delay-jitter bound set (virtual ms).
    ///
    /// # Panics
    /// Panics if `ms` is negative.
    pub fn with_max_delay_ms(mut self, ms: f64) -> Self {
        assert!(ms >= 0.0, "delay bound must be non-negative");
        self.max_delay_ms = ms;
        self
    }

    /// Whether any fault class is active.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0 || self.crash_prob > 0.0 || self.max_delay_ms > 0.0
    }

    /// Hash of one transmission: publication `nonce`, retry `attempt`,
    /// directed link `from → to`, decision `domain` (drop vs delay).
    #[inline]
    fn link_hash(&self, nonce: u64, attempt: u32, from: u32, to: u32, domain: u64) -> u64 {
        let link = ((from as u64) << 32) | to as u64;
        mix(self
            .seed
            .wrapping_add(mix(nonce ^ domain))
            .wrapping_add(mix(link))
            .wrapping_add(attempt as u64))
    }

    /// Whether transmission `from → to` of publication `nonce`, retry
    /// `attempt`, is dropped in flight.
    #[inline]
    pub fn drops(&self, nonce: u64, attempt: u32, from: u32, to: u32) -> bool {
        self.drop_prob > 0.0
            && unit(self.link_hash(nonce, attempt, from, to, 0xD20B)) < self.drop_prob
    }

    /// Whether `peer` is crashed for the whole of publication `nonce`
    /// (all retry attempts included — a crashed relay stays crashed until
    /// the publication is over, so retries must route around it).
    #[inline]
    pub fn crashes(&self, nonce: u64, peer: u32) -> bool {
        self.crash_prob > 0.0
            && unit(mix(self
                .seed
                .wrapping_add(mix(nonce ^ 0xC4A5))
                .wrapping_add(peer as u64)))
                < self.crash_prob
    }

    /// Delay jitter for transmission `from → to`, uniform in
    /// `[0, max_delay_ms)` virtual milliseconds.
    #[inline]
    pub fn delay_ms(&self, nonce: u64, attempt: u32, from: u32, to: u32) -> f64 {
        if self.max_delay_ms <= 0.0 {
            return 0.0;
        }
        unit(self.link_hash(nonce, attempt, from, to, 0xDE1A)) * self.max_delay_ms
    }

    /// The fate of one frame crossing the `from → to` link: the single
    /// transport-boundary decision combining the drop draw and the delay
    /// draw, so every transport (in-process channels, TCP sockets) applies
    /// faults identically and delivery sets replay across them. The drop
    /// draw happens first; a dropped frame draws no delay.
    #[inline]
    pub fn frame_fate(&self, nonce: u64, attempt: u32, from: u32, to: u32) -> FrameFate {
        if self.drops(nonce, attempt, from, to) {
            FrameFate::Drop
        } else {
            FrameFate::Deliver {
                delay_ms: self.delay_ms(nonce, attempt, from, to),
            }
        }
    }
}

/// What a [`FaultPlan`] decided for one frame at a transport boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FrameFate {
    /// Discard the frame without delivering it.
    Drop,
    /// Deliver after the given jitter (virtual milliseconds; `0.0` = now).
    Deliver {
        /// Uniform delay drawn for this transmission.
        delay_ms: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_injects_nothing() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        for i in 0..1000u32 {
            assert!(!p.drops(7, 0, i, i + 1));
            assert!(!p.crashes(7, i));
            assert_eq!(p.delay_ms(7, 0, i, i + 1), 0.0);
        }
    }

    #[test]
    fn decisions_are_replayable() {
        let p = FaultPlan::seeded(42)
            .with_drop_prob(0.3)
            .with_crash_prob(0.1);
        let q = FaultPlan::seeded(42)
            .with_drop_prob(0.3)
            .with_crash_prob(0.1);
        for nonce in 0..20u64 {
            for peer in 0..50u32 {
                assert_eq!(p.crashes(nonce, peer), q.crashes(nonce, peer));
                assert_eq!(
                    p.drops(nonce, 1, peer, peer + 1),
                    q.drops(nonce, 1, peer, peer + 1)
                );
            }
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let p = FaultPlan::seeded(1).with_drop_prob(0.25);
        let trials = 40_000u32;
        let hits = (0..trials)
            .filter(|&i| p.drops(i as u64, 0, i, i + 1))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical drop rate {rate}");
    }

    #[test]
    fn crash_is_stable_across_attempts_but_not_nonces() {
        let p = FaultPlan::seeded(9).with_crash_prob(0.2);
        // A crashed peer stays crashed for every attempt of one publication
        // (the decision has no attempt input at all), but a different
        // publication re-rolls.
        let crashed: Vec<u32> = (0..200).filter(|&q| p.crashes(3, q)).collect();
        assert!(!crashed.is_empty());
        let other: Vec<u32> = (0..200).filter(|&q| p.crashes(4, q)).collect();
        assert_ne!(crashed, other, "crash schedule should vary by publication");
    }

    #[test]
    fn retries_redraw_drop_decisions() {
        let p = FaultPlan::seeded(5).with_drop_prob(0.5);
        // Over many links, attempt 0 and attempt 1 must disagree somewhere —
        // otherwise retransmission could never succeed.
        let differs = (0..1000u32).any(|i| p.drops(1, 0, i, i + 1) != p.drops(1, 1, i, i + 1));
        assert!(differs);
    }

    #[test]
    fn delay_stays_in_bound() {
        let p = FaultPlan::seeded(2).with_max_delay_ms(12.5);
        let mut seen_positive = false;
        for i in 0..500u32 {
            let d = p.delay_ms(0, 0, i, i + 1);
            assert!((0.0..12.5).contains(&d));
            seen_positive |= d > 0.0;
        }
        assert!(seen_positive);
    }

    #[test]
    fn builder_validates() {
        let p = FaultPlan::seeded(3)
            .with_drop_prob(0.1)
            .with_crash_prob(0.05)
            .with_max_delay_ms(4.0);
        assert!(p.is_active());
        assert_eq!(p.seed, 3);
    }
}
