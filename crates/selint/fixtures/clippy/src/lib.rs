//! Seeded violations, one per lint that replaced a selint rule. Every
//! function here must be reported; `tests` must not be.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

// L1 (`disallowed_types`): hash containers, whatever their iteration shape.
pub struct Registry {
    pub members: HashMap<u32, u32>,
    pub seen: HashSet<u32>,
}

pub fn l1_keys(reg: &Registry) -> u32 {
    reg.members.keys().fold(0, |acc, k| acc ^ k)
}

pub fn l1_values_all(reg: &Registry) -> bool {
    reg.members.values().all(|&v| v > 0)
}

pub fn l1_explicit_into_iter(reg: Registry) -> Vec<u32> {
    reg.seen.into_iter().collect()
}

// L2 (`disallowed_methods` / `disallowed_types`): ambient nondeterminism.
pub fn l2_clock() -> Instant {
    Instant::now()
}

pub fn l2_clock_as_value() -> Instant {
    let now: fn() -> Instant = Instant::now;
    now()
}

pub fn l2_system_time() -> SystemTime {
    SystemTime::now()
}

pub fn l2_env() -> Option<String> {
    std::env::var("SEED").ok()
}

pub fn l2_random_state() -> std::collections::hash_map::RandomState {
    Default::default()
}

// L4: every panicking shape the wire stack denies.
pub fn l4_index(senders: &[u32], peer: usize) -> u32 {
    senders[peer]
}

pub fn l4_unwrap(senders: &[u32]) -> u32 {
    senders.first().copied().unwrap()
}

pub fn l4_expect(senders: &[u32]) -> u32 {
    senders.first().copied().expect("one sender")
}

pub fn l4_macros(tag: u8) -> u32 {
    match tag {
        0 => panic!("tag 0"),
        1 => unreachable!("tag 1"),
        2 => todo!(),
        _ => unimplemented!(),
    }
}

// L5: a wildcard arm hides the next variant from the compiler.
pub enum Msg {
    Publish,
    Ack,
    Evict,
}

pub fn l5_wildcard(m: &Msg) -> u8 {
    match m {
        Msg::Publish => 1,
        _ => 0,
    }
}

// L7: the three narrowing casts.
pub fn l7_truncation(n: usize) -> u32 {
    n as u32
}

pub fn l7_wrap(n: u32) -> i32 {
    n as i32
}

pub fn l7_sign_loss(d: i64) -> u64 {
    d as u64
}

// A stale waiver fails under `-D warnings` (unfulfilled_lint_expectations).
#[expect(
    clippy::cast_possible_truncation,
    reason = "stale on purpose: nothing narrows here"
)]
pub fn stale_expectation() {}

#[cfg(test)]
mod tests {
    // Tests are exempt from the L4 lints through the clippy.toml test keys.
    #[test]
    fn may_panic() {
        let v = [1u32];
        assert_eq!(v[0], v.first().copied().unwrap());
    }
}
