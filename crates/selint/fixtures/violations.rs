//! Seeded fixture: one deliberate violation of every selint rule (L3 direct
//! and transitive, L6 lock-order in both shapes, plus a stale waiver). CI
//! runs `cargo run -p selint -- crates/selint/fixtures/violations.rs` and
//! requires exit code 1 exactly. The rules that moved to clippy have their
//! own negative control, the `fixtures/clippy` crate. This file is never
//! compiled (the `fixtures/` directory is excluded from workspace scans and
//! from any module tree).

use std::sync::Mutex;

struct Shared {
    routes: Mutex<Vec<u32>>,
    links: Mutex<Vec<u32>>,
}

// L3: allocation inside a #[hotpath] function.
#[hotpath]
fn l3_hotpath_alloc(route: &[u32]) -> Vec<u32> {
    route.to_vec()
}

// Transitive L3: the hot root itself is clean; the allocation hides one
// call down, so only the call-graph pass can see it.
#[hotpath]
fn l3_transitive_root(route: &[u32]) -> Vec<u32> {
    l3_cold_helper(route)
}

fn l3_cold_helper(route: &[u32]) -> Vec<u32> {
    route.to_vec()
}

// L6 lock-order: `routes` before `links` here…
fn l6_order_ab(s: &Shared) {
    let r = s.routes.lock();
    let l = s.links.lock();
    drop((r, l));
}

// …and `links` before `routes` there: a deadlock-shaped pair.
fn l6_order_ba(s: &Shared) {
    let l = s.links.lock();
    let r = s.routes.lock();
    drop((l, r));
}

// L6 blocking-under-guard: a channel recv while a guard is live.
fn l6_blocking_under_guard(s: &Shared, rx: &Receiver<u32>) {
    let r = s.routes.lock();
    let _ = rx.recv();
    drop(r);
}

// A waived site must NOT count as a finding (negative control).
#[hotpath]
fn waived(route: &[u32]) -> Vec<u32> {
    // selint: allow(hotpath-alloc, cold fallback the caller sizes once)
    route.to_vec()
}

// A waiver that suppresses nothing is itself an error (stale control).
// selint: allow(lock-order, stale on purpose: no guard is taken here)
fn stale_waiver_site() {}
