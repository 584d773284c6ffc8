//! Acceptance tests: the seeded fixture must trip every rule (L3 direct and
//! transitive, L6, stale-waiver), and the workspace itself must lint clean
//! with zero stale waivers — so `cargo test -p selint` enforces the same
//! gate `ci.sh` does.

use selint::{lint_source, lint_workspace, workspace_root, Rule, Scope};

fn fixture_findings() -> Vec<selint::Finding> {
    let path = workspace_root().join("crates/selint/fixtures/violations.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    lint_source("crates/selint/fixtures/violations.rs", &src, Scope::all())
}

#[test]
fn fixture_trips_every_rule() {
    let findings = fixture_findings();
    for rule in [Rule::HotpathAlloc, Rule::LockOrder, Rule::StaleWaiver] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "fixture did not trip {:?}; findings: {findings:#?}",
            rule
        );
    }
}

#[test]
fn fixture_transitive_alloc_reports_the_call_chain() {
    // The allocation in `l3_cold_helper` is only reachable through the
    // #[hotpath] root `l3_transitive_root`; the finding must carry the chain.
    let findings = fixture_findings();
    let transitive: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::HotpathAlloc && !f.chain.is_empty())
        .collect();
    assert_eq!(
        transitive.len(),
        1,
        "expected exactly one transitive L3 finding: {transitive:#?}"
    );
    let chain = &transitive[0].chain;
    assert_eq!(
        chain.first().map(|h| h.func.as_str()),
        Some("l3_transitive_root")
    );
    assert_eq!(
        chain.last().map(|h| h.func.as_str()),
        Some("l3_cold_helper")
    );
}

#[test]
fn fixture_lock_rule_sees_both_shapes() {
    // Both lock-order shapes must fire: the inconsistent pairwise order
    // (both directions are reported) and the blocking call under a guard.
    let findings = fixture_findings();
    let l6: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::LockOrder)
        .collect();
    assert_eq!(
        l6.len(),
        3,
        "expected 2 order + 1 blocking finding: {l6:#?}"
    );
    assert_eq!(
        l6.iter().filter(|f| f.msg.contains("blocking")).count(),
        1,
        "exactly one blocking-under-guard finding: {l6:#?}"
    );
}

#[test]
fn fixture_waiver_is_respected() {
    // The waived allocation sits in fn `waived`; only the un-waived direct
    // site (fn l3_hotpath_alloc) and the transitive one may fire.
    let findings = fixture_findings();
    let l3: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::HotpathAlloc)
        .collect();
    assert_eq!(l3.len(), 2, "expected exactly two L3 findings: {l3:#?}");
}

#[test]
fn workspace_is_clean() {
    let report = lint_workspace(workspace_root()).expect("workspace walk");
    assert!(report.files > 40, "walk looks too small: {}", report.files);
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Zero stale waivers too: every waiver comment in the tree must still
    // suppress something (stale ones surface as findings, but assert the
    // registry directly so this stays true even if the meta-rule regresses).
    let stale: Vec<_> = report.waivers.iter().filter(|w| !w.used).collect();
    assert!(
        stale.is_empty(),
        "stale waivers in the workspace: {stale:#?}"
    );
}

#[test]
fn workspace_scan_skips_the_fixture() {
    let report = lint_workspace(workspace_root()).expect("workspace walk");
    assert!(
        !report.findings.iter().any(|f| f.file.contains("fixtures")),
        "fixtures/ must be excluded from workspace scans"
    );
}

#[test]
fn hot_files_are_actually_annotated() {
    // Guards the L3 wiring end-to-end: if someone strips #[hotpath] from the
    // publish pipeline, the lint silently stops covering it. Require the
    // known hot files to contain at least one annotation.
    for rel in [
        "crates/core/src/pubsub.rs",
        "crates/core/src/network.rs",
        "crates/overlay/src/routing.rs",
        "crates/overlay/src/table.rs",
    ] {
        let src = std::fs::read_to_string(workspace_root().join(rel)).expect("hot file");
        assert!(
            src.contains("#[hotpath]"),
            "{rel} lost its #[hotpath] annotations"
        );
    }
}
