//! Schema-stability tests for the `selint-report/v2` JSON artifact.
//!
//! CI archives `selint_report.json`; downstream tooling keys on the exact
//! member set and order, so this suite locks the schema: any field rename,
//! reorder or type change fails here before it breaks a consumer.

use proptest::prelude::*;
use selint::json::{report_json, Value};
use selint::{analyze, workspace_root, Scope, SourceFile};

/// A report exercising every schema branch: an unwaived finding, a waived
/// finding (used waiver) and a stale waiver.
fn sample_report() -> selint::Report {
    let src = "\
#[hotpath]
fn direct(route: &[u32]) -> Vec<u32> { route.to_vec() }
#[hotpath]
fn hot(route: &[u32]) -> Vec<u32> { cold(route) }
fn cold(route: &[u32]) -> Vec<u32> {
    // selint: allow(hotpath-alloc, schema test: exercise the waived branch)
    route.to_vec()
}
// selint: allow(lock-order, schema test: deliberately stale)
fn nothing() {}
";
    analyze(vec![SourceFile {
        rel: "crates/fake/src/sample.rs".to_string(),
        source: src.to_string(),
        scope: Scope::all(),
    }])
}

#[test]
fn report_round_trips_through_the_parser() {
    let report = sample_report();
    let text = report_json(&report);
    let v = Value::parse(&text).expect("artifact must be valid JSON");
    // Emit → parse → emit is a fixed point (stable member order).
    assert_eq!(v.emit(), text);
}

#[test]
fn top_level_schema_is_stable() {
    let report = sample_report();
    let v = Value::parse(&report_json(&report)).unwrap();
    let Value::Obj(pairs) = &v else {
        panic!("top level must be an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["schema", "files", "findings", "waivers"]);
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("selint-report/v2")
    );
    assert_eq!(v.get("files").and_then(Value::as_i64), Some(1));
}

#[test]
fn finding_and_waiver_members_are_stable() {
    let report = sample_report();
    assert!(!report.findings.is_empty(), "sample must have findings");
    assert!(
        !report.waived.is_empty(),
        "sample must have a waived finding"
    );
    let v = Value::parse(&report_json(&report)).unwrap();

    let findings = v.get("findings").and_then(Value::as_arr).unwrap();
    // The artifact is the full audit trail: unwaived + waived entries.
    assert_eq!(findings.len(), report.findings.len() + report.waived.len());
    for f in findings {
        let Value::Obj(pairs) = f else {
            panic!("finding must be an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["rule", "path", "line", "message", "waived", "chain"]);
        for hop in f.get("chain").and_then(Value::as_arr).unwrap() {
            let Value::Obj(pairs) = hop else {
                panic!("hop must be an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["fn", "path", "line"]);
        }
    }
    // Both waiver states present, and the waived flag splits correctly.
    assert!(findings
        .iter()
        .any(|f| f.get("waived") == Some(&Value::Bool(true))));
    assert!(findings
        .iter()
        .any(|f| f.get("waived") == Some(&Value::Bool(false))));

    let waivers = v.get("waivers").and_then(Value::as_arr).unwrap();
    assert_eq!(waivers.len(), 2, "one used + one stale waiver");
    for w in waivers {
        let Value::Obj(pairs) = w else {
            panic!("waiver must be an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["path", "line", "rule", "reason", "used"]);
    }
    assert!(waivers
        .iter()
        .any(|w| w.get("used") == Some(&Value::Bool(true))));
    assert!(waivers
        .iter()
        .any(|w| w.get("used") == Some(&Value::Bool(false))));
}

#[test]
fn transitive_chain_survives_the_artifact() {
    // The transitive hotpath finding must carry its call chain into JSON.
    let report = sample_report();
    let v = Value::parse(&report_json(&report)).unwrap();
    let findings = v.get("findings").and_then(Value::as_arr).unwrap();
    let chained: Vec<_> = findings
        .iter()
        .filter(|f| {
            f.get("chain")
                .and_then(Value::as_arr)
                .is_some_and(|c| !c.is_empty())
        })
        .collect();
    assert_eq!(chained.len(), 1, "exactly one chained finding expected");
    let chain = chained[0].get("chain").and_then(Value::as_arr).unwrap();
    assert_eq!(chain[0].get("fn").and_then(Value::as_str), Some("hot"));
    assert_eq!(
        chain.last().unwrap().get("fn").and_then(Value::as_str),
        Some("cold")
    );
}

#[test]
fn cli_json_output_matches_the_library() {
    // End-to-end: `selint --json <fixture>` must emit a parseable v2 report
    // whose finding count matches the human-readable run's exit contract.
    let root = workspace_root();
    let exe = env!("CARGO_BIN_EXE_selint");
    let out = std::process::Command::new(exe)
        .current_dir(root)
        .args(["--json", "crates/selint/fixtures/violations.rs"])
        .output()
        .expect("selint --json runs");
    assert_eq!(out.status.code(), Some(1), "fixture must exit 1");
    let text = String::from_utf8(out.stdout).expect("utf-8 artifact");
    let v = Value::parse(&text).expect("CLI artifact must parse");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("selint-report/v2")
    );
    let unwaived = v
        .get("findings")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter(|f| f.get("waived") == Some(&Value::Bool(false)))
        .count();
    assert!(
        unwaived > 0,
        "exit 1 implies unwaived findings in the artifact"
    );
}

/// Scalar generator covering the nasty string cases: quotes, backslashes,
/// control characters (forced through `\u` escapes) and non-ASCII.
fn arb_scalar() -> impl Strategy<Value = Value> {
    (
        0u32..4,
        -1_000_000_007i64..1_000_000_007,
        proptest::collection::vec(0u32..0x250, 0..12),
    )
        .prop_map(|(tag, n, chars)| match tag {
            0 => Value::Null,
            1 => Value::Bool(n % 2 == 0),
            2 => Value::Num(n),
            _ => Value::Str(chars.into_iter().filter_map(char::from_u32).collect()),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// emit → parse is the identity on arbitrary nested values, and the
    /// emitted text is a fixed point of the round trip.
    #[test]
    fn json_round_trips_arbitrary_values(
        items in proptest::collection::vec(arb_scalar(), 0..8),
        keys in proptest::collection::vec(proptest::collection::vec(0u32..0x250, 0..6), 0..8),
    ) {
        // Nest the scalars inside an object of arrays keyed by the (possibly
        // hostile) generated strings, deduplicating keys as objects require.
        let mut pairs: Vec<(String, Value)> = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            let key: String = k.iter().copied().filter_map(char::from_u32).collect();
            if pairs.iter().any(|(p, _)| *p == key) {
                continue;
            }
            let slice: Vec<Value> = items.iter().skip(i % (items.len() + 1)).cloned().collect();
            pairs.push((key, Value::Arr(slice)));
        }
        let v = Value::Obj(vec![
            ("scalars".to_string(), Value::Arr(items.clone())),
            ("nested".to_string(), Value::Obj(pairs)),
        ]);
        let text = v.emit();
        let back = Value::parse(&text);
        prop_assert!(back.is_ok(), "emitted JSON must parse: {text}");
        prop_assert_eq!(back.unwrap(), v);
    }
}
