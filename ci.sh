#!/usr/bin/env sh
# Repo CI gate: formatting, lints, full test suite. Run before every push.
set -eu
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> selint (call-graph lints L3 hotpath-alloc and L6 lock-order must be clean)"
cargo run -q --offline -p selint

echo "==> selint --json report artifact (selint_report.json)"
cargo run -q --offline -p selint -- --json > selint_report.json
grep -q '"schema":"selint-report/v2"' selint_report.json

# Negative controls must exit with code 1 exactly: 0 means the rule went
# blind, anything else (2 = internal error, 101 = panic) means selint broke
# and its "findings" can't be trusted either way.
expect_findings() {
    _desc="$1"; shift
    set +e
    cargo run -q --offline -p selint -- "$@" >/dev/null 2>&1
    _code=$?
    set -e
    if [ "$_code" -ne 1 ]; then
        echo "selint negative control '$_desc' exited $_code (want 1: findings)" >&2
        exit 1
    fi
}

echo "==> selint negative control (the seeded fixture must trip every rule)"
expect_findings "violations fixture" crates/selint/fixtures/violations.rs

# The determinism rules selint used to carry (L1 unordered-iter, L2
# ambient-nondet, L4 panic-path, L5 wire-exhaustive, L7 cast-audit) are
# clippy lints now; their fixture crate must fail and name every lint, or
# a clippy.toml key or lint level stopped biting.
echo "==> clippy negative control (the fixture crate must trip every migrated lint)"
mkdir -p target
set +e
cargo clippy -q --offline --all-targets --message-format=json \
    --manifest-path crates/selint/fixtures/clippy/Cargo.toml \
    --target-dir target/clippy-fixture -- -D warnings > target/clippy-fixture.json 2>/dev/null
_code=$?
set -e
if [ "$_code" -eq 0 ]; then
    echo "clippy negative control exited 0 (want findings)" >&2
    exit 1
fi
for lint in clippy::disallowed_types clippy::disallowed_methods \
    clippy::indexing_slicing clippy::unwrap_used clippy::expect_used clippy::panic \
    clippy::unreachable clippy::todo clippy::unimplemented clippy::wildcard_enum_match_arm \
    clippy::cast_possible_truncation clippy::cast_possible_wrap clippy::cast_sign_loss \
    unfulfilled_lint_expectations; do
    if ! grep -q "\"code\":\"$lint\"" target/clippy-fixture.json; then
        echo "clippy negative control did not report $lint" >&2
        exit 1
    fi
done

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --no-run --workspace --offline

echo "==> cargo test -q"
cargo test -q --workspace --offline

echo "==> count-allocs feature (counting allocator + publish alloc-budget gate)"
cargo test -q --offline -p osn-bench --features count-allocs

echo "==> observability suite (histograms, flight recorder, exporters)"
cargo test -q --offline -p osn-obs

echo "==> fault-injection suite (explicit, so a filtered test run can't skip it)"
cargo test -q --offline --test churn_failure_injection --test properties

echo "==> golden-state pin (flattened storage must stay bit-identical)"
cargo test -q --offline --test golden_state --test parallel_determinism

echo "==> incremental-vs-rebuild equivalence (delta LSH/strength state, link-cache stamp"
echo "    rule sound and tight, admission floor, connection index, batched publish,"
echo "    stage-2 early exit vs the exhaustive reference planner)"
cargo test -q --offline -p select-core equivalence
cargo test -q --offline -p select-core recomputation_is_confined_to_changed_inputs
cargo test -q --offline -p select-core incoming_floor_matches_the_recomputed_minimum
cargo test -q --offline -p select-core batched_publish
cargo test -q --offline -p select-core early_exit
cargo test -q --offline --test golden_state batched

echo "==> overlay auditor (every invariant on every round, plus the golden pin)"
cargo test -q --offline -p select-core --features audit
cargo test -q --offline --features audit --test overlay_audit

echo "==> wire suite: codec (round-trips + hostile-input rejection, no panics)"
cargo test -q --offline -p osn-net codec
cargo test -q --offline -p osn-net --test codec_props

echo "==> wire suite: loopback TCP smoke (200-peer socket fan-out, paper payload)"
cargo test -q --offline -p osn-net --release socket::

echo "==> wire suite: cross-transport conformance (inproc vs TCP delivery sets)"
cargo test -q --offline --release --test wire_conformance

echo "==> reference benchmark: harness tests + every workload's oracle (smoke sizes)"
# A transport change that breaks a workload oracle (delivered set ==
# non-publisher tree nodes, exact bytes, zero retransmissions, equal
# inproc/tcp delivery digests) must fail here, before the bench pipeline.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --workload all --smoke

if [ "${CI_MIRI:-0}" = "1" ]; then
    echo "==> miri (CI_MIRI=1): scratch arena + publish pipeline under the interpreter"
    if rustup component list 2>/dev/null | grep -q "miri.*(installed)"; then
        cargo miri test -p select-core scratch
    else
        echo "miri not installed; skipping (install with: rustup component add miri)"
    fi
fi

if [ "${CI_TSAN:-0}" = "1" ]; then
    echo "==> thread sanitizer (CI_TSAN=1): superstep engine under TSan"
    if rustc +nightly --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src.*(installed)"; then
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -p osn-sim engine -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')"
    else
        echo "nightly + rust-src not installed; skipping (the deterministic"
        echo "thread-sweep model test in crates/sim/src/engine.rs covers the"
        echo "compute/apply handoff on stable)"
    fi
fi

echo "==> hot-path bench (quick preset, release) + schema check"
cargo run -q --release --offline -p osn-bench --features count-allocs --bin repro -- --quick hotpath
cargo run -q --release --offline -p osn-bench --bin repro -- hotpath --check

echo "==> observability overhead bench (quick preset, release) + <=5% gate"
cargo run -q --release --offline -p osn-bench --bin repro -- --quick obs
cargo run -q --release --offline -p osn-bench --bin repro -- obs --check

echo "==> wire transport bench (quick preset, release) + schema check"
cargo run -q --release --offline -p osn-bench --bin repro -- --quick wire
cargo run -q --release --offline -p osn-bench --bin repro -- wire --check

echo "==> wiretrace suite (trace-tree bit-identity at threads {1,8}, complete"
echo "    TCP span chains, <=5% tracing overhead on both transports)"
cargo run -q --release --offline -p osn-bench --bin repro -- --quick wiretrace

echo "==> full-scale convergence gate (63k Facebook, release) + budget check"
cargo run -q --release --offline -p osn-bench --features count-allocs --bin repro -- scale --check

echo "==> ci.sh: all green"
