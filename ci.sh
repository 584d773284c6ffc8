#!/usr/bin/env sh
# Repo CI gate: formatting, lints, full test suite. Run before every push.
#
# Every stage runs, even after an earlier one failed: a stage is a
# function run in a `set -e` subshell, so its first failing command ends
# that stage alone. The script lists the failed stages at the end and exits
# non-zero if there are any.
set -u
cd "$(dirname "$0")"

FAILED=""

# run <description> <stage function>
run() {
    echo "==> $1"
    ( set -e; "$2" )
    if [ $? -ne 0 ]; then
        echo "!!! stage failed: $1" >&2
        FAILED="$FAILED
    $1"
    fi
}

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

fmt() {
    cargo fmt --all -- --check
}

clippy() {
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

selint() {
    cargo run -q --offline -p selint
}

selint_json() {
    cargo run -q --offline -p selint -- --json > selint_report.json
    grep -q '"schema":"selint-report/v2"' selint_report.json
}

selint_negative() {
    expect_findings "violations fixture" crates/selint/fixtures/violations.rs
}

# The determinism rules selint used to carry (L1 unordered-iter, L2
# ambient-nondet, L4 panic-path, L5 wire-exhaustive, L7 cast-audit) are
# clippy lints now; their fixture crate must fail and name every lint, or
# a clippy.toml key or lint level stopped biting.
clippy_negative() {
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
}

bench_build() {
    cargo bench --no-run --workspace --offline
}

tests() {
    cargo test -q --workspace --offline
}

count_allocs() {
    cargo test -q --offline -p osn-bench --features count-allocs
}

obs_suite() {
    cargo test -q --offline -p osn-obs
}

fault_suite() {
    cargo test -q --offline --test churn_failure_injection --test properties
}

golden() {
    cargo test -q --offline --test golden_state --test parallel_determinism
}

equivalence() {
    cargo test -q --offline -p select-core equivalence
    cargo test -q --offline -p select-core recomputation_is_confined_to_changed_inputs
    cargo test -q --offline -p select-core incoming_floor_matches_the_recomputed_minimum
    cargo test -q --offline -p select-core batched_publish
    cargo test -q --offline -p select-core equivalence_connection_index_matches_fresh_merge
    cargo test -q --offline -p select-core --features audit asymmetric_connection_row_is_caught
    cargo test -q --offline -p select-core stage2_plans_match_the_exhaustive_reference
    cargo test -q --offline --test golden_state batched
}

audit() {
    cargo test -q --offline -p select-core --features audit
    cargo test -q --offline --features audit --test overlay_audit
}

codec() {
    cargo test -q --offline -p osn-net codec
    cargo test -q --offline -p osn-net --test codec_props
}

# `socket` selects the TCP contract runs (`socket::`, `socket_one_shard::`,
# `socket_three_shards::`) and the family's own tests; the budget test
# spawns 1,000 peers inside the descriptor limit it promises.
socket_smoke() {
    cargo test -q --offline -p osn-net --release --lib socket
    ( ulimit -n 1024; cargo test -q --offline -p osn-net --release --test socket_budget )
}

conformance() {
    cargo test -q --offline --release --test wire_conformance
}

# A transport change that breaks a workload oracle (delivered set ==
# non-publisher tree nodes, exact bytes, zero retransmissions, equal
# inproc/tcp delivery digests) must fail here, before the bench pipeline.
reference_benchmark() {
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
    cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --workload all --smoke
}

miri() {
    if rustup component list 2>/dev/null | grep -q "miri.*(installed)"; then
        cargo miri test -p select-core scratch
    else
        echo "miri not installed; skipping (install with: rustup component add miri)"
    fi
}

tsan() {
    if rustc +nightly --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src.*(installed)"; then
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -p osn-sim engine -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')"
    else
        echo "nightly + rust-src not installed; skipping (the deterministic"
        echo "thread-sweep model test in crates/sim/src/engine.rs covers the"
        echo "compute/apply handoff on stable)"
    fi
}

hotpath_bench() {
    cargo run -q --release --offline -p osn-bench --features count-allocs --bin repro -- --quick hotpath
    cargo run -q --release --offline -p osn-bench --bin repro -- hotpath --check
}

obs_bench() {
    cargo run -q --release --offline -p osn-bench --bin repro -- --quick obs
    cargo run -q --release --offline -p osn-bench --bin repro -- obs --check
}

wire_bench() {
    cargo run -q --release --offline -p osn-bench --bin repro -- --quick wire
    cargo run -q --release --offline -p osn-bench --bin repro -- wire --check
}

wiretrace() {
    cargo run -q --release --offline -p osn-bench --bin repro -- --quick wiretrace
}

scale_gate() {
    cargo run -q --release --offline -p osn-bench --features count-allocs --bin repro -- scale --check
}

run "cargo fmt --check" fmt
run "cargo clippy --workspace -- -D warnings" clippy
run "selint (call-graph lints L3 hotpath-alloc and L6 lock-order must be clean)" selint
run "selint --json report artifact (selint_report.json)" selint_json
run "selint negative control (the seeded fixture must trip every rule)" selint_negative
run "clippy negative control (the fixture crate must trip every migrated lint)" clippy_negative
run "cargo bench --no-run (benches must keep compiling)" bench_build
run "cargo test -q" tests
run "count-allocs feature (counting allocator + publish alloc-budget gate)" count_allocs
run "observability suite (histograms, flight recorder, exporters)" obs_suite
run "fault-injection suite (explicit, so a filtered test run can't skip it)" fault_suite
run "golden-state pin (flattened storage must stay bit-identical)" golden
run "incremental-vs-rebuild equivalence (delta LSH/strength state, link-cache stamp
    rule sound and tight, admission floor, connection index, batched publish,
    stage-2 early exit vs the exhaustive reference planner)" equivalence
run "overlay auditor (every invariant on every round, plus the golden pin)" audit
run "wire suite: codec (round-trips + hostile-input rejection, no panics)" codec
run "wire suite: loopback TCP smoke (contract at derived, 1 and 3 shards; 200-peer
    fan-out; 1,000 peers under ulimit -n 1024)" socket_smoke
run "wire suite: cross-transport conformance (inproc vs TCP delivery sets)" conformance
run "reference benchmark: harness tests + every workload's oracle (smoke sizes)" reference_benchmark
if [ "${CI_MIRI:-0}" = "1" ]; then
    run "miri (CI_MIRI=1): scratch arena + publish pipeline under the interpreter" miri
fi
if [ "${CI_TSAN:-0}" = "1" ]; then
    run "thread sanitizer (CI_TSAN=1): superstep engine under TSan" tsan
fi
run "hot-path bench (quick preset, release) + schema check" hotpath_bench
run "observability overhead bench (quick preset, release) + <=5% gate" obs_bench
run "wire transport bench (quick preset, release) + schema check" wire_bench
run "wiretrace suite (trace-tree bit-identity at threads {1,8}, complete
    TCP span chains, <=5% tracing overhead on both transports)" wiretrace
run "full-scale convergence gate (63k Facebook, release) + budget check" scale_gate

if [ -n "$FAILED" ]; then
    echo "==> ci.sh: failed stages:$FAILED" >&2
    exit 1
fi
echo "==> ci.sh: all green"
