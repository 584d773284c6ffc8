//! # selint — the workspace determinism-and-invariant lint pass
//!
//! A repo-specific static-analysis pass (run as `cargo run -p selint`, wired
//! into `ci.sh`) enforcing the determinism contract that the golden-state
//! hash pins dynamically. The build environment is fully offline (no `syn`),
//! so the pass works on a token level: [`lexer::strip`] blanks comments and
//! literal contents while preserving line structure, a [`callgraph`] pass
//! builds a workspace-wide symbol table and call graph from the stripped
//! token stream, and seven deny-by-default rules run on top:
//!
//! * **L1 `unordered-iter`** — no nondeterministic-order iteration
//!   (`HashMap`/`HashSet` `iter`/`into_iter`/`keys`/`values`/`drain`/`for`)
//!   in superstep compute paths: everything under `crates/{core, overlay,
//!   lsh, sim, baselines}/src` (the code reachable from `gossip.rs`,
//!   `pubsub.rs` and `recovery.rs`, plus the baselines the paper figures
//!   compare against).
//! * **L2 `ambient-nondet`** — no ambient nondeterminism (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `RandomState`, env reads) in
//!   `crates/{core, overlay, lsh, sim, obs}/src`, plus the wire stack
//!   (`crates/net/src/{codec, transport, runtime, socket, throttled}.rs`):
//!   the codec must be a pure function of its bytes, and the transport
//!   layer may touch the wall clock only at explicitly waived sites (ack
//!   and probe deadlines, the span epoch).
//! * **L3 `hotpath-alloc`** — no allocation-prone calls (`collect`,
//!   `to_vec`, `clone`, `format!`, `to_owned`, `to_string`) inside functions
//!   annotated `#[hotpath]` (anywhere in the workspace) — **transitively**:
//!   an allocation in any function reachable from a `#[hotpath]` root
//!   through the call graph is a finding too, reported with the full call
//!   chain and anchored at the allocation site (so a waiver there covers
//!   every chain that reaches it).
//! * **L4 `panic-path`** — no panicking indexing or `unwrap`/`expect` in the
//!   fault-injection delivery path (`crates/sim/src/fault.rs`) and the
//!   whole wire stack (`crates/net/src/{codec, transport, runtime, socket,
//!   throttled}.rs`): malformed bytes off a socket must surface as
//!   `WireError`s, never panics.
//! * **L5 `wire-exhaustive`** — every `WireMsg` variant declared in
//!   `crates/core/src/wire.rs` must have an encode arm and a decode arm in
//!   the codec and must be dispatched (or explicitly ignored) by the one
//!   peer loop all link families share (`crates/net/src/runtime.rs`), so
//!   adding wire tag 9 without touching the runtime fails CI.
//! * **L6 `lock-order`** — inconsistent pairwise lock orderings (lock `A`
//!   then `B` on one path, `B` then `A` on another, directly or through
//!   callees) and blocking calls (`recv`/`accept`/`read`/`write`/`sleep`)
//!   made while a guard is live, in `crates/net`.
//! * **L7 `cast-audit`** — unchecked narrowing `as` casts (`usize as u32`,
//!   …) in the CSR/graph layer and the wire stack; use
//!   `UserId::from_index`-style checked conversions or waive with the bound
//!   argument.
//!
//! Any site can carry a waiver — `// selint: allow(<rule>, <reason>)` on the
//! same line or the line directly above — but the reason is mandatory, a
//! malformed waiver is itself a finding (`bad-waiver`), and a **stale**
//! waiver (one that no longer suppresses any finding) is a finding too
//! (`stale-waiver`), so suppressions cannot rot. `#[cfg(test)]` / `#[test]`
//! regions are exempt (tests may allocate, panic and time freely).
//!
//! `selint --json` emits the whole report (findings incl. waived ones, call
//! chains, the waiver registry with per-waiver `used` state) as a stable
//! machine-readable artifact; see [`json::report_json`].
//!
//! ## Heuristics, stated honestly
//!
//! Without type inference the pass classifies iteration receivers by the
//! file's own declarations: a name bound or declared with `HashMap`/`HashSet`
//! on a non-test line is *hash-like*; one declared with `Vec`/`VecDeque`/
//! `BTreeMap`/`BTreeSet`/`BinaryHeap` is *ordered*. `keys()`/`values()`-style
//! calls are denied unless the receiver is provably ordered; plain `iter()`/
//! `for … in x` is denied only when the receiver is provably hash-like.
//! Function parameters are not classified (a hash-typed parameter that is
//! only probed with `contains`/`get` is fine; one that is iterated should be
//! restructured or waived at the call site it came from). Call-graph
//! resolution is by name with narrowest-scope preference (same file, then
//! same crate, then workspace) and is an over-approximation; every
//! cross-function finding carries its chain so a mis-resolved edge is
//! visible and waivable at the reported site. Lock identity in L6 is the
//! receiver *name* (`self.peers.lock()` and a different struct's `peers`
//! alias), which over-approximates but never misses a real pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod json;
pub mod lexer;

mod casts;
mod locks;
mod wire_rule;

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// The lint rules. `BadWaiver` is the meta-rule for unparseable waivers;
/// `StaleWaiver` fires on waivers that no longer suppress anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1: nondeterministic-order iteration over hash containers.
    UnorderedIter,
    /// L2: ambient nondeterminism (wall clock, thread RNG, env).
    AmbientNondet,
    /// L3: allocation-prone call inside (or reachable from) a `#[hotpath]`
    /// function.
    HotpathAlloc,
    /// L4: panicking indexing/`unwrap` in a fault-injection delivery path.
    PanicPath,
    /// L5: a `WireMsg` variant missing an encode/decode/dispatch arm.
    WireExhaustive,
    /// L6: inconsistent lock ordering or blocking call under a live guard.
    LockOrder,
    /// L7: unchecked narrowing `as` cast in the graph/wire layers.
    CastAudit,
    /// A `selint:` comment that does not parse as a valid waiver.
    BadWaiver,
    /// A well-formed waiver that no longer suppresses any finding.
    StaleWaiver,
}

impl Rule {
    /// The slug used in waiver comments and diagnostics.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::AmbientNondet => "ambient-nondet",
            Rule::HotpathAlloc => "hotpath-alloc",
            Rule::PanicPath => "panic-path",
            Rule::WireExhaustive => "wire-exhaustive",
            Rule::LockOrder => "lock-order",
            Rule::CastAudit => "cast-audit",
            Rule::BadWaiver => "bad-waiver",
            Rule::StaleWaiver => "stale-waiver",
        }
    }

    /// All waivable rule slugs (everything but the two waiver meta-rules —
    /// you cannot waive a broken or stale waiver, only fix or delete it).
    pub fn waivable_slugs() -> &'static [&'static str] {
        &[
            "unordered-iter",
            "ambient-nondet",
            "hotpath-alloc",
            "panic-path",
            "wire-exhaustive",
            "lock-order",
            "cast-audit",
        ]
    }
}

/// One hop of a cross-function call chain attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Function name at this hop.
    pub func: String,
    /// Workspace-relative file the function is defined in.
    pub file: String,
    /// For intermediate hops: the 1-based line of the call to the next hop.
    /// For the final hop: the line of the offending site itself.
    pub line: usize,
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable description of the violation.
    pub msg: String,
    /// Call chain from a `#[hotpath]` root (or other analysis root) to the
    /// offending site; empty for single-site findings.
    pub chain: Vec<ChainHop>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.slug(),
            self.msg
        )?;
        if !self.chain.is_empty() {
            let hops: Vec<String> = self
                .chain
                .iter()
                .map(|h| format!("{}@{}:{}", h.func, h.file, h.line))
                .collect();
            write!(f, " [chain: {}]", hops.join(" -> "))?;
        }
        Ok(())
    }
}

/// Which rule families apply to a file. L3 (`#[hotpath]` bodies and the code
/// reachable from them) always applies; L5 is workspace-level (it runs
/// whenever the wire declaration file is in the analyzed set); the others
/// are path-scoped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// L1 unordered-iter applies.
    pub l1: bool,
    /// L2 ambient-nondet applies.
    pub l2: bool,
    /// L4 panic-path applies.
    pub l4: bool,
    /// L6 lock-order applies.
    pub l6: bool,
    /// L7 cast-audit applies.
    pub l7: bool,
}

impl Scope {
    /// Every rule on (used for explicit-path / fixture runs).
    pub fn all() -> Self {
        Scope {
            l1: true,
            l2: true,
            l4: true,
            l6: true,
            l7: true,
        }
    }
}

/// Maps a workspace-relative path (with `/` separators) to its rule scope.
pub fn scope_for(rel: &str) -> Scope {
    const L1_DIRS: &[&str] = &[
        "crates/core/src/",
        "crates/overlay/src/",
        "crates/lsh/src/",
        "crates/sim/src/",
        "crates/baselines/src/",
    ];
    const L2_DIRS: &[&str] = &[
        "crates/core/src/",
        "crates/overlay/src/",
        "crates/lsh/src/",
        "crates/sim/src/",
        "crates/obs/src/",
    ];
    // The wire stack: the codec, the publish driver, the one peer runtime
    // and its link families. It joins L2 file-by-file rather than by
    // directory (timing.rs models virtual time and stays out): the codec
    // must be pure, and the rest may only touch the clock at explicitly
    // waived sites. The same files are panic-free under L4.
    const WIRE_STACK: &[&str] = &[
        "crates/net/src/codec.rs",
        "crates/net/src/transport.rs",
        "crates/net/src/runtime.rs",
        "crates/net/src/socket.rs",
        "crates/net/src/throttled.rs",
    ];
    const L4_FILES: &[&str] = &["crates/sim/src/fault.rs"];
    // The thread-per-peer transports are where guards and blocking syscalls
    // meet; lock-order discipline is enforced crate-wide there.
    const L6_DIRS: &[&str] = &["crates/net/src/"];
    // Narrowing casts threaten exactly the layers where u32 ids/lengths meet
    // usize indices/buffers: the CSR graph layer and the wire stack.
    const L7_DIRS: &[&str] = &["crates/graph/src/", "crates/net/src/"];
    const L7_FILES: &[&str] = &["crates/core/src/wire.rs"];
    Scope {
        l1: L1_DIRS.iter().any(|d| rel.starts_with(d)),
        l2: L2_DIRS.iter().any(|d| rel.starts_with(d)) || WIRE_STACK.contains(&rel),
        l4: L4_FILES.contains(&rel) || WIRE_STACK.contains(&rel),
        l6: L6_DIRS.iter().any(|d| rel.starts_with(d)),
        l7: L7_DIRS.iter().any(|d| rel.starts_with(d)) || L7_FILES.contains(&rel),
    }
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier ending immediately before byte offset `end` in `line`
/// (used to find a method call's receiver: `foo.bar.keys()` → `bar`).
pub(crate) fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut start = end;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        Some(&line[start..end])
    }
}

/// The identifier starting at byte offset `start`.
fn ident_starting_at(line: &str, start: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut end = start;
    while end < bytes.len() && is_ident_byte(bytes[end]) {
        end += 1;
    }
    if end == start || bytes[start].is_ascii_digit() {
        None
    } else {
        Some(&line[start..end])
    }
}

/// True if `needle` occurs in `hay` as a whole word (ident-boundary on both
/// sides). `needle` may contain `::` / `!`.
pub(crate) fn contains_word(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = hay[from..].find(needle) {
        let at = from + off;
        let before_ok = at == 0 || !is_ident_byte(hay.as_bytes()[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= hay.len() || !is_ident_byte(hay.as_bytes()[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// 1-based line number of byte offset `pos` in `code`.
pub(crate) fn line_of(code: &str, pos: usize) -> usize {
    code.as_bytes()[..pos.min(code.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Marks every line covered by `marker` + the braced item that follows it
/// (used for `#[cfg(test)]`, `#[test]` and `#[hotpath]` regions). A `;`
/// before the opening `{` means the item has no body (e.g. a gated `use`).
pub(crate) fn mark_regions(code: &str, marker: &str, flags: &mut [bool]) {
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(off) = code[search..].find(marker) {
        let at = search + off;
        search = at + marker.len();
        let mut j = search;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let mut depth = 0i64;
        let mut end = bytes.len().saturating_sub(1);
        let mut k = open;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let (first, last) = (line_of(code, at), line_of(code, end).min(flags.len()));
        for f in flags.iter_mut().take(last).skip(first - 1) {
            *f = true;
        }
    }
}

/// Extracts the declared name from a `let` binding or struct-field line, if
/// any. `use`/`fn` lines are skipped (params are deliberately unclassified).
pub(crate) fn decl_name(line: &str) -> Option<&str> {
    let mut t = line.trim_start();
    for vis in ["pub(crate) ", "pub(super) ", "pub(in crate) ", "pub "] {
        if let Some(rest) = t.strip_prefix(vis) {
            t = rest;
            break;
        }
    }
    if t.starts_with("use ") || t.starts_with("fn ") || t.starts_with("impl ") {
        return None;
    }
    if let Some(rest) = t.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        return ident_starting_at(rest, 0);
    }
    // Struct-field style: `name: Type,` (reject `::` paths and labels).
    let name = ident_starting_at(t, 0)?;
    let after = &t[name.len()..];
    let after = after.trim_start();
    if after.starts_with(':') && !after.starts_with("::") {
        Some(name)
    } else {
        None
    }
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ORDERED_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "VecDeque", "BinaryHeap", "Vec"];

/// Per-file receiver classification from non-test declaration lines.
fn classify_names(lines: &[&str], test: &[bool]) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut hash = BTreeSet::new();
    let mut ordered = BTreeSet::new();
    for (i, line) in lines.iter().enumerate() {
        if test[i] {
            continue;
        }
        let is_hash = HASH_TYPES.iter().any(|t| contains_word(line, t).is_some());
        let is_ordered = ORDERED_TYPES
            .iter()
            .any(|t| contains_word(line, t).is_some());
        if !is_hash && !is_ordered {
            continue;
        }
        if let Some(name) = decl_name(line) {
            if is_hash {
                hash.insert(name.to_string());
            }
            if is_ordered {
                ordered.insert(name.to_string());
            }
        }
    }
    (hash, ordered)
}

/// Methods whose iteration order is the container's own: denied on any
/// receiver not provably ordered.
const ORDER_SENSITIVE_METHODS: &[&str] =
    &["keys", "values", "values_mut", "into_keys", "into_values"];
/// Methods denied only on receivers provably hash-like (they are fine on
/// slices/Vecs, which dominate this codebase).
const HASH_ONLY_METHODS: &[&str] = &["iter", "into_iter", "drain"];

const L2_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "RandomState",
    "rand::random",
    "env::var",
    "env::vars",
    "var_os",
];

pub(crate) const L3_TOKENS: &[&str] = &[
    ".collect",
    ".to_vec(",
    ".clone(",
    "format!",
    ".to_owned(",
    ".to_string(",
];

const L4_PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Receiver of a method call at byte `at` of `lines[i]`: the identifier just
/// before the `.`, or — when the `.` starts a rustfmt-wrapped method chain —
/// the trailing identifier of the previous line.
fn chain_receiver<'a>(lines: &[&'a str], i: usize, at: usize) -> Option<&'a str> {
    let line = lines[i];
    if let Some(r) = ident_ending_at(line, at) {
        return Some(r);
    }
    if line[..at].trim().is_empty() && i > 0 {
        let prev = lines[i - 1].trim_end();
        return ident_ending_at(prev, prev.len());
    }
    None
}

/// Scans `line` for panicking subscript expressions (`x[i]` where the `[`
/// follows an identifier or closing bracket, excluding range slices `[a..b]`
/// and attributes / `vec![`). Returns byte offsets of offending `[`.
fn panicking_subscripts(line: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut hits = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        // Previous non-space char decides whether this is a subscript.
        let mut p = i;
        while p > 0 && bytes[p - 1] == b' ' {
            p -= 1;
        }
        if p == 0 {
            continue;
        }
        let prev = bytes[p - 1];
        if !(is_ident_byte(prev) || prev == b')' || prev == b']') {
            continue;
        }
        // `&'a [u8]` / `&'static [T]`: an identifier preceded by a lifetime
        // tick is a type annotation, not an indexing expression.
        if is_ident_byte(prev) {
            let mut s = p;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            if s > 0 && bytes[s - 1] == b'\'' {
                continue;
            }
        }
        // Find the matching `]` on this line; unbalanced → skip.
        let mut depth = 0i64;
        let mut close = None;
        for (j, &c) in bytes.iter().enumerate().skip(i) {
            match c {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        let inner = &line[i + 1..close];
        if inner.is_empty() || inner.contains("..") {
            continue; // range slice / array-type position
        }
        hits.push(i);
    }
    hits
}

/// One analyzed file: its stripped source, waivers and region flags. Built
/// once per [`analyze`] run and shared by every rule pass.
pub(crate) struct PerFile {
    pub(crate) rel: String,
    pub(crate) scope: Scope,
    pub(crate) stripped: lexer::Stripped,
    pub(crate) test: Vec<bool>,
    pub(crate) hot: Vec<bool>,
}

impl PerFile {
    fn new(rel: String, source: &str, scope: Scope) -> PerFile {
        let stripped = lexer::strip(source);
        let n = stripped.code.lines().count();
        let mut test = vec![false; n];
        mark_regions(&stripped.code, "#[cfg(test)]", &mut test);
        mark_regions(&stripped.code, "#[test]", &mut test);
        let mut hot = vec![false; n];
        mark_regions(&stripped.code, "#[hotpath]", &mut hot);
        PerFile {
            rel,
            scope,
            stripped,
            test,
            hot,
        }
    }
}

/// The per-line rules (L1/L2/direct-L3/L4/L7) over one file.
fn per_file_pass(pf: &PerFile) -> Vec<Finding> {
    let lines: Vec<&str> = pf.stripped.code.lines().collect();
    let scope = pf.scope;
    let (hash_names, ordered_names) = classify_names(&lines, &pf.test);
    let mut findings = Vec::new();
    let mut push = |rule: Rule, line: usize, msg: String| {
        findings.push(Finding {
            file: pf.rel.clone(),
            line,
            rule,
            msg,
            chain: Vec::new(),
        });
    };

    for (line_no, msg) in &pf.stripped.malformed {
        push(Rule::BadWaiver, *line_no, msg.clone());
    }
    for w in &pf.stripped.waivers {
        if !Rule::waivable_slugs().contains(&w.rule.as_str()) {
            push(
                Rule::BadWaiver,
                w.line,
                format!(
                    "unknown waiver rule `{}` (expected one of {:?})",
                    w.rule,
                    Rule::waivable_slugs()
                ),
            );
        }
    }

    for (i, line) in lines.iter().enumerate() {
        let line_no = i + 1;
        if pf.test[i] {
            continue;
        }

        if scope.l1 {
            for m in ORDER_SENSITIVE_METHODS {
                let pat = format!(".{m}(");
                let mut from = 0;
                while let Some(off) = line[from..].find(&pat) {
                    let at = from + off;
                    from = at + pat.len();
                    let recv = chain_receiver(&lines, i, at).unwrap_or("<expr>");
                    let ordered_only = ordered_names.contains(recv) && !hash_names.contains(recv);
                    if !ordered_only {
                        push(
                            Rule::UnorderedIter,
                            line_no,
                            format!(
                                "`{recv}.{m}()` iterates in container order; hash containers \
                                 are nondeterministic here — sort first, use an ordered \
                                 container, or waive with a reason"
                            ),
                        );
                    }
                }
            }
            for m in HASH_ONLY_METHODS {
                let pat = format!(".{m}(");
                let mut from = 0;
                while let Some(off) = line[from..].find(&pat) {
                    let at = from + off;
                    from = at + pat.len();
                    if let Some(recv) = chain_receiver(&lines, i, at) {
                        if hash_names.contains(recv) {
                            push(
                                Rule::UnorderedIter,
                                line_no,
                                format!(
                                    "`{recv}.{m}()` on a hash container iterates in \
                                     nondeterministic order"
                                ),
                            );
                        }
                    }
                }
            }
            // `for x in name` / `for x in &name` over a hash-declared name.
            if let Some(for_at) = contains_word(line, "for") {
                if let Some(in_rel) = line[for_at..].find(" in ") {
                    let expr = line[for_at + in_rel + 4..].trim();
                    let expr = expr.strip_suffix('{').unwrap_or(expr).trim_end();
                    let expr = expr.trim_start_matches('&');
                    let expr = expr.strip_prefix("mut ").unwrap_or(expr);
                    let last = expr.rsplit('.').next().unwrap_or(expr);
                    if !last.is_empty()
                        && last.bytes().all(is_ident_byte)
                        && expr
                            .bytes()
                            .all(|b| is_ident_byte(b) || b == b'.' || b == b' ')
                        && hash_names.contains(last)
                    {
                        push(
                            Rule::UnorderedIter,
                            line_no,
                            format!(
                                "`for … in {expr}` iterates a hash container in \
                                 nondeterministic order"
                            ),
                        );
                    }
                }
            }
        }

        if scope.l2 {
            for tok in L2_TOKENS {
                if contains_word(line, tok).is_some() {
                    push(
                        Rule::AmbientNondet,
                        line_no,
                        format!(
                            "`{tok}` is ambient nondeterminism; thread explicit seeds/clocks \
                             through instead (or waive for telemetry-only uses)"
                        ),
                    );
                }
            }
        }

        if pf.hot[i] {
            for tok in L3_TOKENS {
                if line.contains(tok) {
                    push(
                        Rule::HotpathAlloc,
                        line_no,
                        format!(
                            "allocation-prone `{}` inside a #[hotpath] function; reuse a \
                             scratch buffer or waive with a reason",
                            tok.trim_matches(|c| c == '.' || c == '(')
                        ),
                    );
                }
            }
        }

        if scope.l4 {
            for tok in L4_PANIC_TOKENS {
                if line.contains(tok) {
                    push(
                        Rule::PanicPath,
                        line_no,
                        format!(
                            "`{}` can panic inside a fault-injection delivery path; return \
                             a degraded result instead",
                            tok.trim_matches(|c| c == '.' || c == '(')
                        ),
                    );
                }
            }
            for at in panicking_subscripts(line) {
                let ctx: String = line[at..].chars().take(24).collect();
                push(
                    Rule::PanicPath,
                    line_no,
                    format!(
                        "panicking subscript `…{ctx}` in a delivery path; use `.get()` and \
                         degrade gracefully"
                    ),
                );
            }
        }

        if scope.l7 {
            for (col, ty) in casts::narrowing_casts(line) {
                let ctx = casts::context(line, col);
                push(
                    Rule::CastAudit,
                    line_no,
                    format!(
                        "unchecked narrowing cast `{ctx} as {ty}` can truncate silently; use \
                         a checked conversion (`UserId::from_index`, `try_from`) or waive \
                         with the bound that makes it safe"
                    ),
                );
            }
        }
    }
    findings
}

/// Transitive L3: allocation-prone calls in any function reachable from a
/// `#[hotpath]` root, anchored at the allocation site with the full chain.
fn transitive_hotpath(graph: &callgraph::CallGraph, files: &[PerFile]) -> Vec<Finding> {
    // Per-fn allocation sites on non-test, non-hot lines (hot lines are the
    // direct rule's business; double-reporting them would double-waive).
    let mut alloc_sites: Vec<Vec<(usize, &'static str)>> = Vec::with_capacity(graph.fns.len());
    for d in &graph.fns {
        let mut sites = Vec::new();
        if let Some((open, close)) = d.body {
            let pf = &files[d.file];
            let code = &pf.stripped.code;
            let first = line_of(code, open);
            let last = line_of(code, close);
            for (i, line) in code.lines().enumerate().take(last).skip(first - 1) {
                let line_no = i + 1;
                if pf.test.get(i).copied().unwrap_or(false)
                    || pf.hot.get(i).copied().unwrap_or(false)
                {
                    continue;
                }
                for tok in L3_TOKENS {
                    if line.contains(tok) {
                        sites.push((line_no, *tok));
                    }
                }
            }
        }
        alloc_sites.push(sites);
    }

    let mut findings = Vec::new();
    let mut seen: BTreeSet<(usize, usize, &'static str)> = BTreeSet::new();
    for root in 0..graph.fns.len() {
        let rd = &graph.fns[root];
        if !rd.is_hot || rd.in_test {
            continue;
        }
        let parent = graph.reachable(root);
        for &callee in parent.keys() {
            let cd = &graph.fns[callee];
            if cd.is_hot || cd.in_test {
                continue;
            }
            for &(line_no, tok) in &alloc_sites[callee] {
                if !seen.insert((cd.file, line_no, tok)) {
                    continue;
                }
                // Path root → … → callee from the BFS parent pointers.
                let mut path = vec![callee];
                let mut cur = callee;
                while cur != root {
                    let Some(&(p, _)) = parent.get(&cur) else {
                        break;
                    };
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                let mut chain = Vec::with_capacity(path.len());
                for k in 0..path.len() {
                    let d = &graph.fns[path[k]];
                    let line = if k + 1 < path.len() {
                        parent.get(&path[k + 1]).map(|&(_, l)| l).unwrap_or(d.line)
                    } else {
                        line_no
                    };
                    chain.push(ChainHop {
                        func: d.name.clone(),
                        file: files[d.file].rel.clone(),
                        line,
                    });
                }
                let via: Vec<&str> = path.iter().map(|&p| graph.fns[p].name.as_str()).collect();
                findings.push(Finding {
                    file: files[cd.file].rel.clone(),
                    line: line_no,
                    rule: Rule::HotpathAlloc,
                    msg: format!(
                        "allocation-prone `{}` reachable from #[hotpath] `{}` (via {}); hoist \
                         the allocation out of the call tree or waive at this site",
                        tok.trim_matches(|c| c == '.' || c == '('),
                        rd.name,
                        via.join(" -> "),
                    ),
                    chain,
                });
            }
        }
    }
    findings
}

/// One input file for [`analyze`].
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (used in findings, scope
    /// decisions and cross-file rules).
    pub rel: String,
    /// Raw source text.
    pub source: String,
    /// Rule scope for this file (usually [`scope_for`]; [`Scope::all`] for
    /// explicit-path fixture runs).
    pub scope: Scope,
}

/// One waiver in the registry, with its post-analysis `used` state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverState {
    /// Workspace-relative path of the file the waiver sits in.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// Rule slug the waiver targets.
    pub rule: String,
    /// The mandatory justification text.
    pub reason: String,
    /// Whether the waiver suppressed at least one finding in this run.
    pub used: bool,
}

/// A whole-analysis lint report.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Findings that survive waivers (including `bad-waiver` and
    /// `stale-waiver` meta-findings), in path order. Non-empty ⇒ exit 1.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a waiver (kept for the `--json` artifact).
    pub waived: Vec<Finding>,
    /// Every well-formed waiver with its `used` state.
    pub waivers: Vec<WaiverState>,
}

/// Runs the full analysis (per-line rules, call graph, cross-file rules,
/// waiver application and stale-waiver detection) over a set of files.
pub fn analyze(files: Vec<SourceFile>) -> Report {
    let pfs: Vec<PerFile> = files
        .into_iter()
        .map(|f| PerFile::new(f.rel, &f.source, f.scope))
        .collect();

    let mut findings = Vec::new();
    for pf in &pfs {
        findings.extend(per_file_pass(pf));
    }

    let inputs: Vec<callgraph::FileInput<'_>> = pfs
        .iter()
        .map(|pf| callgraph::FileInput {
            rel: &pf.rel,
            code: &pf.stripped.code,
            test: &pf.test,
            hot: &pf.hot,
        })
        .collect();
    let graph = callgraph::CallGraph::build(&inputs);

    findings.extend(transitive_hotpath(&graph, &pfs));
    findings.extend(wire_rule::check(&graph, &pfs));
    findings.extend(locks::check(&graph, &pfs));

    // Waiver application: a waiver covers findings of its rule on its own
    // line and the line directly below; each application marks it used.
    let mut waivers: Vec<WaiverState> = pfs
        .iter()
        .flat_map(|pf| {
            pf.stripped
                .waivers
                .iter()
                .filter(|w| Rule::waivable_slugs().contains(&w.rule.as_str()))
                .map(|w| WaiverState {
                    file: pf.rel.clone(),
                    line: w.line,
                    rule: w.rule.clone(),
                    reason: w.reason.clone(),
                    used: false,
                })
        })
        .collect();
    let mut kept = Vec::new();
    let mut waived = Vec::new();
    for f in findings {
        if matches!(f.rule, Rule::BadWaiver | Rule::StaleWaiver) {
            kept.push(f);
            continue;
        }
        let hit = waivers.iter_mut().find(|w| {
            w.file == f.file
                && w.rule == f.rule.slug()
                && (w.line == f.line || w.line + 1 == f.line)
        });
        match hit {
            Some(w) => {
                w.used = true;
                waived.push(f);
            }
            None => kept.push(f),
        }
    }
    for w in &waivers {
        if !w.used {
            kept.push(Finding {
                file: w.file.clone(),
                line: w.line,
                rule: Rule::StaleWaiver,
                msg: format!(
                    "stale waiver: `allow({}, {})` no longer suppresses any finding; \
                     delete it (or fix the drift that orphaned it)",
                    w.rule, w.reason
                ),
                chain: Vec::new(),
            });
        }
    }
    kept.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    waived.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Report {
        files: pfs.len(),
        findings: kept,
        waived,
        waivers,
    }
}

/// Lints one file's source. `rel` is the workspace-relative path (used in
/// findings and for `#[hotpath]`-independent scoping decisions). Cross-file
/// rules run over the single-file "workspace" (so same-file transitive
/// hotpath chains and stale waivers are still reported).
pub fn lint_source(rel: &str, source: &str, scope: Scope) -> Vec<Finding> {
    analyze(vec![SourceFile {
        rel: rel.to_string(),
        source: source.to_string(),
        scope,
    }])
    .findings
}

fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // `fixtures/` holds selint's deliberately-violating test inputs;
            // `target/` is build output.
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root` (facade `src/`, `tests/` and
/// every crate under `crates/`; `shims/` are exempt third-party stand-ins).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in ["src", "tests", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&path)?;
        let scope = scope_for(&rel);
        sources.push(SourceFile { rel, source, scope });
    }
    Ok(analyze(sources))
}

/// The workspace root, resolved from this crate's manifest at compile time.
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/selint sits two levels below the workspace root")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_all(src: &str) -> Vec<Finding> {
        lint_source("crates/core/src/x.rs", src, Scope::all())
    }

    #[test]
    fn flags_hash_keys_iteration() {
        let f = lint_all("fn f(m: &M) { for k in view.positions.keys() {} }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnorderedIter);
    }

    #[test]
    fn ordered_receiver_is_exempt() {
        let src =
            "struct S {\n    m: BTreeMap<u32, u32>,\n}\nfn f(s: &S) { for k in s.m.keys() {} }\n";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn hash_declared_iter_is_flagged_and_vec_is_not() {
        let src = "fn f() {\n    let mut seen = HashSet::new();\n    for x in seen.iter() {}\n    let v: Vec<u32> = Vec::new();\n    for x in v.iter() {}\n}\n";
        let f = lint_all(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn wrapped_method_chain_resolves_receiver() {
        let src = "struct S {\n    entries: BTreeMap<u32, u32>,\n}\nfn f(s: &S) -> usize {\n    s.entries\n        .keys()\n        .count()\n}\n";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_name() {
        let src = "fn f() {\n    let mut seen = HashSet::new();\n    for x in &seen {\n    }\n}\n";
        let f = lint_all(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnorderedIter);
    }

    #[test]
    fn waiver_suppresses_same_line_and_line_above() {
        let same = "fn f(v: &V) { let x = v.positions.keys().max(); } // selint: allow(unordered-iter, max of unique total order)\n";
        assert!(lint_all(same).is_empty());
        let above = "// selint: allow(unordered-iter, sorted right after)\nfn f(v: &V) { let x = v.positions.keys().max(); }\n";
        assert!(lint_all(above).is_empty());
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress_and_goes_stale() {
        let src = "fn f(v: &V) { let x = v.positions.keys().max(); } // selint: allow(ambient-nondet, wrong slug)\n";
        let f = lint_all(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == Rule::UnorderedIter));
        // The mismatched waiver suppresses nothing, so it is reported stale.
        assert!(f.iter().any(|x| x.rule == Rule::StaleWaiver));
    }

    #[test]
    fn malformed_waiver_is_a_finding() {
        let f = lint_all("// selint: allow(unordered-iter)\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::BadWaiver);
    }

    #[test]
    fn ambient_nondet_tokens() {
        let f = lint_all("fn f() { let t = Instant::now(); let r = thread_rng(); }\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::AmbientNondet));
    }

    #[test]
    fn hotpath_alloc_only_inside_hot_fn() {
        let src = "#[hotpath]\nfn hot(v: &[u32]) { let c = v.to_vec(); }\nfn cold(v: &[u32]) { let c = v.to_vec(); }\n";
        let f = lint_all(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotpathAlloc);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn transitive_hotpath_alloc_reports_chain() {
        let src = "#[hotpath]\nfn hot(v: &[u32]) -> Vec<u32> {\n    helper(v)\n}\nfn helper(v: &[u32]) -> Vec<u32> {\n    v.to_vec()\n}\n";
        let f = lint_all(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotpathAlloc);
        assert_eq!(f[0].line, 6, "anchored at the allocation site");
        let fns: Vec<&str> = f[0].chain.iter().map(|h| h.func.as_str()).collect();
        assert_eq!(fns, vec!["hot", "helper"]);
    }

    #[test]
    fn transitive_hotpath_alloc_is_waivable_at_the_alloc_site() {
        let src = "#[hotpath]\nfn hot(v: &[u32]) -> Vec<u32> {\n    helper(v)\n}\nfn helper(v: &[u32]) -> Vec<u32> {\n    // selint: allow(hotpath-alloc, cold slow-path fallback)\n    v.to_vec()\n}\n";
        let f = lint_all(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn transitive_pass_skips_calls_from_test_regions() {
        let src = "#[hotpath]\nfn hot(v: &[u32]) -> u32 {\n    v.len() as u32\n}\n#[cfg(test)]\nmod tests {\n    fn t(v: &[u32]) { let c = v.to_vec(); }\n}\n";
        let f = lint_source(
            "crates/core/src/x.rs",
            src,
            scope_for("crates/core/src/x.rs"),
        );
        assert!(
            f.iter().all(|x| x.rule != Rule::HotpathAlloc),
            "test-region allocations must not become transitive findings: {f:?}"
        );
    }

    #[test]
    fn panic_path_unwrap_and_subscript() {
        let f =
            lint_all("fn f(v: &[u32], i: usize) { let a = v[i]; let b = v.get(0).unwrap(); }\n");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::PanicPath));
    }

    #[test]
    fn subscript_skips_ranges_attrs_and_vec_macro() {
        let f = lint_all("#[derive(Debug)]\nfn f(v: &[u32]) { let s = &v[1..3]; let w = vec![0; 4]; let t: [u8; 4] = [0; 4]; }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn subscript_skips_lifetime_annotated_slice_types() {
        let f = lint_all(
            "fn take<'a>(buf: &mut &'a [u8], n: usize) -> &'a [u8] { &buf[..n] }\nfn g(s: &'static [u32]) {}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_regions_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); let v = x[9]; }\n}\n";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn string_contents_do_not_fire() {
        let f = lint_all("fn f() { let s = \"Instant::now and .keys() and x[0]\"; }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cast_audit_flags_narrowing_and_waiver_clears_it() {
        let f = lint_all("fn f(n: usize) -> u32 { n as u32 }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::CastAudit);
        let waived =
            "fn f(n: usize) -> u32 { n as u32 } // selint: allow(cast-audit, n < degree cap)\n";
        assert!(lint_all(waived).is_empty());
    }

    #[test]
    fn cast_audit_ignores_widening_and_usize() {
        let f = lint_all(
            "fn f(n: u32, b: u8) -> (usize, u64, f64) { (n as usize, b as u64, n as f64) }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scope_limits_rules() {
        // The wire stack is both panic-free (L4) and clock-disciplined (L2)
        // and gets lock + cast discipline with the rest of the net crate;
        // timing.rs is neither L2 nor L4 — it predates the wire refactor
        // and models virtual time only.
        for wire in [
            "crates/net/src/codec.rs",
            "crates/net/src/transport.rs",
            "crates/net/src/runtime.rs",
            "crates/net/src/socket.rs",
            "crates/net/src/throttled.rs",
        ] {
            let s = scope_for(wire);
            assert!(s.l2 && s.l4 && !s.l1, "{wire}");
            assert!(s.l6 && s.l7, "{wire}");
        }
        let fault = scope_for("crates/sim/src/fault.rs");
        assert!(fault.l4 && fault.l1 && fault.l2);
        let timing = scope_for("crates/net/src/timing.rs");
        assert!(!timing.l1 && !timing.l2 && !timing.l4);
        assert!(timing.l6 && timing.l7, "still in the net crate");
        let core = scope_for("crates/core/src/gossip.rs");
        assert!(core.l1 && core.l2 && !core.l4 && !core.l6 && !core.l7);
        let graph = scope_for("crates/graph/src/csr.rs");
        assert!(
            graph.l7 && !graph.l1 && !graph.l6,
            "CSR layer is cast-audited"
        );
        let wire_decl = scope_for("crates/core/src/wire.rs");
        assert!(wire_decl.l7, "wire declarations are cast-audited");
        let bench = scope_for("crates/bench/src/report.rs");
        assert!(!bench.l1 && !bench.l2 && !bench.l4 && !bench.l6 && !bench.l7);
        let baselines = scope_for("crates/baselines/src/omen.rs");
        assert!(baselines.l1 && !baselines.l2);
        // The observability crate promises "no ambient time, virtual ms
        // only" — L2 watches it, but it is not hot-path (L1) or fault (L4).
        let obs = scope_for("crates/obs/src/hist.rs");
        assert!(obs.l2 && !obs.l1 && !obs.l4);
    }

    #[test]
    fn unknown_waiver_slug_is_flagged() {
        let f = lint_all("// selint: allow(no-such-rule, because)\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::BadWaiver);
    }

    #[test]
    fn stale_waiver_is_reported_with_its_location() {
        let src =
            "// selint: allow(panic-path, nothing panics here any more)\nfn fine() -> u32 { 7 }\n";
        let f = lint_all(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::StaleWaiver);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn used_waiver_is_marked_used_in_the_registry() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] } // selint: allow(panic-path, index bounded by caller)\n";
        let report = analyze(vec![SourceFile {
            rel: "crates/net/src/codec.rs".to_string(),
            source: src.to_string(),
            scope: Scope::all(),
        }]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.waivers.len(), 1);
        assert!(report.waivers[0].used);
        assert_eq!(report.waived.len(), 1);
        assert_eq!(report.waived[0].rule, Rule::PanicPath);
    }
}
