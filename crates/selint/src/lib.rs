//! # selint — the workspace lint pass for what clippy cannot check
//!
//! A repo-specific static-analysis pass (run as `cargo run -p selint`, wired
//! into `ci.sh`) for the two invariants that need a workspace-wide call
//! graph. The build environment is fully offline (no `syn`), so the pass
//! works on a token level: [`lexer::strip`] blanks comments and literal
//! contents while preserving line structure, a [`callgraph`] pass builds a
//! workspace-wide symbol table and call graph from the stripped token
//! stream, and two deny-by-default rules run on top:
//!
//! * **L3 `hotpath-alloc`** — no allocation-prone calls (`collect`,
//!   `to_vec`, `clone`, `format!`, `to_owned`, `to_string`) inside functions
//!   annotated `#[hotpath]` (anywhere in the workspace) — **transitively**:
//!   an allocation in any function reachable from a `#[hotpath]` root
//!   through the call graph is a finding too, reported with the full call
//!   chain and anchored at the allocation site (so a waiver there covers
//!   every chain that reaches it).
//! * **L6 `lock-order`** — inconsistent pairwise lock orderings (lock `A`
//!   then `B` on one path, `B` then `A` on another, directly or through
//!   callees) and blocking calls (`recv`/`accept`/`read`/`write`/`sleep`)
//!   made while a guard is live, in `crates/net`.
//!
//! The other determinism rules are clippy lints, scoped by per-crate
//! `clippy.toml` lists and module lint levels (DESIGN.md §13): L1
//! `unordered-iter` and L2 `ambient-nondet` are `disallowed_types` /
//! `disallowed_methods`, L4 `panic-path` the `indexing_slicing` /
//! `unwrap_used` / `expect_used` / `panic` family, L5 `wire-exhaustive` the
//! compiler's exhaustiveness plus `wildcard_enum_match_arm`, and L7
//! `cast-audit` the three narrowing-cast lints. Their waivers are
//! `#[expect(clippy::…, reason = "…")]`.
//!
//! Any site can carry a waiver — `// selint: allow(<rule>, <reason>)` on the
//! same line or the line directly above — but the reason is mandatory, a
//! malformed waiver is itself a finding (`bad-waiver`), and a **stale**
//! waiver (one that no longer suppresses any finding) is a finding too
//! (`stale-waiver`), so suppressions cannot rot. `#[cfg(test)]` / `#[test]`
//! regions are exempt (tests may allocate freely).
//!
//! `selint --json` emits the whole report (findings incl. waived ones, call
//! chains, the waiver registry with per-waiver `used` state) as a stable
//! machine-readable artifact; see [`json::report_json`].
//!
//! ## Heuristics, stated honestly
//!
//! Call-graph resolution is by name with narrowest-scope preference (same
//! file, then same crate, then workspace) and is an over-approximation;
//! every cross-function finding carries its chain so a mis-resolved edge is
//! visible and waivable at the reported site. Lock identity in L6 is the
//! receiver *name* (`self.peers.lock()` and a different struct's `peers`
//! alias), which over-approximates but never misses a real pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod json;
pub mod lexer;

mod locks;

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// The lint rules. `BadWaiver` is the meta-rule for unparseable waivers;
/// `StaleWaiver` fires on waivers that no longer suppress anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L3: allocation-prone call inside (or reachable from) a `#[hotpath]`
    /// function.
    HotpathAlloc,
    /// L6: inconsistent lock ordering or blocking call under a live guard.
    LockOrder,
    /// A `selint:` comment that does not parse as a valid waiver.
    BadWaiver,
    /// A well-formed waiver that no longer suppresses any finding.
    StaleWaiver,
}

impl Rule {
    /// The slug used in waiver comments and diagnostics.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::HotpathAlloc => "hotpath-alloc",
            Rule::LockOrder => "lock-order",
            Rule::BadWaiver => "bad-waiver",
            Rule::StaleWaiver => "stale-waiver",
        }
    }

    /// All waivable rule slugs (everything but the two waiver meta-rules —
    /// you cannot waive a broken or stale waiver, only fix or delete it).
    pub fn waivable_slugs() -> &'static [&'static str] {
        &["hotpath-alloc", "lock-order"]
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

/// Which path-scoped rules apply to a file. L3 (`#[hotpath]` bodies and the
/// code reachable from them) applies everywhere; L6 only where guards and
/// blocking syscalls meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// L6 lock-order applies.
    pub l6: bool,
}

impl Scope {
    /// Every rule on (used for explicit-path / fixture runs).
    pub fn all() -> Self {
        Scope { l6: true }
    }
}

/// Maps a workspace-relative path (with `/` separators) to its rule scope:
/// lock-order discipline is enforced crate-wide in `crates/net`, where the
/// transports' guards and blocking syscalls meet.
pub fn scope_for(rel: &str) -> Scope {
    Scope {
        l6: rel.starts_with("crates/net/src/"),
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

pub(crate) const L3_TOKENS: &[&str] = &[
    ".collect",
    ".to_vec(",
    ".clone(",
    "format!",
    ".to_owned(",
    ".to_string(",
];

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

/// The per-file checks: malformed and unknown-rule waivers, and direct L3.
fn per_file_pass(pf: &PerFile) -> Vec<Finding> {
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

    for (i, line) in pf.stripped.code.lines().enumerate() {
        if pf.test[i] || !pf.hot[i] {
            continue;
        }
        for tok in L3_TOKENS {
            if line.contains(tok) {
                push(
                    Rule::HotpathAlloc,
                    i + 1,
                    format!(
                        "allocation-prone `{}` inside a #[hotpath] function; reuse a \
                         scratch buffer or waive with a reason",
                        tok.trim_matches(|c| c == '.' || c == '(')
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

/// Runs the full analysis (per-file checks, call graph, cross-file rules,
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

    const HOT_CLONE: &str = "#[hotpath]\nfn hot(v: &Vec<u32>) -> Vec<u32> { v.clone() }";

    #[test]
    fn waiver_suppresses_same_line_and_line_above() {
        let same = format!("{HOT_CLONE} // selint: allow(hotpath-alloc, cold fallback)\n");
        assert!(lint_all(&same).is_empty());
        let above = "#[hotpath]\n// selint: allow(hotpath-alloc, cold fallback)\nfn hot(v: &Vec<u32>) -> Vec<u32> { v.clone() }\n";
        assert!(lint_all(above).is_empty());
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress_and_goes_stale() {
        let src = format!("{HOT_CLONE} // selint: allow(lock-order, wrong slug)\n");
        let f = lint_all(&src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == Rule::HotpathAlloc));
        // The mismatched waiver suppresses nothing, so it is reported stale.
        assert!(f.iter().any(|x| x.rule == Rule::StaleWaiver));
    }

    #[test]
    fn malformed_waiver_is_a_finding() {
        let f = lint_all("// selint: allow(hotpath-alloc)\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::BadWaiver);
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
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[hotpath]\n    fn f(v: &[u32]) { let c = v.to_vec(); }\n}\n";
        assert!(lint_all(src).is_empty());
    }

    #[test]
    fn string_contents_do_not_fire() {
        let f = lint_all("#[hotpath]\nfn f() { let s = \".clone() and .to_vec()\"; }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scope_limits_rules() {
        assert!(scope_for("crates/net/src/socket.rs").l6);
        assert!(scope_for("crates/net/src/timing.rs").l6);
        assert!(!scope_for("crates/core/src/gossip.rs").l6);
        assert!(!scope_for("crates/bench/src/report.rs").l6);
    }

    #[test]
    fn unknown_waiver_slug_is_flagged() {
        for slug in ["no-such-rule", "unordered-iter", "cast-audit"] {
            let f = lint_all(&format!("// selint: allow({slug}, because)\nfn f() {{}}\n"));
            assert_eq!(f.len(), 1, "{slug}: {f:?}");
            assert_eq!(f[0].rule, Rule::BadWaiver, "{slug}");
        }
    }

    #[test]
    fn stale_waiver_is_reported_with_its_location() {
        let src =
            "// selint: allow(hotpath-alloc, nothing allocates here any more)\nfn fine() -> u32 { 7 }\n";
        let f = lint_all(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::StaleWaiver);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn used_waiver_is_marked_used_in_the_registry() {
        let src = format!("{HOT_CLONE} // selint: allow(hotpath-alloc, cold fallback)\n");
        let report = analyze(vec![SourceFile {
            rel: "crates/core/src/x.rs".to_string(),
            source: src,
            scope: Scope::all(),
        }]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.waivers.len(), 1);
        assert!(report.waivers[0].used);
        assert_eq!(report.waived.len(), 1);
        assert_eq!(report.waived[0].rule, Rule::HotpathAlloc);
    }
}
