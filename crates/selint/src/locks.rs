//! L6 `lock-order`: inconsistent pairwise lock orderings and blocking calls
//! made while a guard is live, propagated through the call graph.
//!
//! Lock identity is the receiver *name*: any name declared with `Mutex<` or
//! `RwLock<` on a non-test line of an L6-scoped file is a lock, and
//! `name.lock()` / `name.read()` / `name.write()` acquires it. A guard bound
//! with `let` is assumed held to the end of the function (no drop-tracking);
//! a temporary guard (`*m.lock() += 1`) is held for its own line only. Both
//! assumptions over-approximate, which is the right direction for a deadlock
//! lint — a false pair is waived with one line, a missed pair is a hang in
//! production.
//!
//! Two findings:
//!
//! * **order conflict** — lock `A` is acquired while `B` is held on one
//!   path and `B` while `A` is held on another (directly, or because a call
//!   made under a guard transitively acquires the other lock).
//! * **blocking under guard** — a channel/socket blocking call
//!   (`recv`/`recv_timeout`/`accept`/`connect`/`sleep`, or `read`/`write`
//!   on a non-lock receiver) executes while a guard is live, directly or
//!   via a callee.

use crate::callgraph::CallGraph;
use crate::{
    contains_word, ident_ending_at, is_ident_byte, line_of, ChainHop, Finding, PerFile, Rule,
};
use std::collections::{BTreeMap, BTreeSet};

/// Lock-acquisition method suffixes. `.read(`/`.write(` double as
/// `io::Read`/`io::Write` calls, so the receiver decides which rule they
/// feed: a lock name feeds acquisitions, anything else feeds blocking.
const ACQUIRE_METHODS: &[&str] = &[".lock(", ".read(", ".write("];

/// Blocking-call tokens with a method receiver that must not be a lock.
const BLOCKING_METHODS: &[&str] = &[
    ".recv(",
    ".recv_timeout(",
    ".accept(",
    ".connect(",
    ".read(",
    ".read_exact(",
    ".write(",
    ".write_all(",
];

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acquire {
    lock: String,
    line: usize,
    /// Byte column on the line (orders same-line acquisitions).
    col: usize,
    /// Last line the guard is assumed held (fn end for `let` guards, the
    /// acquisition line itself for temporaries).
    held_to: usize,
}

/// Per-function facts extracted before propagation.
#[derive(Debug, Default)]
struct FnFacts {
    acquires: Vec<Acquire>,
    /// `(line, token)` of direct blocking calls.
    blocking: Vec<(usize, String)>,
    in_scope: bool,
}

/// The name a `let` binding or a struct-field line (`name: Type`) declares.
fn decl_name(line: &str) -> Option<&str> {
    let t = line.trim_start();
    let t = ["pub(crate) ", "pub(super) ", "pub "]
        .iter()
        .find_map(|vis| t.strip_prefix(vis))
        .unwrap_or(t);
    let (t, is_let) = match t.strip_prefix("let ") {
        Some(rest) => (rest.strip_prefix("mut ").unwrap_or(rest), true),
        None => (t, false),
    };
    let end = t.bytes().position(|b| !is_ident_byte(b)).unwrap_or(t.len());
    let after = t[end..].trim_start();
    let field = after.starts_with(':') && !after.starts_with("::");
    (end > 0 && !t.as_bytes()[0].is_ascii_digit() && (is_let || field)).then(|| &t[..end])
}

/// Collects every lock name declared in L6-scoped files.
fn lock_names(files: &[PerFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for pf in files {
        if !pf.scope.l6 {
            continue;
        }
        for (i, line) in pf.stripped.code.lines().enumerate() {
            if pf.test.get(i).copied().unwrap_or(false) {
                continue;
            }
            if contains_word(line, "Mutex").is_none() && contains_word(line, "RwLock").is_none() {
                continue;
            }
            if !(line.contains("Mutex<") || line.contains("RwLock<")) {
                continue;
            }
            if let Some(name) = decl_name(line) {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// Extracts acquisitions and blocking calls from one function body.
fn fn_facts(graph: &CallGraph, files: &[PerFile], id: usize, locks: &BTreeSet<String>) -> FnFacts {
    let d = &graph.fns[id];
    let pf = &files[d.file];
    let mut facts = FnFacts {
        in_scope: pf.scope.l6 && !d.in_test,
        ..FnFacts::default()
    };
    let Some((open, close)) = d.body else {
        return facts;
    };
    if !facts.in_scope {
        return facts;
    }
    let code = &pf.stripped.code;
    let first = line_of(code, open);
    let last = line_of(code, close);
    for (i, line) in code.lines().enumerate().take(last).skip(first - 1) {
        let line_no = i + 1;
        if pf.test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let is_let = line.trim_start().starts_with("let ");
        for pat in ACQUIRE_METHODS {
            let mut from = 0;
            while let Some(off) = line[from..].find(pat) {
                let at = from + off;
                from = at + pat.len();
                let Some(recv) = ident_ending_at(line, at) else {
                    continue;
                };
                if !locks.contains(recv) {
                    continue;
                }
                facts.acquires.push(Acquire {
                    lock: recv.to_string(),
                    line: line_no,
                    col: at,
                    held_to: if is_let { last } else { line_no },
                });
            }
        }
        for pat in BLOCKING_METHODS {
            let mut from = 0;
            while let Some(off) = line[from..].find(pat) {
                let at = from + off;
                from = at + pat.len();
                // A lock receiver makes `.read(`/`.write(` an acquisition,
                // not a blocking I/O call.
                if let Some(recv) = ident_ending_at(line, at) {
                    if locks.contains(recv) {
                        continue;
                    }
                }
                facts.blocking.push((
                    line_no,
                    pat.trim_matches(|c| c == '.' || c == '(').to_string(),
                ));
            }
        }
        // Free-function `sleep(…)` (std::thread::sleep and friends).
        if let Some(at) = contains_word(line, "sleep") {
            if line[at + "sleep".len()..].trim_start().starts_with('(') {
                facts.blocking.push((line_no, "sleep".to_string()));
            }
        }
    }
    facts.acquires.sort_by_key(|a| (a.line, a.col));
    facts
}

/// Transitive facts per function, propagated through the call graph with a
/// cycle guard: the set of locks a call may acquire and whether it may
/// block.
struct Propagated {
    acquires: Vec<BTreeSet<String>>,
    may_block: Vec<bool>,
}

fn propagate(graph: &CallGraph, facts: &[FnFacts]) -> Propagated {
    let n = graph.fns.len();
    let mut acquires: Vec<Option<BTreeSet<String>>> = vec![None; n];
    let mut may_block: Vec<Option<bool>> = vec![None; n];

    fn visit(
        id: usize,
        graph: &CallGraph,
        facts: &[FnFacts],
        acquires: &mut Vec<Option<BTreeSet<String>>>,
        may_block: &mut Vec<Option<bool>>,
        visiting: &mut Vec<bool>,
    ) -> (BTreeSet<String>, bool) {
        if let (Some(a), Some(b)) = (&acquires[id], may_block[id]) {
            return (a.clone(), b);
        }
        if visiting[id] {
            // Cycle: contribute the direct facts only; the fixpoint for
            // recursive lock patterns is reached by the callers' unions.
            return (
                facts[id].acquires.iter().map(|a| a.lock.clone()).collect(),
                !facts[id].blocking.is_empty(),
            );
        }
        visiting[id] = true;
        let mut acq: BTreeSet<String> = facts[id].acquires.iter().map(|a| a.lock.clone()).collect();
        let mut blk = !facts[id].blocking.is_empty();
        for &(_, callee) in &graph.edges[id] {
            let (ca, cb) = visit(callee, graph, facts, acquires, may_block, visiting);
            acq.extend(ca);
            blk |= cb;
        }
        visiting[id] = false;
        acquires[id] = Some(acq.clone());
        may_block[id] = Some(blk);
        (acq, blk)
    }

    let mut visiting = vec![false; n];
    for id in 0..n {
        visit(
            id,
            graph,
            facts,
            &mut acquires,
            &mut may_block,
            &mut visiting,
        );
    }
    Propagated {
        acquires: acquires
            .into_iter()
            .map(|a| a.unwrap_or_default())
            .collect(),
        may_block: may_block.into_iter().map(|b| b.unwrap_or(false)).collect(),
    }
}

/// Runs the lock-order rule over the analyzed set.
pub(crate) fn check(graph: &CallGraph, files: &[PerFile]) -> Vec<Finding> {
    let locks = lock_names(files);
    if locks.is_empty() {
        return Vec::new();
    }
    let facts: Vec<FnFacts> = (0..graph.fns.len())
        .map(|id| fn_facts(graph, files, id, &locks))
        .collect();
    let prop = propagate(graph, &facts);

    // Ordered pairs: (first lock, second lock) → observed sites. A site
    // carries an optional via-callee chain hop for transitive pairs.
    type Site = (String, usize, Vec<ChainHop>);
    let mut pairs: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
    let mut findings = Vec::new();

    for (id, fact) in facts.iter().enumerate() {
        if !fact.in_scope {
            continue;
        }
        let d = &graph.fns[id];
        let rel = files[d.file].rel.clone();
        for a in &fact.acquires {
            // Later direct acquisitions while `a` is held.
            for b in &fact.acquires {
                if (b.line, b.col) <= (a.line, a.col) || b.line > a.held_to {
                    continue;
                }
                if a.lock != b.lock {
                    pairs
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_default()
                        .push((rel.clone(), b.line, Vec::new()));
                }
            }
            // Calls made while `a` is held: transitive acquisitions and
            // transitive blocking.
            for &(si, callee) in &graph.edges[id] {
                let call_line = graph.calls[id][si].line;
                if call_line < a.line || call_line > a.held_to {
                    continue;
                }
                let cd = &graph.fns[callee];
                let hop = vec![
                    ChainHop {
                        func: d.name.clone(),
                        file: rel.clone(),
                        line: call_line,
                    },
                    ChainHop {
                        func: cd.name.clone(),
                        file: files[cd.file].rel.clone(),
                        line: cd.line,
                    },
                ];
                for l in &prop.acquires[callee] {
                    if *l != a.lock {
                        pairs.entry((a.lock.clone(), l.clone())).or_default().push((
                            rel.clone(),
                            call_line,
                            hop.clone(),
                        ));
                    }
                }
                if prop.may_block[callee] {
                    findings.push(Finding {
                        file: rel.clone(),
                        line: call_line,
                        rule: Rule::LockOrder,
                        msg: format!(
                            "call to `{}` may block while the guard on `{}` (taken at line {}) \
                             is live; drop the guard before blocking or waive with a reason",
                            cd.name, a.lock, a.line
                        ),
                        chain: hop,
                    });
                }
            }
            // Direct blocking calls while `a` is held.
            for (bl, tok) in &fact.blocking {
                if *bl < a.line || *bl > a.held_to {
                    continue;
                }
                findings.push(Finding {
                    file: rel.clone(),
                    line: *bl,
                    rule: Rule::LockOrder,
                    msg: format!(
                        "blocking `{tok}` while the guard on `{}` (taken at line {}) is live; \
                         drop the guard before blocking or waive with a reason",
                        a.lock, a.line
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    // Conflicts: both (A, B) and (B, A) observed somewhere.
    let keys: Vec<(String, String)> = pairs.keys().cloned().collect();
    for key in keys {
        let (a, b) = key.clone();
        if a >= b {
            continue; // visit each unordered pair once, from its smaller side
        }
        let rev = (b.clone(), a.clone());
        if !pairs.contains_key(&rev) {
            continue;
        }
        let fwd_sites = pairs[&key].clone();
        let rev_sites = pairs[&rev].clone();
        for (sites, first, second, other) in [
            (&fwd_sites, &a, &b, &rev_sites[0]),
            (&rev_sites, &b, &a, &fwd_sites[0]),
        ] {
            for (file, line, chain) in sites.iter() {
                findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    rule: Rule::LockOrder,
                    msg: format!(
                        "inconsistent lock order: `{first}` is held when `{second}` is acquired \
                         here, but the reverse order occurs at {}:{} — pick one global order",
                        other.0, other.1
                    ),
                    chain: chain.clone(),
                });
            }
        }
    }

    findings.sort_by(|x, y| (&x.file, x.line, &x.msg).cmp(&(&y.file, y.line, &y.msg)));
    findings.dedup_by(|x, y| x.file == y.file && x.line == y.line && x.msg == y.msg);
    findings
}
