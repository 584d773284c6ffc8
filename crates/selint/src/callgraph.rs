//! Symbol table and call graph built from the lexer's token stream.
//!
//! The build environment is fully offline (no `syn`), so this is a *token
//! level* analysis over [`crate::lexer::strip`]ped sources: comments and
//! literal contents are already blanked, line structure is preserved, and
//! everything here works on byte offsets that map 1:1 to source lines.
//!
//! The pipeline is: per file, find every `fn` item (name, body span,
//! `self`-receiver, `#[hotpath]` / `#[cfg(test)]` region membership), then
//! scan each body for call sites (`recv.method(…)`, `free_call(…)`,
//! `path::to::call(…)`), and finally resolve call sites to candidate
//! definitions by name. Resolution is deliberately an **over-approximation**
//! — a method call resolves to every same-named method the workspace
//! defines, preferring the narrowest scope (same file, then same crate,
//! then workspace-wide) that has any candidate. Rules built on top report
//! the full call chain, so a mis-resolved edge is visible in the finding
//! and can be waived at the offending site.
//!
//! ## Heuristics, stated honestly
//!
//! * Function bodies are brace-matched; a `fn` with no body (trait method
//!   declarations) contributes a symbol but no call sites.
//! * Call sites inside nested fns belong to the **innermost** enclosing fn.
//! * Macro invocations (`name!(…)`) are not call edges — the per-line token
//!   rules already watch the allocation-prone macros (`format!`, …).
//! * Bare calls resolve to free fns, `.method(` calls to `self`-taking fns,
//!   and `Path::name(` calls to either (UFCS). Closures, function pointers
//!   and `dyn` dispatch all collapse onto name identity.
//! * Path calls keep their qualifying segment (`Foo::new` → `Foo`), and the
//!   qualifier prunes candidates: a `Type::name` call resolves only into
//!   files with an `impl Type`, `Self::name` stays in-file, and a
//!   `module::name` call prefers files whose stem is `module`. A qualifier
//!   naming a type no workspace file implements (`Vec`, `Instant`, …) is
//!   external — no edge, instead of an edge to every same-named fn.
//! * Method names that are overwhelmingly std primitive/float operations
//!   (`round`, `min`, `abs`, …) never resolve: `total.round()` on an `f64`
//!   must not become an edge into a domain method that happens to share the
//!   name. The cost is losing edges to trivial domain getters of the same
//!   name, which is the right trade for an allocation/deadlock lint.

use crate::{is_ident_byte, lexer, line_of};
use std::collections::BTreeMap;

/// One `fn` item found in a stripped source file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's bare name (no path, no generics).
    pub name: String,
    /// Index into the analysis' file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte offset of the `fn` keyword in the stripped text (locates the
    /// definition inside `impl` block spans).
    pub at: usize,
    /// Byte span `[open, close]` of the body braces in the stripped text,
    /// or `None` for bodiless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// Whether the parameter list starts with a `self` receiver.
    pub is_method: bool,
    /// Whether the `fn` line sits inside a `#[hotpath]` region.
    pub is_hot: bool,
    /// Whether the `fn` line sits inside a `#[cfg(test)]` / `#[test]`
    /// region (exempt from every rule).
    pub in_test: bool,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Bare callee name (last path segment for `a::b::name(…)`).
    pub callee: String,
    /// `recv.name(…)` method-call syntax.
    pub is_method: bool,
    /// `Path::name(…)` — resolved against both free fns and methods.
    pub is_path: bool,
    /// The path segment right before `::name` (`Foo` for `a::Foo::name(…)`),
    /// when it is a plain identifier. `None` for non-path calls and for
    /// exotic qualifiers (`<T as Trait>::name`).
    pub qual: Option<String>,
    /// 1-based line of the call.
    pub line: usize,
}

/// Everything the graph knows about one analyzed file.
#[derive(Debug)]
pub struct FileSyms {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Crate key (`crates/<name>` or the top-level dir) for scope-preferred
    /// resolution.
    pub crate_key: String,
    /// File stem (`wire` for `…/wire.rs`, the directory name for `mod.rs`)
    /// for `module::name` call resolution.
    pub stem: String,
    /// `impl` blocks as `(type name, body span)`, for `Type::name` call
    /// resolution at impl-block granularity.
    pub impl_blocks: Vec<(String, usize, usize)>,
    /// Indices into [`CallGraph::fns`] of this file's fns.
    pub fns: Vec<usize>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function definitions, in file order.
    pub fns: Vec<FnDef>,
    /// Per-function call sites (indexed like [`CallGraph::fns`]).
    pub calls: Vec<Vec<CallSite>>,
    /// Resolved edges: per function, `(call-site index, callee fn index)`.
    pub edges: Vec<Vec<(usize, usize)>>,
    /// Per-file symbol info, in analysis order.
    pub files: Vec<FileSyms>,
}

/// Rust keywords (and path-ish idents) that can precede `(` without being a
/// call.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "in", "as", "let",
    "else", "move", "ref", "mut", "pub", "use", "mod", "where", "unsafe", "dyn", "crate", "super",
    "Self", "fn", "impl", "trait", "struct", "enum", "union", "static", "const", "type", "async",
    "await", "yield", "box",
];

/// Method names that never resolve to workspace definitions: on a method
/// call these are overwhelmingly std primitive/float/integer operations, and
/// an edge into a same-named domain method (`Protocol::round`) would drag
/// its whole call tree into every hot path that rounds a float.
const METHOD_DENYLIST: &[&str] = &[
    "round",
    "floor",
    "ceil",
    "abs",
    "sqrt",
    "min",
    "max",
    "clamp",
    "powi",
    "powf",
    "rem_euclid",
    "to_le_bytes",
    "to_be_bytes",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// Byte offset just past a balanced `<…>` starting at `open` (which must be
/// `<`), or `None` if unbalanced. Good enough for generic parameter lists in
/// definitions, where shift operators cannot appear.
fn skip_angle(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            // `->` / `=>` inside `Fn(…) -> T` bounds: not a closing angle.
            b'>' if i > 0 && (bytes[i - 1] == b'-' || bytes[i - 1] == b'=') => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            b'{' | b';' => return None, // ran into a body: not a generic list
            _ => {}
        }
        i += 1;
    }
    None
}

/// Byte offset just past a balanced bracket pair starting at `open`.
fn skip_delim(bytes: &[u8], open: usize, close_b: u8) -> Option<usize> {
    let open_b = bytes[open];
    let mut depth = 0i64;
    let mut i = open;
    while i < bytes.len() {
        if bytes[i] == open_b {
            depth += 1;
        } else if bytes[i] == close_b {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
        i += 1;
    }
    None
}

/// Extracts the qualifying path segment of a `qual::name(` call, given the
/// index of the first `:` of the `::` pair. Handles a turbofish on the
/// qualifier (`Vec::<u8>::new`). Returns `None` for exotic qualifiers
/// (`<T as Trait>::name`, macro output edges, leading `::`).
fn path_qualifier(code: &str, colons: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut e = colons;
    if e == 0 {
        return None;
    }
    if bytes[e - 1] == b'>' {
        // Back over a balanced `<…>`, then over the `::` of `Vec::<u8>`.
        let mut depth = 0i64;
        let mut k = e;
        loop {
            if k == 0 {
                return None;
            }
            k -= 1;
            match bytes[k] {
                b'>' => depth += 1,
                b'<' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        e = k;
        if e >= 2 && bytes[e - 1] == b':' && bytes[e - 2] == b':' {
            e -= 2;
        }
    }
    if e == 0 || !is_ident_byte(bytes[e - 1]) {
        return None;
    }
    let mut s = e;
    while s > 0 && is_ident_byte(bytes[s - 1]) {
        s -= 1;
    }
    if !is_ident_start(bytes[s]) {
        return None;
    }
    Some(code[s..e].to_string())
}

/// Reads a type path at `i` (`foo::Bar<T>` → `Bar`), returning the last
/// segment and the byte offset just past the path.
fn read_path_last(code: &str, mut i: usize) -> Option<(String, usize)> {
    let bytes = code.as_bytes();
    let mut last = None;
    loop {
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || !is_ident_start(bytes[i]) {
            break;
        }
        let s = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        last = Some(code[s..i].to_string());
        if i < bytes.len() && bytes[i] == b'<' {
            match skip_angle(bytes, i) {
                Some(p) => i = p,
                None => break,
            }
        }
        if i + 1 < bytes.len() && bytes[i] == b':' && bytes[i + 1] == b':' {
            i += 2;
            continue;
        }
        break;
    }
    last.map(|l| (l, i))
}

/// Collects `impl` blocks as `(type name, body span)`: `impl Foo`,
/// `impl<T> Foo<T>`, `impl Trait for Foo` all contribute a `Foo` block. The
/// span lets `Type::name` calls resolve to fns inside `impl Type` blocks
/// specifically, not to every same-named fn sharing the file.
fn impl_blocks(code: &str) -> Vec<(String, usize, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find("impl") {
        let at = from + off;
        from = at + 4;
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        if at + 4 < bytes.len() && is_ident_byte(bytes[at + 4]) {
            continue;
        }
        // `-> impl Iterator` / `(impl Trait` are types, not impl blocks.
        let prev = code[..at].trim_end().as_bytes().last().copied();
        if matches!(
            prev,
            Some(b'>' | b'(' | b',' | b'&' | b'=' | b'+' | b'<' | b':')
        ) {
            continue;
        }
        let mut i = at + 4;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'<' {
            match skip_angle(bytes, i) {
                Some(p) => i = p,
                None => continue,
            }
        }
        let Some((first, ni)) = read_path_last(code, i) else {
            continue;
        };
        i = ni;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        // `impl Trait for Type`: the impl target is the second path.
        let mut target = first;
        if code[i..].starts_with("for") && !is_ident_byte(*bytes.get(i + 3).unwrap_or(&b'{')) {
            i += 3;
            while i < bytes.len() {
                let b = bytes[i];
                if b == b'&' || (b as char).is_whitespace() {
                    i += 1;
                } else if b == b'\'' {
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                } else if code[i..].starts_with("mut ") {
                    i += 4;
                } else {
                    break;
                }
            }
            match read_path_last(code, i) {
                Some((t, ni2)) => {
                    target = t;
                    i = ni2;
                }
                None => continue,
            }
        }
        // Block body: the next `{` (a `where` clause carries no braces).
        let Some(open_rel) = code[i..].find('{') else {
            continue;
        };
        let open = i + open_rel;
        let Some(past) = skip_delim(bytes, open, b'}') else {
            continue;
        };
        out.push((target, open, past - 1));
    }
    out
}

/// File stem used for `module::name` resolution: `wire` for `…/wire.rs`,
/// the parent directory for `mod.rs`.
fn file_stem(rel: &str) -> String {
    let mut parts = rel.rsplit('/');
    let name = parts.next().unwrap_or(rel);
    let stem = name.strip_suffix(".rs").unwrap_or(name);
    if stem == "mod" {
        parts.next().unwrap_or(stem).to_string()
    } else {
        stem.to_string()
    }
}

/// Whether the parameter text (the bytes between the fn's parens) declares a
/// `self` receiver — `self`, `&self`, `&mut self`, `&'a self`, `mut self`,
/// `self: Pin<…>`.
fn params_take_self(params: &str) -> bool {
    let first = params.split(',').next().unwrap_or("");
    let mut t = first.trim();
    t = t.strip_prefix('&').unwrap_or(t).trim_start();
    if t.starts_with('\'') {
        // lifetime: `'a self` / `'a mut self`
        t = t.split_once(char::is_whitespace).map_or("", |x| x.1).trim();
    }
    t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    t == "self" || t.starts_with("self:") || t.starts_with("self ") || t.starts_with("self,")
}

/// Parses every `fn` item in `code` (a stripped source). `hot` and `test`
/// are per-line region flags (1-based lines, index 0 = line 1).
fn parse_fns(code: &str, file: usize, hot: &[bool], test: &[bool]) -> Vec<FnDef> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find("fn") {
        let at = from + off;
        from = at + 2;
        // Word-boundary check: `fn` must be its own token.
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        if at + 2 < bytes.len() && is_ident_byte(bytes[at + 2]) {
            continue;
        }
        // Name: the next identifier. `fn(` (fn-pointer types) has none.
        let mut i = at + 2;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || !is_ident_start(bytes[i]) {
            continue;
        }
        let name_start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let name = &code[name_start..i];
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        // Optional generics, then the parameter list.
        if i < bytes.len() && bytes[i] == b'<' {
            let Some(past) = skip_angle(bytes, i) else {
                continue;
            };
            i = past;
            while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                i += 1;
            }
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            continue;
        }
        let params_open = i;
        let Some(params_end) = skip_delim(bytes, params_open, b')') else {
            continue;
        };
        let params = &code[params_open + 1..params_end - 1];
        // Body: the next `{` at delimiter depth 0 (skipping the return type,
        // which may itself contain parens/brackets/angles); `;` means a
        // bodiless declaration.
        let mut j = params_end;
        let mut body = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    let Some(past) = skip_delim(bytes, j, b'}') else {
                        break;
                    };
                    body = Some((j, past - 1));
                    break;
                }
                b';' => break,
                b'(' => match skip_delim(bytes, j, b')') {
                    Some(past) => j = past,
                    None => break,
                },
                b'[' => match skip_delim(bytes, j, b']') {
                    Some(past) => j = past,
                    None => break,
                },
                b'<' => match skip_angle(bytes, j) {
                    // `-> impl Iterator<Item = …>`: a generic list in the
                    // return type; an unbalanced `<` is a comparison in an
                    // expression, which cannot appear between params and
                    // body of a real fn — bail to stay linear.
                    Some(past) => j = past,
                    None => break,
                },
                _ => j += 1,
            }
        }
        let line = line_of(code, at);
        out.push(FnDef {
            name: name.to_string(),
            file,
            line,
            at,
            body,
            is_method: params_take_self(params),
            is_hot: hot.get(line - 1).copied().unwrap_or(false),
            in_test: test.get(line - 1).copied().unwrap_or(false),
        });
    }
    out
}

/// Scans `code[span]` for call sites. `test` flags suppress sites on test
/// lines (the whole fn may still be non-test when only an inner block is).
fn parse_calls(code: &str, span: (usize, usize), test: &[bool]) -> Vec<CallSite> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = span.0;
    let end = span.1.min(bytes.len());
    while i < end {
        // An attribute (`#[expect(…)]`) names lints, not callees.
        if bytes[i] == b'#' && bytes.get(i + 1) == Some(&b'[') {
            i = skip_delim(bytes, i + 1, b']').unwrap_or(end);
            continue;
        }
        if !is_ident_start(bytes[i]) || (i > 0 && is_ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < end && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let name = &code[start..i];
        // What follows decides whether this ident is a call.
        let mut j = i;
        while j < end && (bytes[j] == b' ' || bytes[j] == b'\t') {
            j += 1;
        }
        // Turbofish: `name::<T>(…)`.
        if j + 2 < end && bytes[j] == b':' && bytes[j + 1] == b':' && bytes[j + 2] == b'<' {
            match skip_angle(bytes, j + 2) {
                Some(past) => j = past,
                None => continue,
            }
        }
        if j >= end || bytes[j] != b'(' {
            continue;
        }
        if NON_CALL_IDENTS.contains(&name) {
            continue;
        }
        // Macro `name!(…)` — the `!` sits right after the ident.
        if i < end && bytes[i] == b'!' {
            continue;
        }
        // Look back past whitespace for `.` (method) or `::` (path) — and
        // reject `fn name(` definitions (nested fns are parsed separately).
        let mut p = start;
        while p > 0 && (bytes[p - 1] == b' ' || bytes[p - 1] == b'\t' || bytes[p - 1] == b'\n') {
            p -= 1;
        }
        let is_method = p > 0 && bytes[p - 1] == b'.';
        let is_path = p > 1 && bytes[p - 1] == b':' && bytes[p - 2] == b':';
        let qual = if is_path {
            path_qualifier(code, p - 2)
        } else {
            None
        };
        if !is_method && !is_path {
            // `fn name(` / `struct Name(`: the previous word disqualifies.
            let mut w = p;
            while w > 0 && is_ident_byte(bytes[w - 1]) {
                w -= 1;
            }
            let prev_word = &code[w..p];
            if matches!(prev_word, "fn" | "struct" | "enum" | "union" | "trait") {
                continue;
            }
        }
        let line = line_of(code, start);
        if test.get(line - 1).copied().unwrap_or(false) {
            continue;
        }
        out.push(CallSite {
            callee: name.to_string(),
            is_method,
            is_path,
            qual,
            line,
        });
    }
    out
}

/// Crate key of a workspace-relative path: `crates/<name>` for crate
/// members, the first path segment otherwise (`src`, `tests`).
pub fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(top), _) => top.to_string(),
        (None, _) => String::new(),
    }
}

/// Input to [`CallGraph::build`]: one stripped file plus its region flags.
pub struct FileInput<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Stripped source (see [`lexer::strip`]).
    pub code: &'a str,
    /// Per-line `#[cfg(test)]` / `#[test]` region flags.
    pub test: &'a [bool],
    /// Per-line `#[hotpath]` region flags.
    pub hot: &'a [bool],
}

impl CallGraph {
    /// Builds the symbol table and resolved call graph over `files`.
    pub fn build(files: &[FileInput<'_>]) -> CallGraph {
        let mut g = CallGraph::default();
        for (fi, f) in files.iter().enumerate() {
            let defs = parse_fns(f.code, fi, f.hot, f.test);
            let mut file_fns = Vec::with_capacity(defs.len());
            for d in defs {
                file_fns.push(g.fns.len());
                g.fns.push(d);
            }
            g.files.push(FileSyms {
                rel: f.rel.to_string(),
                crate_key: crate_key(f.rel),
                stem: file_stem(f.rel),
                impl_blocks: impl_blocks(f.code),
                fns: file_fns,
            });
        }
        // Call sites: parse per body, then re-attribute any site that sits
        // inside a *nested* fn's span to the innermost fn.
        g.calls = vec![Vec::new(); g.fns.len()];
        for (fi, f) in files.iter().enumerate() {
            // Spans of this file's fns, innermost-preferred via smallest span.
            let spans: Vec<(usize, (usize, usize))> = g.files[fi]
                .fns
                .iter()
                .filter_map(|&id| g.fns[id].body.map(|b| (id, b)))
                .collect();
            for &(id, span) in &spans {
                for site in parse_calls(f.code, (span.0 + 1, span.1), f.test) {
                    // Innermost owner: the smallest span containing the site.
                    // (`parse_calls` reports line numbers; compare via spans
                    // by re-deriving the byte-pos is overkill — nested fns
                    // are rare, so find the smallest span whose line range
                    // contains the call line and which belongs to this file.)
                    let owner = spans
                        .iter()
                        .filter(|(oid, os)| {
                            *oid == id
                                || (os.0 >= span.0 && os.1 <= span.1 && {
                                    let ol0 = line_of(f.code, os.0);
                                    let ol1 = line_of(f.code, os.1);
                                    (ol0..=ol1).contains(&site.line)
                                })
                        })
                        .min_by_key(|(_, os)| os.1 - os.0)
                        .map(|(oid, _)| *oid)
                        .unwrap_or(id);
                    if owner == id {
                        g.calls[id].push(site);
                    }
                    // Sites owned by a nested fn are collected when the
                    // nested fn's own span is scanned.
                }
            }
        }
        g.resolve();
        g
    }

    /// Resolves every call site to candidate definitions by name, preferring
    /// the narrowest scope (same file → same crate → workspace) that has any
    /// candidate of the right kind.
    fn resolve(&mut self) {
        // name → (free fn ids, method ids), excluding test-region fns.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, d) in self.fns.iter().enumerate() {
            if d.in_test {
                continue;
            }
            let bucket = if d.is_method { &mut methods } else { &mut free };
            bucket.entry(d.name.as_str()).or_default().push(id);
        }
        let empty: Vec<usize> = Vec::new();
        self.edges = vec![Vec::new(); self.fns.len()];
        for id in 0..self.fns.len() {
            let caller_file = self.fns[id].file;
            let caller_crate = self.files[caller_file].crate_key.clone();
            let mut resolved = Vec::new();
            for (si, site) in self.calls[id].iter().enumerate() {
                let name = site.callee.as_str();
                let mut cands: Vec<usize> = Vec::new();
                if site.is_path {
                    // UFCS / path call: either kind, then pruned by the
                    // qualifying segment.
                    cands.extend(free.get(name).unwrap_or(&empty));
                    cands.extend(methods.get(name).unwrap_or(&empty));
                    match site.qual.as_deref() {
                        Some("Self") => {
                            cands.retain(|&c| self.fns[c].file == caller_file);
                        }
                        Some("crate") | Some("super") | Some("self") => {
                            let same_crate: Vec<usize> = cands
                                .iter()
                                .copied()
                                .filter(|&c| self.files[self.fns[c].file].crate_key == caller_crate)
                                .collect();
                            if !same_crate.is_empty() {
                                cands = same_crate;
                            }
                        }
                        Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
                            // `Type::name`: only fns inside an `impl Type`
                            // block. A type nobody impls is external (Vec,
                            // Instant…) — no edge.
                            cands.retain(|&c| {
                                let d = &self.fns[c];
                                self.files[d.file]
                                    .impl_blocks
                                    .iter()
                                    .any(|(t, open, close)| {
                                        t == q && (*open..=*close).contains(&d.at)
                                    })
                            });
                        }
                        // `module::name`: prefer stem-matching files when
                        // the module exists in the analyzed set; otherwise
                        // keep name-based candidates (the module may be
                        // re-exported or renamed).
                        Some(q) if self.files.iter().any(|f| f.stem == *q) => {
                            cands.retain(|&c| self.files[self.fns[c].file].stem == *q);
                        }
                        _ => {}
                    }
                } else if site.is_method && METHOD_DENYLIST.contains(&name) {
                    // std primitive/float method: never a workspace edge.
                } else {
                    let pool = if site.is_method { &methods } else { &free };
                    let all = pool.get(name).unwrap_or(&empty);
                    // Narrowest non-empty scope wins.
                    let same_file: Vec<usize> = all
                        .iter()
                        .copied()
                        .filter(|&c| self.fns[c].file == caller_file)
                        .collect();
                    let same_crate: Vec<usize> = all
                        .iter()
                        .copied()
                        .filter(|&c| self.files[self.fns[c].file].crate_key == caller_crate)
                        .collect();
                    cands = if !same_file.is_empty() {
                        same_file
                    } else if !same_crate.is_empty() {
                        same_crate
                    } else {
                        all.clone()
                    };
                }
                for c in cands {
                    if c != id {
                        resolved.push((si, c));
                    }
                }
            }
            resolved.sort_unstable();
            resolved.dedup();
            self.edges[id] = resolved;
        }
    }

    /// BFS from `root`, returning `parent[fn] = (caller fn, call line)` for
    /// every reachable fn (excluding the root itself). Deterministic: edges
    /// are visited in sorted order.
    pub fn reachable(&self, root: usize) -> BTreeMap<usize, (usize, usize)> {
        let mut parent: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        let mut seen = vec![false; self.fns.len()];
        seen[root] = true;
        while let Some(f) = queue.pop_front() {
            for &(si, callee) in &self.edges[f] {
                if !seen[callee] {
                    seen[callee] = true;
                    let line = self.calls[f][si].line;
                    parent.insert(callee, (f, line));
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// The call chain `root → … → target` as `(fn index, call line)` hops,
    /// derived from a [`CallGraph::reachable`] parent map. The root hop
    /// carries the line of its outgoing call.
    pub fn chain(
        &self,
        root: usize,
        target: usize,
        parent: &BTreeMap<usize, (usize, usize)>,
    ) -> Vec<(usize, usize)> {
        let mut rev = vec![];
        let mut cur = target;
        while cur != root {
            let Some(&(p, line)) = parent.get(&cur) else {
                break;
            };
            rev.push((cur, line));
            cur = p;
        }
        rev.push((root, rev.last().map_or(self.fns[root].line, |&(_, l)| l)));
        rev.reverse();
        rev
    }

    /// Index of the fn named `name` defined in `rel`, if any (first match).
    pub fn fn_in_file(&self, rel: &str, name: &str) -> Option<usize> {
        let file = self.files.iter().position(|f| f.rel == rel)?;
        self.files[file]
            .fns
            .iter()
            .copied()
            .find(|&id| self.fns[id].name == name)
    }
}

/// Convenience for tests: builds a one-off graph from `(rel, source)` pairs,
/// stripping and region-marking internally.
pub fn build_from_sources(sources: &[(&str, &str)]) -> CallGraph {
    let stripped: Vec<(String, lexer::Stripped)> = sources
        .iter()
        .map(|(rel, src)| (rel.to_string(), lexer::strip(src)))
        .collect();
    let mut flags: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
    for (_, s) in &stripped {
        let n = s.code.lines().count();
        let mut test = vec![false; n];
        crate::mark_regions(&s.code, "#[cfg(test)]", &mut test);
        crate::mark_regions(&s.code, "#[test]", &mut test);
        let mut hot = vec![false; n];
        crate::mark_regions(&s.code, "#[hotpath]", &mut hot);
        flags.push((test, hot));
    }
    let inputs: Vec<FileInput<'_>> = stripped
        .iter()
        .zip(flags.iter())
        .map(|((rel, s), (test, hot))| FileInput {
            rel,
            code: &s.code,
            test,
            hot,
        })
        .collect();
    CallGraph::build(&inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_free_fns_methods_and_bodiless_decls() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "pub fn free(x: u32) -> u32 { x }\n\
             impl Foo {\n    fn method(&mut self) {}\n    pub fn assoc(n: usize) -> Foo { Foo }\n}\n\
             trait T {\n    fn decl(&self);\n}\n",
        )]);
        let names: Vec<(&str, bool, bool)> = g
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_method, f.body.is_some()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", false, true),
                ("method", true, true),
                ("assoc", false, true),
                ("decl", true, false),
            ]
        );
    }

    #[test]
    fn generic_fns_and_wrapped_signatures_parse() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "fn gen<T: Clone, F: Fn(u32) -> u32>(t: T, f: F) -> impl Iterator<Item = (u32, T)> {\n    std::iter::empty()\n}\n\
             fn wrapped(\n    a: u32,\n    b: u32,\n) -> u32 {\n    a + b\n}\n",
        )]);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.fns[0].name, "gen");
        assert_eq!(g.fns[1].name, "wrapped");
        assert!(g.fns[1].body.is_some());
    }

    #[test]
    fn call_sites_resolve_same_file_first() {
        let g = build_from_sources(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn caller() { helper(); }\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() { loop {} }\n"),
        ]);
        let caller = g.fn_in_file("crates/a/src/lib.rs", "caller").unwrap();
        let local = g.fn_in_file("crates/a/src/lib.rs", "helper").unwrap();
        assert_eq!(g.edges[caller].len(), 1);
        assert_eq!(g.edges[caller][0].1, local);
    }

    #[test]
    fn method_calls_do_not_resolve_to_free_fns() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "fn poll() {}\nfn caller(x: &Thing) { x.poll(); }\n",
        )]);
        let caller = g.fn_in_file("crates/a/src/lib.rs", "caller").unwrap();
        assert!(g.edges[caller].is_empty(), "{:?}", g.edges[caller]);
    }

    #[test]
    fn path_calls_resolve_across_crates() {
        let g = build_from_sources(&[
            ("crates/a/src/lib.rs", "fn caller() { other::shared(); }\n"),
            ("crates/b/src/lib.rs", "pub fn shared() {}\n"),
        ]);
        let caller = g.fn_in_file("crates/a/src/lib.rs", "caller").unwrap();
        let callee = g.fn_in_file("crates/b/src/lib.rs", "shared").unwrap();
        assert_eq!(g.edges[caller], vec![(0, callee)]);
    }

    #[test]
    fn recursion_terminates_and_is_reachable() {
        let g =
            build_from_sources(&[("crates/a/src/lib.rs", "fn a() { b(); }\nfn b() { a(); }\n")]);
        let a = g.fn_in_file("crates/a/src/lib.rs", "a").unwrap();
        let b = g.fn_in_file("crates/a/src/lib.rs", "b").unwrap();
        let r = g.reachable(a);
        assert!(r.contains_key(&b));
        assert!(!r.contains_key(&a), "root is not its own descendant");
        let chain = g.chain(a, b, &r);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].0, a);
        assert_eq!(chain[1].0, b);
    }

    #[test]
    fn macro_invocations_and_keywords_are_not_calls() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "fn f(x: u32) -> u32 { if (x > 0) { format!(\"x\"); } match (x) { _ => x }\n}\n",
        )]);
        let f = g.fn_in_file("crates/a/src/lib.rs", "f").unwrap();
        assert!(g.calls[f].is_empty(), "{:?}", g.calls[f]);
    }

    #[test]
    fn attributes_are_not_calls() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "fn expect() {}\nfn f() {\n    #[expect(clippy::x, reason = \"r\")]\n    let t = 1;\n}\n",
        )]);
        let f = g.fn_in_file("crates/a/src/lib.rs", "f").unwrap();
        assert!(g.reachable(f).is_empty(), "{:?}", g.calls[f]);
    }

    #[test]
    fn nested_fn_owns_its_call_sites() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "fn outer() {\n    fn inner() { helper(); }\n    inner();\n}\nfn helper() {}\n",
        )]);
        let outer = g.fn_in_file("crates/a/src/lib.rs", "outer").unwrap();
        let inner = g.fn_in_file("crates/a/src/lib.rs", "inner").unwrap();
        let outer_calls: Vec<&str> = g.calls[outer].iter().map(|c| c.callee.as_str()).collect();
        let inner_calls: Vec<&str> = g.calls[inner].iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(outer_calls, vec!["inner"]);
        assert_eq!(inner_calls, vec!["helper"]);
    }

    #[test]
    fn hotpath_and_test_flags_are_attached() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "#[hotpath]\nfn hot() {}\nfn cold() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        )]);
        let by_name = |n: &str| g.fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("hot").is_hot);
        assert!(!by_name("cold").is_hot);
        assert!(by_name("t").in_test);
    }

    #[test]
    fn turbofish_calls_are_detected() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "fn target<T>() {}\nfn caller() { target::<u32>(); }\n",
        )]);
        let caller = g.fn_in_file("crates/a/src/lib.rs", "caller").unwrap();
        assert_eq!(g.calls[caller].len(), 1);
        assert!(!g.edges[caller].is_empty());
    }

    #[test]
    fn type_qualified_calls_restrict_to_impl_files() {
        let g = build_from_sources(&[
            (
                "crates/a/src/foo.rs",
                "pub struct Foo;\nimpl Foo {\n    pub fn make() -> Foo { Foo }\n}\n",
            ),
            (
                "crates/b/src/bar.rs",
                "pub struct Bar;\nimpl Bar {\n    pub fn make() -> Bar { loop {} }\n}\n",
            ),
            ("crates/c/src/lib.rs", "fn caller() { Foo::make(); }\n"),
        ]);
        let caller = g.fn_in_file("crates/c/src/lib.rs", "caller").unwrap();
        let foo_make = g.fn_in_file("crates/a/src/foo.rs", "make").unwrap();
        assert_eq!(g.edges[caller], vec![(0, foo_make)]);
    }

    #[test]
    fn external_type_path_calls_produce_no_edges() {
        // `Vec::new()` must not resolve to a workspace `new`.
        let g = build_from_sources(&[
            (
                "crates/a/src/lib.rs",
                "impl Thing {\n    pub fn new() -> Thing { Thing }\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn caller() { let v: Vec<u32> = Vec::new(); v.len(); }\n",
            ),
        ]);
        let caller = g.fn_in_file("crates/b/src/lib.rs", "caller").unwrap();
        assert!(g.edges[caller].is_empty(), "{:?}", g.edges[caller]);
    }

    #[test]
    fn self_qualified_calls_stay_in_file() {
        let g = build_from_sources(&[
            (
                "crates/a/src/lib.rs",
                "impl T {\n    fn helper() {}\n    fn caller() { Self::helper(); }\n}\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() { loop {} }\n"),
        ]);
        let caller = g.fn_in_file("crates/a/src/lib.rs", "caller").unwrap();
        let local = g.fn_in_file("crates/a/src/lib.rs", "helper").unwrap();
        assert_eq!(g.edges[caller], vec![(0, local)]);
    }

    #[test]
    fn module_qualified_calls_prefer_stem_match() {
        let g = build_from_sources(&[
            ("crates/a/src/wire.rs", "pub fn children_for() {}\n"),
            (
                "crates/b/src/other.rs",
                "pub fn children_for() { loop {} }\n",
            ),
            (
                "crates/c/src/lib.rs",
                "fn caller() { wire::children_for(); }\n",
            ),
        ]);
        let caller = g.fn_in_file("crates/c/src/lib.rs", "caller").unwrap();
        let wire_fn = g
            .fn_in_file("crates/a/src/wire.rs", "children_for")
            .unwrap();
        assert_eq!(g.edges[caller], vec![(0, wire_fn)]);
    }

    #[test]
    fn std_float_methods_do_not_resolve_to_domain_methods() {
        let g = build_from_sources(&[(
            "crates/a/src/lib.rs",
            "impl Protocol {\n    pub fn round(&mut self) -> u64 { 0 }\n}\n\
             fn caller(total: f64) -> u64 { total.round() as u64 }\n",
        )]);
        let caller = g.fn_in_file("crates/a/src/lib.rs", "caller").unwrap();
        assert!(g.edges[caller].is_empty(), "{:?}", g.edges[caller]);
    }

    #[test]
    fn impl_blocks_parse_plain_generic_and_trait_impls() {
        let blocks = super::impl_blocks(
            "impl Foo {}\nimpl<T: Clone> Holder<T> {}\nimpl Display for WireMsg {}\n\
             fn f() -> impl Iterator<Item = u32> { std::iter::empty() }\n",
        );
        let names: Vec<&str> = blocks.iter().map(|(t, _, _)| t.as_str()).collect();
        assert_eq!(names, vec!["Foo", "Holder", "WireMsg"]);
    }

    #[test]
    fn type_qualified_calls_use_impl_block_granularity() {
        // Two impls share a file; `A::new` must not resolve to `B::new`.
        let g = build_from_sources(&[
            (
                "crates/a/src/lib.rs",
                "impl A {\n    pub fn new() -> A { A }\n}\n\
                 impl B {\n    pub fn new() -> B { loop {} }\n}\n",
            ),
            ("crates/c/src/lib.rs", "fn caller() { A::new(); }\n"),
        ]);
        let caller = g.fn_in_file("crates/c/src/lib.rs", "caller").unwrap();
        assert_eq!(g.edges[caller].len(), 1);
        let target = &g.fns[g.edges[caller][0].1];
        assert_eq!(target.line, 2, "resolved into the impl A block");
    }

    #[test]
    fn turbofish_qualifier_is_recovered() {
        let g = build_from_sources(&[
            (
                "crates/a/src/lib.rs",
                "impl Thing {\n    pub fn new() -> Thing { Thing }\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn caller() { let _ = Vec::<u8>::new(); }\n",
            ),
        ]);
        let caller = g.fn_in_file("crates/b/src/lib.rs", "caller").unwrap();
        assert!(g.edges[caller].is_empty(), "{:?}", g.edges[caller]);
    }

    #[test]
    fn shadowed_names_prefer_same_crate_over_workspace() {
        let g = build_from_sources(&[
            ("crates/a/src/x.rs", "fn caller() { shared(); }\n"),
            ("crates/a/src/y.rs", "pub fn shared() {}\n"),
            ("crates/b/src/lib.rs", "pub fn shared() { loop {} }\n"),
        ]);
        let caller = g.fn_in_file("crates/a/src/x.rs", "caller").unwrap();
        let same_crate = g.fn_in_file("crates/a/src/y.rs", "shared").unwrap();
        assert_eq!(g.edges[caller], vec![(0, same_crate)]);
    }
}
