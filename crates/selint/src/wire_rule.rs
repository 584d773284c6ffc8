//! L5 `wire-exhaustive`: every `WireMsg` variant declared in
//! `crates/core/src/wire.rs` must have an encode arm and a decode arm in the
//! codec and must be mentioned (dispatched or explicitly ignored) by the one
//! peer loop every link family runs (`crates/net/src/runtime.rs`).
//!
//! The rule is workspace-level: it runs whenever the wire declaration file
//! is part of the analyzed set, and checks only the codec/transport files
//! that are also in the set (so single-file fixture runs don't produce
//! phantom findings about absent files). Catch-all `_` arms deliberately do
//! NOT count — the whole point is that adding wire tag 9 must force a
//! decision in the runtime, which is also why the real peer loop spells out
//! ignored variants instead of using `_`.
//!
//! When the declaration also defines `struct TraceContext`, the codec and
//! the runtime must mention `TraceContext` outside test code: the trace
//! field is optional on the wire, so a runtime that silently drops it still
//! compiles — only this rule notices that it stopped propagating (or
//! deliberately documenting) trace contexts.

use crate::callgraph::CallGraph;
use crate::{contains_word, line_of, Finding, PerFile, Rule};

/// The wire vocabulary declaration.
const WIRE_DECL: &str = "crates/core/src/wire.rs";
/// The codec whose `encode_body`/`decode_body` must stay arm-complete.
const CODEC: &str = "crates/net/src/codec.rs";
/// The file holding the one peer loop and the one `Transport` impl, which
/// must dispatch (or explicitly ignore) every variant. Link families
/// (`socket.rs`, `throttled.rs`) only move frames and never match on them.
const RUNTIME: &str = "crates/net/src/runtime.rs";

/// Parses the variant names of `enum WireMsg` out of stripped source.
pub(crate) fn wire_variants(code: &str) -> Vec<String> {
    let Some(at) = contains_word(code, "enum WireMsg") else {
        return Vec::new();
    };
    let bytes = code.as_bytes();
    let Some(open_rel) = code[at..].find('{') else {
        return Vec::new();
    };
    let open = at + open_rel;
    let mut variants = Vec::new();
    let mut depth = 0i64;
    let mut expecting = true;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b',' if depth == 1 => expecting = true,
            b'#' if depth == 1 => {
                // Attribute on a variant: skip the bracketed part.
                while i < bytes.len() && bytes[i] != b']' {
                    i += 1;
                }
            }
            c if depth == 1 && expecting && (c.is_ascii_alphabetic() || c == b'_') => {
                let start = i;
                while i < bytes.len() && crate::is_ident_byte(bytes[i]) {
                    i += 1;
                }
                variants.push(code[start..i].to_string());
                expecting = false;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// 1-based line of the `impl … Transport for` header in `code` (the real
/// impl is generic over its link family), else line 1.
fn impl_line(code: &str) -> usize {
    code.find("Transport for")
        .map(|at| line_of(code, at))
        .unwrap_or(1)
}

/// True if any non-test line of `pf` mentions `WireMsg::<variant>`.
fn mentions(pf: &PerFile, needle: &str) -> bool {
    pf.stripped.code.lines().enumerate().any(|(i, line)| {
        !pf.test.get(i).copied().unwrap_or(false) && contains_word(line, needle).is_some()
    })
}

/// Runs the wire-exhaustiveness rule over the analyzed set.
pub(crate) fn check(graph: &CallGraph, files: &[PerFile]) -> Vec<Finding> {
    let Some(wire) = files.iter().find(|pf| pf.rel == WIRE_DECL) else {
        return Vec::new();
    };
    let variants = wire_variants(&wire.stripped.code);
    let mut findings = Vec::new();
    if variants.is_empty() {
        findings.push(Finding {
            file: WIRE_DECL.to_string(),
            line: 1,
            rule: Rule::WireExhaustive,
            msg: "could not parse any `enum WireMsg` variants; the wire-exhaustive rule has \
                  nothing to check (was the enum renamed?)"
                .to_string(),
            chain: Vec::new(),
        });
        return findings;
    }

    // Codec: each variant needs an arm inside encode_body and decode_body.
    if let Some(codec) = files.iter().find(|pf| pf.rel == CODEC) {
        for fname in ["encode_body", "decode_body"] {
            let Some(id) = graph.fn_in_file(CODEC, fname) else {
                findings.push(Finding {
                    file: CODEC.to_string(),
                    line: 1,
                    rule: Rule::WireExhaustive,
                    msg: format!("codec defines no `{fname}`; the wire codec contract moved"),
                    chain: Vec::new(),
                });
                continue;
            };
            let d = &graph.fns[id];
            let body = match d.body {
                Some((open, close)) => &codec.stripped.code[open..=close],
                None => "",
            };
            for v in &variants {
                let needle = format!("WireMsg::{v}");
                if contains_word(body, &needle).is_none() {
                    findings.push(Finding {
                        file: CODEC.to_string(),
                        line: d.line,
                        rule: Rule::WireExhaustive,
                        msg: format!(
                            "`{fname}` has no arm for `{needle}`: the wire vocabulary grew \
                             without a codec update (tag set must stay encode/decode-complete)"
                        ),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }

    // Runtime: each variant must be mentioned somewhere non-test.
    if let Some(pf) = files.iter().find(|pf| pf.rel == RUNTIME) {
        let line = impl_line(&pf.stripped.code);
        for v in &variants {
            let needle = format!("WireMsg::{v}");
            if !mentions(pf, &needle) {
                findings.push(Finding {
                    file: RUNTIME.to_string(),
                    line,
                    rule: Rule::WireExhaustive,
                    msg: format!(
                        "this Transport impl never mentions `{needle}`: dispatch it or add an \
                         explicit ignore arm so new wire tags force a per-runtime decision"
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    // Trace contexts: once the wire vocabulary carries them, the codec and
    // the runtime must handle (or at least deliberately document) them.
    if contains_word(&wire.stripped.code, "struct TraceContext").is_some() {
        for rel in [CODEC, RUNTIME] {
            let Some(pf) = files.iter().find(|pf| pf.rel == rel) else {
                continue;
            };
            if !mentions(pf, "TraceContext") {
                let line = if rel == CODEC {
                    1
                } else {
                    impl_line(&pf.stripped.code)
                };
                findings.push(Finding {
                    file: rel.to_string(),
                    line,
                    rule: Rule::WireExhaustive,
                    msg: "the wire vocabulary declares `TraceContext` but this file never \
                          mentions it: propagate the trace field (or document why it is \
                          dropped) so tracing cannot silently rot out of a runtime"
                        .to_string(),
                    chain: Vec::new(),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_unit_struct_and_attributed_variants() {
        let src = "pub enum WireMsg {\n    Join { peer: u32 },\n    Probe(u32, u64),\n    #[allow(dead_code)]\n    Shutdown,\n}\n";
        let stripped = crate::lexer::strip(src);
        assert_eq!(
            wire_variants(&stripped.code),
            vec!["Join", "Probe", "Shutdown"]
        );
    }

    #[test]
    fn nested_braces_do_not_leak_field_names() {
        let src = "enum WireMsg {\n    ExchangeRt { children: Vec<(u32, Vec<u32>)>, round: u64 },\n    Ack { pub_id: u64 },\n}\n";
        let stripped = crate::lexer::strip(src);
        assert_eq!(wire_variants(&stripped.code), vec!["ExchangeRt", "Ack"]);
    }

    #[test]
    fn absent_wire_decl_disables_the_rule() {
        let g = crate::callgraph::build_from_sources(&[("crates/net/src/codec.rs", "fn x() {}\n")]);
        let pf: Vec<crate::PerFile> = Vec::new();
        assert!(check(&g, &pf).is_empty());
    }
}
