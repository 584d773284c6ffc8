//! Minimal dependency-free JSON for the `--json` report artifact.
//!
//! The emitter produces the stable `selint-report/v2` schema consumed by CI
//! (`ci.sh` writes it to `selint_report.json`); the parser exists so the
//! schema-stability tests can round-trip the artifact without external
//! crates. Both cover exactly the JSON subset the report uses: objects,
//! arrays, strings, integers, booleans and null.
//!
//! Schema (all keys always present, order fixed):
//!
//! ```json
//! {
//!   "schema": "selint-report/v2",
//!   "files": 123,
//!   "findings": [
//!     {"rule": "hotpath-alloc", "path": "crates/core/src/pubsub.rs",
//!      "line": 42, "message": "…", "waived": false,
//!      "chain": [{"fn": "publish", "path": "…", "line": 40}, …]},
//!     …
//!   ],
//!   "waivers": [
//!     {"path": "crates/net/src/transport.rs", "line": 179,
//!      "rule": "lock-order", "reason": "…", "used": true},
//!     …
//!   ]
//! }
//! ```
//!
//! `findings` contains waived findings too (`"waived": true`) so the
//! artifact is a complete audit trail; the process exit code is driven only
//! by unwaived findings.

use crate::Report;
use std::fmt::Write as _;

/// A JSON value (the subset the report schema uses).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integers only — the report has no fractional fields.
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs (insertion order preserved).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), with stable member order.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => emit_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_str(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset [`Value`] models; numbers must be
    /// integers). Returns a message with byte position on malformed input.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(text, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let val = parse_value(text, bytes, pos)?;
                pairs.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(text, bytes, pos)?)),
        Some(b't') if text[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if text[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if text[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            if bytes[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
            text[start..*pos]
                .parse::<i64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Consume one full UTF-8 char.
                let ch = text[*pos..]
                    .chars()
                    .next()
                    .ok_or_else(|| "bad utf-8 in string".to_string())?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Renders a [`Report`] as the `selint-report/v2` JSON artifact.
pub fn report_json(report: &Report) -> String {
    let mut findings: Vec<(&crate::Finding, bool)> = report
        .findings
        .iter()
        .map(|f| (f, false))
        .chain(report.waived.iter().map(|f| (f, true)))
        .collect();
    findings.sort_by(|(a, aw), (b, bw)| {
        (&a.file, a.line, a.rule, *aw).cmp(&(&b.file, b.line, b.rule, *bw))
    });
    let findings = Value::Arr(
        findings
            .into_iter()
            .map(|(f, waived)| {
                Value::Obj(vec![
                    ("rule".into(), Value::Str(f.rule.slug().into())),
                    ("path".into(), Value::Str(f.file.clone())),
                    ("line".into(), Value::Num(f.line as i64)),
                    ("message".into(), Value::Str(f.msg.clone())),
                    ("waived".into(), Value::Bool(waived)),
                    (
                        "chain".into(),
                        Value::Arr(
                            f.chain
                                .iter()
                                .map(|h| {
                                    Value::Obj(vec![
                                        ("fn".into(), Value::Str(h.func.clone())),
                                        ("path".into(), Value::Str(h.file.clone())),
                                        ("line".into(), Value::Num(h.line as i64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let waivers = Value::Arr(
        report
            .waivers
            .iter()
            .map(|w| {
                Value::Obj(vec![
                    ("path".into(), Value::Str(w.file.clone())),
                    ("line".into(), Value::Num(w.line as i64)),
                    ("rule".into(), Value::Str(w.rule.clone())),
                    ("reason".into(), Value::Str(w.reason.clone())),
                    ("used".into(), Value::Bool(w.used)),
                ])
            })
            .collect(),
    );
    Value::Obj(vec![
        ("schema".into(), Value::Str("selint-report/v2".into())),
        ("files".into(), Value::Num(report.files as i64)),
        ("findings".into(), findings),
        ("waivers".into(), waivers),
    ])
    .emit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-42", "\"hi\"", "[]", "{}"] {
            let v = Value::parse(text).expect(text);
            assert_eq!(v.emit(), text, "{text}");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}".to_string());
        let emitted = v.emit();
        assert_eq!(Value::parse(&emitted).unwrap(), v);
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2,{"b":"x","c":null}],"d":true}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.emit(), text);
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "\"unterminated", "1.5", "{\"a\" 1}"] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
    }
}
