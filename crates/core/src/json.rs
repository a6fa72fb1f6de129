//! A minimal JSON document model and writer.
//!
//! The build environment is offline (no serde), so the machine-readable
//! results path is hand-rolled: [`JsonValue`] models a document,
//! [`JsonValue::render`] emits standards-conformant text, and the lab
//! crate provides the matching parser. Numbers are `f64` — every
//! *counter* this workspace emits fits in the 2^53 exact-integer range;
//! full-width 64-bit identifiers (RNG seeds) are emitted as decimal
//! strings instead, which round-trip exactly.

use std::fmt::Write as _;

/// One JSON value. Object keys keep insertion order so rendered
/// documents are stable and diffable.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // The six JSON value kinds; names are the docs.
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// A numeric value; non-finite numbers render as `null` (JSON has no
    /// NaN/Infinity).
    pub fn num(x: f64) -> JsonValue {
        JsonValue::Num(x)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53)).then_some(x as u64)
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline — the on-disk format of `results/BENCH_*.json`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(x) => {
                if !x.is_finite() {
                    out.push_str("null");
                } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    // Shortest round-trip representation (Rust's Display
                    // for f64 is exact).
                    let _ = write!(out, "{x}");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// A quoted JSON string: the escaping is obs's, shared with the trace
/// exporter.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    stmbench7_obs::write_json_escaped(out, s);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(JsonValue::Null.render(), "null\n");
        assert_eq!(JsonValue::Bool(true).render(), "true\n");
        assert_eq!(JsonValue::num(42.0).render(), "42\n");
        assert_eq!(JsonValue::num(1.5).render(), "1.5\n");
        assert_eq!(JsonValue::num(f64::NAN).render(), "null\n");
        assert_eq!(JsonValue::str("a\"b\n").render(), "\"a\\\"b\\n\"\n");
    }

    #[test]
    fn renders_nested_structure() {
        let doc = JsonValue::obj(vec![
            ("name", JsonValue::str("smoke")),
            (
                "cells",
                JsonValue::Arr(vec![JsonValue::obj(vec![("threads", JsonValue::num(2.0))])]),
            ),
            ("empty", JsonValue::Arr(vec![])),
        ]);
        let text = doc.render();
        assert!(text.contains("\"name\": \"smoke\""));
        assert!(text.contains("\"threads\": 2"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn accessors() {
        let doc = JsonValue::obj(vec![
            ("n", JsonValue::num(3.0)),
            ("s", JsonValue::str("x")),
            ("b", JsonValue::Bool(false)),
            ("a", JsonValue::Arr(vec![JsonValue::Null])),
        ]);
        assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            doc.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(JsonValue::num(1.5).as_u64(), None);
    }
}
