//! Compact and pretty JSON printers.

use crate::Value;
use std::fmt::Write;

pub(crate) fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

pub(crate) fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = |out: &mut String, n: usize| {
        for _ in 0..n {
            out.push_str("  ");
        }
    };
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
        }
        Value::Obj(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_str(k, out);
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

/// Appends a number exactly as [`Value::Num`] prints: integers below 9e15
/// without a fractional part, other finite values via the shortest float
/// formatting Rust offers, and NaN/±inf as `null`.
///
/// Public so callers that write JSON lines directly (without building a
/// [`Value`]) format numbers byte-identically to the `Value` path.
pub fn write_num(n: f64, out: &mut String) {
    if n.is_finite() && n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64).unwrap();
    } else if n.is_finite() {
        write!(out, "{n}").unwrap();
    } else {
        // JSON has no Inf/NaN; emit null like serde_json's lossy mode.
        out.push_str("null");
    }
}

/// Appends a quoted, escaped JSON string exactly as [`Value::Str`] prints.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
