//! # mocha-json
//!
//! A deliberately small JSON implementation: a [`Value`] tree, a
//! recursive-descent parser, compact and pretty printers, and the
//! [`ToJson`]/[`FromJson`] traits the workspace types implement for config
//! files, CLI `--json` output and the `mocha-sim serve` JSON-lines protocol.
//!
//! The workspace builds offline with no registry access, so this crate
//! stands in for serde/serde_json. It supports exactly the JSON the
//! simulator emits and consumes: objects, arrays, strings, numbers, bools
//! and null, with `\uXXXX`-free string escapes (`\" \\ \/ \n \t \r \b \f`
//! plus basic `\u` decoding for completeness).

#![warn(missing_docs)]

mod parse;
mod print;
mod traits;

pub use parse::{parse, JsonError};
pub use print::{write_num, write_str};
pub use traits::{FromJson, ToJson};

use std::collections::BTreeMap;

/// A JSON value. Objects use a `BTreeMap` so printing is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Value {
        Value::Obj(BTreeMap::new())
    }

    /// Inserts a key into an object value (panics on non-objects) and
    /// returns `self` for chaining.
    pub fn with(mut self, key: &str, v: impl ToJson) -> Value {
        match &mut self {
            Value::Obj(map) => {
                map.insert(key.to_string(), v.to_json());
            }
            _ => panic!("Value::with on non-object"),
        }
        self
    }

    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64 if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as usize if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as &str.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        print::write_compact(self, &mut s);
        s
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        print::write_pretty(self, 0, &mut s);
        s
    }
}

/// Builds an object [`Value`] from `"key" => expr` pairs, where each value
/// expression implements [`ToJson`].
#[macro_export]
macro_rules! jobj {
    ( $( $k:literal => $v:expr ),* $(,)? ) => {{
        let mut map = std::collections::BTreeMap::new();
        $( map.insert($k.to_string(), $crate::ToJson::to_json(&$v)); )*
        $crate::Value::Obj(map)
    }};
}

/// Implements [`ToJson`]/[`FromJson`] for a named-field struct: serialized
/// as an object with one member per listed field. Every field type must
/// itself implement the traits.
#[macro_export]
macro_rules! impl_json_struct {
    ( $ty:ty { $( $field:ident ),+ $(,)? } ) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                let mut map = std::collections::BTreeMap::new();
                $( map.insert(stringify!($field).to_string(), self.$field.to_json()); )+
                $crate::Value::Obj(map)
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $( $field: $crate::FromJson::from_json(
                        v.get(stringify!($field)).ok_or_else(|| $crate::JsonError::missing(
                            concat!(stringify!($ty), ".", stringify!($field))))?,
                    )?, )+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a unit-variant enum, serialized
/// as the given string literal per variant.
#[macro_export]
macro_rules! impl_json_unit_enum {
    ( $ty:ty { $( $variant:ident => $name:literal ),+ $(,)? } ) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Str(match self {
                    $( <$ty>::$variant => $name, )+
                }.to_string())
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::JsonError> {
                match v.as_str() {
                    $( Some($name) => Ok(<$ty>::$variant), )+
                    _ => Err($crate::JsonError::invalid(concat!("expected ", stringify!($ty), " tag"))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_print_roundtrip() {
        let text = r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}}"#;
        let v = parse(text).unwrap();
        let back = parse(&v.to_string_compact()).unwrap();
        assert_eq!(v, back);
        let back = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "s": "hi", "b": false, "a": [1,2]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn jobj_macro_builds_objects() {
        let v = jobj! { "x" => 1u64, "y" => "s", "z" => vec![1u64, 2] };
        assert_eq!(v.get("x").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("y").unwrap().as_str(), Some("s"));
        assert_eq!(v.get("z").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn struct_macro_roundtrips() {
        #[derive(Debug, PartialEq)]
        struct P {
            x: u64,
            y: f64,
        }
        impl_json_struct!(P { x, y });
        let p = P { x: 7, y: -1.25 };
        let v = p.to_json();
        assert_eq!(P::from_json(&v).unwrap(), p);
        assert!(P::from_json(&parse(r#"{"x": 7}"#).unwrap()).is_err());
    }

    #[test]
    fn unit_enum_macro_roundtrips() {
        #[derive(Debug, PartialEq)]
        enum E {
            A,
            B,
        }
        impl_json_unit_enum!(E { A => "a", B => "b" });
        assert_eq!(E::from_json(&E::A.to_json()).unwrap(), E::A);
        assert_eq!(E::from_json(&Value::Str("b".into())).unwrap(), E::B);
        assert!(E::from_json(&Value::Str("c".into())).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn numbers_roundtrip_precisely_enough() {
        for n in [0.0, 1.0, -1.0, 0.5, 1e9, 123456789.0, -3.25] {
            let v = parse(&Value::Num(n).to_string_compact()).unwrap();
            assert_eq!(v.as_f64(), Some(n));
        }
    }
}
