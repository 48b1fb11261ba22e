//! A small, dependency-free JSON library backing Remp's session
//! checkpoints.
//!
//! The build environment has no crates.io access, so `serde`/`serde_json`
//! cannot be used; this crate provides the minimal machinery checkpointing
//! needs: a [`Json`] value tree, a strict recursive-descent [`Json::parse`]
//! and a canonical writer `Json::to_string` (via the `Display` impl).
//! Numbers round-trip exactly: integers are kept as `u64`/`i64` and floats
//! are written with Rust's shortest-round-trip formatting.
//!
//! Decoding goes through one typed field reader. [`FromJson`] decodes
//! `bool`, `u32`, `u64`, `usize`, `f64`, `String`, `&str`, `&Json`,
//! `Option<T>`, `Vec<T>` and 2- to 4-tuples (fixed-length arrays);
//! [`Json::field`] reads a required member (absent or `null` is
//! [`FieldError::Missing`]) and [`Json::opt_field`] an optional one
//! (absent or `null` is `None`). A present value of the wrong type, or an
//! integer that does not fit the target (`2^32` as `u32`, `-1` as `u64`),
//! is [`FieldError::Invalid`] — never truncated, never defaulted. Each
//! crate converts `FieldError` into its own error type in one place.
//!
//! ```
//! use remp_json::{FieldError, Json};
//!
//! let doc = Json::parse(r#"{"shard_id": 4294967296, "seeds": [1, 2]}"#).unwrap();
//! assert_eq!(doc.field::<Vec<u32>>("seeds"), Ok(vec![1, 2]));
//! assert_eq!(doc.opt_field::<u64>("budget"), Ok(None));
//! assert!(matches!(doc.field::<u32>("shard_id"), Err(FieldError::Invalid { .. })));
//! ```

mod field;
mod parse;
mod write;

pub use field::{FieldError, FromJson};
pub use parse::JsonError;

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document.
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        parse::parse(src)
    }

    /// Renders the value with 2-space indentation, one member per line —
    /// the operator-friendly form used for checkpoint files on disk and
    /// `?pretty=1` HTTP responses. Parses back to the same value as the
    /// canonical single-line `to_string` form.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write::write_pretty(self, &mut out, 0).expect("writing to a String cannot fail");
        out
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write::write_value(self, f)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        if n >= 0 {
            Json::UInt(n as u64)
        } else {
            Json::Int(n)
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structured_values() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::UInt(1)),
            ("pi".into(), Json::Num(std::f64::consts::PI)),
            ("neg".into(), Json::Int(-42)),
            ("big".into(), Json::UInt(u64::MAX)),
            ("name".into(), Json::Str("quote \" slash \\ nl \n".into())),
            ("flags".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1e-300, 123456.789, f64::MIN_POSITIVE, 0.30000000000000004] {
            let text = Json::Num(x).to_string();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(x), "{text}");
        }
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": [1, 2.5, "s", false], "b": {"c": 7}}"#).unwrap();
        let items = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("s"));
        assert_eq!(items[3].as_bool(), Some(false));
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_u64(), Some(7));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "01", "\"\\x\"", "1 2", "{\"a\":}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_broken_surrogate_pairs() {
        // Lone high surrogate, high followed by a non-low escape, and a
        // lone low surrogate must all fail rather than mangle output.
        for bad in [r#""\ud800""#, r#""\ud800\u0041""#, r#""\udc00""#, r#""\ud800x""#] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
        // A valid pair still decodes.
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn pretty_form_round_trips_and_indents() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::UInt(1)),
            ("items".into(), Json::Arr(vec![Json::UInt(1), Json::Str("two".into())])),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("nested".into(), Json::Obj(vec![("pi".into(), Json::Num(3.5))])),
        ]);
        let pretty = doc.to_pretty_string();
        // Same value back, different surface form.
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
        assert_ne!(pretty, doc.to_string());
        // Operators get one member per line and visible indentation.
        assert!(pretty.contains("\n  \"version\": 1,\n"), "{pretty}");
        assert!(pretty.contains("\"empty_arr\": []"), "empty containers stay inline: {pretty}");
        assert!(pretty.contains("\n    \"pi\": 3.5\n"), "{pretty}");
        assert!(pretty.ends_with('}'), "{pretty}");
    }

    #[test]
    fn pretty_scalars_match_canonical() {
        for doc in [Json::Null, Json::Bool(true), Json::UInt(7), Json::Str("s".into())] {
            assert_eq!(doc.to_pretty_string(), doc.to_string());
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let doc = Json::parse(r#""line\n tab\t quote\" u\u00e9""#).unwrap();
        assert_eq!(doc.as_str(), Some("line\n tab\t quote\" ué"));
    }
}
