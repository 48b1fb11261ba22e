//! The typed field reader every Remp decoder goes through.
//!
//! [`FromJson`] decodes one value; [`Json::field`] and
//! [`Json::opt_field`] read one object member with it. Integer
//! narrowing is always checked, and a failure is a [`FieldError`]
//! naming the field path (`pending[2].pair`, `cohorts[0].count`).

use std::fmt;

use crate::Json;

/// Why a field did not decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldError {
    /// A required field is absent or `null`.
    Missing {
        /// The field path.
        field: String,
    },
    /// The field is present but has the wrong type or is out of range.
    Invalid {
        /// The field path (empty for a value decoded on its own).
        field: String,
        /// What the decoder expected instead, e.g. `"a string"`.
        expected: &'static str,
    },
}

impl FieldError {
    /// A value that is not what `expected` describes; the field path is
    /// filled in by the [`Json::field`] / [`Json::opt_field`] call that
    /// read it.
    pub fn invalid(expected: &'static str) -> FieldError {
        FieldError::Invalid { field: String::new(), expected }
    }

    /// Re-roots the path under `parent` (a member name or `[i]`).
    fn under(mut self, parent: &str) -> FieldError {
        let (FieldError::Missing { field } | FieldError::Invalid { field, .. }) = &mut self;
        *field = match field.chars().next() {
            None => parent.to_owned(),
            Some('[') => format!("{parent}{field}"),
            Some(_) => format!("{parent}.{field}"),
        };
        self
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::Missing { field } => write!(f, "missing field '{field}'"),
            FieldError::Invalid { field, expected } if field.is_empty() => {
                write!(f, "value is not {expected}")
            }
            FieldError::Invalid { field, expected } => {
                write!(f, "field '{field}' is not {expected}")
            }
        }
    }
}

impl std::error::Error for FieldError {}

/// For crates whose decode errors are plain strings.
impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// A type decodable from one JSON value. Borrowing impls (`&str`,
/// `&Json`) tie the result to the document's lifetime `'a`.
pub trait FromJson<'a>: Sized {
    /// Decodes `value`.
    fn decode(value: &'a Json) -> Result<Self, FieldError>;
}

impl Json {
    /// Reads required member `key`: absent or `null` is
    /// [`FieldError::Missing`] unless `T` is an `Option`, which decodes a
    /// present `null` to `None`.
    pub fn field<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, FieldError> {
        let missing = || FieldError::Missing { field: key.to_owned() };
        match self.get(key) {
            None => Err(missing()),
            Some(Json::Null) => T::decode(&Json::Null).map_err(|_| missing()),
            Some(value) => T::decode(value).map_err(|e| e.under(key)),
        }
    }

    /// Reads optional member `key`: absent or `null` is `None`.
    pub fn opt_field<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, FieldError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => T::decode(value).map(Some).map_err(|e| e.under(key)),
        }
    }
}

fn decoded<T>(value: Option<T>, expected: &'static str) -> Result<T, FieldError> {
    value.ok_or_else(|| FieldError::invalid(expected))
}

impl FromJson<'_> for bool {
    fn decode(value: &Json) -> Result<bool, FieldError> {
        decoded(value.as_bool(), "a bool")
    }
}

impl FromJson<'_> for u64 {
    fn decode(value: &Json) -> Result<u64, FieldError> {
        decoded(value.as_u64(), "an integer in u64 range")
    }
}

impl FromJson<'_> for u32 {
    fn decode(value: &Json) -> Result<u32, FieldError> {
        decoded(value.as_u64().and_then(|n| u32::try_from(n).ok()), "an integer in u32 range")
    }
}

impl FromJson<'_> for usize {
    fn decode(value: &Json) -> Result<usize, FieldError> {
        decoded(value.as_u64().and_then(|n| usize::try_from(n).ok()), "an integer in usize range")
    }
}

impl FromJson<'_> for f64 {
    fn decode(value: &Json) -> Result<f64, FieldError> {
        decoded(value.as_f64(), "a number")
    }
}

impl<'a> FromJson<'a> for &'a str {
    fn decode(value: &'a Json) -> Result<&'a str, FieldError> {
        decoded(value.as_str(), "a string")
    }
}

impl FromJson<'_> for String {
    fn decode(value: &Json) -> Result<String, FieldError> {
        <&str>::decode(value).map(str::to_owned)
    }
}

/// Any non-null value, undecoded — for nested documents whose own
/// decoder reads them.
impl<'a> FromJson<'a> for &'a Json {
    fn decode(value: &'a Json) -> Result<&'a Json, FieldError> {
        match value {
            Json::Null => Err(FieldError::invalid("a non-null value")),
            value => Ok(value),
        }
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn decode(value: &'a Json) -> Result<Option<T>, FieldError> {
        match value {
            Json::Null => Ok(None),
            value => T::decode(value).map(Some),
        }
    }
}

fn item<'a, T: FromJson<'a>>(items: &'a [Json], i: usize) -> Result<T, FieldError> {
    T::decode(&items[i]).map_err(|e| e.under(&format!("[{i}]")))
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn decode(value: &'a Json) -> Result<Vec<T>, FieldError> {
        let items = decoded(value.as_array(), "an array")?;
        (0..items.len()).map(|i| item(items, i)).collect()
    }
}

macro_rules! tuple_from_json {
    ($len:literal, $expected:literal; $($t:ident $i:tt),+) => {
        /// A fixed-length array.
        impl<'a, $($t: FromJson<'a>),+> FromJson<'a> for ($($t,)+) {
            fn decode(value: &'a Json) -> Result<Self, FieldError> {
                match value.as_array() {
                    Some(items) if items.len() == $len => Ok(($(item::<$t>(items, $i)?,)+)),
                    _ => Err(FieldError::invalid($expected)),
                }
            }
        }
    };
}

tuple_from_json!(2, "an array of 2"; A 0, B 1);
tuple_from_json!(3, "an array of 3"; A 0, B 1, C 2);
tuple_from_json!(4, "an array of 4"; A 0, B 1, C 2, D 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn missing(field: &str) -> FieldError {
        FieldError::Missing { field: field.into() }
    }

    fn invalid(field: &str, expected: &'static str) -> FieldError {
        FieldError::Invalid { field: field.into(), expected }
    }

    /// One row per impl: what a present value, `null`, a wrong type and
    /// (for integers) an out-of-range value decode to.
    #[test]
    fn every_impl_reads_and_rejects() {
        let doc = Json::parse(
            r#"{"b": true, "n": 7, "big": 4294967296, "neg": -1, "x": 2.5, "s": "hi",
                "nul": null, "arr": [1, 2], "pair": ["a", 1], "tri": [1, "b", false],
                "quad": [1, 2, 3, "m"], "opts": [1, null], "mix": [1, "two"]}"#,
        )
        .unwrap();
        // Present and well-typed.
        assert_eq!(doc.field::<bool>("b"), Ok(true));
        assert_eq!(doc.field::<u32>("n"), Ok(7));
        assert_eq!(doc.field::<u64>("big"), Ok(1 << 32));
        assert_eq!(doc.field::<usize>("n"), Ok(7));
        assert_eq!(doc.field::<f64>("x"), Ok(2.5));
        assert_eq!(doc.field::<f64>("n"), Ok(7.0), "integers are numbers");
        assert_eq!(doc.field::<String>("s"), Ok("hi".to_owned()));
        assert_eq!(doc.field::<&str>("s"), Ok("hi"));
        assert_eq!(doc.field::<&Json>("n"), Ok(&Json::UInt(7)));
        assert_eq!(doc.field::<Vec<u32>>("arr"), Ok(vec![1, 2]));
        assert_eq!(doc.field::<(String, u64)>("pair"), Ok(("a".into(), 1)));
        assert_eq!(doc.field::<(u64, &str, bool)>("tri"), Ok((1, "b", false)));
        assert_eq!(doc.field::<(u64, u32, u32, &str)>("quad"), Ok((1, 2, 3, "m")));
        assert_eq!(doc.field::<Vec<Option<u32>>>("opts"), Ok(vec![Some(1), None]));

        // Absent and null: required fields are missing, Option and
        // opt_field give None.
        for key in ["absent", "nul"] {
            assert_eq!(doc.field::<u32>(key), Err(missing(key)));
            assert_eq!(doc.field::<String>(key), Err(missing(key)));
            assert_eq!(doc.field::<&Json>(key), Err(missing(key)));
            assert_eq!(doc.field::<Vec<u32>>(key), Err(missing(key)));
            assert_eq!(doc.opt_field::<u32>(key), Ok(None));
            assert_eq!(doc.opt_field::<(u32, u32)>(key), Ok(None));
        }
        assert_eq!(doc.field::<Option<u32>>("nul"), Ok(None), "present null");
        assert_eq!(doc.field::<Option<u32>>("absent"), Err(missing("absent")), "still required");
        assert_eq!(doc.field::<Option<u32>>("n"), Ok(Some(7)));

        // Wrong type.
        assert_eq!(doc.field::<bool>("s"), Err(invalid("s", "a bool")));
        assert_eq!(doc.field::<u64>("s"), Err(invalid("s", "an integer in u64 range")));
        assert_eq!(doc.field::<u32>("x"), Err(invalid("x", "an integer in u32 range")));
        assert_eq!(doc.field::<usize>("b"), Err(invalid("b", "an integer in usize range")));
        assert_eq!(doc.field::<f64>("s"), Err(invalid("s", "a number")));
        assert_eq!(doc.field::<String>("n"), Err(invalid("n", "a string")));
        assert_eq!(doc.field::<&str>("arr"), Err(invalid("arr", "a string")));
        assert_eq!(doc.field::<Vec<u32>>("s"), Err(invalid("s", "an array")));
        assert_eq!(doc.field::<Vec<u32>>("mix"), Err(invalid("mix[1]", "an integer in u32 range")));
        assert_eq!(doc.field::<(u32, u32)>("tri"), Err(invalid("tri", "an array of 2")));
        assert_eq!(doc.field::<(u64, u64, u64)>("arr"), Err(invalid("arr", "an array of 3")));
        assert_eq!(doc.field::<(String, String)>("pair"), Err(invalid("pair[1]", "a string")));
        assert_eq!(doc.opt_field::<u32>("s"), Err(invalid("s", "an integer in u32 range")));
        assert_eq!(doc.field::<Option<bool>>("n"), Err(invalid("n", "a bool")));

        // Out-of-range narrowing is checked, never truncated.
        assert_eq!(doc.field::<u32>("big"), Err(invalid("big", "an integer in u32 range")));
        assert_eq!(doc.field::<u64>("neg"), Err(invalid("neg", "an integer in u64 range")));
        assert_eq!(doc.field::<usize>("neg"), Err(invalid("neg", "an integer in usize range")));
        assert_eq!(doc.opt_field::<u32>("big"), Err(invalid("big", "an integer in u32 range")));
    }

    #[test]
    fn errors_name_the_path() {
        let doc = Json::parse(r#"{"rows": [[1, "a"], [2, 3]]}"#).unwrap();
        let err = doc.field::<Vec<(u32, String)>>("rows").unwrap_err();
        assert_eq!(err.to_string(), "field 'rows[1][1]' is not a string");
        assert_eq!(missing("id").under("[2]").under("items"), missing("items[2].id"));
        let err = u32::decode(&Json::Null).unwrap_err();
        assert_eq!(err.to_string(), "value is not an integer in u32 range");
        assert_eq!(String::from(missing("k")), "missing field 'k'");
    }
}
