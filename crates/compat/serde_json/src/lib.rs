//! Offline substitute for `serde_json`.
//!
//! Provides [`Value`] (re-exported from the vendored `serde`), the [`json!`]
//! macro, [`to_value`], [`to_string`] and [`to_string_pretty`]. Nested object
//! or array literals inside `json!` must themselves be written as `json!(...)`
//! calls (the vendored macro does not recurse into bare `{...}` literals).

pub use serde::Value;

/// Error of the vendored serializers: an object that repeats a key, which a
/// reader would silently collapse to one entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// The key the object repeats.
    pub duplicate_key: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "an object repeats the key {:?}", self.duplicate_key)
    }
}

impl std::error::Error for Error {}

/// Renders any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_json_value()
}

/// Serializes `value` to a compact JSON string; an object at any depth that
/// repeats a key is an error naming it.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), None, 0)?;
    Ok(out)
}

/// Serializes `value` to a pretty-printed JSON string (two-space indent); an
/// object at any depth that repeats a key is an error naming it.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_json_value(), Some(2), 0)?;
    Ok(out)
}

/// The first key `entries` repeats, if any.
fn repeated_key(entries: &[(String, Value)]) -> Option<&str> {
    let mut seen = std::collections::HashSet::with_capacity(entries.len());
    entries
        .iter()
        .map(|(k, _)| k.as_str())
        .find(|k| !seen.insert(*k))
}

fn write_value(
    out: &mut String,
    value: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    // Keep integral floats readable and round-trippable.
                    out.push_str(&format!("{x:.1}"));
                } else {
                    out.push_str(&format!("{x}"));
                }
            } else {
                out.push_str("null"); // JSON has no NaN/Inf
            }
        }
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            if let Some(key) = repeated_key(entries) {
                return Err(Error {
                    duplicate_key: key.to_string(),
                });
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds a [`Value`] from an object/array literal or any serializable
/// expression. Values inside a literal are arbitrary expressions (including
/// nested `json!(...)` calls); bare nested `{...}` literals are not supported.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( ($key.to_string(), $crate::to_value(&$value)) ),*
        ])
    };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$value) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_nesting() {
        let v = json!({
            "a": 1u64,
            "b": [1.5f64, 2.0f64],
            "c": json!({"nested": true}),
            "s": "x\"y",
        });
        let compact = to_string(&v).unwrap();
        assert_eq!(
            compact,
            r#"{"a":1,"b":[1.5,2.0],"c":{"nested":true},"s":"x\"y"}"#
        );
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": 1"));
    }

    #[test]
    fn a_repeated_key_is_an_error_naming_it() {
        let flat = json!({"a": 1u64, "b": 2u64, "a": 3u64});
        let nested = json!({"outer": json!([json!({"k": 1u64, "k": 2u64})])});
        for (value, key) in [(flat, "a"), (nested, "k")] {
            let expected = Err(Error {
                duplicate_key: key.to_string(),
            });
            assert_eq!(to_string(&value), expected);
            assert_eq!(to_string_pretty(&value), expected);
        }
        // The same key in sibling objects is no repeat.
        let siblings = json!([json!({"k": 1u64}), json!({"k": 2u64})]);
        assert_eq!(to_string(&siblings).unwrap(), r#"[{"k":1},{"k":2}]"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }
}
