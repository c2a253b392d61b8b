//! Offline substitute for `serde`.
//!
//! The build environment cannot reach crates.io, so the workspace vendors the
//! small part of serde's surface it actually uses: a `Serialize` trait that
//! renders values into a JSON [`Value`] tree (consumed by the vendored
//! `serde_json`), and its derive macro re-exported from the vendored
//! `serde_derive`. Nothing in the workspace parses JSON, so there is no
//! deserializing half.

pub use serde_derive::Serialize;

/// A JSON value tree — the single data model of the vendored serde stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array value.
    pub fn get_index(&self, index: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(index),
            _ => None,
        }
    }

    /// The numeric content of this value, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }
}

/// Types that can be rendered into a [`Value`] tree.
pub trait Serialize {
    /// Renders `self` as a JSON value.
    fn to_json_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
impl_serialize_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                let v = *self as u64;
                if v <= i64::MAX as u64 {
                    Value::Int(v as i64)
                } else {
                    Value::UInt(v)
                }
            }
        }
    )*};
}
impl_serialize_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_json_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_json_value()),+])
            }
        }
    )*};
}
impl_serialize_tuple! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
}
