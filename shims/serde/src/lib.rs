//! Offline stand-in for `serde`.
//!
//! The build container cannot reach crates.io, so this crate provides
//! the serialization facility the workspace needs: a JSON-shaped value
//! tree ([`Value`]), [`Serialize`]/[`Deserialize`] traits over it, and
//! `#[derive(Serialize, Deserialize)]` macros (re-exported from the
//! local `serde_derive`). The API is intentionally *not* the real
//! serde's visitor architecture — call sites here only ever derive the
//! traits and round-trip through the local `serde_json`, which consumes
//! this value model directly.
//!
//! Supported `#[serde(...)]` field attributes: `skip`,
//! `default = "path"`, `default`.

#![forbid(unsafe_code)]
// The root `clippy.toml` determinism list reaches this crate too, but
// shims do not inherit the workspace lint table that scopes it to the
// product crates. `Serialize for HashMap` walks the map in hash order
// by design, as upstream serde does; no product type serializes one.
#![allow(
    clippy::disallowed_methods,
    reason = "a stand-in for an external crate, outside the product crates the list governs"
)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

/// A JSON-shaped data tree.
///
/// Integers keep full `u64`/`i64` precision (packet digests do not fit
/// in an `f64` mantissa), maps preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object, insertion-ordered.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// View as an object, if this is one.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// View as an array, if this is one.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }
}

/// Look up a key in an object's entry list.
pub fn value_get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X while deserializing Y, found Z"-style error.
    pub fn expected(what: &str, ty: &str, found: &Value) -> Self {
        DeError(format!(
            "expected {what} while deserializing {ty}, found {}",
            found.kind()
        ))
    }

    /// Missing object field.
    pub fn missing_field(field: &str, ty: &str) -> Self {
        DeError(format!("missing field `{field}` while deserializing {ty}"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialize into a [`Value`] tree.
pub trait Serialize {
    /// Convert `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Deserialize from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// --- primitives ---

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    other => return Err(DeError::expected("unsigned integer", stringify!($t), other)),
                };
                <$t>::try_from(raw).map_err(|_| DeError(format!(
                    "value {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let raw: i64 = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n).map_err(|_| {
                        DeError(format!("value {n} out of range for {}", stringify!($t)))
                    })?,
                    other => return Err(DeError::expected("integer", stringify!($t), other)),
                };
                <$t>::try_from(raw).map_err(|_| DeError(format!(
                    "value {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_sint!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(DeError::expected("number", "f64", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", "bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", "String", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("single-char string", "char", other)),
        }
    }
}

// --- std composites ---

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", "Vec", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = v
            .as_seq()
            .ok_or_else(|| DeError::expected("array", "fixed array", v))?;
        if items.len() != N {
            return Err(DeError(format!(
                "expected array of length {N}, found {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        Ok(parsed
            .try_into()
            .expect("length checked just above; conversion cannot fail"))
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_seq() {
            Some([a, b]) => Ok((A::from_value(a)?, B::from_value(b)?)),
            _ => Err(DeError::expected("2-element array", "tuple", v)),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_seq() {
            Some([a, b, c]) => Ok((A::from_value(a)?, B::from_value(b)?, C::from_value(c)?)),
            _ => Err(DeError::expected("3-element array", "tuple", v)),
        }
    }
}

// Maps are encoded as arrays of `[key, value]` pairs so non-string
// keys (digests, HOP ids) round-trip losslessly.

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        pairs(v, "BTreeMap")
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        pairs(v, "HashMap")
    }
}

fn pairs<K: Deserialize, V: Deserialize, M: FromIterator<(K, V)>>(
    v: &Value,
    ty: &str,
) -> Result<M, DeError> {
    let items = v
        .as_seq()
        .ok_or_else(|| DeError::expected("array of pairs", ty, v))?;
    items
        .iter()
        .map(|item| match item.as_seq() {
            Some([k, val]) => Ok((K::from_value(k)?, V::from_value(val)?)),
            _ => Err(DeError::expected("[key, value] pair", ty, item)),
        })
        .collect()
}

impl<T: Serialize + Clone> Serialize for std::borrow::Cow<'_, T> {
    fn to_value(&self) -> Value {
        self.as_ref().to_value()
    }
}

impl Serialize for std::net::Ipv4Addr {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for std::net::Ipv4Addr {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => s
                .parse()
                .map_err(|_| DeError(format!("bad IPv4 address `{s}`"))),
            other => Err(DeError::expected("dotted-quad string", "Ipv4Addr", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_null_roundtrip() {
        let v: Option<u32> = None;
        assert_eq!(v.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<u32>::from_value(&Value::U64(7)).unwrap(),
            Some(7u32)
        );
    }

    #[test]
    fn u64_precision_preserved() {
        let big = u64::MAX - 3;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn map_roundtrips_nonstring_keys() {
        let mut m = BTreeMap::new();
        m.insert(42u64, vec![1u8, 2]);
        let v = m.to_value();
        let back: BTreeMap<u64, Vec<u8>> = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(u64::from_value(&Value::I64(-1)).is_err());
    }
}
