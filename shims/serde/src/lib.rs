//! Minimal offline stand-in for the `serde` crate.
//!
//! Real serde serializes through a visitor (`Serializer`/`Deserializer`)
//! so formats can stream. This workspace only ever serializes small
//! result records to JSON files, so the shim goes through an owned value
//! tree instead: `Serialize` lowers to [`Value`], `Deserialize` lifts
//! from it, and `serde_json` (the sibling shim) renders/parses the tree.
//! There are no derives: a record implements `to_value` by hand, one
//! `Value::Obj` entry per field in declaration order.

/// An owned JSON-like value tree. Object entries preserve insertion order
/// so derived output matches field declaration order (as serde_json does).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric coercion across the three number variants.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) => u64::try_from(i).ok(),
            Value::UInt(u) => Some(u),
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 => Some(f as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::UInt(u) => i64::try_from(u).ok(),
            Value::Float(f) if f.fract() == 0.0 => Some(f as i64),
            _ => None,
        }
    }
}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

// `Value` round-trips through itself, so callers can parse arbitrary JSON
// (e.g. `serde_json::from_str::<Value>(...)`) and inspect it dynamically.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, String> {
        Ok(value.clone())
    }
}

pub trait Deserialize: Sized {
    fn from_value(value: &Value) -> Result<Self, String>;
}

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, String> {
                value
                    .as_f64()
                    .map(|f| f as $t)
                    .ok_or_else(|| format!("expected number, got {value:?}"))
            }
        }
    )*};
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, String> {
                value
                    .as_u64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| format!("expected unsigned integer, got {value:?}"))
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, String> {
                value
                    .as_i64()
                    .and_then(|i| <$t>::try_from(i).ok())
                    .ok_or_else(|| format!("expected integer, got {value:?}"))
            }
        }
    )*};
}

impl_float!(f32, f64);
impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {other:?}")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Arr(vec![self.0.to_value(), self.1.to_value()])
    }
}
