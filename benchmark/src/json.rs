//! Small helpers over the in-tree `serde::Value` tree.

use serde::Value;

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `value[key]` as a number.
pub fn f64_at(value: &Value, key: &str) -> Option<f64> {
    value.get(key).and_then(Value::as_f64)
}

/// `value[key]` as a string slice.
pub fn str_at<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    match value.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Entries of `value[key]` when it is an object.
pub fn entries_at<'a>(value: &'a Value, key: &str) -> &'a [(String, Value)] {
    match value.get(key) {
        Some(Value::Obj(entries)) => entries,
        _ => &[],
    }
}

/// Items of `value[key]` when it is an array.
pub fn items_at<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}
