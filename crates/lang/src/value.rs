//! Runtime values carried by NDlog tuples.
//!
//! NDlog fields hold network addresses (the value of location specifiers),
//! numbers, strings, booleans and lists (used for path vectors such as
//! `[a, b, d]` in the shortest-path query). Values need a total order and a
//! hash so they can serve as primary-key components and join keys; floating
//! point values are ordered with `f64::total_cmp`.

use ndlog_net::NodeAddr;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single NDlog field value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// A network address (the type of location specifiers).
    Addr(NodeAddr),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float (costs, metrics).
    Float(f64),
    /// An interned string.
    Str(Arc<str>),
    /// A boolean.
    Bool(bool),
    /// A list of values, e.g. a path vector: header and elements in one
    /// allocation.
    List(Arc<[Value]>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(items.into())
    }

    /// The empty list (`nil` in the paper's syntax).
    pub fn nil() -> Value {
        Value::List(Arc::from([]))
    }

    /// Build an address value.
    pub fn addr(a: impl Into<NodeAddr>) -> Value {
        Value::Addr(a.into())
    }

    /// The address inside, if this is an address.
    pub fn as_addr(&self) -> Option<NodeAddr> {
        match self {
            Value::Addr(a) => Some(*a),
            _ => None,
        }
    }

    /// Numeric view (ints coerce to float), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The integer inside, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The list inside, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Whether this value is an address (address type safety checks).
    pub fn is_addr(&self) -> bool {
        matches!(self, Value::Addr(_))
    }

    /// A small integer describing the variant, used only to order values of
    /// different types consistently.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Addr(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 1, // ints and floats compare numerically
            Value::Str(_) => 2,
            Value::Bool(_) => 3,
            Value::List(_) => 4,
        }
    }

    /// Approximate serialized size in bytes, used for message-size
    /// accounting in the simulator (the paper reports communication
    /// overhead in bytes).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Addr(_) => 4,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 2 + s.len(),
            Value::List(l) => 2 + l.iter().map(Value::wire_size).sum::<usize>(),
        }
    }
}

/// Exactly the relation `self.cmp(other) == Ordering::Equal`, decided
/// without walking what cannot differ: a list shared by reference count is
/// equal to itself, lists of unequal length are not equal. Numbers compare
/// as [`Ord::cmp`] compares them — two integers as integers, anything
/// involving a float by `f64::total_cmp` — so `Int(3) == Float(3.0)`,
/// `-0.0 != 0.0` and a NaN equals only its own bit pattern.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Addr(a), Addr(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.total_cmp(b).is_eq(),
            (Int(a), Float(b)) | (Float(b), Int(a)) => (*a as f64).total_cmp(b).is_eq(),
            (Str(a), Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Bool(a), Bool(b)) => a == b,
            (List(a), List(b)) => Arc::ptr_eq(a, b) || a[..] == b[..],
            _ => false,
        }
    }
}
impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Addr(a), Addr(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Addr(a) => {
                0u8.hash(state);
                a.hash(state);
            }
            // Ints and floats that are numerically equal must hash equally;
            // hash through the f64 bit pattern of the numeric value.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
            Value::List(l) => {
                4u8.hash(state);
                for v in l.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Addr(a) => write!(f, "{a}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    // What `{:.1}` prints, without its exact-mode decimal
                    // expansion: an integral float this small is exactly
                    // an integer, so the digits are the integer's.
                    let sign = if x.is_sign_negative() { "-" } else { "" };
                    write!(f, "{sign}{}.0", x.abs() as u64)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<NodeAddr> for Value {
    fn from(a: NodeAddr) -> Self {
        Value::Addr(a)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::addr(1u32) < Value::addr(2u32));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::list(vec![Value::Int(1)]) < Value::list(vec![Value::Int(2)]));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn cross_type_ordering_is_total_and_consistent() {
        let vals = vec![
            Value::addr(0u32),
            Value::Int(5),
            Value::Float(1.5),
            Value::str("x"),
            Value::Bool(true),
            Value::nil(),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::addr(7u32).as_addr(), Some(NodeAddr(7)));
        assert_eq!(Value::Int(7).as_addr(), None);
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_int(), Some(1));
        assert!(Value::addr(0u32).is_addr());
        let l = Value::list(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(l.as_list().unwrap().len(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::addr(3u32).to_string(), "@n3");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(6.0).to_string(), "6.0");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(
            Value::list(vec![Value::addr(0u32), Value::addr(1u32)]).to_string(),
            "[@n0, @n1]"
        );
        assert_eq!(Value::nil().to_string(), "[]");
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::addr(1u32).wire_size(), 4);
        assert_eq!(Value::Int(1).wire_size(), 8);
        assert_eq!(Value::str("abc").wire_size(), 5);
        assert_eq!(
            Value::list(vec![Value::addr(1u32), Value::addr(2u32)]).wire_size(),
            10
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.0f64), Value::Float(2.0));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(NodeAddr(9)), Value::addr(9u32));
    }
}
