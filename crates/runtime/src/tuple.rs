//! Tuples, relation names and signed tuple deltas.

use ndlog_lang::Value;
use ndlog_net::NodeAddr;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// An immutable tuple of values: reference count and fields in one
/// allocation. Cloning is cheap (reference counted).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from values. The fields are copied out of the vector;
    /// a construction site that knows its fields' count collects an
    /// iterator instead ([`FromIterator`]) and allocates once.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple(values.into())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The field at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// All fields.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The tuple's location: its first field interpreted as an address
    /// (NDlog location specifiers are always the first attribute).
    pub fn location(&self) -> Option<NodeAddr> {
        self.0.first().and_then(Value::as_addr)
    }

    /// Project the fields at `cols` into a new vector (used for primary
    /// keys and group-by keys). Panics if a column is out of range.
    pub fn project(&self, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| self.0[c].clone()).collect()
    }

    /// Approximate wire size in bytes, for communication accounting.
    pub fn wire_size(&self) -> usize {
        2 + self.0.iter().map(Value::wire_size).sum::<usize>()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Collecting an iterator that knows its exact length (a mapped slice, a
/// drained vector, a chain of those) makes the tuple's one allocation and
/// nothing else.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Tuple(values.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A relation's name, shared: strands and aggregate views hold the name of
/// the relation they derive once, and every delta they produce — on the
/// queue, on the wire, in the result log — clones it by reference count.
/// Reads, compares, orders and hashes as the `str` it holds.
///
/// One pointer, to a shared `Box<str>`, so a [`TupleDelta`] is 32 bytes.
/// A name is built when a plan is made or a base fact is injected, never
/// per derivation, so its second allocation is off every hot path, while
/// every delta in flight is 8 bytes smaller.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelName(Arc<Box<str>>);

impl std::ops::Deref for RelName {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for RelName {
    fn from(name: &str) -> Self {
        RelName(Arc::new(name.into()))
    }
}

impl From<String> for RelName {
    fn from(name: String) -> Self {
        RelName(Arc::new(name.into_boxed_str()))
    }
}

impl From<&String> for RelName {
    fn from(name: &String) -> Self {
        RelName::from(name.as_str())
    }
}

impl PartialEq<str> for RelName {
    fn eq(&self, other: &str) -> bool {
        **self == *other
    }
}

impl PartialEq<&str> for RelName {
    fn eq(&self, other: &&str) -> bool {
        **self == **other
    }
}

impl PartialEq<String> for RelName {
    fn eq(&self, other: &String) -> bool {
        **self == **other
    }
}

impl PartialEq<RelName> for &str {
    fn eq(&self, other: &RelName) -> bool {
        **self == **other
    }
}

impl PartialEq<RelName> for String {
    fn eq(&self, other: &RelName) -> bool {
        **self == **other
    }
}

impl fmt::Debug for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The sign of a delta: insertion or deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sign {
    /// The tuple is being inserted / derived.
    Insert,
    /// The tuple is being deleted / underived.
    Delete,
}

/// A signed change to a relation: the unit that flows through rule strands,
/// PSN queues and network messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TupleDelta {
    /// Relation name.
    pub relation: RelName,
    /// The tuple being inserted or deleted.
    pub tuple: Tuple,
    /// Insert or delete.
    pub sign: Sign,
}

impl TupleDelta {
    /// An insertion delta.
    pub fn insert(relation: impl Into<RelName>, tuple: Tuple) -> TupleDelta {
        TupleDelta {
            relation: relation.into(),
            tuple,
            sign: Sign::Insert,
        }
    }

    /// A deletion delta.
    pub fn delete(relation: impl Into<RelName>, tuple: Tuple) -> TupleDelta {
        TupleDelta {
            relation: relation.into(),
            tuple,
            sign: Sign::Delete,
        }
    }

    /// Wire size of the delta when sent as a network message: the tuple
    /// plus relation-name and sign overhead.
    pub fn wire_size(&self) -> usize {
        self.tuple.wire_size() + self.relation.len() + 1
    }
}

impl fmt::Display for TupleDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = match self.sign {
            Sign::Insert => '+',
            Sign::Delete => '-',
        };
        write!(f, "{sign}{}{}", self.relation, self.tuple)
    }
}

/// Convenience constructor for tuples in tests and examples:
/// `tuple![addr(0), 5, "x"]` style is covered by `Tuple::new` with
/// `Value::from` conversions; this helper builds a tuple from values.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$(::ndlog_lang::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::Value;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn accessors_and_projection() {
        let tup = t(vec![Value::addr(3u32), Value::Int(7), Value::str("x")]);
        assert_eq!(tup.arity(), 3);
        assert_eq!(tup.get(1), Some(&Value::Int(7)));
        assert_eq!(tup.get(9), None);
        assert_eq!(tup.location(), Some(ndlog_net::NodeAddr(3)));
        assert_eq!(
            tup.project(&[2, 0]),
            vec![Value::str("x"), Value::addr(3u32)]
        );
    }

    #[test]
    fn location_requires_address_first_field() {
        let tup = t(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(tup.location(), None);
    }

    #[test]
    fn display() {
        let tup = t(vec![Value::addr(0u32), Value::Int(5)]);
        assert_eq!(tup.to_string(), "(@n0, 5)");
        let d = TupleDelta::insert("link", tup.clone());
        assert_eq!(d.to_string(), "+link(@n0, 5)");
        let d = TupleDelta::delete("link", tup);
        assert_eq!(d.to_string(), "-link(@n0, 5)");
    }

    #[test]
    fn wire_size_accounts_for_fields_and_name() {
        let tup = t(vec![Value::addr(0u32), Value::Int(5)]);
        assert_eq!(tup.wire_size(), 2 + 4 + 8);
        let d = TupleDelta::insert("link", tup);
        assert_eq!(d.wire_size(), 14 + 4 + 1);
    }

    #[test]
    fn a_name_is_one_word_and_a_delta_four() {
        assert_eq!(std::mem::size_of::<RelName>(), 8);
        assert_eq!(std::mem::size_of::<TupleDelta>(), 32);
    }

    /// A slab slot of a relation is its stored tuple and nothing else: the
    /// tuple pointer, count, timestamp and expiry, `None` in the pointer's
    /// niche.
    #[test]
    fn a_slab_slot_is_six_words() {
        type Slot = Option<crate::relation::StoredTuple>;
        assert_eq!(std::mem::size_of::<Slot>(), 48);
    }

    #[test]
    fn tuple_macro() {
        let tup = tuple![ndlog_net::NodeAddr(1), 5i64, "hi"];
        assert_eq!(tup.arity(), 3);
        assert_eq!(tup.get(0), Some(&Value::addr(1u32)));
    }
}
