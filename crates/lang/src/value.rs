//! Runtime values carried by NDlog tuples.
//!
//! NDlog fields hold network addresses (the value of location specifiers),
//! numbers, strings, booleans and lists (used for path vectors such as
//! `[a, b, d]` in the shortest-path query). Values need a total order and a
//! hash so they can serve as primary-key components and join keys; floating
//! point values are ordered with `f64::total_cmp`, and an integer and a float
//! compare by their exact numeric values.
//!
//! A list is a [`List`]: a persistent chain of reference-counted nodes, each
//! adding one element at the front or at the back of the list it shares, and
//! caching the length, the wire size and a content hash of what it heads. So
//! `f_cons` / `f_append` allocate one node whatever the path's length, and a
//! path and every one-hop extension of it share all but one node. Sharing is
//! safe because nothing mutates a node once it is built: a `Value` is
//! immutable, and a node's cached fields describe its own chain only.
//!
//! A field is 16 bytes: a tag and one 8-byte word. Every payload fits a
//! word — an address, an `i64`, an `f64`, a `bool`, a list's one node
//! pointer — and a string is one pointer too, to a shared `Box<str>`,
//! rather than the two-word `Arc<str>` that would make every field 24
//! bytes. That is 8 bytes less per field of every tuple, list node,
//! dictionary entry and message payload, paid for by a second allocation
//! per string built; strings come from parsed literals only, never from a
//! derivation.

mod list;

pub use list::{Iter, List};

use ndlog_net::NodeAddr;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
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
    /// A string: one pointer to a shared, immutable string. Cloning copies
    /// the pointer.
    Str(Arc<Box<str>>),
    /// A boolean.
    Bool(bool),
    /// A list of values, e.g. a path vector: one pointer to a shared chain.
    List(List),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::new(s.as_ref().into()))
    }

    /// Build a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(items.into())
    }

    /// The empty list (`nil` in the paper's syntax); allocates nothing.
    pub fn nil() -> Value {
        Value::List(List::nil())
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
    pub fn as_list(&self) -> Option<&List> {
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
    /// overhead in bytes). A list's is cached: O(1).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Addr(_) => 4,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 2 + s.len(),
            Value::List(l) => l.wire_size(),
        }
    }
}

/// `Int(i)` against `Float(x)` by exact numeric value, placed where
/// `f64::total_cmp` places `x` among floats: `-0.0` just below zero, positive
/// NaNs above everything, negative ones below. Converting `i` to `f64`
/// instead would round above 2⁵³ and make `Int(2⁵³ + 1)` equal to the float
/// `2⁵³` that `Int(2⁵³)` also equals.
fn cmp_int_float(i: i64, x: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if x.is_nan() {
        return if x.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if x == 0.0 && x.is_sign_negative() {
        return if i >= 0 {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if x >= TWO_63 {
        return Ordering::Less;
    }
    if x < -TWO_63 {
        return Ordering::Greater;
    }
    // `x` is in i64's range, so its integral part converts exactly.
    let fraction = x.fract();
    i.cmp(&(x.trunc() as i64)).then(if fraction > 0.0 {
        Ordering::Less
    } else if fraction < 0.0 {
        Ordering::Greater
    } else {
        Ordering::Equal
    })
}

/// Exactly the relation `self.cmp(other) == Ordering::Equal`, decided
/// without walking what cannot differ: a list shared by reference count is
/// equal to itself, lists of unequal length or content hash are not equal.
/// Numbers compare as [`Ord::cmp`] compares them — two integers as
/// integers, two floats by `f64::total_cmp`, an integer and a float by exact
/// value — so `Int(3) == Float(3.0)`, `Int(2⁵³ + 1) != Float(2⁵³)`,
/// `-0.0 != 0.0` and a NaN equals only its own bit pattern.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Addr(a), Addr(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.total_cmp(b).is_eq(),
            (Int(a), Float(b)) | (Float(b), Int(a)) => cmp_int_float(*a, *b).is_eq(),
            (Str(a), Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Bool(a), Bool(b)) => a == b,
            (List(a), List(b)) => a == b,
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
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
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
            // Ints and floats that are equal must hash equally. An integer
            // equal to a float converts to exactly that float, so one that
            // converts exactly hashes through the f64 bit pattern; any other
            // equals no float and hashes as itself. (Through the rounded
            // float, up to 2 048 integers above 2⁵³ would share one hash.)
            Value::Int(i) => {
                1u8.hash(state);
                let x = *i as f64;
                if x as i128 == i128::from(*i) {
                    x.to_bits().hash(state);
                } else {
                    i.hash(state);
                }
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
            // The cached content hash: O(1), whatever the length.
            Value::List(l) => {
                4u8.hash(state);
                l.hash(state);
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
            Value::List(l) => write!(f, "{l}"),
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

/// Fx-style hasher: one rotate-xor-multiply per word, no seed. The
/// multiply is folded (high half xored into the low half), because a plain
/// one only carries upwards: a float's bit pattern ends in zeros, and so
/// would its hash, while a table takes its bucket from the low bits.
///
/// It digests list elements into [`List`]'s content hash, and the runtime's
/// relation dictionaries and fingerprint tables hash with it, so two runs of
/// one input build identical tables and take the same time. No seed also
/// means no defence against values crafted to collide: simulated engines
/// hash values they derived themselves; `ndlog serve` stores what its
/// clients send, and bounding what one client can cost is the serve item of
/// the ROADMAP.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// Build-hasher of [`FxHasher`]s.
pub type FxBuild = BuildHasherDefault<FxHasher>;

impl FxHasher {
    fn add(&mut self, word: u64) {
        let wide = u128::from(self.0.rotate_left(5) ^ word) * 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::BuildHasher;

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
        assert!(Value::Int(-3) < Value::Float(-2.5));
        assert!(Value::Float(-3.5) < Value::Int(-3));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert_ne!(Value::Int(0), Value::Float(-0.0));
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert!(Value::Int(-1) < Value::Float(-0.0));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::INFINITY));
        assert!(Value::Float(f64::NAN) > Value::Int(i64::MAX));
        assert!(Value::Float(-f64::NAN) < Value::Int(i64::MIN));
        assert_ne!(Value::Float(f64::NAN), Value::Int(0));
    }

    /// Around 2⁵³ (where `i64 as f64` starts rounding) and at ±2⁶³ (where
    /// `f64 as i64` saturates), equality is an equivalence — reflexive,
    /// symmetric, transitive — the order agrees with it and is transitive,
    /// and equal values hash equally under both hashers.
    #[test]
    fn int_float_equality_is_exact_at_the_edges() {
        let two_53 = 1i64 << 53;
        let two_63 = 9_223_372_036_854_775_808.0_f64;
        assert_ne!(Value::Int(two_53 + 1), Value::Float(two_53 as f64));
        assert_eq!(Value::Int(two_53), Value::Float(two_53 as f64));
        assert!(Value::Int(two_53 + 1) > Value::Float(two_53 as f64));
        assert!(Value::Int(two_53 - 1) < Value::Float(two_53 as f64));
        assert_ne!(Value::Int(i64::MAX), Value::Float(two_63));
        assert!(Value::Int(i64::MAX) < Value::Float(two_63));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-two_63));
        assert!(Value::Int(i64::MIN + 1) > Value::Float(-two_63));
        assert!(Value::Int(i64::MIN) > Value::Float(-two_63 * 2.0));

        let mut values = Vec::new();
        for base in [two_53, -two_53, i64::MAX, i64::MIN] {
            for delta in [-2i64, -1, 0, 1, 2] {
                if let Some(i) = base.checked_add(delta) {
                    values.push(Value::Int(i));
                    values.push(Value::Float(i as f64));
                }
            }
        }
        values.extend([
            Value::Float(two_63),
            Value::Float(-two_63),
            Value::Float(two_53 as f64 + 2.0),
            Value::Float(f64::from_bits((two_53 as f64).to_bits() - 1)),
            Value::Float(0.5),
            Value::Float(-0.0),
            Value::Int(0),
        ]);
        let fx = |v: &Value| FxBuild::default().hash_one(v);
        for a in &values {
            assert_eq!(a, a);
            for b in &values {
                let ab = a.cmp(b);
                assert_eq!(ab, b.cmp(a).reverse(), "{a:?} vs {b:?}");
                assert_eq!(a == b, ab.is_eq(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
                    assert_eq!(fx(a), fx(b), "{a:?} vs {b:?}");
                }
                for c in &values {
                    if a == b && b == c {
                        assert_eq!(a, c, "{a:?} = {b:?} = {c:?}");
                    }
                    if ab.is_le() && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
    }

    /// Integers that no float equals hash as themselves: above 2⁵³ the
    /// nearest float is shared by up to 2 048 of them. Those a float does
    /// equal still hash as that float.
    #[test]
    fn large_integers_hash_apart() {
        let from = 1i64 << 60;
        let fx = FxBuild::default();
        let fx_hashes: std::collections::HashSet<u64> = (from..from + 4096)
            .map(|i| fx.hash_one(Value::Int(i)))
            .collect();
        assert_eq!(fx_hashes.len(), 4096);
        let sip_hashes: std::collections::HashSet<u64> = (from..from + 4096)
            .map(|i| hash_of(&Value::Int(i)))
            .collect();
        assert_eq!(sip_hashes.len(), 4096);

        let two_53 = 1i64 << 53;
        for (i, x) in [
            (two_53, two_53 as f64),
            (3, 3.0),
            (i64::MIN, i64::MIN as f64),
        ] {
            assert_eq!(Value::Int(i), Value::Float(x));
            assert_eq!(hash_of(&Value::Int(i)), hash_of(&Value::Float(x)));
            assert_eq!(fx.hash_one(Value::Int(i)), fx.hash_one(Value::Float(x)));
        }
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
