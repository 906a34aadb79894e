//! The persistent list behind [`Value::List`]: see [`List`].

use super::{FxBuild, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// The modulus of the content hash: the Mersenne prime 2⁶¹ − 1.
const MODULUS: u64 = (1 << 61) - 1;
/// The base of the content hash's polynomial (any residue above 1).
const BASE: u64 = 0x0a3c_5f27_91e4_b86d;
/// Set in [`Node::tagged_hash`] on a node that adds its element at the back.
const BACK: u64 = 1 << 63;

/// `x mod MODULUS` for `x < 2·MODULUS`.
fn reduce(x: u64) -> u64 {
    if x >= MODULUS {
        x - MODULUS
    } else {
        x
    }
}

/// `a·b mod MODULUS` for residues `a`, `b`: 2⁶¹ ≡ 1, so the product's high
/// bits fold onto its low ones.
fn mul_mod(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    reduce((product as u64 & MODULUS) + (product >> 61) as u64)
}

/// `BASE` to the power `n`, by square-and-multiply: what an element added
/// at the front of a list of length `n` multiplies its digest by.
fn base_power(mut n: usize) -> u64 {
    let (mut power, mut square) = (1, BASE);
    while n > 0 {
        if n & 1 == 1 {
            power = mul_mod(power, square);
        }
        square = mul_mod(square, square);
        n >>= 1;
    }
    power
}

/// An element's digest: its seedless hash as a residue.
fn digest(item: &Value) -> u64 {
    let hash = FxBuild::default().hash_one(item);
    reduce((hash & MODULUS) + (hash >> 61))
}

/// An immutable list of values sharing structure with the lists it was
/// built from. Cloning copies a pointer.
///
/// # Layout
///
/// A `List` is one optional pointer: `nil` is no pointer (and no
/// allocation), anything else is a reference-counted node that adds one
/// element to another list it shares — at the front (`f_cons`,
/// `f_concatPath`) or at the back (`f_append`). Reading a chain top-down, the
/// elements of front nodes come first, in chain order, and those of back
/// nodes last, in reverse chain order: `cons(a, snoc(cons(b, nil), c))` is
/// `[a, b, c]`. Each node caches what its chain holds — length, wire size
/// and content hash — so `len`, [`List::wire_size`] and `Hash` cost O(1),
/// and extending a list costs one allocation whatever its length.
///
/// # Hash
///
/// The content hash of `[x₀, …, xₙ₋₁]` is `Σ d(xᵢ)·Bⁿ⁻¹⁻ⁱ mod 2⁶¹ − 1`,
/// where `d` is an element's [`FxHasher`](super::FxHasher) digest and `B` a
/// fixed base. It depends on the element sequence only, not on the order
/// the nodes were added in, and each direction updates it in O(1): adding
/// `x` at the back maps `h` to `h·B + d(x)`, at the front to `d(x)·Bⁿ + h`,
/// `Bⁿ` computed from the cached length in O(log n) multiplications. The
/// modulus is prime: modulo 2⁶⁴ the Thue–Morse sequences collide for every
/// base.
///
/// # Sharing
///
/// A node is never changed once built, so a list may be shared by any
/// number of longer lists, tuples, messages and threads. Equality tries the
/// cheap answers first — the same node, then unequal length or hash — and
/// otherwise walks both chains while their nodes add in the same direction,
/// stopping where they reach one shared tail. No operation recurses along a
/// chain: dropping, comparing, hashing, printing and iterating all loop, so
/// a list as long as a request line allows cannot overflow the stack.
#[derive(Clone, Default)]
pub struct List(Option<Arc<Node>>);

/// One element added to the front or the back of `rest`, and what the list
/// it heads caches.
struct Node {
    item: Value,
    rest: List,
    /// The content hash of the list this node heads, with [`BACK`] set when
    /// `item` is that list's last element rather than its first.
    tagged_hash: u64,
    len: u32,
    /// `2 + Σ item.wire_size()`, saturating at `u32::MAX` — a size no
    /// message can have.
    wire: u32,
}

impl Node {
    fn is_back(&self) -> bool {
        self.tagged_hash & BACK != 0
    }

    fn hash(&self) -> u64 {
        self.tagged_hash & !BACK
    }
}

/// Free a chain by a loop: while this drop holds the last reference to the
/// next node, unlink that node's tail before letting it go, so no drop
/// recurses into the next. A nested list recurses once per nesting level.
impl Drop for Node {
    fn drop(&mut self) {
        let mut next = self.rest.0.take();
        while let Some(mut node) = next.and_then(Arc::into_inner) {
            next = node.rest.0.take();
        }
    }
}

impl List {
    /// The empty list.
    pub const fn nil() -> List {
        List(None)
    }

    fn head(&self) -> Option<&Node> {
        self.0.as_deref()
    }

    /// The nodes of the chain, top first.
    fn nodes(&self) -> impl Iterator<Item = &Node> {
        std::iter::successors(self.head(), |node| node.rest.head())
    }

    /// Number of elements. O(1).
    pub fn len(&self) -> usize {
        self.head().map_or(0, |node| node.len as usize)
    }

    /// Whether this is `nil`.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Serialized size: 2 bytes of header plus each element's. O(1).
    pub fn wire_size(&self) -> usize {
        self.head().map_or(2, |node| node.wire as usize)
    }

    fn content_hash(&self) -> u64 {
        self.head().map_or(0, Node::hash)
    }

    /// This list with `item` in front of it (`f_cons`): one allocation,
    /// sharing every node of `self`.
    pub fn cons(&self, item: Value) -> List {
        let power = base_power(self.len());
        let hash = reduce(mul_mod(digest(&item), power) + self.content_hash());
        self.link(item, hash)
    }

    /// This list with `item` after its last element (`f_append`): one
    /// allocation, sharing every node of `self`.
    pub fn snoc(&self, item: Value) -> List {
        let hash = reduce(mul_mod(self.content_hash(), BASE) + digest(&item));
        self.link(item, hash | BACK)
    }

    fn link(&self, item: Value, tagged_hash: u64) -> List {
        let len = u32::try_from(self.len() + 1).expect("fewer than 2³² list nodes");
        let wire = u32::try_from(self.wire_size() + item.wire_size()).unwrap_or(u32::MAX);
        List(Some(Arc::new(Node {
            item,
            rest: self.clone(),
            tagged_hash,
            len,
            wire,
        })))
    }

    /// `self ++ back` (`f_concat`): shares `self`, one node per element of
    /// `back`.
    pub fn concat(&self, back: &List) -> List {
        back.iter()
            .fold(self.clone(), |list, item| list.snoc(item.clone()))
    }

    /// The elements in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(self.head())
    }

    /// The first element, if any.
    pub fn first(&self) -> Option<&Value> {
        self.end(false)
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&Value> {
        self.end(true)
    }

    /// The last element when `back`, the first otherwise: held by the top
    /// node adding in that direction, or with none, by the deepest node.
    fn end(&self, back: bool) -> Option<&Value> {
        let mut deepest = None;
        for node in self.nodes() {
            if node.is_back() == back {
                return Some(&node.item);
            }
            deepest = Some(&node.item);
        }
        deepest
    }

    /// Whether some element equals `value`: one walk down the chain, in
    /// whatever order the nodes lie.
    pub fn contains(&self, value: &Value) -> bool {
        self.nodes().any(|node| node.item == *value)
    }
}

/// Elements in list order: front nodes' as the walk meets them, back nodes'
/// from a stack once the chain ends. A chain of front nodes iterates
/// without allocating; one with back nodes costs one allocation.
pub struct Iter<'a> {
    next: Option<&'a Node>,
    backs: Vec<&'a Value>,
    remaining: usize,
}

impl<'a> Iter<'a> {
    fn new(head: Option<&'a Node>) -> Self {
        Iter {
            next: head,
            backs: Vec::new(),
            remaining: head.map_or(0, |node| node.len as usize),
        }
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        while let Some(node) = self.next {
            self.next = node.rest.head();
            if !node.is_back() {
                self.remaining -= 1;
                return Some(&node.item);
            }
            if self.backs.capacity() == 0 {
                self.backs.reserve_exact(node.len as usize);
            }
            self.backs.push(&node.item);
        }
        let item = self.backs.pop()?;
        self.remaining -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Built front to back from its last element: a literal's chain iterates
/// without allocating.
impl From<Vec<Value>> for List {
    fn from(items: Vec<Value>) -> Self {
        items
            .into_iter()
            .rev()
            .fold(List::nil(), |list, item| list.cons(item))
    }
}

impl PartialEq for List {
    fn eq(&self, other: &Self) -> bool {
        let (mut a, mut b) = (self.head(), other.head());
        loop {
            let (Some(x), Some(y)) = (a, b) else {
                return a.is_none() && b.is_none();
            };
            if std::ptr::eq(x, y) {
                return true;
            }
            if x.len != y.len || x.hash() != y.hash() {
                return false;
            }
            if x.is_back() != y.is_back() {
                return Iter::new(a).eq(Iter::new(b));
            }
            if x.item != y.item {
                return false;
            }
            (a, b) = (x.rest.head(), y.rest.head());
        }
    }
}

impl Eq for List {}

/// Lexicographic by element, then shorter first: the order of `[Value]`.
/// Front nodes are compared as both walks meet them; from the first back
/// node on either side, the rest is compared by ordered iteration.
impl Ord for List {
    fn cmp(&self, other: &Self) -> Ordering {
        let (mut a, mut b) = (self.head(), other.head());
        while let (Some(x), Some(y)) = (a, b) {
            if std::ptr::eq(x, y) {
                return Ordering::Equal;
            }
            if x.is_back() || y.is_back() {
                break;
            }
            match x.item.cmp(&y.item) {
                Ordering::Equal => (a, b) = (x.rest.head(), y.rest.head()),
                unequal => return unequal,
            }
        }
        Iter::new(a).cmp(Iter::new(b))
    }
}

impl PartialOrd for List {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The cached content hash and the length: O(1).
impl Hash for List {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
        state.write_usize(self.len());
    }
}

impl fmt::Display for List {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for List {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    fn by_snoc(items: &[Value]) -> List {
        items
            .iter()
            .fold(List::nil(), |list, item| list.snoc(item.clone()))
    }

    #[test]
    fn a_node_is_one_value_and_three_words() {
        // With the reference counts, one 56-byte allocation per element:
        // a 64-byte chunk under glibc, where 64 bytes would take 80.
        assert_eq!(std::mem::size_of::<Node>(), 40);
        assert_eq!(std::mem::size_of::<List>(), 8);
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn powers_of_the_base_are_repeated_products() {
        let mut expected = 1;
        for n in 0..200 {
            assert_eq!(base_power(n), expected, "B^{n}");
            expected = mul_mod(expected, BASE);
        }
    }

    #[test]
    fn both_directions_build_the_same_list() {
        let items = ints(0..5);
        let front = List::from(items.clone());
        let back = by_snoc(&items);
        assert_eq!(front, back);
        assert_eq!(front.cmp(&back), Ordering::Equal);
        assert_eq!(front.content_hash(), back.content_hash());
        assert!(front.iter().eq(&items));
        assert!(back.iter().eq(&items));
        assert_eq!(back.first(), Some(&Value::Int(0)));
        assert_eq!(front.last(), Some(&Value::Int(4)));
        assert_eq!(front.wire_size(), 2 + 5 * 8);
    }

    #[test]
    fn mixed_chains_read_fronts_then_backs() {
        // cons(a, snoc(cons(b, nil), c)) = [a, b, c]
        let list = List::nil()
            .cons(Value::Int(2))
            .snoc(Value::Int(3))
            .cons(Value::Int(1));
        assert!(list.iter().eq(&ints(1..4)));
        assert_eq!(list, List::from(ints(1..4)));
        assert_eq!(list.first(), Some(&Value::Int(1)));
        assert_eq!(list.last(), Some(&Value::Int(3)));
        assert!(list.contains(&Value::Int(2)));
        assert!(!list.contains(&Value::Int(4)));
        assert_eq!(list.iter().len(), 3);
    }

    #[test]
    fn extensions_share_their_tail() {
        let tail = List::from(ints(0..3));
        let longer = tail.cons(Value::Int(9));
        assert!(std::ptr::eq(
            longer.head().unwrap().rest.head().unwrap(),
            tail.head().unwrap()
        ));
        let appended = tail.concat(&List::from(ints(3..5)));
        assert!(appended.iter().eq(&ints(0..5)));
        assert_eq!(
            appended.nodes().nth(2).map(|n| n as *const Node),
            tail.head().map(|n| n as *const Node)
        );
    }

    #[test]
    fn order_is_slice_order_in_every_direction() {
        let lists = [
            vec![],
            ints(0..1),
            ints(0..2),
            ints(0..3),
            ints(1..3),
            vec![Value::Int(0), Value::Int(2)],
            vec![Value::Int(0), Value::Int(1), Value::Int(3)],
        ];
        for x in &lists {
            for y in &lists {
                let expected = x.cmp(y);
                for a in [List::from(x.clone()), by_snoc(x)] {
                    for b in [List::from(y.clone()), by_snoc(y)] {
                        assert_eq!(a.cmp(&b), expected, "{a} vs {b}");
                        assert_eq!(a == b, x == y, "{a} vs {b}");
                    }
                }
            }
        }
    }
}
