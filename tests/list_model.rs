//! Model-based test of `ndlog_lang::value::List`, the persistent list
//! behind `Value::List`.
//!
//! Seeded random sequences of `nil` / literal / cons / snoc / concat /
//! clone build a pool of lists, each beside its model — a plain tree of
//! vectors with scalars at the leaves. After every step the new list must
//! match its model on `len`, element order, `first` / `last` / `contains`,
//! `wire_size` and `Display` (the text a slice of values printed before
//! lists were shared); and against every list of the pool, `==` must hold
//! exactly when the models are equal, `cmp` must be the models' order
//! (lexicographic, then shorter first), and equal lists must hash equally
//! under `FxBuild` and under `DefaultHasher`. Elements are drawn from a
//! pool that mixes `Int(3)` with `Float(3.0)` (one value to `==`),
//! addresses, strings and lists of the pool itself, so nested lists and
//! lists built in different directions but equal come up constantly.
//!
//! Last, lists of a million elements, one built by cons and one by snoc,
//! are compared, hashed, printed and dropped on a thread with a 64 KiB
//! stack: nothing may recurse along a chain.

use ndlog_lang::value::{FxBuild, List};
use ndlog_lang::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hash, Hasher};

/// A value as a plain tree: what a list element is, independent of how
/// lists are built.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Model {
    /// A non-list value: compared, ordered and printed by `Value`. Every
    /// scalar ranks below every list, as in `Value`'s order.
    Scalar(Value),
    List(Vec<Model>),
}

impl Model {
    /// The model of a value, reading lists through `iter()`.
    fn of(value: &Value) -> Model {
        match value {
            Value::List(list) => Model::List(list.iter().map(Model::of).collect()),
            scalar => Model::Scalar(scalar.clone()),
        }
    }

    fn wire_size(&self) -> usize {
        match self {
            Model::Scalar(value) => value.wire_size(),
            Model::List(items) => 2 + items.iter().map(Model::wire_size).sum::<usize>(),
        }
    }

    /// The elements of a list's model.
    fn items(self) -> Vec<Model> {
        match self {
            Model::List(items) => items,
            Model::Scalar(value) => panic!("{value} is not a list"),
        }
    }

    /// What `Display` printed for a value holding a slice of values.
    fn render(&self) -> String {
        match self {
            Model::Scalar(value) => value.to_string(),
            Model::List(items) => {
                let items: Vec<String> = items.iter().map(Model::render).collect();
                format!("[{}]", items.join(", "))
            }
        }
    }
}

fn hashes(list: &List) -> (u64, u64) {
    let fx = FxBuild::default().hash_one(list);
    let mut sip = std::collections::hash_map::DefaultHasher::new();
    Value::List(list.clone()).hash(&mut sip);
    (fx, sip.finish())
}

/// Check one list against its model, and against every entry of the pool.
fn check(list: &List, model: &[Model], pool: &[(List, Vec<Model>)], probes: &[Value]) {
    let as_model = Model::List(model.to_vec());
    assert_eq!(list.len(), model.len());
    assert_eq!(list.is_empty(), model.is_empty());
    assert_eq!(list.iter().len(), model.len());
    let items: Vec<Model> = list.iter().map(Model::of).collect();
    assert_eq!(items, model, "{list}");
    assert_eq!(list.first().map(Model::of).as_ref(), model.first());
    assert_eq!(list.last().map(Model::of).as_ref(), model.last());
    for probe in probes {
        let expected = model.contains(&Model::of(probe));
        assert_eq!(list.contains(probe), expected, "{probe} in {list}");
    }
    assert_eq!(list.wire_size(), as_model.wire_size());
    assert_eq!(Value::List(list.clone()).wire_size(), as_model.wire_size());
    assert_eq!(list.to_string(), as_model.render());
    assert_eq!(Value::List(list.clone()).to_string(), as_model.render());
    for (other, other_model) in pool {
        let expected = model.cmp(other_model);
        assert_eq!(list.cmp(other), expected, "{list} vs {other}");
        assert_eq!(other.cmp(list), expected.reverse(), "{other} vs {list}");
        assert_eq!(
            list == other,
            expected == Ordering::Equal,
            "{list} vs {other}"
        );
        assert_eq!(
            other == list,
            expected == Ordering::Equal,
            "{other} vs {list}"
        );
        if list == other {
            assert_eq!(hashes(list), hashes(other), "{list} vs {other}");
        }
    }
}

/// A random element: a scalar from a small, collision-prone pool, or a list
/// of the pool.
fn element(rng: &mut StdRng, pool: &[(List, Vec<Model>)]) -> (Value, Model) {
    let scalar = match rng.random_range(0..10u32) {
        0 => Value::Int(3),
        1 => Value::Float(3.0),
        2 => Value::Float(3.5),
        3 => Value::Int(-1),
        4 => Value::addr(rng.random_range(0..3u32)),
        5 => Value::str(if rng.random_bool(0.5) { "a" } else { "" }),
        6 => Value::Bool(true),
        _ if !pool.is_empty() => {
            let (list, model) = &pool[rng.random_range(0..pool.len())];
            return (Value::List(list.clone()), Model::List(model.clone()));
        }
        _ => Value::Int(0),
    };
    let model = Model::Scalar(scalar.clone());
    (scalar, model)
}

fn run(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<(List, Vec<Model>)> = Vec::new();
    let probes = [
        Value::Int(3),
        Value::Float(3.0),
        Value::Float(3.5),
        Value::addr(1u32),
        Value::str(""),
        Value::nil(),
        Value::list(vec![Value::Int(3)]),
    ];
    for _ in 0..steps {
        let pick = |rng: &mut StdRng, pool: &[(List, Vec<Model>)]| {
            pool.get(rng.random_range(0..pool.len().max(1)))
                .cloned()
                .unwrap_or_default()
        };
        let (list, model) = match rng.random_range(0..12u32) {
            0 => (List::nil(), Vec::new()),
            1 | 2 => {
                let n = rng.random_range(0..5usize);
                let (values, models): (Vec<Value>, Vec<Model>) =
                    (0..n).map(|_| element(&mut rng, &pool)).unzip();
                (List::from(values), models)
            }
            3..=5 => {
                let (tail, mut model) = pick(&mut rng, &pool);
                let (item, item_model) = element(&mut rng, &pool);
                model.insert(0, item_model);
                (tail.cons(item), model)
            }
            6..=8 => {
                let (init, mut model) = pick(&mut rng, &pool);
                let (item, item_model) = element(&mut rng, &pool);
                model.push(item_model);
                (init.snoc(item), model)
            }
            9 | 10 => {
                let (front, mut model) = pick(&mut rng, &pool);
                let (back, back_model) = pick(&mut rng, &pool);
                model.extend(back_model);
                (front.concat(&back), model)
            }
            _ => pick(&mut rng, &pool),
        };
        check(&list, &model, &pool, &probes);
        pool.push((list, model));
        if pool.len() > 48 {
            pool.swap_remove(rng.random_range(0..pool.len()));
        }
    }
}

#[test]
fn lists_agree_with_the_vector_model() {
    for seed in 0..24 {
        run(seed, 300);
    }
}

#[test]
fn named_cases() {
    let ints = |r: std::ops::Range<i64>| r.map(Value::Int).collect::<Vec<_>>();
    let by_snoc = |items: Vec<Value>| items.into_iter().fold(List::nil(), |l, v| l.snoc(v));
    let by_cons = List::from;
    // Built in different directions, but equal.
    let (front, back) = (by_cons(ints(0..6)), by_snoc(ints(0..6)));
    check(
        &front,
        &Model::of(&Value::List(back.clone())).items(),
        &[],
        &[],
    );
    assert_eq!(front, back);
    assert_eq!(hashes(&front), hashes(&back));
    // A mixed chain against both.
    let mixed = by_snoc(ints(3..6)).cons(Value::Int(2)).cons(Value::Int(1));
    let mixed = mixed.cons(Value::Int(0));
    assert_eq!(mixed, front);
    assert_eq!(mixed.cmp(&back), Ordering::Equal);
    assert_eq!(hashes(&mixed), hashes(&front));
    // Int(3) and Float(3.0) are one value, inside a list too.
    let int = List::from(vec![Value::addr(1u32), Value::Int(3)]);
    let float = by_snoc(vec![Value::addr(1u32), Value::Float(3.0)]);
    assert_eq!(int, float);
    assert_eq!(hashes(&int), hashes(&float));
    assert_eq!(int.to_string(), "[@n1, 3]");
    assert_eq!(float.to_string(), "[@n1, 3.0]");
    // Nested lists compare, hash and print through their elements.
    let nested = |inner: &List| List::from(vec![Value::List(inner.clone()), Value::Int(1)]);
    assert_eq!(nested(&front), nested(&back));
    assert_eq!(hashes(&nested(&int)), hashes(&nested(&float)));
    assert!(nested(&front) > nested(&by_cons(ints(0..5))));
    assert_eq!(nested(&int).to_string(), "[[@n1, 3], 1]");
    // The empty list, however it is reached.
    let empty = List::nil();
    assert_eq!(empty, List::from(Vec::new()));
    assert_eq!(empty, by_cons(Vec::new()).concat(&List::nil()));
    assert!(empty < by_snoc(ints(0..1)));
    assert_eq!(empty.wire_size(), 2);
    assert_eq!(empty.to_string(), "[]");
    assert_eq!((empty.first(), empty.last()), (None, None));
    assert_eq!(Value::nil().as_list(), Some(&empty));
}

#[test]
fn million_element_lists_never_recurse() {
    const N: i64 = 1_000_000;
    let worker = std::thread::Builder::new().stack_size(64 * 1024);
    let handle = worker
        .spawn(|| {
            let by_cons = (0..N)
                .rev()
                .fold(List::nil(), |list, i| list.cons(Value::Int(i)));
            let by_snoc = (0..N).fold(List::nil(), |list, i| list.snoc(Value::Int(i)));
            assert_eq!(by_cons.len(), N as usize);
            assert_eq!(by_cons, by_snoc);
            assert_eq!(by_cons.cmp(&by_snoc), Ordering::Equal);
            assert_eq!(hashes(&by_cons), hashes(&by_snoc));
            let longer = by_snoc.snoc(Value::Int(N));
            assert!(by_cons < longer);
            assert_eq!(longer.cmp(&by_cons), Ordering::Greater);
            let differs_last = by_cons.concat(&List::nil()).cons(Value::Int(-1));
            assert_ne!(differs_last, longer);
            assert_eq!(by_cons.first(), by_snoc.first());
            assert_eq!(by_cons.last(), by_snoc.last());
            assert!(by_snoc.contains(&Value::Int(0)));
            let text = by_cons.to_string();
            assert_eq!(text, by_snoc.to_string());
            assert!(text.starts_with("[0, 1, 2") && text.ends_with("999999]"));
            drop((by_cons, by_snoc, longer, differs_last));
        })
        .unwrap();
    handle
        .join()
        .expect("deep lists must not overflow a 64 KiB stack");
}
