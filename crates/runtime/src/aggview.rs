//! Incremental maintenance of aggregate rules.
//!
//! Rules with aggregate heads, such as SP3
//!
//! ```text
//! sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
//! ```
//!
//! are not executed as join strands; instead they are maintained as
//! incremental aggregate views, following the techniques of Ramakrishnan et
//! al. for incremental evaluation of queries with aggregation (Section 3.3
//! and Section 4 of the paper), over the tables the node already stores. A
//! view keeps what it emits, not what it reads: per group, the head tuple
//! currently derived for it and nothing else — the tuple is also the
//! group's key, hashed and compared on its fields but the aggregate. The
//! group's inputs live once, in the store.
//!
//! * An insertion ([`AggregateView::apply`]) combines the new value with
//!   the group's current aggregate — `min`/`max` by [`Value`]'s order,
//!   `count` + 1 — after one hash lookup of the group, made on the source
//!   tuple's group columns where they lie; `sum` re-folds the group from
//!   the store, so it is a function of the group's stored contents, not of
//!   arrival order.
//! * A deletion cannot be handed to a view. The DRed pass ([`crate::dred`])
//!   that removes source tuples from the store records the groups they
//!   belonged to, and [`AggregateView::rebuild_group`] — the one fold over
//!   the store, an index probe on the group columns — recomputes each such
//!   group from its surviving inputs.
//!
//! An insertion that changes a group's aggregate emits a deletion of the
//! old aggregate tuple and an insertion of the new one (which is what lets
//! the downstream `shortestPath` rule react to improvements); a rebuild
//! emits the insertion alone, the pass having retracted the old output.
//!
//! A source tuple feeds its group only when it matches the source atom —
//! its constants, and equal values wherever the atom repeats a variable —
//! and every extra body atom (e.g. the `magicDst(@D)` literal in rule
//! SP3-SD), a *guard*, has a match in the local store. Both are compiled
//! once, by [`AggregateView::from_rule`], into column checks: the source
//! atom's into `(column, expected)` pairs, each guard's into a membership
//! probe on its constant columns and the columns whose variables the
//! source atom binds. An insertion and a group rebuild run the same
//! checks; a source atom of distinct variables and no guards checks
//! nothing. Guards are intended for static "magic" tables seeded before
//! execution; retroactive changes to guard relations do not replay
//! previously-skipped source tuples.

use crate::index::JoinStats;
use crate::store::Store;
use crate::tuple::{RelName, Tuple, TupleDelta};
use ndlog_lang::value::FxBuild;
use ndlog_lang::{AggFunc, Atom, Literal, Rule, Term, Value};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};

/// A head field other than the aggregate: what identifies a group. The
/// group-by fields, and constants, which every output of the view shares.
#[derive(Debug, Clone, PartialEq)]
enum KeyField {
    /// The `index`-th group-by field, copied from source column `col`
    /// (`group_cols[index] == col`).
    Group { col: usize, index: usize },
    /// A constant.
    Const(Value),
}

/// The value a checked column must hold, read off the source tuple.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    Const(Value),
    /// The value of this column of the source tuple.
    Col(usize),
}

impl Expected {
    fn value<'a>(&'a self, source: &'a [Value]) -> &'a Value {
        match self {
            Expected::Const(c) => c,
            Expected::Col(col) => &source[*col],
        }
    }
}

/// A guard atom compiled to one membership probe: the `cols` of
/// `relation` must hold `key`, resolved against the source tuple.
#[derive(Debug, Clone)]
struct Guard {
    relation: String,
    cols: Vec<usize>,
    key: Vec<Expected>,
}

/// An incrementally maintained aggregate view.
#[derive(Debug, Clone)]
pub struct AggregateView {
    rule_label: String,
    /// Held once; every output delta shares it.
    head_relation: RelName,
    source_relation: String,
    func: AggFunc,
    value_col: usize,
    group_cols: Vec<usize>,
    /// The head fields but the aggregate, in head order.
    key_fields: Vec<KeyField>,
    /// The head position of the aggregate value.
    agg_pos: usize,
    source_arity: usize,
    /// What the source atom demands of a tuple beyond its arity: a
    /// constant column, or a repeated variable's later column equal to its
    /// first.
    source_checks: Vec<(usize, Expected)>,
    guards: Vec<Guard>,
    /// The head tuple currently derived for each group, hashed and compared
    /// on its fields but the aggregate: the group's key is the output
    /// itself, not a copy of it. Never iterated: nothing observable depends
    /// on its order.
    groups: HashSet<Head, FxBuild>,
}

/// The aggregate of a group with aggregate `current` (`None`: no inputs
/// yet) and one more input `value`. `min`/`max` keep the reigning value on
/// ties, so which of two equal-ordered values (`3` and `3.0`) a group
/// shows is the first one folded in.
fn combine(func: AggFunc, current: Option<&Value>, value: &Value) -> Value {
    match (func, current) {
        (AggFunc::Min, Some(best)) if best <= value => best.clone(),
        (AggFunc::Max, Some(best)) if best >= value => best.clone(),
        (AggFunc::Min | AggFunc::Max, _) => value.clone(),
        (AggFunc::Count, _) => Value::Int(current.and_then(Value::as_int).unwrap_or(0) + 1),
        (AggFunc::Sum, _) => Value::Float(
            current.and_then(Value::as_f64).unwrap_or(0.0) + value.as_f64().unwrap_or(0.0),
        ),
    }
}

/// A group's identity — a view's head fields but the aggregate, in head
/// order — wherever those fields lie: in a stored head tuple, in the
/// columns of a source tuple, or in a caller's group-by key. The map hashes
/// and compares the three alike, so looking a group up builds nothing.
trait GroupFields {
    fn len(&self) -> usize;
    fn field(&self, i: usize) -> &Value;
}

impl<'a> dyn GroupFields + 'a {
    fn iter(&self) -> impl Iterator<Item = &Value> {
        (0..self.len()).map(|i| self.field(i))
    }
}

impl Hash for dyn GroupFields + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.iter().for_each(|field| field.hash(state));
    }
}

impl PartialEq for dyn GroupFields + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for dyn GroupFields + '_ {}

/// What the map holds: a group's current head tuple, and where in it the
/// aggregate lies. The position is the view's `agg_pos` in every entry — 8
/// bytes per group that a `std` set makes each entry carry, since its `Hash`
/// and `Eq` see the entry alone, not the view.
#[derive(Debug, Clone)]
struct Head {
    tuple: Tuple,
    agg_pos: usize,
}

impl GroupFields for Head {
    fn len(&self) -> usize {
        self.tuple.arity() - 1
    }
    fn field(&self, i: usize) -> &Value {
        &self.tuple.values()[i + usize::from(i >= self.agg_pos)]
    }
}

impl<'a> Borrow<dyn GroupFields + 'a> for Head {
    fn borrow(&self) -> &(dyn GroupFields + 'a) {
        self
    }
}

impl Hash for Head {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn GroupFields).hash(state);
    }
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn GroupFields) == (other as &dyn GroupFields)
    }
}

impl Eq for Head {}

/// The group of a source tuple, read off its columns.
struct Projected<'a> {
    fields: &'a [KeyField],
    tuple: &'a Tuple,
}

impl<'a> Projected<'a> {
    /// `None` when the tuple is too short to project (heterogeneous
    /// hand-built stores).
    fn of(fields: &'a [KeyField], tuple: &'a Tuple) -> Option<Self> {
        let covered = fields.iter().all(|field| match field {
            KeyField::Group { col, .. } => *col < tuple.arity(),
            KeyField::Const(_) => true,
        });
        covered.then_some(Projected { fields, tuple })
    }
}

impl GroupFields for Projected<'_> {
    fn len(&self) -> usize {
        self.fields.len()
    }
    fn field(&self, i: usize) -> &Value {
        match &self.fields[i] {
            KeyField::Group { col, .. } => &self.tuple.values()[*col],
            KeyField::Const(c) => c,
        }
    }
}

/// A group named by its group-by fields alone.
struct ByKey<'a> {
    fields: &'a [KeyField],
    key: &'a [Value],
}

impl<'a> ByKey<'a> {
    /// `None` when `key` has not one value per group-by field.
    fn of(fields: &'a [KeyField], key: &'a [Value]) -> Option<Self> {
        let groups = fields
            .iter()
            .filter(|field| matches!(field, KeyField::Group { .. }))
            .count();
        (key.len() == groups).then_some(ByKey { fields, key })
    }
}

impl GroupFields for ByKey<'_> {
    fn len(&self) -> usize {
        self.fields.len()
    }
    fn field(&self, i: usize) -> &Value {
        match &self.fields[i] {
            KeyField::Group { index, .. } => &self.key[*index],
            KeyField::Const(c) => c,
        }
    }
}

/// The head tuple of a group with aggregate `agg_value`: one allocation,
/// of exactly the tuple's size.
fn head_tuple(agg_pos: usize, group: &dyn GroupFields, agg_value: &Value) -> Tuple {
    let field = |i: usize| match i.cmp(&agg_pos) {
        std::cmp::Ordering::Less => group.field(i).clone(),
        std::cmp::Ordering::Equal => agg_value.clone(),
        std::cmp::Ordering::Greater => group.field(i - 1).clone(),
    };
    (0..=group.len()).map(field).collect()
}

impl AggregateView {
    /// Build a view from an aggregate rule. Returns an error message when
    /// the rule does not have the supported shape (exactly one aggregate in
    /// the head, a unique source atom providing the aggregated variable,
    /// only predicate guards — no assignments or filters).
    pub fn from_rule(rule: &Rule) -> Result<AggregateView, String> {
        let agg_positions = rule.head.aggregate_positions();
        if agg_positions.len() != 1 {
            return Err(format!(
                "rule {}: aggregate views require exactly one aggregate head argument",
                rule.label
            ));
        }
        let Term::Agg(agg) = &rule.head.args[agg_positions[0]] else {
            unreachable!("position came from aggregate_positions");
        };
        if rule.body.iter().any(|l| !matches!(l, Literal::Atom(_))) {
            return Err(format!(
                "rule {}: aggregate rules may not contain assignments or filters",
                rule.label
            ));
        }
        if rule.body_atoms().any(Atom::has_aggregate) {
            return Err(format!(
                "rule {}: aggregates may only appear in the head",
                rule.label
            ));
        }
        let body_atoms: Vec<&Atom> = rule.body_atoms().collect();
        let providers: Vec<&Atom> = body_atoms
            .iter()
            .copied()
            .filter(|a| {
                a.args
                    .iter()
                    .any(|t| t.var_name() == Some(agg.var.as_str()))
            })
            .collect();
        if providers.len() != 1 {
            return Err(format!(
                "rule {}: the aggregated variable must be provided by exactly one body atom",
                rule.label
            ));
        }
        let source = providers[0];
        let col_of = |var: &str| -> Option<usize> {
            source.args.iter().position(|t| t.var_name() == Some(var))
        };
        let value_col = col_of(&agg.var).ok_or_else(|| {
            format!(
                "rule {}: aggregated variable not in source atom",
                rule.label
            )
        })?;
        let source_checks = source
            .args
            .iter()
            .enumerate()
            .filter_map(|(col, term)| match term {
                Term::Const(c) => Some((col, Expected::Const(c.clone()))),
                Term::Var(v) => col_of(&v.name)
                    .filter(|&first| first != col)
                    .map(|first| (col, Expected::Col(first))),
                Term::Agg(_) => None,
            })
            .collect();
        // A guard probes its constants and the variables the source atom
        // binds; its other variables match anything.
        let guards = body_atoms
            .into_iter()
            .filter(|a| a.name != source.name || *a != source)
            .map(|guard| {
                let (mut cols, mut key) = (Vec::new(), Vec::new());
                for (col, term) in guard.args.iter().enumerate() {
                    let expected = match term {
                        Term::Const(c) => Expected::Const(c.clone()),
                        Term::Var(v) => match col_of(&v.name) {
                            Some(source_col) => Expected::Col(source_col),
                            None => continue,
                        },
                        Term::Agg(_) => continue,
                    };
                    cols.push(col);
                    key.push(expected);
                }
                Guard {
                    relation: guard.name.clone(),
                    cols,
                    key,
                }
            })
            .collect();

        let mut key_fields = Vec::with_capacity(rule.head.arity() - 1);
        let mut group_cols = Vec::new();
        for term in &rule.head.args {
            match term {
                Term::Agg(_) => {}
                Term::Const(c) => key_fields.push(KeyField::Const(c.clone())),
                Term::Var(v) => {
                    let col = col_of(&v.name).ok_or_else(|| {
                        format!(
                            "rule {}: head variable {} not found in the source atom",
                            rule.label, v.name
                        )
                    })?;
                    let index = group_cols.len();
                    group_cols.push(col);
                    key_fields.push(KeyField::Group { col, index });
                }
            }
        }
        Ok(AggregateView {
            rule_label: rule.label.clone(),
            head_relation: rule.head.name.as_str().into(),
            source_relation: source.name.clone(),
            func: agg.func,
            value_col,
            group_cols,
            key_fields,
            agg_pos: agg_positions[0],
            source_arity: source.arity(),
            source_checks,
            guards,
            groups: HashSet::default(),
        })
    }

    /// The relation whose deltas feed this view.
    pub fn source_relation(&self) -> &str {
        &self.source_relation
    }

    /// The relation this view derives: the shared name its output deltas
    /// carry.
    pub fn head_relation(&self) -> &RelName {
        &self.head_relation
    }

    /// The label of the originating rule.
    pub fn rule_label(&self) -> &str {
        &self.rule_label
    }

    /// The aggregate function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of currently non-empty groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Forget all group state (a node crash loses the view along with the
    /// store it was built from; rejoin rebuilds both from scratch).
    pub fn reset(&mut self) {
        self.groups.clear();
    }

    /// Current aggregate value for the group a source tuple belongs to.
    pub fn current_for(&self, source_tuple: &Tuple) -> Option<Value> {
        let output = self.current_output_for(source_tuple)?;
        output.get(self.agg_pos).cloned()
    }

    /// The head tuple currently derived for the group a source tuple
    /// belongs to, if any.
    pub fn current_output_for(&self, source_tuple: &Tuple) -> Option<&Tuple> {
        let group = Projected::of(&self.key_fields, source_tuple)?;
        let head = self.groups.get(&group as &dyn GroupFields)?;
        Some(&head.tuple)
    }

    /// The group key a source tuple belongs to, or `None` when the tuple
    /// is too short to project (heterogeneous hand-built stores).
    pub fn group_key(&self, source_tuple: &Tuple) -> Option<Vec<Value>> {
        Projected::of(&self.key_fields, source_tuple)?;
        Some(source_tuple.project(&self.group_cols))
    }

    /// The head tuple currently derived for a group, if any.
    pub fn current_output(&self, key: &[Value]) -> Option<&Tuple> {
        let group = ByKey::of(&self.key_fields, key)?;
        let head = self.groups.get(&group as &dyn GroupFields)?;
        Some(&head.tuple)
    }

    /// Map a head (output) tuple back to its group key, or `None` when the
    /// tuple cannot be an output of this view (wrong arity or mismatched
    /// constants).
    pub fn output_group_key(&self, head_tuple: &Tuple) -> Option<Vec<Value>> {
        if head_tuple.arity() != self.key_fields.len() + 1 {
            return None;
        }
        let mut key = Vec::with_capacity(self.group_cols.len());
        for (i, field) in self.key_fields.iter().enumerate() {
            let value = &head_tuple.values()[i + usize::from(i >= self.agg_pos)];
            match field {
                KeyField::Group { .. } => key.push(value.clone()),
                KeyField::Const(c) if c != value => return None,
                KeyField::Const(_) => {}
            }
        }
        Some(key)
    }

    /// The aggregate of one group over the tuples currently stored in the
    /// source relation that the view admits; `None` when the group has no
    /// admitted input.
    fn fold_group(&self, store: &Store, key: &[Value], stats: &mut JoinStats) -> Option<Value> {
        let relation = store.relation(&self.source_relation)?;
        // Probe on the (sorted, deduplicated) group columns; verify the
        // full group key residually to cover repeated group variables.
        let mut bound: BTreeMap<usize, Value> = BTreeMap::new();
        for (col, val) in self.group_cols.iter().zip(key.iter()) {
            bound.entry(*col).or_insert_with(|| val.clone());
        }
        let cols: Vec<usize> = bound.keys().copied().collect();
        let vals: Vec<Value> = bound.values().cloned().collect();
        let in_group = |tuple: &Tuple| {
            let fields = self.group_cols.iter().map(|&c| tuple.get(c));
            fields.eq(key.iter().map(Some))
        };
        relation
            .lookup(&cols, &vals, u64::MAX, stats)
            .map(|stored| &stored.tuple)
            .filter(|tuple| in_group(tuple) && self.admits(store, tuple))
            .filter_map(|tuple| tuple.get(self.value_col))
            .fold(None, |aggregate, value| {
                Some(combine(self.func, aggregate.as_ref(), value))
            })
    }

    /// Recompute one group from the store and install the result as its
    /// current output — how deletions reach a view. The DRed pass
    /// ([`crate::dred`]) removes source tuples (and the group's head
    /// output) from the store without telling the view, then calls this
    /// for every group it touched; the new aggregate is returned as an
    /// insertion delta for the caller to ingest (the old output is already
    /// gone from the store). Returns `None`, and forgets the group, when
    /// no input survives.
    pub fn rebuild_group(
        &mut self,
        store: &Store,
        key: &[Value],
        stats: &mut JoinStats,
    ) -> Option<TupleDelta> {
        let aggregate = self.fold_group(store, key, stats);
        let group = ByKey::of(&self.key_fields, key)?;
        let group: &dyn GroupFields = &group;
        let Some(aggregate) = aggregate else {
            self.groups.remove(group);
            return None;
        };
        let tuple = head_tuple(self.agg_pos, group, &aggregate);
        self.groups.replace(Head {
            tuple: tuple.clone(),
            agg_pos: self.agg_pos,
        });
        Some(TupleDelta::insert(self.head_relation.clone(), tuple))
    }

    /// The (relation, bound-column signature) pairs this view probes:
    /// every guard atom's constants plus the columns whose variables the
    /// source atom binds, and the source relation's group columns (used by
    /// [`AggregateView::rebuild_group`] during the DRed re-derive phase).
    /// Declared up front (like strand probe stages) so these checks run as
    /// index probes instead of relation scans.
    pub fn index_requirements(&self) -> Vec<(String, Vec<usize>)> {
        let guards = self.guards.iter().filter(|guard| !guard.cols.is_empty());
        let mut out: Vec<_> = guards
            .map(|guard| (guard.relation.clone(), guard.cols.clone()))
            .collect();
        let group_sig: std::collections::BTreeSet<usize> =
            self.group_cols.iter().copied().collect();
        if !group_sig.is_empty() {
            out.push((
                self.source_relation.clone(),
                group_sig.into_iter().collect(),
            ));
        }
        out
    }

    /// Whether a source tuple feeds its group: it matches the source atom
    /// and every guard has a match in `store`.
    fn admits(&self, store: &Store, source_tuple: &Tuple) -> bool {
        let fields = source_tuple.values();
        if fields.len() != self.source_arity
            || !self
                .source_checks
                .iter()
                .all(|(col, want)| fields[*col] == *want.value(fields))
        {
            return false;
        }
        self.guards.iter().all(|guard| {
            let Some(relation) = store.relation(&guard.relation) else {
                return false;
            };
            let key: Vec<Value> = guard.key.iter().map(|e| e.value(fields).clone()).collect();
            relation.contains_match(&guard.cols, &key, u64::MAX)
        })
    }

    /// Feed the view a tuple that has just entered the store's `relation`,
    /// returning the head deltas to propagate: nothing while the group's
    /// aggregate is unchanged, otherwise the retraction of its old output
    /// (if it had one) and the assertion of the new.
    pub fn apply(&mut self, store: &Store, relation: &str, inserted: &Tuple) -> Vec<TupleDelta> {
        if relation != self.source_relation || !self.admits(store, inserted) {
            return Vec::new();
        }
        let Some(value) = inserted.get(self.value_col) else {
            return Vec::new();
        };
        let Some(group) = Projected::of(&self.key_fields, inserted) else {
            return Vec::new();
        };
        let group: &dyn GroupFields = &group;
        let old_head = self.groups.get(group).map(|head| &head.tuple);
        let aggregate = match self.func {
            // Float addition does not commute with arrival order.
            AggFunc::Sum => {
                let key = inserted.project(&self.group_cols);
                self.fold_group(store, &key, &mut JoinStats::default())
            }
            func => {
                let current = old_head.and_then(|head| head.get(self.agg_pos));
                Some(combine(func, current, value))
            }
        };
        let new_head = aggregate.map(|v| head_tuple(self.agg_pos, group, &v));
        if old_head == new_head.as_ref() {
            return Vec::new();
        }
        let old_head = match &new_head {
            Some(new) => self.groups.replace(Head {
                tuple: new.clone(),
                agg_pos: self.agg_pos,
            }),
            None => self.groups.take(group),
        };
        let old_head = old_head.map(|head| head.tuple);
        let retract = old_head.map(|old| TupleDelta::delete(self.head_relation.clone(), old));
        let assert = new_head.map(|new| TupleDelta::insert(self.head_relation.clone(), new));
        retract.into_iter().chain(assert).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Sign;
    use ndlog_lang::parse_program;

    fn view(src: &str) -> AggregateView {
        let p = parse_program(src).unwrap();
        AggregateView::from_rule(&p.rules[0]).unwrap()
    }

    fn sp_cost_view() -> AggregateView {
        view("sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).")
    }

    fn path(s: u32, d: u32, z: u32, c: f64) -> Tuple {
        Tuple::new(vec![
            Value::addr(s),
            Value::addr(d),
            Value::addr(z),
            Value::list(vec![Value::addr(s), Value::addr(d)]),
            Value::Float(c),
        ])
    }

    /// The path production takes for an insertion: the tuple enters the
    /// store, then the view.
    fn insert(store: &mut Store, v: &mut AggregateView, tuple: Tuple) -> Vec<TupleDelta> {
        let relation = v.source_relation().to_string();
        store.apply(&TupleDelta::insert(relation.as_str(), tuple.clone()));
        v.apply(store, &relation, &tuple)
    }

    /// ... and for a removal: the tuple leaves the store, then its group is
    /// rebuilt from what is left.
    fn remove(store: &mut Store, v: &mut AggregateView, tuple: Tuple) -> Option<TupleDelta> {
        store.apply(&TupleDelta::delete(v.source_relation(), tuple.clone()));
        let key = v.group_key(&tuple).unwrap();
        v.rebuild_group(store, &key, &mut JoinStats::default())
    }

    #[test]
    fn min_improves_and_emits_replacement() {
        let mut v = sp_cost_view();
        let store = Store::new();
        let out = v.apply(&store, "path", &path(0, 1, 1, 5.0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sign, Sign::Insert);
        assert_eq!(out[0].relation, "spCost");
        assert_eq!(out[0].tuple.get(2), Some(&Value::Float(5.0)));

        // A worse path does not change the aggregate.
        let out = v.apply(&store, "path", &path(0, 1, 2, 9.0));
        assert!(out.is_empty());

        // A better path retracts the old aggregate and asserts the new one.
        let out = v.apply(&store, "path", &path(0, 1, 3, 2.0));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sign, Sign::Delete);
        assert_eq!(out[0].tuple.get(2), Some(&Value::Float(5.0)));
        assert_eq!(out[1].sign, Sign::Insert);
        assert_eq!(out[1].tuple.get(2), Some(&Value::Float(2.0)));
        assert_eq!(v.group_count(), 1);
        assert_eq!(v.current_for(&path(0, 1, 1, 0.0)), Some(Value::Float(2.0)));
    }

    #[test]
    fn deletion_rederives_from_remaining_inputs() {
        let mut v = sp_cost_view();
        let mut store = Store::new();
        insert(&mut store, &mut v, path(0, 1, 1, 5.0));
        insert(&mut store, &mut v, path(0, 1, 2, 2.0));
        assert_eq!(v.current_for(&path(0, 1, 1, 0.0)), Some(Value::Float(2.0)));
        // Deleting the best path falls back to the next best.
        let out = remove(&mut store, &mut v, path(0, 1, 2, 2.0)).unwrap();
        assert_eq!(out.sign, Sign::Insert);
        assert_eq!(out.tuple.get(2), Some(&Value::Float(5.0)));
        assert_eq!(v.current_for(&path(0, 1, 1, 0.0)), Some(Value::Float(5.0)));
        // Deleting the last input retracts the aggregate entirely.
        assert_eq!(remove(&mut store, &mut v, path(0, 1, 1, 5.0)), None);
        assert_eq!(v.current_for(&path(0, 1, 1, 0.0)), None);
        assert_eq!(v.group_count(), 0);
    }

    #[test]
    fn duplicate_values_are_multiset_counted() {
        let mut v = sp_cost_view();
        let mut store = Store::new();
        insert(&mut store, &mut v, path(0, 1, 1, 3.0));
        insert(&mut store, &mut v, path(0, 1, 2, 3.0));
        let before = v.current_output_for(&path(0, 1, 1, 0.0)).cloned();
        // Removing one of the two cost-3 paths keeps the aggregate at 3.
        let out = remove(&mut store, &mut v, path(0, 1, 1, 3.0));
        assert_eq!(out.map(|d| d.tuple), before);
        assert_eq!(v.current_for(&path(0, 1, 1, 0.0)), Some(Value::Float(3.0)));
        assert_eq!(remove(&mut store, &mut v, path(0, 1, 2, 3.0)), None);
        assert_eq!(v.group_count(), 0);
    }

    #[test]
    fn groups_are_independent() {
        let mut v = sp_cost_view();
        let store = Store::new();
        let a = v.apply(&store, "path", &path(0, 1, 1, 5.0));
        let b = v.apply(&store, "path", &path(0, 2, 1, 7.0));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(v.group_count(), 2);
        assert_eq!(b[0].tuple.get(1), Some(&Value::addr(2u32)));
    }

    #[test]
    fn deleting_unseen_value_is_ignored() {
        let mut v = sp_cost_view();
        let mut store = Store::new();
        let best = insert(&mut store, &mut v, path(0, 1, 1, 5.0));
        // A tuple the store never held leaves the group as it was.
        let out = remove(&mut store, &mut v, path(0, 1, 9, 4.0));
        assert_eq!(out.as_ref(), best.last());
        assert_eq!(v.current_for(&path(0, 1, 1, 0.0)), Some(Value::Float(5.0)));
    }

    #[test]
    fn max_count_and_sum_aggregates() {
        let store = Store::new();
        let mut vmax = view("m best(@S, max<C>) :- obs(@S, C).");
        let obs = |s: u32, c: i64| Tuple::new(vec![Value::addr(s), Value::Int(c)]);
        vmax.apply(&store, "obs", &obs(0, 3));
        let out = vmax.apply(&store, "obs", &obs(0, 9));
        assert_eq!(out[1].tuple.get(1), Some(&Value::Int(9)));

        let mut vcount = view("c deg(@S, count<D>) :- edge(@S, @D).");
        let edge = |s: u32, d: u32| Tuple::new(vec![Value::addr(s), Value::addr(d)]);
        vcount.apply(&store, "edge", &edge(0, 1));
        let out = vcount.apply(&store, "edge", &edge(0, 2));
        assert_eq!(out[1].tuple.get(1), Some(&Value::Int(2)));

        // A sum is folded from the store, so its inputs go there first.
        let mut store = store;
        let mut vsum = view("s total(@S, sum<C>) :- obs(@S, C).");
        insert(&mut store, &mut vsum, obs(0, 3));
        let out = insert(&mut store, &mut vsum, obs(0, 4));
        assert_eq!(out[1].tuple.get(1), Some(&Value::Float(7.0)));
    }

    #[test]
    fn guard_atoms_filter_source_deltas() {
        let p = parse_program("sd3 spCost(@D,@S,min<C>) :- magicDst(@D), pathDst(@D,@S,@Z,P,C).")
            .unwrap();
        let mut v = AggregateView::from_rule(&p.rules[0]).unwrap();
        assert_eq!(v.source_relation(), "pathDst");

        let mut store = Store::new();
        let pd = |d: u32, s: u32, c: f64| {
            Tuple::new(vec![
                Value::addr(d),
                Value::addr(s),
                Value::addr(s),
                Value::nil(),
                Value::Float(c),
            ])
        };
        // No magicDst entry: the delta is filtered out.
        assert!(v.apply(&store, "pathDst", &pd(1, 0, 4.0)).is_empty());
        // Seed the magic table for destination 1 and retry.
        store.apply(&TupleDelta::insert(
            "magicDst",
            Tuple::new(vec![Value::addr(1u32)]),
        ));
        let out = v.apply(&store, "pathDst", &pd(1, 0, 4.0));
        assert_eq!(out.len(), 1);
        // A different destination still has no magic entry.
        assert!(v.apply(&store, "pathDst", &pd(2, 0, 4.0)).is_empty());
    }

    /// `obs(@S, A, C)` at node 0.
    fn obs(a: i64, c: i64) -> Tuple {
        Tuple::new(vec![Value::addr(0u32), Value::Int(a), Value::Int(c)])
    }

    #[test]
    fn a_source_constant_selects_the_inputs_without_a_guard() {
        let mut v = view("c cnt(@S, count<C>) :- obs(@S, 1, C).");
        let mut store = Store::new();
        for (a, c) in [(1, 5), (2, 7), (1, 9)] {
            insert(&mut store, &mut v, obs(a, c));
        }
        assert_eq!(v.current_for(&obs(1, 0)), Some(Value::Int(2)));
        // A rebuild folds the same inputs.
        let rebuilt = remove(&mut store, &mut v, obs(1, 9)).unwrap();
        assert_eq!(rebuilt.tuple.get(1), Some(&Value::Int(1)));
    }

    #[test]
    fn a_repeated_source_variable_selects_the_inputs_without_a_guard() {
        let mut v = view("m same(@S, max<C>) :- obs(@S, C, C).");
        let mut store = Store::new();
        for (a, c) in [(1, 5), (2, 7), (1, 9)] {
            assert!(insert(&mut store, &mut v, obs(a, c)).is_empty());
        }
        assert_eq!(v.group_count(), 0);
        let out = insert(&mut store, &mut v, obs(4, 4));
        assert_eq!(out[0].tuple.get(1), Some(&Value::Int(4)));
        // A rebuild folds the same inputs: none is left.
        assert_eq!(remove(&mut store, &mut v, obs(4, 4)), None);
        assert_eq!(v.group_count(), 0);
    }

    #[test]
    fn malformed_rules_are_rejected() {
        let reject = |src: &str| {
            let p = parse_program(src).unwrap();
            AggregateView::from_rule(&p.rules[0])
        };
        assert!(reject("a x(@S, C) :- p(@S, C).").is_err(), "no aggregate");
        assert!(
            reject("a x(@S, min<C>, max<C>) :- p(@S, C).").is_err(),
            "two aggregates"
        );
        assert!(
            reject("a x(@S, min<C>) :- p(@S, C), q(@S, C).").is_err(),
            "ambiguous provider"
        );
        assert!(
            reject("a x(@S, min<C>) :- p(@S, C), C < 5.").is_err(),
            "filters not allowed"
        );
        assert!(
            reject("a x(@S, D, min<C>) :- p(@S, C).").is_err(),
            "head variable missing from source"
        );
        assert!(
            reject("a x(@S, min<C>) :- p(@S, C), q(@S, max<D>).").is_err(),
            "aggregate in the body"
        );
    }

    #[test]
    fn group_keys_of_any_width_find_their_group() {
        // A group is looked up on the source tuple's own columns, however
        // many; a tuple too short to project belongs to no group.
        let wide = |v: i64, c: i64| {
            let mut fields = vec![Value::addr(0u32)];
            fields.extend((1..9).map(|i| Value::Int(i * v)));
            fields.push(Value::Int(c));
            Tuple::new(fields)
        };
        let mut nine = view("w x(@A,B,C,D,E,F,G,H,I,min<V>) :- p(@A,B,C,D,E,F,G,H,I,V).");
        let mut two = sp_cost_view();
        let store = Store::new();
        for (v, c) in [(1, 7), (2, 9), (1, 4)] {
            nine.apply(&store, "p", &wide(v, c));
        }
        assert_eq!(nine.group_count(), 2);
        assert_eq!(nine.current_for(&wide(1, 0)), Some(Value::Int(4)));
        assert_eq!(nine.current_for(&wide(2, 0)), Some(Value::Int(9)));
        assert_eq!(nine.current_for(&wide(3, 0)), None);
        let key = nine.group_key(&wide(2, 0)).unwrap();
        assert_eq!(key.len(), 9);
        assert_eq!(
            nine.current_output(&key),
            nine.current_output_for(&wide(2, 5))
        );
        assert_eq!(
            nine.output_group_key(nine.current_output(&key).unwrap()),
            Some(key)
        );

        two.apply(&store, "path", &path(0, 1, 1, 5.0));
        let short = Tuple::new(vec![Value::addr(0u32)]);
        assert_eq!(two.group_key(&short), None);
        assert_eq!(two.current_for(&short), None);
        assert_eq!(two.current_output_for(&short), None);
        assert!(two.apply(&store, "path", &short).is_empty());
        assert_eq!(two.group_count(), 1);
    }

    #[test]
    fn other_relations_are_ignored() {
        let mut v = sp_cost_view();
        let store = Store::new();
        let out = v.apply(&store, "link", &path(0, 1, 1, 5.0));
        assert!(out.is_empty());
    }
}
