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
//! view keeps no state of its own: its head relation is its state. An
//! aggregate head is keyed on its group-by fields — every head field but
//! the aggregate ([`Store::add_program`] gives it that key and refuses
//! another) — and derived by its rule alone, so a group's current output is
//! the head tuple stored under the group's key, read with one primary-key
//! lookup. The group's inputs live once, in the store, too.
//!
//! * An insertion ([`AggregateView::apply`]) combines the new value with
//!   the group's current aggregate — `min`/`max` by [`Value`]'s order,
//!   `count` + 1 — read off the stored output, looked up on the source
//!   tuple's group columns where they lie; `sum` re-folds the group from
//!   the store, so it is a function of the group's stored contents, not of
//!   arrival order.
//! * A deletion cannot be handed to a view. The DRed pass ([`crate::dred`])
//!   that removes source tuples from the store records the groups whose
//!   output a removal can move ([`AggregateView::removal_can_move`]: for
//!   `min`/`max`, a removal of the reigning best or of a tie with it; for
//!   `count`/`sum`, any), and [`AggregateView::rebuild_group`] — the one
//!   fold over the store, an index probe on the group columns — recomputes
//!   each such group from its surviving inputs. A group whose extremum a
//!   removal leaves standing is not touched.
//!
//! An insertion that changes a group's aggregate emits a deletion of the
//! old aggregate tuple and an insertion of the new one (which is what lets
//! the downstream `shortestPath` rule react to improvements); a rebuild
//! emits the insertion alone, the pass having retracted the old output.
//!
//! A view folds one relation through one atom of distinct variables, the
//! normal form of [`ndlog_lang::aggsplit`]; [`crate::compile`] splits any
//! other aggregate rule into a plain rule, which strands and DRed maintain
//! (guards, filters and assignments included), and an aggregate rule in
//! that form over the plain rule's relation.

use crate::index::EvalStats;
use crate::store::Store;
use crate::tuple::{RelName, Tuple, TupleDelta};
use ndlog_lang::aggsplit::in_normal_form;
use ndlog_lang::{AggFunc, Literal, Rule, Term, Value};

/// A head field other than the aggregate: one column of the head
/// relation's primary key, which identifies a group.
#[derive(Debug)]
enum KeyField {
    /// A group-by field, copied from this source column.
    Group(usize),
    /// A constant, which every output of the view shares.
    Const(Value),
}

/// An incrementally maintained aggregate view, compiled once per plan and
/// shared by every site that runs it: it holds nothing that evaluation
/// changes.
#[derive(Debug)]
pub struct AggregateView {
    rule_label: String,
    /// Held once; every output delta shares it.
    head_relation: RelName,
    source_relation: String,
    func: AggFunc,
    value_col: usize,
    /// The head fields but the aggregate, in head order: the head
    /// relation's primary key.
    key_fields: Vec<KeyField>,
    /// The distinct source columns the group-by fields copy, ascending,
    /// each with the position in `key_fields` of a field copying it.
    group_cols: Vec<(usize, usize)>,
    /// The head position of the aggregate value.
    agg_pos: usize,
    source_arity: usize,
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

impl AggregateView {
    /// Build a view from an aggregate rule in normal form
    /// ([`ndlog_lang::aggsplit::in_normal_form`]): exactly one aggregate in
    /// the head, a body of one atom of distinct variables, and every other
    /// head field a constant or one of those variables. Any other rule is
    /// refused; [`crate::compile`] splits one into that form first.
    pub fn from_rule(rule: &Rule) -> Result<AggregateView, String> {
        let &[agg_pos] = rule.head.aggregate_positions().as_slice() else {
            return Err(format!(
                "rule {}: aggregate views require exactly one aggregate head argument",
                rule.label
            ));
        };
        let (Term::Agg(agg), [Literal::Atom(source)], true) = (
            &rule.head.args[agg_pos],
            rule.body.as_slice(),
            in_normal_form(rule),
        ) else {
            return Err(format!(
                "rule {}: an aggregate view folds one body atom of distinct variables \
                 that holds every head variable",
                rule.label
            ));
        };
        let col_of = |var: &str| -> usize {
            let col = source.args.iter().position(|t| t.var_name() == Some(var));
            col.expect("a rule in normal form binds every head variable in its atom")
        };
        let (mut key_fields, mut group_cols) = (Vec::new(), Vec::new());
        for term in &rule.head.args {
            match term {
                Term::Agg(_) => {}
                Term::Const(c) => key_fields.push(KeyField::Const(c.clone())),
                Term::Var(v) => {
                    let col = col_of(&v.name);
                    group_cols.push((col, key_fields.len()));
                    key_fields.push(KeyField::Group(col));
                }
            }
        }
        group_cols.sort_unstable();
        group_cols.dedup_by_key(|&mut (col, _)| col);
        Ok(AggregateView {
            rule_label: rule.label.clone(),
            head_relation: rule.head.name.as_str().into(),
            source_relation: source.name.clone(),
            func: agg.func,
            value_col: col_of(&agg.var),
            key_fields,
            group_cols,
            agg_pos,
            source_arity: source.arity(),
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

    /// The head relation's key of the group a source tuple belongs to, read
    /// off the tuple's columns; `None` when the tuple has another arity
    /// than the source atom, so is no input.
    fn key_in<'a>(&'a self, source: &'a Tuple) -> Option<impl Iterator<Item = &'a Value> + Clone> {
        let fields = source.values();
        let key = self.key_fields.iter().map(move |field| match field {
            KeyField::Group(col) => &fields[*col],
            KeyField::Const(c) => c,
        });
        (fields.len() == self.source_arity).then_some(key)
    }

    /// The head tuple currently derived for a group, named by its key: the
    /// tuple stored under that key, found by one primary-key lookup on the
    /// head relation, which allocates nothing.
    fn current_output<'s, 'v>(
        &self,
        store: &'s Store,
        key: impl IntoIterator<Item = &'v Value, IntoIter: Clone>,
    ) -> Option<&'s Tuple> {
        let head = store.relation(&self.head_relation)?;
        Some(&head.get(key)?.tuple)
    }

    /// The head tuple currently derived for the group a source tuple
    /// belongs to, if any.
    pub fn current_output_for<'s>(&self, store: &'s Store, source: &Tuple) -> Option<&'s Tuple> {
        self.current_output(store, self.key_in(source)?)
    }

    /// Whether two source tuples belong to the same group.
    pub fn same_group(&self, a: &Tuple, b: &Tuple) -> bool {
        match (self.key_in(a), self.key_in(b)) {
            (Some(a), Some(b)) => a.eq(b),
            _ => false,
        }
    }

    /// Current aggregate value for the group a source tuple belongs to.
    pub fn current_for<'s>(&self, store: &'s Store, source: &Tuple) -> Option<&'s Value> {
        self.current_output_for(store, source)?.get(self.agg_pos)
    }

    /// Whether removing the source tuple `removed` can move `output`, its
    /// group's current output ([`AggregateView::current_output_for`]): for
    /// `min`/`max`, exactly when its value is not strictly worse than the
    /// current aggregate in [`Value`]'s order (the order `combine` folds
    /// with), so a removal of the reigning best or of a tie can, and any
    /// other cannot; always for `count`/`sum`, and for a tuple whose group
    /// has no output or that has no aggregated column.
    pub fn removal_can_move(&self, output: Option<&Tuple>, removed: &Tuple) -> bool {
        let current = output.and_then(|head| head.get(self.agg_pos));
        match (self.func, removed.get(self.value_col), current) {
            (AggFunc::Min, Some(value), Some(best)) => value <= best,
            (AggFunc::Max, Some(value), Some(best)) => value >= best,
            _ => true,
        }
    }

    /// The head relation's key of the group a source tuple belongs to, or
    /// `None` when the tuple is no input (another arity than the source
    /// atom).
    pub fn group_key(&self, source_tuple: &Tuple) -> Option<Vec<Value>> {
        Some(self.key_in(source_tuple)?.cloned().collect())
    }

    /// Map a head (output) tuple back to its group key, or `None` when the
    /// tuple cannot be an output of this view (wrong arity or mismatched
    /// constants).
    pub fn output_group_key(&self, head_tuple: &Tuple) -> Option<Vec<Value>> {
        let mut key = head_tuple.values().to_vec();
        if key.len() != self.key_fields.len() + 1 {
            return None;
        }
        key.remove(self.agg_pos);
        let constants_match = self
            .key_fields
            .iter()
            .zip(&key)
            .all(|(field, value)| !matches!(field, KeyField::Const(c) if c != value));
        constants_match.then_some(key)
    }

    /// The head tuple of the group with key `key` and aggregate
    /// `aggregate`: one allocation, of exactly the tuple's size.
    fn head_tuple<'v>(&self, key: impl IntoIterator<Item = &'v Value>, aggregate: &Value) -> Tuple {
        let mut key = key.into_iter();
        let field = |i: usize| match i == self.agg_pos {
            true => aggregate,
            false => key.next().expect("one value per key field"),
        };
        (0..=self.key_fields.len()).map(field).cloned().collect()
    }

    /// The aggregate of one group over the tuples currently stored in the
    /// source relation; `None` when the group has no input. The group
    /// columns are distinct source columns, so one probe on them finds
    /// exactly the group's inputs.
    fn fold_group<'v>(
        &self,
        store: &Store,
        key: impl Iterator<Item = &'v Value>,
        stats: &mut EvalStats,
    ) -> Option<Value> {
        let relation = store.relation(&self.source_relation)?;
        let key: Vec<&Value> = key.collect();
        let group = self
            .group_cols
            .iter()
            .map(|&(col, at)| (col, key[at].clone()));
        let (cols, vals): (Vec<usize>, Vec<Value>) = group.unzip();
        relation
            .lookup(&cols, &vals, u64::MAX, stats)
            .map(|stored| &stored.tuple)
            .filter(|tuple| tuple.arity() == self.source_arity)
            .filter_map(|tuple| tuple.get(self.value_col))
            .fold(None, |aggregate, value| {
                Some(combine(self.func, aggregate.as_ref(), value))
            })
    }

    /// Recompute one group from the store — how deletions reach a view.
    /// The DRed pass ([`crate::dred`]) removes source tuples (and the
    /// group's head output) from the store, then calls this for every group
    /// it touched; the new aggregate is returned as an insertion delta for
    /// the caller to ingest (the old output is already gone from the
    /// store). Returns `None` when no input survives.
    pub fn rebuild_group(
        &self,
        store: &Store,
        key: &[Value],
        stats: &mut EvalStats,
    ) -> Option<TupleDelta> {
        let aggregate = self.fold_group(store, key.iter(), stats)?;
        let tuple = self.head_tuple(key, &aggregate);
        Some(TupleDelta::insert(self.head_relation.clone(), tuple))
    }

    /// The (relation, bound-column signature) this view probes, if any: the
    /// source relation's group columns, which
    /// [`AggregateView::rebuild_group`] and a `sum` insertion look a group
    /// up on. Declared up front (like strand probe stages) so the fold is an
    /// index probe instead of a relation scan.
    pub fn index_requirements(&self) -> Option<(String, Vec<usize>)> {
        let cols: Vec<usize> = self.group_cols.iter().map(|&(col, _)| col).collect();
        (!cols.is_empty()).then(|| (self.source_relation.clone(), cols))
    }

    /// The head deltas a tuple that has just entered the store's
    /// `relation` calls for: nothing while its group's aggregate is
    /// unchanged, otherwise the retraction of the group's stored output (if
    /// it has one) and the assertion of the new. The view reads the store
    /// and writes nothing; the caller ingests the deltas.
    pub fn apply(&self, store: &Store, relation: &str, inserted: &Tuple) -> Vec<TupleDelta> {
        if relation != self.source_relation {
            return Vec::new();
        }
        let (Some(value), Some(key)) = (inserted.get(self.value_col), self.key_in(inserted)) else {
            return Vec::new();
        };
        let old_head = self.current_output(store, key.clone());
        let aggregate = match self.func {
            // Float addition does not commute with arrival order.
            AggFunc::Sum => self.fold_group(store, key.clone(), &mut EvalStats::default()),
            func => {
                let current = old_head.and_then(|head| head.get(self.agg_pos));
                Some(combine(func, current, value))
            }
        };
        let new_head = aggregate.map(|v| self.head_tuple(key, &v));
        if old_head == new_head.as_ref() {
            return Vec::new();
        }
        let retract =
            old_head.map(|old| TupleDelta::delete(self.head_relation.clone(), old.clone()));
        let assert = new_head.map(|new| TupleDelta::insert(self.head_relation.clone(), new));
        retract.into_iter().chain(assert).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use ndlog_lang::parse_program;

    const SP3: &str = "sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).";

    /// An evaluator for `src`, every aggregate head subscribed on its tap:
    /// a view's outputs enter the store the way they do in production.
    fn evaluator(src: &str) -> Evaluator {
        let mut eval = Evaluator::new(&parse_program(src).unwrap()).unwrap();
        let views = eval.views().to_vec();
        for view in views {
            eval.tap_mut().subscribe(view.head_relation().to_string());
        }
        eval
    }

    /// Apply one burst and run it to a fixpoint: the head relations'
    /// visibility transitions, in the order the store made them.
    fn burst(eval: &mut Evaluator, deltas: Vec<TupleDelta>) -> Vec<TupleDelta> {
        eval.update_batch(deltas).unwrap();
        eval.drain_tap()
    }

    fn insert(eval: &mut Evaluator, relation: &str, tuple: Tuple) -> Vec<TupleDelta> {
        burst(eval, vec![TupleDelta::insert(relation, tuple)])
    }

    fn remove(eval: &mut Evaluator, relation: &str, tuple: Tuple) -> Vec<TupleDelta> {
        burst(eval, vec![TupleDelta::delete(relation, tuple)])
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

    fn sp_cost(s: u32, d: u32, c: f64) -> Tuple {
        Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)])
    }

    /// `obs(@S, A, C)` at node 0.
    fn obs(a: i64, c: i64) -> Tuple {
        Tuple::new(vec![Value::addr(0u32), Value::Int(a), Value::Int(c)])
    }

    /// `rel(@0, value)`.
    fn at0(value: Value) -> Tuple {
        Tuple::new(vec![Value::addr(0u32), value])
    }

    #[test]
    fn min_improves_and_emits_replacement() {
        let mut eval = evaluator(SP3);
        let out = insert(&mut eval, "path", path(0, 1, 1, 5.0));
        assert_eq!(out, [TupleDelta::insert("spCost", sp_cost(0, 1, 5.0))]);

        // A worse path does not change the aggregate.
        assert!(insert(&mut eval, "path", path(0, 1, 2, 9.0)).is_empty());

        // A better path retracts the old aggregate and asserts the new one.
        let better = path(0, 1, 3, 2.0);
        let view = &eval.views()[0];
        let out = view.apply(eval.store(), "path", &better);
        let replacement = [
            TupleDelta::delete("spCost", sp_cost(0, 1, 5.0)),
            TupleDelta::insert("spCost", sp_cost(0, 1, 2.0)),
        ];
        assert_eq!(out, replacement);
        let out = insert(&mut eval, "path", better);
        assert_eq!(out, [replacement[1].clone(), replacement[0].clone()]);
        assert_eq!(eval.results("spCost"), [sp_cost(0, 1, 2.0)]);
        let view = &eval.views()[0];
        let current = view.current_for(eval.store(), &path(0, 1, 1, 0.0));
        assert_eq!(current, Some(&Value::Float(2.0)));
    }

    #[test]
    fn deletion_rederives_from_remaining_inputs() {
        let mut eval = evaluator(SP3);
        insert(&mut eval, "path", path(0, 1, 1, 5.0));
        insert(&mut eval, "path", path(0, 1, 2, 2.0));
        assert_eq!(eval.results("spCost"), [sp_cost(0, 1, 2.0)]);
        // Deleting the best path falls back to the next best.
        let out = remove(&mut eval, "path", path(0, 1, 2, 2.0));
        let fallback = [
            TupleDelta::delete("spCost", sp_cost(0, 1, 2.0)),
            TupleDelta::insert("spCost", sp_cost(0, 1, 5.0)),
        ];
        assert_eq!(out, fallback);
        assert_eq!(eval.results("spCost"), [sp_cost(0, 1, 5.0)]);
        // Deleting the last input retracts the aggregate entirely.
        let out = remove(&mut eval, "path", path(0, 1, 1, 5.0));
        assert_eq!(out, [TupleDelta::delete("spCost", sp_cost(0, 1, 5.0))]);
        assert!(eval.results("spCost").is_empty());
    }

    #[test]
    fn duplicate_values_are_multiset_counted() {
        let mut eval = evaluator(SP3);
        insert(&mut eval, "path", path(0, 1, 1, 3.0));
        insert(&mut eval, "path", path(0, 1, 2, 3.0));
        // Removing one of the two cost-3 paths keeps the aggregate at 3.
        remove(&mut eval, "path", path(0, 1, 1, 3.0));
        assert_eq!(eval.results("spCost"), [sp_cost(0, 1, 3.0)]);
        remove(&mut eval, "path", path(0, 1, 2, 3.0));
        assert!(eval.results("spCost").is_empty());
    }

    #[test]
    fn groups_are_independent() {
        let mut eval = evaluator(SP3);
        let a = insert(&mut eval, "path", path(0, 1, 1, 5.0));
        let b = insert(&mut eval, "path", path(0, 2, 1, 7.0));
        assert_eq!(a, [TupleDelta::insert("spCost", sp_cost(0, 1, 5.0))]);
        assert_eq!(b, [TupleDelta::insert("spCost", sp_cost(0, 2, 7.0))]);
        assert_eq!(eval.results("spCost").len(), 2);
    }

    #[test]
    fn deleting_unseen_value_is_ignored() {
        let mut eval = evaluator(SP3);
        insert(&mut eval, "path", path(0, 1, 1, 5.0));
        // A tuple the store never held leaves the group as it was.
        assert!(remove(&mut eval, "path", path(0, 1, 9, 4.0)).is_empty());
        assert_eq!(eval.results("spCost"), [sp_cost(0, 1, 5.0)]);
    }

    #[test]
    fn max_count_and_sum_aggregates() {
        let mut eval = evaluator(
            "m best(@S, max<C>) :- obs(@S, C).
             s total(@S, sum<C>) :- obs(@S, C).
             c deg(@S, count<D>) :- edge(@S, @D).",
        );
        for c in [3, 9, 4] {
            insert(&mut eval, "obs", at0(Value::Int(c)));
        }
        assert_eq!(eval.results("best"), [at0(Value::Int(9))]);
        assert_eq!(eval.results("total"), [at0(Value::Float(16.0))]);
        let edge = |d: u32| Tuple::new(vec![Value::addr(0u32), Value::addr(d)]);
        insert(&mut eval, "edge", edge(1));
        insert(&mut eval, "edge", edge(2));
        assert_eq!(eval.results("deg"), [at0(Value::Int(2))]);
        remove(&mut eval, "edge", edge(1));
        assert_eq!(eval.results("deg"), [at0(Value::Int(1))]);
    }

    /// A guard is part of the split rule's body, so it is maintained like
    /// any join input: one that arrives after the source admits it, and
    /// one that leaves retracts what it admitted.
    #[test]
    fn guard_atoms_filter_source_deltas() {
        let mut eval =
            evaluator("sd3 spCost(@D,@S,min<C>) :- magicDst(@D), pathDst(@D,@S,@Z,P,C).");
        assert_eq!(eval.views()[0].source_relation(), "spCost_sd3_ag");
        let pd = |d: u32, z: u32, c: f64| {
            Tuple::new(vec![
                Value::addr(d),
                Value::addr(0u32),
                Value::addr(z),
                Value::nil(),
                Value::Float(c),
            ])
        };
        let magic = || Tuple::new(vec![Value::addr(1u32)]);
        // No magicDst entry: the delta is filtered out.
        assert!(insert(&mut eval, "pathDst", pd(1, 1, 4.0)).is_empty());
        // A late guard admits the path already stored.
        let out = insert(&mut eval, "magicDst", magic());
        assert_eq!(out, [TupleDelta::insert("spCost", sp_cost(1, 0, 4.0))]);
        let out = insert(&mut eval, "pathDst", pd(1, 2, 3.0));
        assert_eq!(
            out,
            [
                TupleDelta::insert("spCost", sp_cost(1, 0, 3.0)),
                TupleDelta::delete("spCost", sp_cost(1, 0, 4.0)),
            ]
        );
        // A different destination still has no magic entry.
        assert!(insert(&mut eval, "pathDst", pd(2, 1, 4.0)).is_empty());
        // Deleting the guard retracts its group's output.
        let out = remove(&mut eval, "magicDst", magic());
        assert_eq!(out, [TupleDelta::delete("spCost", sp_cost(1, 0, 3.0))]);
        assert!(eval.results("spCost").is_empty());
    }

    #[test]
    fn a_source_constant_selects_the_inputs_without_a_guard() {
        let mut eval = evaluator("c cnt(@S, count<C>) :- obs(@S, 1, C).");
        for (a, c) in [(1, 5), (2, 7), (1, 9)] {
            insert(&mut eval, "obs", obs(a, c));
        }
        assert_eq!(eval.results("cnt"), [at0(Value::Int(2))]);
        // A rebuild folds the same inputs.
        remove(&mut eval, "obs", obs(1, 9));
        assert_eq!(eval.results("cnt"), [at0(Value::Int(1))]);
    }

    #[test]
    fn a_repeated_source_variable_selects_the_inputs_without_a_guard() {
        let mut eval = evaluator("m same(@S, max<C>) :- obs(@S, C, C).");
        for (a, c) in [(1, 5), (2, 7), (1, 9)] {
            assert!(insert(&mut eval, "obs", obs(a, c)).is_empty());
        }
        let out = insert(&mut eval, "obs", obs(4, 4));
        assert_eq!(out, [TupleDelta::insert("same", at0(Value::Int(4)))]);
        // A rebuild folds the same inputs: none is left.
        remove(&mut eval, "obs", obs(4, 4));
        assert!(eval.results("same").is_empty());
    }

    /// A source tuple derived twice — by two rules in one burst — is one
    /// input of its group: the duplicate refreshes the group's output and
    /// moves nothing, and only the removal of its last support retracts it.
    #[test]
    fn a_source_derived_by_two_rules_is_one_input() {
        let mut eval = evaluator(
            "o1 obs(@S, K, C) :- a(@S, K, C).
             o2 obs(@S, K, C) :- b(@S, K, C).
             l low(@S, min<C>) :- obs(@S, K, C).
             n cnt(@S, count<C>) :- obs(@S, K, C).",
        );
        let row = |k: i64, c: i64| obs(k, c);
        let out = burst(
            &mut eval,
            vec![
                TupleDelta::insert("a", row(1, 7)),
                TupleDelta::insert("b", row(1, 7)),
                TupleDelta::insert("a", row(2, 3)),
            ],
        );
        assert_eq!(
            eval.store()
                .relation("obs")
                .unwrap()
                .get_by_key_of(&row(1, 7))
                .unwrap()
                .count,
            2
        );
        assert_eq!(eval.results("low"), [at0(Value::Int(3))]);
        assert_eq!(eval.results("cnt"), [at0(Value::Int(2))]);
        assert!(out.contains(&TupleDelta::insert("low", at0(Value::Int(3)))));
        remove(&mut eval, "a", row(2, 3));
        assert_eq!(eval.results("low"), [at0(Value::Int(7))]);
        assert_eq!(eval.results("cnt"), [at0(Value::Int(1))]);
        // `b` still derives obs(1, 7).
        remove(&mut eval, "a", row(1, 7));
        assert_eq!(eval.results("low"), [at0(Value::Int(7))]);
        assert_eq!(eval.results("cnt"), [at0(Value::Int(1))]);
        remove(&mut eval, "b", row(1, 7));
        assert!(eval.results("low").is_empty());
        assert!(eval.results("cnt").is_empty());
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
        let mut eval = evaluator(&format!(
            "w x(@A,B,C,D,E,F,G,H,I,min<V>) :- p(@A,B,C,D,E,F,G,H,I,V). {SP3}"
        ));
        for (v, c) in [(1, 7), (2, 9), (1, 4)] {
            insert(&mut eval, "p", wide(v, c));
        }
        insert(&mut eval, "path", path(0, 1, 1, 5.0));
        let (store, nine, two) = (eval.store(), &eval.views()[0], &eval.views()[1]);
        assert_eq!(store.count("x"), 2);
        assert_eq!(nine.current_for(store, &wide(1, 0)), Some(&Value::Int(4)));
        assert_eq!(nine.current_for(store, &wide(2, 0)), Some(&Value::Int(9)));
        assert_eq!(nine.current_for(store, &wide(3, 0)), None);
        let key = nine.group_key(&wide(2, 0)).unwrap();
        assert_eq!(key.len(), 9);
        assert_eq!(
            nine.current_output(store, &key),
            nine.current_output_for(store, &wide(2, 5))
        );
        let output = nine.current_output(store, &key).unwrap();
        assert_eq!(nine.output_group_key(output), Some(key));

        let short = Tuple::new(vec![Value::addr(0u32)]);
        assert_eq!(two.group_key(&short), None);
        assert_eq!(two.current_for(store, &short), None);
        assert_eq!(two.current_output_for(store, &short), None);
        assert!(two.apply(store, "path", &short).is_empty());
    }

    #[test]
    fn other_relations_are_ignored() {
        let eval = evaluator(SP3);
        let out = eval.views()[0].apply(eval.store(), "link", &path(0, 1, 1, 5.0));
        assert!(out.is_empty());
    }
}
