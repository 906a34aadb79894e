//! Rule strands: compiled delta rules and their firing logic.
//!
//! A strand corresponds to one box-chain in P2's dataflow (Figures 3 and 5
//! of the paper): it is triggered by a delta of one body predicate, joins
//! the delta against the locally stored tables of the other body
//! predicates, evaluates assignments and filters, and emits derivations of
//! the head — each tagged with the network location (the head's location
//! specifier) where it must be stored.
//!
//! Deletions flow through the same machinery, but as the *over-delete*
//! phase of a DRed pass (see [`crate::dred`]): firing a strand with a
//! deletion delta derives the deletions of every tuple derivable from the
//! deleted tuple, the whole closure is removed outright, and survivors are
//! restored by re-derivation against the post-removal store. Derivation
//! counts — which SN/BSN over-counting and primary-key replacements can
//! make inexact — are deliberately never consulted on the deletion path.
//!
//! # Probe plans
//!
//! Joining an atom used to mean scanning its whole relation once per
//! binding environment. Compilation now analyzes, per body atom, which of
//! its columns are already bound when the join runs — constants, variables
//! bound by the trigger atom, by earlier atoms, or by earlier assignments —
//! and records the result as a fixed [`ProbePlan`]. At runtime the plan
//! resolves its bound columns against the environment and probes the
//! relation's secondary index for that signature (see [`crate::index`]),
//! touching only the matching tuples; the full scan survives solely as the
//! fallback for atoms with no bound columns (a genuine cross product) or
//! relations without the declared index. [`CompiledStrand::index_requirements`]
//! exposes every signature a strand needs so stores build each index once
//! per program, not per join.

use crate::expr::{eval, eval_bool, Bindings, EvalError};
use crate::store::Store;
use crate::tuple::{Tuple, TupleDelta};
use ndlog_lang::seminaive::{delta_rewrite_full, DeltaRule};
use ndlog_lang::{Atom, Literal, Program, Term, Value};
use ndlog_net::NodeAddr;
use std::collections::BTreeSet;

/// A derivation produced by firing a strand.
#[derive(Debug, Clone, PartialEq)]
pub struct Derivation {
    /// The derived (or un-derived) head tuple.
    pub delta: TupleDelta,
    /// Where the head tuple lives: the value of its location specifier.
    /// `None` when the first head field is not an address (possible in
    /// plain-Datalog test programs).
    pub location: Option<NodeAddr>,
}

/// How one bound column of a probe obtains its value at runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSource {
    /// The atom carries a constant in this column.
    Const(Value),
    /// The column's variable is bound by the environment (trigger atom,
    /// an earlier atom, or an earlier assignment).
    Var(String),
}

/// A precompiled access path for one body atom: the columns that are
/// provably bound when the join runs, and how to resolve each one.
///
/// `cols` is sorted ascending and `sources` is parallel to it, so the
/// resolved values line up with the relation's index on the same
/// signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePlan {
    /// Sorted bound-column indexes (the index signature to probe).
    pub cols: Vec<usize>,
    /// Value source per bound column, parallel to `cols`.
    pub sources: Vec<ColumnSource>,
}

pub use crate::index::JoinStats;

/// A compiled rule strand.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStrand {
    rule: DeltaRule,
    /// Per body literal: the probe plan for non-trigger atoms with at least
    /// one bound column, `None` for the trigger, non-atom literals and
    /// genuinely unbound atoms.
    plans: Vec<Option<ProbePlan>>,
    /// The slot-compiled twin of the rule, used by the batch-delta path
    /// ([`CompiledStrand::fire_batch`]).
    batch: crate::batch::BatchPlan,
    /// A key-bound re-derivation plan ([`crate::dred::rederivation_plan`]):
    /// fired by DRed passes with over-deleted tuples of its own head
    /// relation, never by a delta of its trigger relation.
    rederives: bool,
}

impl CompiledStrand {
    /// Compile a delta rule into a strand, deriving a probe plan for every
    /// non-trigger body atom and a slot-compiled batch plan over the same
    /// plans.
    pub fn new(rule: DeltaRule) -> Self {
        Self::compile(rule, false)
    }

    pub(crate) fn compile(rule: DeltaRule, rederives: bool) -> Self {
        let plans = compile_probe_plans(&rule);
        let batch = crate::batch::compile(&rule, &plans);
        CompiledStrand {
            rule,
            plans,
            batch,
            rederives,
        }
    }

    /// Everything that fires for `program`'s rules (none of them
    /// aggregate-headed): the strands of the full delta rewrite, then one
    /// re-derivation plan per rule. Compiled once per program; every site
    /// running it shares the result.
    pub fn compile_program(program: &Program) -> Vec<CompiledStrand> {
        let forward = delta_rewrite_full(program)
            .into_iter()
            .map(CompiledStrand::new);
        let rules = program.rules.iter().filter(|rule| !rule.is_fact());
        let rederive = rules.map(|rule| crate::dred::rederivation_plan(program, rule));
        forward.chain(rederive).collect()
    }

    /// Whether this is a re-derivation plan, not a strand of the delta
    /// rewrite.
    pub fn is_rederivation(&self) -> bool {
        self.rederives
    }

    /// The probe plans, parallel to the rule's body literals (useful for
    /// inspection in tests and planners).
    pub fn probe_plans(&self) -> &[Option<ProbePlan>] {
        &self.plans
    }

    /// Every (relation, bound-column signature) this strand probes. Stores
    /// declare these up front so each index is built once per program.
    pub fn index_requirements(&self) -> Vec<(String, Vec<usize>)> {
        let mut out = Vec::new();
        for (idx, plan) in self.plans.iter().enumerate() {
            let (Some(plan), Some(Literal::Atom(atom))) = (plan, self.rule.rule.body.get(idx))
            else {
                continue;
            };
            out.push((atom.name.clone(), plan.cols.clone()));
        }
        out
    }

    /// The strand identifier (e.g. `sp2b-1`).
    pub fn id(&self) -> &str {
        &self.rule.strand_id
    }

    /// The relation whose deltas trigger this strand.
    pub fn trigger_relation(&self) -> &str {
        &self.rule.trigger_relation
    }

    /// The label of the rule this strand implements.
    pub fn rule_label(&self) -> &str {
        &self.rule.rule.label
    }

    /// The head relation this strand derives.
    pub fn head_relation(&self) -> &str {
        &self.rule.rule.head.name
    }

    /// Fire the strand with a trigger delta.
    ///
    /// `seq_limit` bounds which stored tuples the joins may see: pipelined
    /// semi-naive evaluation passes the trigger tuple's timestamp so that
    /// joins only match "same or older" tuples (Section 3.3.2, the
    /// book-keeping that guarantees no repeated inferences); the
    /// unrestricted evaluators pass `u64::MAX`.
    pub fn fire(
        &self,
        store: &Store,
        trigger: &TupleDelta,
        seq_limit: u64,
    ) -> Result<Vec<Derivation>, EvalError> {
        let mut stats = JoinStats::default();
        self.fire_counted(store, trigger, seq_limit, &mut stats)
    }

    /// [`CompiledStrand::fire`] with join accounting: probe/scan/examined
    /// counters are accumulated into `stats`.
    pub fn fire_counted(
        &self,
        store: &Store,
        trigger: &TupleDelta,
        seq_limit: u64,
        stats: &mut JoinStats,
    ) -> Result<Vec<Derivation>, EvalError> {
        debug_assert_eq!(trigger.relation, self.rule.trigger_relation);
        let rule = &self.rule.rule;
        let Literal::Atom(trigger_atom) = &rule.body[self.rule.trigger] else {
            return Ok(Vec::new());
        };

        // Bind the trigger atom against the delta tuple.
        let mut initial = Bindings::new();
        if !bind_atom(trigger_atom, &trigger.tuple, &mut initial) {
            return Ok(Vec::new());
        }

        // Process the remaining literals in body order.
        let mut envs = vec![initial];
        for (idx, literal) in rule.body.iter().enumerate() {
            if idx == self.rule.trigger {
                continue;
            }
            if envs.is_empty() {
                return Ok(Vec::new());
            }
            match literal {
                Literal::Atom(atom) => {
                    envs = probe_atom(
                        store,
                        atom,
                        self.plans[idx].as_ref(),
                        &envs,
                        seq_limit,
                        stats,
                    );
                }
                Literal::Assign(assign) => {
                    let mut next = Vec::with_capacity(envs.len());
                    for mut env in envs {
                        let value = eval(&assign.expr, &env)?;
                        match env.get(&assign.var) {
                            Some(existing) if *existing == value => next.push(env),
                            Some(_) => {} // bound to a different value: drop
                            None => {
                                env.insert(assign.var.clone(), value);
                                next.push(env);
                            }
                        }
                    }
                    envs = next;
                }
                Literal::Filter(expr) => {
                    let mut next = Vec::with_capacity(envs.len());
                    for env in envs {
                        if eval_bool(expr, &env)? {
                            next.push(env);
                        }
                    }
                    envs = next;
                }
            }
        }

        // Project the head for every surviving binding.
        let mut out = Vec::with_capacity(envs.len());
        for env in envs {
            let tuple = project_head(&rule.head, &env)?;
            let location = tuple.location();
            out.push(Derivation {
                delta: TupleDelta {
                    relation: self.batch.head_relation().clone(),
                    tuple,
                    sign: trigger.sign,
                },
                location,
            });
        }
        Ok(out)
    }

    /// Fire the strand with a whole batch of trigger deltas through the
    /// slot-compiled plan and flat reusable buffers of [`crate::batch`],
    /// with **key-grouped probe sharing**: each distinct probe key of the
    /// batch is looked up once per atom and the match set broadcast to
    /// every same-key trigger. Per trigger, the derivations (grouped in
    /// `out`) are identical to calling [`CompiledStrand::fire_counted`]
    /// with that trigger and its `seq_limit` against the same store, and
    /// so are the *logical* join statistics (`logical_probes`, `scans`,
    /// `tuples_examined`); only `distinct_probes` shrinks to the number of
    /// bucket lookups actually executed. See the [`crate::batch`] module
    /// docs for the exact equivalence contract.
    ///
    /// With a cross-rule probe `cache` ([`crate::subplan`]), probe stages
    /// whose `(relation, cols)` signature is armed in it fetch their
    /// candidates through it, so a `(relation, cols, key)` bucket lookup
    /// executes once per round no matter how many strands share it.
    /// Derivations and the logical join statistics are unchanged; only
    /// `distinct_probes` shrinks further (cache hits execute no lookup),
    /// and single-trigger batches also take the grouped arm so their
    /// probes participate in the sharing.
    pub fn fire_batch<'r>(
        &self,
        store: &'r Store,
        triggers: &[crate::batch::BatchTrigger],
        stats: &mut JoinStats,
        scratch: &mut crate::batch::BatchScratch,
        out: &mut crate::batch::BatchOutput,
        cache: Option<&mut crate::subplan::ProbeCache<'r>>,
    ) -> Result<(), EvalError> {
        debug_assert!(triggers
            .iter()
            .all(|t| t.delta.relation == self.rule.trigger_relation));
        self.batch
            .fire_batch(store, triggers, stats, scratch, out, cache)
    }
}

/// Bind an atom's terms against a concrete tuple, extending `env`.
/// Returns false if the tuple does not match (wrong arity, constant
/// mismatch, or inconsistent repeated variables).
pub fn bind_atom(atom: &Atom, tuple: &Tuple, env: &mut Bindings) -> bool {
    if atom.arity() != tuple.arity() {
        return false;
    }
    for (term, value) in atom.args.iter().zip(tuple.values()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return false;
                }
            }
            Term::Var(v) => match env.get(&v.name) {
                Some(bound) if bound != value => return false,
                Some(_) => {}
                None => {
                    env.insert(v.name.clone(), value.clone());
                }
            },
            Term::Agg(_) => return false,
        }
    }
    true
}

/// Compile the probe plans for a delta rule: walk the body in firing order
/// tracking which variables are bound, and record the bound columns of
/// every non-trigger atom.
fn compile_probe_plans(rule: &DeltaRule) -> Vec<Option<ProbePlan>> {
    let body = &rule.rule.body;
    let mut plans: Vec<Option<ProbePlan>> = vec![None; body.len()];
    let mut bound: BTreeSet<String> = BTreeSet::new();
    if let Some(Literal::Atom(trigger_atom)) = body.get(rule.trigger) {
        collect_vars(trigger_atom, &mut bound);
    }
    for (idx, literal) in body.iter().enumerate() {
        if idx == rule.trigger {
            continue;
        }
        match literal {
            Literal::Atom(atom) => {
                let mut cols = Vec::new();
                let mut sources = Vec::new();
                for (i, term) in atom.args.iter().enumerate() {
                    match term {
                        Term::Const(c) => {
                            cols.push(i);
                            sources.push(ColumnSource::Const(c.clone()));
                        }
                        Term::Var(v) if bound.contains(&v.name) => {
                            cols.push(i);
                            sources.push(ColumnSource::Var(v.name.clone()));
                        }
                        // Unbound variables (including the first occurrence
                        // of a variable repeated within this atom) and
                        // aggregate terms are matched residually by
                        // `bind_atom`.
                        Term::Var(_) | Term::Agg(_) => {}
                    }
                }
                if !cols.is_empty() {
                    plans[idx] = Some(ProbePlan { cols, sources });
                }
                collect_vars(atom, &mut bound);
            }
            Literal::Assign(assign) => {
                bound.insert(assign.var.clone());
            }
            Literal::Filter(_) => {}
        }
    }
    plans
}

/// Add every variable an atom mentions to `bound`.
fn collect_vars(atom: &Atom, bound: &mut BTreeSet<String>) {
    for term in &atom.args {
        if let Term::Var(v) = term {
            bound.insert(v.name.clone());
        }
    }
}

/// Join an atom against the store for every environment, producing the
/// extended environments. Uses the precompiled probe plan (index probe on
/// the bound-column signature) when available, falling back to a residual
/// scan otherwise.
fn probe_atom(
    store: &Store,
    atom: &Atom,
    plan: Option<&ProbePlan>,
    envs: &[Bindings],
    seq_limit: u64,
    stats: &mut JoinStats,
) -> Vec<Bindings> {
    let Some(relation) = store.relation(&atom.name) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut key: Vec<Value> = Vec::new();
    for env in envs {
        let resolved = match plan {
            Some(plan) => {
                key.clear();
                plan.sources.iter().all(|source| match source {
                    ColumnSource::Const(c) => {
                        key.push(c.clone());
                        true
                    }
                    ColumnSource::Var(name) => match env.get(name) {
                        Some(v) => {
                            key.push(v.clone());
                            true
                        }
                        None => false,
                    },
                })
            }
            None => false,
        };
        // With a resolved plan, probe (or residual-scan) on its bound
        // columns; otherwise — no bound columns, or an unresolvable plan,
        // which compilation rules out — fall back to a full scan, with
        // `bind_atom` enforcing all residual constraints either way.
        let cols: &[usize] = if resolved {
            &plan.expect("resolved implies a plan").cols
        } else {
            key.clear();
            &[]
        };
        for candidate in relation.lookup(cols, &key, seq_limit, stats) {
            let mut extended = env.clone();
            if bind_atom(atom, &candidate.tuple, &mut extended) {
                out.push(extended);
            }
        }
    }
    out
}

/// Project a head atom into a tuple under the given bindings.
pub fn project_head(head: &Atom, env: &Bindings) -> Result<Tuple, EvalError> {
    let mut values = Vec::with_capacity(head.arity());
    for term in &head.args {
        match term {
            Term::Const(c) => values.push(c.clone()),
            Term::Var(v) => values.push(
                env.get(&v.name)
                    .cloned()
                    .ok_or_else(|| EvalError::UnboundVariable(v.name.clone()))?,
            ),
            Term::Agg(_) => {
                return Err(EvalError::TypeMismatch {
                    context: "aggregate heads are maintained by AggregateView, not strands".into(),
                })
            }
        }
    }
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationSchema;
    use ndlog_lang::seminaive::delta_rewrite_full;
    use ndlog_lang::{parse_program, Value};

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    /// Build a store + strands for a small program.
    fn setup(src: &str) -> (Store, Vec<CompiledStrand>) {
        let program = parse_program(src).unwrap();
        let store = Store::for_program(&program);
        let strands = delta_rewrite_full(&program)
            .into_iter()
            .map(CompiledStrand::new)
            .collect();
        (store, strands)
    }

    const ONE_HOP: &str = r#"
        sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C),
            P := f_cons(S, f_cons(D, nil)).
    "#;

    #[test]
    fn one_hop_path_derivation() {
        let (store, strands) = setup(ONE_HOP);
        let strand = &strands[0];
        assert_eq!(strand.trigger_relation(), "link");
        assert_eq!(strand.head_relation(), "path");

        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(5)]));
        let derivations = strand.fire(&store, &link, u64::MAX).unwrap();
        assert_eq!(derivations.len(), 1);
        let d = &derivations[0];
        assert_eq!(d.delta.relation, "path");
        assert_eq!(d.location, Some(NodeAddr(0)));
        let t = &d.delta.tuple;
        assert_eq!(t.get(0), Some(&addr(0)));
        assert_eq!(t.get(1), Some(&addr(1)));
        assert_eq!(t.get(2), Some(&addr(1)));
        assert_eq!(t.get(3), Some(&Value::list(vec![addr(0), addr(1)])));
        assert_eq!(t.get(4), Some(&Value::Int(5)));
    }

    #[test]
    fn deletion_trigger_produces_deletion_derivation() {
        let (store, strands) = setup(ONE_HOP);
        let link = TupleDelta::delete("link", Tuple::new(vec![addr(0), addr(1), Value::Int(5)]));
        let derivations = strands[0].fire(&store, &link, u64::MAX).unwrap();
        assert_eq!(derivations.len(), 1);
        assert_eq!(derivations[0].delta.sign, crate::tuple::Sign::Delete);
    }

    const TWO_HOP: &str = r#"
        sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
            f_member(P2, S) == 0, C := C1 + C2, P := f_cons(S, P2).
    "#;

    #[test]
    fn join_against_stored_relation() {
        let (mut store, strands) = setup(TWO_HOP);
        // Store a path from node 1 to node 2.
        let p12 = Tuple::new(vec![
            addr(1),
            addr(2),
            addr(2),
            Value::list(vec![addr(1), addr(2)]),
            Value::Int(3),
        ]);
        store.apply(&TupleDelta::insert("path", p12));

        // A link 0 -> 1 arrives: the strand triggered by link should derive
        // the two-hop path 0 -> 2.
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)]));
        let out = link_strand.fire(&store, &link, u64::MAX).unwrap();
        assert_eq!(out.len(), 1);
        let t = &out[0].delta.tuple;
        assert_eq!(t.get(0), Some(&addr(0)));
        assert_eq!(t.get(1), Some(&addr(2)));
        assert_eq!(t.get(4), Some(&Value::Int(7)));
        assert_eq!(
            t.get(3),
            Some(&Value::list(vec![addr(0), addr(1), addr(2)]))
        );
        assert_eq!(out[0].location, Some(NodeAddr(0)));
    }

    #[test]
    fn cycle_filter_prunes_matches() {
        let (mut store, strands) = setup(TWO_HOP);
        // Path 1 -> 0 that already contains node 0.
        let p10 = Tuple::new(vec![
            addr(1),
            addr(0),
            addr(0),
            Value::list(vec![addr(1), addr(0)]),
            Value::Int(3),
        ]);
        store.apply(&TupleDelta::insert("path", p10));
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        // link 0 -> 1 would close the cycle 0 -> 1 -> 0; f_member filters it.
        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)]));
        let out = link_strand.fire(&store, &link, u64::MAX).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn path_trigger_joins_stored_links() {
        let (mut store, strands) = setup(TWO_HOP);
        store.apply(&TupleDelta::insert(
            "link",
            Tuple::new(vec![addr(0), addr(1), Value::Int(4)]),
        ));
        let path_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "path")
            .unwrap();
        let p12 = TupleDelta::insert(
            "path",
            Tuple::new(vec![
                addr(1),
                addr(2),
                addr(2),
                Value::list(vec![addr(1), addr(2)]),
                Value::Int(3),
            ]),
        );
        let out = path_strand.fire(&store, &p12, u64::MAX).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].delta.tuple.get(4), Some(&Value::Int(7)));
    }

    #[test]
    fn seq_limit_hides_newer_tuples() {
        let (mut store, strands) = setup(TWO_HOP);
        let link_effect = store.apply(&TupleDelta::insert(
            "link",
            Tuple::new(vec![addr(0), addr(1), Value::Int(4)]),
        ));
        // The path tuple arrives *after* the link.
        let p12 = TupleDelta::insert(
            "path",
            Tuple::new(vec![
                addr(1),
                addr(2),
                addr(2),
                Value::list(vec![addr(1), addr(2)]),
                Value::Int(3),
            ]),
        );
        store.apply(&p12);

        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)]));
        // Firing with the link's own (older) timestamp must not see the
        // newer path tuple — that derivation belongs to the path-triggered
        // strand, which is exactly how PSN avoids duplicate inferences.
        let out = link_strand.fire(&store, &link, link_effect.seq).unwrap();
        assert!(out.is_empty());
        let out = link_strand.fire(&store, &link, u64::MAX).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn constant_argument_filters_trigger() {
        let (store, strands) = setup("r1 hit(@S) :- probe(@S, 7).");
        let strand = &strands[0];
        let ok = TupleDelta::insert("probe", Tuple::new(vec![addr(3), Value::Int(7)]));
        assert_eq!(strand.fire(&store, &ok, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("probe", Tuple::new(vec![addr(3), Value::Int(8)]));
        assert!(strand.fire(&store, &miss, u64::MAX).unwrap().is_empty());
        let wrong_arity = TupleDelta::insert("probe", Tuple::new(vec![addr(3)]));
        assert!(strand
            .fire(&store, &wrong_arity, u64::MAX)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let (store, strands) = setup("r1 selfloop(@S) :- edge(@S, @S).");
        let strand = &strands[0];
        let hit = TupleDelta::insert("edge", Tuple::new(vec![addr(1), addr(1)]));
        assert_eq!(strand.fire(&store, &hit, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("edge", Tuple::new(vec![addr(1), addr(2)]));
        assert!(strand.fire(&store, &miss, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn assignment_conflict_drops_binding() {
        // C is bound by the atom and then re-asserted by an assignment; a
        // mismatch must drop the derivation, a match must keep it.
        let (store, strands) = setup("r1 out(@S, C) :- q(@S, C), C := 5.");
        let strand = &strands[0];
        let hit = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(5)]));
        assert_eq!(strand.fire(&store, &hit, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(6)]));
        assert!(strand.fire(&store, &miss, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn probe_plans_capture_bound_columns() {
        let (_, strands) = setup(TWO_HOP);
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        // Triggered by #link(@S,@Z,C1): the path(@Z,@D,@Z2,P2,C2) atom has
        // exactly its first column bound (Z), everything else free.
        let reqs = link_strand.index_requirements();
        assert_eq!(reqs, vec![("path".to_string(), vec![0])]);
        let plan = link_strand
            .probe_plans()
            .iter()
            .flatten()
            .next()
            .expect("the path atom has a plan");
        assert_eq!(plan.cols, vec![0]);
        assert_eq!(plan.sources, vec![ColumnSource::Var("Z".to_string())]);

        // Triggered by path, the #link(@S,@Z,C1) atom has column 1 bound.
        let path_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "path")
            .unwrap();
        assert_eq!(
            path_strand.index_requirements(),
            vec![("link".to_string(), vec![1])]
        );
    }

    #[test]
    fn probe_plans_include_constants_and_assigned_vars() {
        let (_, strands) = setup("r1 out(@S) :- q(@S, X), Y := X + 1, w(@S, Y, 7).");
        let q_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "q")
            .unwrap();
        let reqs = q_strand.index_requirements();
        // w's columns: 0 (S, bound by trigger), 1 (Y, bound by the
        // assignment), 2 (the constant 7).
        assert_eq!(reqs, vec![("w".to_string(), vec![0, 1, 2])]);
    }

    #[test]
    fn probed_join_matches_scan_results() {
        // The same join fired with and without the index declared must
        // produce identical derivations (the index is purely an access
        // path).
        let (mut store, strands) = setup(TWO_HOP);
        for d in 2..30u32 {
            store.apply(&TupleDelta::insert(
                "path",
                Tuple::new(vec![
                    addr(1),
                    addr(d),
                    addr(d),
                    Value::list(vec![addr(1), addr(d)]),
                    Value::Int(3),
                ]),
            ));
        }
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)]));

        let mut scan_stats = JoinStats::default();
        let scanned = link_strand
            .fire_counted(&store, &link, u64::MAX, &mut scan_stats)
            .unwrap();
        assert!(scan_stats.scans > 0 && scan_stats.logical_probes == 0);

        store.declare_indexes(strands.iter());
        let mut probe_stats = JoinStats::default();
        let probed = link_strand
            .fire_counted(&store, &link, u64::MAX, &mut probe_stats)
            .unwrap();
        assert_eq!(scanned, probed);
        assert_eq!(probed.len(), 28);
        assert!(probe_stats.logical_probes > 0 && probe_stats.scans == 0);
        assert_eq!(
            probe_stats.logical_probes, probe_stats.distinct_probes,
            "tuple-at-a-time probes are never shared"
        );
        assert!(
            probe_stats.tuples_examined <= scan_stats.tuples_examined,
            "probing must not examine more than scanning"
        );
    }

    /// One row of the differential table of
    /// [`fire_batch_matches_fire_per_trigger`].
    struct Case {
        shape: &'static str,
        rule: &'static str,
        /// The relation whose deltas fire the strand under test.
        trigger: &'static str,
        /// The stored tuples, applied in order: their timestamps are 1, 2, …
        /// `None` builds a store that lacks the probed relation altogether.
        stored: Option<Vec<(&'static str, Tuple)>>,
        /// The batch: sign, trigger tuple, visibility limit. Its first
        /// trigger alone is the one-trigger batch.
        batch: Vec<(crate::tuple::Sign, Tuple, u64)>,
        /// Distinct (probe stage, key) pairs the one-trigger batch and the
        /// whole batch look up in an index — what `distinct_probes` must
        /// read, cache or no cache.
        keys: [usize; 2],
        /// Derivations per trigger of the whole batch.
        derived: Vec<usize>,
    }

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    fn tuple(fields: &[Value]) -> Tuple {
        Tuple::new(fields.to_vec())
    }

    fn cases() -> Vec<Case> {
        use crate::tuple::Sign::{Delete, Insert};
        const ALL: u64 = u64::MAX;
        // t(@S, K, W): three rows under key (0, 1) — the last of them the
        // newest row of all — and one under (0, 2).
        let t = || {
            vec![
                ("t", tuple(&[addr(0), int(1), int(100)])),
                ("t", tuple(&[addr(0), int(1), int(101)])),
                ("t", tuple(&[addr(0), int(2), int(200)])),
                ("t", tuple(&[addr(0), int(1), int(102)])),
            ]
        };
        let q = |s: u32, k: i64, v: i64| tuple(&[addr(s), int(k), int(v)]);
        // Four triggers over the two keys (0, 1) and (0, 2), both signs,
        // two of them blind to the rows stored after the second.
        let over_t = || {
            vec![
                (Insert, q(0, 1, 10), ALL),
                (Delete, q(0, 2, 20), ALL),
                (Insert, q(0, 1, 11), 2),
                (Delete, q(0, 2, 21), 2),
            ]
        };
        let two_hop_paths = (2..12u32)
            .map(|d| {
                let path = [
                    addr(1),
                    addr(d),
                    addr(d),
                    Value::list(vec![addr(1), addr(d)]),
                    int(3),
                ];
                ("path", tuple(&path))
            })
            .collect();
        let link = |s: u32, z: u32, c: i64| tuple(&[addr(s), addr(z), int(c)]);
        vec![
            Case {
                // A matching insert, a deletion, a dead-end link and a
                // repeat of the first that sees only the five oldest
                // paths; the cycle filter drops path(1, 7) for node 7.
                shape: "probe, filter, two fresh assignments",
                rule: TWO_HOP,
                trigger: "link",
                stored: Some(two_hop_paths),
                batch: vec![
                    (Insert, link(0, 1, 4), ALL),
                    (Delete, link(7, 1, 9), ALL),
                    (Insert, link(0, 99, 1), ALL),
                    (Insert, link(0, 1, 4), 5),
                ],
                keys: [1, 2],
                derived: vec![10, 9, 0, 5],
            },
            Case {
                shape: "no non-trigger literal",
                rule: "r1 out(@S, V) :- q(@S, K, V).",
                trigger: "q",
                stored: Some(Vec::new()),
                batch: vec![
                    (Insert, q(0, 1, 10), ALL),
                    (Delete, q(0, 2, 20), 3),
                    (Insert, q(1, 1, 30), 0),
                ],
                keys: [0, 0],
                derived: vec![1, 1, 1],
            },
            Case {
                shape: "last literal a probe",
                rule: "r1 out(@S, K, W) :- q(@S, K, V), t(@S, K, W).",
                trigger: "q",
                stored: Some(t()),
                batch: over_t(),
                keys: [1, 2],
                derived: vec![3, 1, 2, 0],
            },
            Case {
                shape: "probe then filter",
                rule: "r1 out(@S, W) :- q(@S, K, V), t(@S, K, W), W > V.",
                trigger: "q",
                stored: Some(t()),
                batch: vec![
                    (Insert, q(0, 1, 100), ALL),
                    (Delete, q(0, 2, 500), ALL),
                    (Insert, q(0, 1, 0), 2),
                    (Delete, q(0, 2, 0), 3),
                ],
                keys: [1, 2],
                derived: vec![2, 0, 2, 1],
            },
            Case {
                shape: "probe then fresh assignment",
                rule: "r1 out(@S, X) :- q(@S, K, V), t(@S, K, W), X := W + V.",
                trigger: "q",
                stored: Some(t()),
                batch: over_t(),
                keys: [1, 2],
                derived: vec![3, 1, 2, 0],
            },
            Case {
                shape: "probe then pre-bound assignment",
                rule: "r1 out(@S, W) :- q(@S, K, V), t(@S, K, W), V := W + 1.",
                trigger: "q",
                stored: Some(t()),
                batch: vec![
                    (Insert, q(0, 1, 102), ALL),
                    (Delete, q(0, 2, 201), ALL),
                    (Insert, q(0, 1, 103), 2),
                    (Insert, q(0, 1, 101), 2),
                ],
                keys: [1, 2],
                derived: vec![1, 1, 0, 1],
            },
            Case {
                // The second probe's keys are the first one's matches:
                // W = 100, 101, 102 for key 1 and 200 for key 2, whichever
                // trigger reached them.
                shape: "two probes",
                rule: "r1 out(@S, W, U) :- q(@S, K, V), t(@S, K, W), u(@S, W, U).",
                trigger: "q",
                stored: Some({
                    let mut stored = t();
                    for (w, u) in [(100, 7), (101, 8), (200, 9), (100, 6)] {
                        stored.push(("u", tuple(&[addr(0), int(w), int(u)])));
                    }
                    stored
                }),
                batch: vec![
                    (Insert, q(0, 1, 0), ALL),
                    (Delete, q(0, 2, 0), ALL),
                    (Insert, q(0, 1, 1), 6),
                    (Delete, q(0, 2, 1), 3),
                ],
                keys: [1 + 3, 2 + 4],
                derived: vec![3, 1, 2, 0],
            },
            Case {
                shape: "within-atom repeated variable",
                rule: "r1 out(@S, W) :- q(@S, K, V), t(@S, W, W).",
                trigger: "q",
                stored: Some(vec![
                    ("t", tuple(&[addr(0), int(5), int(5)])),
                    ("t", tuple(&[addr(0), int(5), int(6)])),
                    ("t", tuple(&[addr(0), int(7), int(7)])),
                    ("t", tuple(&[addr(1), int(8), int(8)])),
                ]),
                batch: vec![
                    (Insert, q(0, 1, 0), ALL),
                    (Delete, q(1, 1, 0), ALL),
                    (Insert, q(0, 2, 0), 1),
                    (Delete, q(1, 2, 0), 3),
                ],
                keys: [1, 2],
                derived: vec![2, 1, 1, 0],
            },
            Case {
                // A constant in the probed atom is part of the probe key;
                // one in the trigger atom is checked against the delta.
                shape: "constant column",
                rule: "r1 out(@S, W) :- q(@S, K, 0), t(@S, 1, W).",
                trigger: "q",
                stored: Some({
                    let mut stored = t();
                    stored.push(("t", tuple(&[addr(1), int(1), int(300)])));
                    stored
                }),
                batch: vec![
                    (Insert, q(0, 9, 0), ALL),
                    (Delete, q(1, 9, 0), ALL),
                    (Insert, q(0, 8, 0), 2),
                    (Delete, q(1, 8, 0), 4),
                    (Insert, q(0, 9, 1), ALL),
                ],
                keys: [1, 2],
                derived: vec![3, 1, 2, 0, 0],
            },
            Case {
                // Nothing can match an aggregate term, but the lookups
                // still run and are counted.
                shape: "aggregate-term atom",
                rule: "r1 out(@S, K) :- q(@S, K, V), t(@S, K, min<W>).",
                trigger: "q",
                stored: Some(t()),
                batch: over_t(),
                keys: [1, 2],
                derived: vec![0, 0, 0, 0],
            },
            Case {
                shape: "probe of an undeclared relation",
                rule: "r1 out(@S, W) :- q(@S, K, V), missing(@S, K, W).",
                trigger: "q",
                stored: None,
                batch: over_t(),
                keys: [0, 0],
                derived: vec![0, 0, 0, 0],
            },
            Case {
                // No bound column, no probe plan: every row scans.
                shape: "atom with no bound column",
                rule: "r1 out(@S, @B) :- q(@S, K, V), right(@B).",
                trigger: "q",
                stored: Some(
                    (100..103u32)
                        .map(|b| ("right", tuple(&[addr(b)])))
                        .collect(),
                ),
                batch: vec![
                    (Insert, q(0, 1, 0), ALL),
                    (Delete, q(1, 1, 0), ALL),
                    (Insert, q(0, 2, 0), 2),
                    (Delete, q(1, 2, 0), 0),
                ],
                keys: [0, 0],
                derived: vec![3, 3, 2, 0],
            },
        ]
    }

    /// Every arm of the batch path's one probe loop against the
    /// interpreter: each rule shape, as a one-trigger batch (a lone row
    /// takes one plain lookup) and as a batch over two keys with mixed
    /// signs and visibility limits (the key-grouped arm), without a
    /// cross-rule cache and with one armed for everything the strand
    /// probes (the grouped arm even for a lone row), all through one lent
    /// set of buffers.
    #[test]
    fn fire_batch_matches_fire_per_trigger() {
        use crate::batch::{BatchTrigger, EvalBuffers};
        use crate::subplan::ProbeCache;
        let mut lent = EvalBuffers::default();
        for case in cases() {
            let shape = case.shape;
            let (mut store, strands) = setup(case.rule);
            if case.stored.is_some() {
                store.declare_indexes(strands.iter());
            } else {
                // Declaring the strand's indexes would declare the relation.
                store = Store::new();
                store.ensure(RelationSchema::new(case.trigger));
            }
            for (relation, tuple) in case.stored.into_iter().flatten() {
                store.apply(&TupleDelta::insert(relation, tuple));
            }
            let strand = strands
                .iter()
                .find(|s| s.trigger_relation() == case.trigger)
                .unwrap();
            let deltas: Vec<(TupleDelta, u64)> = case
                .batch
                .into_iter()
                .map(|(sign, tuple, seq_limit)| {
                    let relation = case.trigger.into();
                    let delta = TupleDelta {
                        relation,
                        tuple,
                        sign,
                    };
                    (delta, seq_limit)
                })
                .collect();
            let armed = strand.index_requirements();

            for (batch, keys) in [(&deltas[..1], case.keys[0]), (&deltas[..], case.keys[1])] {
                // The interpreter, one trigger at a time.
                let mut reference_stats = JoinStats::default();
                let reference: Vec<Vec<Derivation>> = batch
                    .iter()
                    .map(|(delta, seq_limit)| {
                        strand
                            .fire_counted(&store, delta, *seq_limit, &mut reference_stats)
                            .unwrap()
                    })
                    .collect();
                let derived: Vec<usize> = reference.iter().map(Vec::len).collect();
                assert_eq!(derived, case.derived[..batch.len()], "{shape}");
                assert_eq!(
                    reference_stats.distinct_probes, reference_stats.logical_probes,
                    "{shape}: tuple-at-a-time probes are never shared"
                );

                let triggers: Vec<BatchTrigger> = batch
                    .iter()
                    .map(|(delta, seq_limit)| BatchTrigger {
                        delta,
                        seq_limit: *seq_limit,
                    })
                    .collect();
                for cached in [false, true] {
                    let what = format!("{shape}, {} trigger(s), cache: {cached}", batch.len());
                    let mut cache = cached.then(|| ProbeCache::new(&armed));
                    // A second firing through the same cache finds every
                    // key already fetched.
                    for firing in 0..1 + usize::from(cached) {
                        let mut stats = JoinStats::default();
                        let EvalBuffers { scratch, out, .. } = &mut lent;
                        strand
                            .fire_batch(&store, &triggers, &mut stats, scratch, out, cache.as_mut())
                            .unwrap();
                        for (i, expected) in reference.iter().enumerate() {
                            assert_eq!(out.for_trigger(i), &expected[..], "{what}, trigger {i}");
                        }
                        out.drain_into(|_, _| ());
                        assert!(lent.holds_only_capacity(), "{what}");
                        // Grouped firing preserves the logical accounting
                        // exactly; only the executed lookups shrink.
                        assert_eq!(
                            stats.logical_probes, reference_stats.logical_probes,
                            "{what}"
                        );
                        assert_eq!(stats.scans, reference_stats.scans, "{what}");
                        assert_eq!(
                            stats.tuples_examined, reference_stats.tuples_examined,
                            "{what}"
                        );
                        let executed = if firing == 0 { keys } else { 0 };
                        assert_eq!(stats.distinct_probes, executed, "{what}, firing {firing}");
                    }
                }
            }
        }
    }

    #[test]
    fn shared_key_batch_probes_the_index_exactly_once() {
        use crate::batch::{BatchOutput, BatchScratch, BatchTrigger};
        let (mut store, strands) = setup(TWO_HOP);
        store.declare_indexes(strands.iter());
        for d in 2..7u32 {
            store.apply(&TupleDelta::insert(
                "path",
                Tuple::new(vec![
                    addr(1),
                    addr(d),
                    addr(d),
                    Value::list(vec![addr(1), addr(d)]),
                    Value::Int(3),
                ]),
            ));
        }
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        // N triggers, every one probing the same join key (Z = 1).
        const N: usize = 32;
        let deltas: Vec<TupleDelta> = (0..N as u32)
            .map(|s| {
                TupleDelta::insert(
                    "link",
                    Tuple::new(vec![addr(100 + s), addr(1), Value::Int(1)]),
                )
            })
            .collect();
        let triggers: Vec<BatchTrigger> = deltas
            .iter()
            .map(|delta| BatchTrigger {
                delta,
                seq_limit: u64::MAX,
            })
            .collect();
        let mut stats = JoinStats::default();
        let mut scratch = BatchScratch::default();
        let mut out = BatchOutput::default();
        link_strand
            .fire_batch(&store, &triggers, &mut stats, &mut scratch, &mut out, None)
            .unwrap();
        assert_eq!(
            stats.distinct_probes, 1,
            "one shared key must cost exactly one index probe"
        );
        assert_eq!(stats.logical_probes, N, "logical accounting is per trigger");
        // Every member received the full broadcast match set, identical to
        // firing it alone.
        for (i, delta) in deltas.iter().enumerate() {
            let reference = link_strand.fire(&store, delta, u64::MAX).unwrap();
            assert_eq!(out.for_trigger(i), &reference[..]);
            assert_eq!(out.for_trigger(i).len(), 5);
        }
    }

    #[test]
    fn fire_batch_reports_unbound_head_variables() {
        use crate::batch::{BatchOutput, BatchScratch, BatchTrigger};
        let (store, strands) = setup("r1 out(@S, X) :- q(@S, C).");
        let d = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(1)]));
        let triggers = [BatchTrigger {
            delta: &d,
            seq_limit: u64::MAX,
        }];
        let mut stats = JoinStats::default();
        let mut scratch = BatchScratch::default();
        let mut out = BatchOutput::default();
        assert!(matches!(
            strands[0].fire_batch(&store, &triggers, &mut stats, &mut scratch, &mut out, None),
            Err(EvalError::UnboundVariable(v)) if v == "X"
        ));
    }

    #[test]
    fn missing_relation_yields_no_matches() {
        let program = parse_program("r1 out(@S) :- q(@S, C), missing(@S, C).").unwrap();
        // Build a store *without* the `missing` relation.
        let mut store = Store::new();
        store.ensure(RelationSchema::new("q"));
        let strands: Vec<_> = delta_rewrite_full(&program)
            .into_iter()
            .map(CompiledStrand::new)
            .collect();
        let strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "q")
            .unwrap();
        let d = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(1)]));
        assert!(strand.fire(&store, &d, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        // Bypass validation deliberately to exercise the runtime error path.
        let (store, strands) = setup("r1 out(@S, X) :- q(@S, C).");
        let d = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(1)]));
        assert!(matches!(
            strands[0].fire(&store, &d, u64::MAX),
            Err(EvalError::UnboundVariable(v)) if v == "X"
        ));
    }
}
