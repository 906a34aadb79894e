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
//! # Probe stages
//!
//! A strand has one compiled form, the slot plan of [`crate::batch`].
//! Compilation walks the body in firing order and, for every non-trigger
//! atom, records which of its columns are already bound when the join runs
//! — constants, and variables bound by the trigger atom, by earlier atoms
//! or by earlier assignments — as that atom's probe stage. At run time the
//! stage resolves those columns against each row and probes the relation's
//! secondary index for that signature (see [`crate::index`]), touching only
//! the matching tuples; the full scan survives solely as the fallback for
//! atoms with no bound columns (a genuine cross product) or relations
//! without the declared index. [`CompiledStrand::index_requirements`]
//! exposes every signature a strand probes so stores build each index once
//! per program, not per join.

use crate::expr::EvalError;
use crate::store::Store;
use crate::tuple::TupleDelta;
use ndlog_lang::seminaive::{delta_rewrite_full, DeltaRule};
use ndlog_lang::Program;
use ndlog_net::NodeAddr;

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

pub use crate::index::JoinStats;

/// A compiled rule strand.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStrand {
    rule: DeltaRule,
    /// The slot-compiled rule ([`CompiledStrand::fire_batch`]).
    batch: crate::batch::BatchPlan,
    /// A key-bound re-derivation plan ([`crate::dred::rederivation_plan`]):
    /// fired by DRed passes with over-deleted tuples of its own head
    /// relation, never by a delta of its trigger relation.
    rederives: bool,
}

impl CompiledStrand {
    /// Compile a delta rule into a strand: its slot plan, with a probe
    /// stage for every non-trigger body atom.
    pub fn new(rule: DeltaRule) -> Self {
        Self::compile(rule, false)
    }

    pub(crate) fn compile(rule: DeltaRule, rederives: bool) -> Self {
        let batch = crate::batch::compile(&rule);
        CompiledStrand {
            rule,
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

    /// Every (relation, bound-column signature) this strand probes, in
    /// body order. Stores declare these up front so each index is built
    /// once per program.
    pub fn index_requirements(&self) -> Vec<(String, Vec<usize>)> {
        self.batch.index_requirements()
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

    /// Fire the strand with a whole batch of trigger deltas through the
    /// slot-compiled plan and flat reusable buffers of [`crate::batch`],
    /// with **key-grouped probe sharing**: each distinct probe key of the
    /// batch is looked up once per atom and the match set broadcast to
    /// every same-key trigger. Per trigger, the derivations (grouped in
    /// `out`) are those of firing that trigger alone with its `seq_limit`
    /// against the same store: pipelined semi-naive evaluation passes the
    /// trigger tuple's timestamp so that joins only match "same or older"
    /// tuples (Section 3.3.2, the book-keeping that guarantees no repeated
    /// inferences); DRed passes `u64::MAX`. So are the *logical* join
    /// statistics (`logical_probes`, `scans`, `tuples_examined`); only
    /// `distinct_probes` counts the bucket lookups actually executed. See
    /// the [`crate::batch`] module docs for what the oracle checks.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchOutput, BatchScratch, BatchTrigger};
    use crate::relation::RelationSchema;
    use crate::tuple::Tuple;
    use ndlog_lang::seminaive::delta_rewrite_full;
    use ndlog_lang::{parse_program, Value};

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    /// Fire `strand` with one trigger, as a batch of one.
    fn fire(
        strand: &CompiledStrand,
        store: &Store,
        delta: &TupleDelta,
        seq_limit: u64,
    ) -> Result<Vec<Derivation>, EvalError> {
        fire_with_stats(strand, store, delta, seq_limit, &mut JoinStats::default())
    }

    /// [`fire`], accumulating the join statistics into `stats`.
    fn fire_with_stats(
        strand: &CompiledStrand,
        store: &Store,
        delta: &TupleDelta,
        seq_limit: u64,
        stats: &mut JoinStats,
    ) -> Result<Vec<Derivation>, EvalError> {
        let triggers = [BatchTrigger { delta, seq_limit }];
        let (mut scratch, mut out) = (BatchScratch::default(), BatchOutput::default());
        strand.fire_batch(store, &triggers, stats, &mut scratch, &mut out, None)?;
        Ok(out.all().to_vec())
    }

    /// Build a store + strands for a small program.
    fn setup(src: &str) -> (Store, Vec<CompiledStrand>) {
        let program = parse_program(src).unwrap();
        let store = Store::for_program(&program).unwrap();
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
        let derivations = fire(strand, &store, &link, u64::MAX).unwrap();
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
        let derivations = fire(&strands[0], &store, &link, u64::MAX).unwrap();
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
        let out = fire(link_strand, &store, &link, u64::MAX).unwrap();
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
        let out = fire(link_strand, &store, &link, u64::MAX).unwrap();
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
        let out = fire(path_strand, &store, &p12, u64::MAX).unwrap();
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
        let out = fire(link_strand, &store, &link, link_effect.seq).unwrap();
        assert!(out.is_empty());
        let out = fire(link_strand, &store, &link, u64::MAX).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn constant_argument_filters_trigger() {
        let (store, strands) = setup("r1 hit(@S) :- probe(@S, 7).");
        let strand = &strands[0];
        let ok = TupleDelta::insert("probe", Tuple::new(vec![addr(3), Value::Int(7)]));
        assert_eq!(fire(strand, &store, &ok, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("probe", Tuple::new(vec![addr(3), Value::Int(8)]));
        assert!(fire(strand, &store, &miss, u64::MAX).unwrap().is_empty());
        let wrong_arity = TupleDelta::insert("probe", Tuple::new(vec![addr(3)]));
        assert!(fire(strand, &store, &wrong_arity, u64::MAX)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let (store, strands) = setup("r1 selfloop(@S) :- edge(@S, @S).");
        let strand = &strands[0];
        let hit = TupleDelta::insert("edge", Tuple::new(vec![addr(1), addr(1)]));
        assert_eq!(fire(strand, &store, &hit, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("edge", Tuple::new(vec![addr(1), addr(2)]));
        assert!(fire(strand, &store, &miss, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn assignment_conflict_drops_binding() {
        // C is bound by the atom and then re-asserted by an assignment; a
        // mismatch must drop the derivation, a match must keep it.
        let (store, strands) = setup("r1 out(@S, C) :- q(@S, C), C := 5.");
        let strand = &strands[0];
        let hit = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(5)]));
        assert_eq!(fire(strand, &store, &hit, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(6)]));
        assert!(fire(strand, &store, &miss, u64::MAX).unwrap().is_empty());
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
        let scanned =
            fire_with_stats(link_strand, &store, &link, u64::MAX, &mut scan_stats).unwrap();
        assert!(scan_stats.scans > 0 && scan_stats.logical_probes == 0);

        store.declare_indexes(strands.iter());
        let mut probe_stats = JoinStats::default();
        let probed =
            fire_with_stats(link_strand, &store, &link, u64::MAX, &mut probe_stats).unwrap();
        assert_eq!(scanned, probed);
        assert_eq!(probed.len(), 28);
        assert!(probe_stats.logical_probes > 0 && probe_stats.scans == 0);
        assert_eq!(
            probe_stats.logical_probes, probe_stats.distinct_probes,
            "a lone trigger shares its probe with nothing"
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
        /// Logical probes, scans and tuples examined by the one-trigger
        /// batch and by the whole batch, cache or no cache.
        joins: [[usize; 3]; 2],
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
                joins: [[1, 0, 10], [4, 0, 30]],
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
                joins: [[0, 0, 0], [0, 0, 0]],
            },
            Case {
                shape: "last literal a probe",
                rule: "r1 out(@S, K, W) :- q(@S, K, V), t(@S, K, W).",
                trigger: "q",
                stored: Some(t()),
                batch: over_t(),
                keys: [1, 2],
                derived: vec![3, 1, 2, 0],
                joins: [[1, 0, 3], [4, 0, 8]],
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
                joins: [[1, 0, 3], [4, 0, 8]],
            },
            Case {
                shape: "probe then fresh assignment",
                rule: "r1 out(@S, X) :- q(@S, K, V), t(@S, K, W), X := W + V.",
                trigger: "q",
                stored: Some(t()),
                batch: over_t(),
                keys: [1, 2],
                derived: vec![3, 1, 2, 0],
                joins: [[1, 0, 3], [4, 0, 8]],
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
                joins: [[1, 0, 3], [4, 0, 10]],
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
                joins: [[4, 0, 6], [12, 0, 16]],
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
                joins: [[1, 0, 3], [4, 0, 8]],
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
                joins: [[1, 0, 3], [4, 0, 8]],
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
                joins: [[1, 0, 3], [4, 0, 8]],
            },
            Case {
                shape: "probe of an undeclared relation",
                rule: "r1 out(@S, W) :- q(@S, K, V), missing(@S, K, W).",
                trigger: "q",
                stored: None,
                batch: over_t(),
                keys: [0, 0],
                derived: vec![0, 0, 0, 0],
                joins: [[0, 0, 0], [0, 0, 0]],
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
                joins: [[0, 1, 3], [0, 4, 12]],
            },
        ]
    }

    /// Every arm of the batch path's one probe loop against the naive
    /// oracle: each rule shape, as a one-trigger batch (a lone row takes
    /// one plain lookup) and as a batch over two keys with mixed signs and
    /// visibility limits (the key-grouped arm), without a cross-rule cache
    /// and with one armed for everything the strand probes (the grouped arm
    /// even for a lone row), all through one lent set of buffers. Per
    /// trigger, the derivations are `ndlog_oracle::fire_one`'s; the join
    /// counts are pinned.
    #[test]
    fn fire_batch_matches_fire_per_trigger() {
        use crate::batch::EvalBuffers;
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
            let mut stored = Vec::new();
            for (relation, tuple) in case.stored.into_iter().flatten() {
                let seq = store
                    .apply(&TupleDelta::insert(relation, tuple.clone()))
                    .seq;
                stored.push((relation, tuple.values().to_vec(), seq));
            }
            let strand = strands
                .iter()
                .find(|s| s.trigger_relation() == case.trigger)
                .unwrap();
            let rule = delta_rewrite_full(&parse_program(case.rule).unwrap())
                .into_iter()
                .find(|rule| rule.trigger_relation == case.trigger)
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
            // What each trigger derives, by the oracle, sorted.
            let expected: Vec<Vec<Vec<Value>>> = deltas
                .iter()
                .map(|(delta, seq_limit)| {
                    let trigger = delta.tuple.values();
                    let mut rows = ndlog_oracle::fire_one(&rule, trigger, &stored, *seq_limit);
                    rows.as_mut().unwrap().sort();
                    rows.unwrap()
                })
                .collect();
            let derived: Vec<usize> = expected.iter().map(Vec::len).collect();
            assert_eq!(derived, case.derived, "{shape}");

            let batches = [&deltas[..1], &deltas[..]];
            for (n, batch) in batches.into_iter().enumerate() {
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
                        for (i, (delta, _)) in batch.iter().enumerate() {
                            let fired = out.for_trigger(i);
                            let mut rows: Vec<Vec<Value>> = fired
                                .iter()
                                .map(|d| d.delta.tuple.values().to_vec())
                                .collect();
                            rows.sort();
                            assert_eq!(rows, expected[i], "{what}, trigger {i}");
                            for d in fired {
                                assert_eq!(d.delta.sign, delta.sign, "{what}, trigger {i}");
                                assert_eq!(d.location, d.delta.tuple.location(), "{what}");
                            }
                        }
                        out.drain_into(|_, _| ());
                        assert!(lent.holds_only_capacity(), "{what}");
                        // Grouping and caching never change the logical
                        // accounting; only the executed lookups shrink.
                        let logical = [stats.logical_probes, stats.scans, stats.tuples_examined];
                        assert_eq!(logical, case.joins[n], "{what}");
                        let executed = if firing == 0 { case.keys[n] } else { 0 };
                        assert_eq!(stats.distinct_probes, executed, "{what}, firing {firing}");
                    }
                }
            }
        }
    }

    #[test]
    fn shared_key_batch_probes_the_index_exactly_once() {
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
            let reference = fire(link_strand, &store, delta, u64::MAX).unwrap();
            assert_eq!(out.for_trigger(i), &reference[..]);
            assert_eq!(out.for_trigger(i).len(), 5);
        }
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
        assert!(fire(strand, &store, &d, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        // Bypass validation deliberately to exercise the runtime error path.
        let (store, strands) = setup("r1 out(@S, X) :- q(@S, C).");
        let d = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(1)]));
        assert!(matches!(
            fire(&strands[0], &store, &d, u64::MAX),
            Err(EvalError::UnboundVariable(v)) if v == "X"
        ));
    }

    #[test]
    fn a_filter_is_truthy_or_its_type_error_names_it() {
        let (store, strands) = setup("r1 out(@S) :- q(@S, V), V.");
        let q = |v: Value| TupleDelta::insert("q", Tuple::new(vec![addr(0), v]));
        let passes = |v: Value| {
            !fire(&strands[0], &store, &q(v), u64::MAX)
                .unwrap()
                .is_empty()
        };
        assert!(passes(Value::Bool(true)) && passes(Value::Int(-2)) && passes(Value::Float(0.5)));
        assert!(
            !passes(Value::Bool(false)) && !passes(Value::Int(0)) && !passes(Value::Float(0.0))
        );
        let failed = fire(&strands[0], &store, &q(Value::str("yes")), u64::MAX);
        assert_eq!(
            failed.unwrap_err().to_string(),
            "type mismatch in boolean filter `V`"
        );
        // A variable no literal binds fails where it is read.
        let (store, strands) = setup("r1 out(@S) :- q(@S, V), X.");
        assert_eq!(
            fire(&strands[0], &store, &q(Value::Int(1)), u64::MAX),
            Err(EvalError::UnboundVariable("X".into()))
        );
    }
}
