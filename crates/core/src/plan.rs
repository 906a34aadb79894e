//! The query planner: NDlog program → executable plan.
//!
//! Planning follows Section 3 of the paper:
//!
//! 1. **validate** the program against the NDlog constraints (Definition 6);
//! 2. **localize** non-local link-restricted rules (Algorithm 2) so every
//!    rule body is evaluable at a single node;
//! 3. **compile** the localized program ([`compile`]): split every
//!    aggregate rule not in normal form into a plain rule deriving the
//!    relation of its body's matches and an aggregate rule folding that
//!    relation ([`ndlog_lang::aggsplit`]), check the split program against
//!    the schema every node's store holds (an aggregate head is keyed on
//!    its group-by fields and derived by its rule alone), compile each
//!    aggregate rule into an incremental view, and apply the **semi-naive
//!    delta rewrite** to the plain rules, compiling each delta rule into a
//!    [`CompiledStrand`], plus one key-bound re-derivation plan per rule
//!    for the DRed deletion pass;
//! 4. infer **aggregate selections** (Section 5.1.1) on the localized
//!    program so the engine can prune non-improving tuples when the
//!    optimization is enabled; a split keeps the source columns where they
//!    were, so a selection names its view's columns either way.
//!
//! The resulting [`QueryPlan`] is immutable and can be shared by every node
//! in the network (each node keeps its own mutable store; a view's state is
//! its head relation in that store).

use ndlog_lang::aggsel::{infer_aggregate_selections, AggSelectionSpec};
use ndlog_lang::localize::localize;
use ndlog_lang::validate::validate_strict;
use ndlog_lang::{LangError, Program};
use ndlog_runtime::{compile, AggregateView, Compiled, CompiledStrand};
use std::sync::Arc;

/// An executable plan for one NDlog program.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// A short name (used in reports), taken from the program.
    pub name: String,
    /// The localized program with its aggregate rules in normal form (table
    /// declarations, rules, queries): what every node's store is built for.
    pub program: Program,
    /// Compiled strands for the non-aggregate rules: the delta rewrite's,
    /// then one re-derivation plan per rule.
    pub strands: Vec<CompiledStrand>,
    /// The aggregate rules' incremental views, one per rule, compiled once
    /// and shared by every node.
    pub views: Vec<Arc<AggregateView>>,
    /// Inferred aggregate selections (pruning opportunities).
    pub selections: Vec<AggSelectionSpec>,
}

impl QueryPlan {
    /// Relations named in `query ...` statements: the result relations a
    /// caller usually wants to track for convergence.
    pub fn query_relations(&self) -> Vec<String> {
        self.program
            .queries
            .iter()
            .map(|q| q.name.clone())
            .collect()
    }
}

/// Plan a program. Fails if the program violates the NDlog constraints,
/// cannot be localized, or is refused by [`compile`]: an aggregate rule no
/// split or view can maintain, or a node store's schema checks
/// ([`ndlog_runtime::Store::add_program`]).
pub fn plan(program: &Program) -> Result<QueryPlan, LangError> {
    validate_strict(program)?;
    let localized = localize(program)?;
    let Compiled {
        program: split,
        strands,
        views,
        ..
    } = compile(&localized).map_err(LangError::Rewrite)?;
    let selections = infer_aggregate_selections(&localized);

    Ok(QueryPlan {
        name: if program.name.is_empty() {
            "ndlog".to_string()
        } else {
            program.name.clone()
        },
        program: split,
        strands,
        views,
        selections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::{parse_program, programs};

    #[test]
    fn shortest_path_plan_shape() {
        let plan = plan(&programs::shortest_path("")).unwrap();
        // sp3 is the only aggregate rule; sp1, sp2a, sp2b, sp4 become strands.
        assert_eq!(plan.views.len(), 1);
        assert_eq!(plan.views[0].rule_label(), "sp3");
        assert!(plan.strands.len() >= 5);
        assert_eq!(plan.selections.len(), 1);
        assert_eq!(plan.selections[0].relation, "path");
        assert_eq!(plan.query_relations(), vec!["shortestPath".to_string()]);
        // No strand is triggered by or derives an aggregate rule's head via joins.
        assert!(plan.strands.iter().all(|s| s.rule_label() != "sp3"));
    }

    #[test]
    fn invalid_programs_are_rejected() {
        let bad = parse_program("a p(@S, X) :- q(@S, C).").unwrap();
        assert!(plan(&bad).is_err());
        let not_restricted = parse_program("a p(@S, C) :- q(@D, C), r(@S, C).").unwrap();
        assert!(plan(&not_restricted).is_err());
    }

    /// An aggregate head is keyed on its group-by fields and derived by its
    /// rule alone; a program that says otherwise does not plan, and the
    /// error names the rule.
    #[test]
    fn aggregate_heads_are_keyed_on_their_group_by_fields_and_derived_once() {
        let refused = |src: &str| plan(&parse_program(src).unwrap()).unwrap_err().to_string();
        const LOW: &str = "l low(@S, min<C>) :- obs(@S, K, C).";
        let err = refused(&format!("materialize(low, keys(1,2)). {LOW}"));
        let must = "rule l: aggregate head `low` must be keyed on its group-by fields";
        assert!(
            err.contains(&format!("{must}, keys(1), not keys(1,2)")),
            "{err}"
        );
        let err = refused(&format!("materialize(low, infinity, infinity). {LOW}"));
        assert!(
            err.contains(&format!("{must}, keys(1), not all columns")),
            "{err}"
        );
        let err = refused(&format!("{LOW} low(@1, 3)."));
        assert!(
            err.contains("`low` is derived by aggregate rule l alone"),
            "{err}"
        );
        assert!(err.contains("fact "), "{err}");
        let err = refused(&format!("{LOW} m low(@S, C) :- obs(@S, C, C)."));
        assert!(
            err.contains("rule m: `low` is derived by aggregate rule l alone"),
            "{err}"
        );
        let err = refused(&format!("{LOW} m low(@S, max<C>) :- obs(@S, K, C)."));
        assert!(
            err.contains("rule m: `low` is derived by aggregate rule l alone"),
            "{err}"
        );
        // Undeclared, or declared as the key it must be: planned.
        let declared = plan(&parse_program(&format!("materialize(low, keys(1)). {LOW}")).unwrap());
        assert_eq!(declared.unwrap().views.len(), 1);
        assert_eq!(plan(&parse_program(LOW).unwrap()).unwrap().views.len(), 1);
    }

    #[test]
    fn all_canonical_programs_plan() {
        for p in [
            programs::shortest_path("m"),
            programs::shortest_path_magic_dst("m"),
            programs::shortest_path_source_routing("m"),
            programs::reachability("m"),
            programs::distance_vector("m", 16),
        ] {
            let plan = plan(&p).expect("canonical program plans");
            assert!(!plan.strands.is_empty());
        }
    }

    #[test]
    fn source_routing_plan_needs_no_localization_split() {
        let plan = plan(&programs::shortest_path_source_routing("")).unwrap();
        // The TD program is already link-local: no `_xd` transfer rules.
        assert!(plan
            .program
            .rules
            .iter()
            .all(|r| !r.head.name.ends_with("_xd")));
    }
}
