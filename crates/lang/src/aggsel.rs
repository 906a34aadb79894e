//! Aggregate-selection inference (Section 5.1.1).
//!
//! A naive execution of the shortest-path query derives *all* paths, even
//! those that can never contribute to a shortest path. When a rule like
//!
//! ```text
//! sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
//! ```
//!
//! computes a monotonic aggregate over a derived relation, the running
//! aggregate value can be used as a *selection* on the source relation:
//! a new `path` tuple whose cost is not better than the current minimum for
//! its `(S, D)` group can neither change `spCost` nor contribute a shorter
//! path downstream, so it can be pruned before storage and, crucially,
//! before being propagated over the network.
//!
//! This module infers such opportunities from the program text; the
//! distributed engine in `ndlog-core` enforces them (including the
//! *periodic* variant that buffers improvements and flushes them on a
//! timer).

use crate::ast::{AggFunc, Program, Term};
use crate::Value;
use serde::{Deserialize, Serialize};

/// An inferred aggregate selection: tuples of `relation` may be pruned when
/// they are not better than the current `func` value of `value_col` within
/// their `group_cols` group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggSelectionSpec {
    /// The relation whose tuples can be pruned (e.g. `path`).
    pub relation: String,
    /// The aggregate relation that motivated the selection (e.g. `spCost`).
    pub aggregate_relation: String,
    /// Column indexes of `relation` that form the aggregation group.
    pub group_cols: Vec<usize>,
    /// Column index of `relation` holding the aggregated value.
    pub value_col: usize,
    /// The aggregate function (only [`AggFunc::Min`] / [`AggFunc::Max`]
    /// selections are monotonic and therefore safe to prune on).
    pub func: AggFunc,
}

impl AggSelectionSpec {
    /// Whether candidate value `candidate` is strictly better than the
    /// current aggregate `current` under this selection's function, in
    /// [`Value`]'s order — the order the aggregate view folds with.
    pub fn is_better(&self, candidate: &Value, current: &Value) -> bool {
        match self.func {
            AggFunc::Min => candidate < current,
            AggFunc::Max => candidate > current,
            // Non-monotonic aggregates never allow pruning.
            AggFunc::Count | AggFunc::Sum => true,
        }
    }
}

/// Infer aggregate selections from a program.
///
/// A selection is inferred from every rule of the shape
/// `agg(@G1, ..., Gk, FUNC<V>) :- ..., src(...), ...` where:
/// * the aggregate function is monotonic (`min` or `max`),
/// * exactly one body atom (`src`) contains the aggregated variable,
/// * every group variable also appears as an argument of that atom,
/// * no other body atom reads a column of `src` outside the group.
///
/// Rules whose aggregate input is assembled from several atoms (so no
/// single relation can be pruned) yield no selection. Extra body atoms that
/// merely filter groups (e.g. the `magicDst(@D)` literal of rule SP3-SD,
/// which reads only the group column `D`) do not prevent the selection: the
/// runtime splits such a rule ([`crate::aggsplit`]) into a view over a
/// relation whose leading columns are the source atom's, so the
/// selection's columns are the view's too. An atom that reads another
/// column admits some `src` tuples of a group and not others (the `ok(@S,
/// K)` of `low(@S, min<C>) :- obs(@S, K, C), ok(@S, K)`), so a tuple could
/// be pruned against a best that only a since-deleted guard admitted.
///
/// The pruning the engine performs on the source relation is safe when the
/// source relation's non-optimal tuples are not needed elsewhere — true for
/// the paper's path queries, where only the cheapest path per (source,
/// destination) group feeds `shortestPath`. The engine applies selections
/// only when explicitly enabled, mirroring the paper's treatment of this as
/// an optimization that is switched on per query.
pub fn infer_aggregate_selections(program: &Program) -> Vec<AggSelectionSpec> {
    let mut out = Vec::new();
    for rule in &program.rules {
        if !rule.head.has_aggregate() {
            continue;
        }
        let body_atoms: Vec<_> = rule.body_atoms().collect();
        // Find the aggregated variable and the unique body atom providing it.
        let Some(agg_var) = rule.head.args.iter().find_map(|t| match t {
            Term::Agg(a) => Some(a.var.clone()),
            _ => None,
        }) else {
            continue;
        };
        let providers: Vec<_> = body_atoms
            .iter()
            .filter(|a| {
                a.args
                    .iter()
                    .any(|t| t.var_name() == Some(agg_var.as_str()))
            })
            .collect();
        if providers.len() != 1 {
            continue;
        }
        let src = *providers[0];
        // Map variable name -> first column position in the source atom.
        let col_of = |var: &str| -> Option<usize> {
            src.args.iter().position(|t| t.var_name() == Some(var))
        };
        let mut group_cols = Vec::new();
        let mut value = None;
        let mut ok = true;
        for term in &rule.head.args {
            match term {
                Term::Agg(a) => {
                    if !a.func.is_selection_monotonic() {
                        ok = false;
                        break;
                    }
                    match col_of(&a.var) {
                        Some(c) => value = Some((c, a.func)),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                Term::Var(v) => match col_of(&v.name) {
                    Some(c) => group_cols.push(c),
                    None => {
                        ok = false;
                        break;
                    }
                },
                Term::Const(_) => {}
            }
        }
        // Whether an atom other than `src` reads `var`.
        let read_elsewhere = |var: &str| {
            let others = body_atoms.iter().filter(|a| !std::ptr::eq(**a, src));
            others
                .flat_map(|a| &a.args)
                .any(|t| t.var_name() == Some(var))
        };
        let guarded = src.args.iter().enumerate().any(|(col, term)| {
            !group_cols.contains(&col) && term.var_name().is_some_and(read_elsewhere)
        });
        if !ok || guarded {
            continue;
        }
        if let Some((value_col, func)) = value {
            out.push(AggSelectionSpec {
                relation: src.name.clone(),
                aggregate_relation: rule.head.name.clone(),
                group_cols,
                value_col,
                func,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn infers_min_selection_from_shortest_path() {
        let p = parse_program("sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).").unwrap();
        let sels = infer_aggregate_selections(&p);
        assert_eq!(sels.len(), 1);
        let s = &sels[0];
        assert_eq!(s.relation, "path");
        assert_eq!(s.aggregate_relation, "spCost");
        assert_eq!(s.group_cols, vec![0, 1]);
        assert_eq!(s.value_col, 4);
        assert_eq!(s.func, AggFunc::Min);
    }

    #[test]
    fn max_selection_inferred() {
        let p = parse_program("m best(@S, max<B>) :- bw(@S, @D, B).").unwrap();
        let sels = infer_aggregate_selections(&p);
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].func, AggFunc::Max);
        assert_eq!(sels[0].group_cols, vec![0]);
        assert_eq!(sels[0].value_col, 2);
    }

    #[test]
    fn count_aggregate_not_a_selection() {
        let p = parse_program("c deg(@S, count<D>) :- link2(@S, @D).").unwrap();
        assert!(infer_aggregate_selections(&p).is_empty());
    }

    #[test]
    fn ambiguous_aggregate_provider_is_skipped() {
        // Both body atoms carry C, so no single relation can be pruned.
        let p = parse_program("x agg(@S, min<C>) :- p(@S, C), q(@S, C).").unwrap();
        assert!(infer_aggregate_selections(&p).is_empty());
    }

    #[test]
    fn extra_filter_atoms_do_not_block_inference() {
        // The paper's SP3-SD shape: a magic filter plus the aggregate source.
        let p = parse_program("sd3 spCost(@D,@S,min<C>) :- magicDst(@D), pathDst(@D,@S,@Z,P,C).")
            .unwrap();
        let sels = infer_aggregate_selections(&p);
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].relation, "pathDst");
        assert_eq!(sels[0].group_cols, vec![0, 1]);
        assert_eq!(sels[0].value_col, 4);
    }

    #[test]
    fn a_guard_on_a_column_outside_the_group_blocks_inference() {
        // `ok` reads `obs`'s column 1, which is not a group column: a
        // guard admits some of a group's tuples and not others.
        let p = parse_program("l low(@S, min<C>) :- obs(@S, K, C), ok(@S, K).").unwrap();
        assert!(infer_aggregate_selections(&p).is_empty());
        // A guard reading only the group column keeps the selection.
        let p = parse_program("l low(@S, min<C>) :- obs(@S, K, C), ok(@S).").unwrap();
        let sels = infer_aggregate_selections(&p);
        assert_eq!(sels.len(), 1);
        assert_eq!(
            (sels[0].group_cols.as_slice(), sels[0].value_col),
            (&[0][..], 2)
        );
    }

    #[test]
    fn missing_variable_in_body_skips() {
        // Group variable D does not appear in the body atom.
        let p = parse_program("x agg(@S, D, min<C>) :- p(@S, C), D := 1.").unwrap();
        assert!(infer_aggregate_selections(&p).is_empty());
    }

    #[test]
    fn is_better_semantics() {
        let min = AggSelectionSpec {
            relation: "p".into(),
            aggregate_relation: "a".into(),
            group_cols: vec![0],
            value_col: 1,
            func: AggFunc::Min,
        };
        let (one, two, three) = (Value::Int(1), Value::Float(2.0), Value::Int(3));
        assert!(min.is_better(&one, &two));
        assert!(!min.is_better(&two, &two));
        assert!(!min.is_better(&Value::Int(2), &two));
        let max = AggSelectionSpec {
            func: AggFunc::Max,
            ..min.clone()
        };
        assert!(max.is_better(&three, &two));
        assert!(!max.is_better(&two, &two));
        // Integers beyond 2^53 that one f64 cannot tell apart.
        let (big, bigger) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert!(min.is_better(&big, &bigger));
        assert!(max.is_better(&bigger, &big));
    }

    #[test]
    fn rules_without_aggregates_ignored() {
        let p = parse_program("a p(@S, C) :- q(@S, C).").unwrap();
        assert!(infer_aggregate_selections(&p).is_empty());
    }
}
