//! Semi-naive delta rewrite: rules → rule strands.
//!
//! Semi-naive evaluation avoids re-deriving tuples by making each rule fire
//! off the *delta* (newly derived tuples) of one body predicate at a time.
//! Following footnote 2 of the paper, the delta form of a rule
//!
//! ```text
//! p :- p1, ..., pk, ..., pn, b1, ..., bm.
//! ```
//!
//! is the family of rules (one per `k`)
//!
//! ```text
//! Δp_new :- p1_old, ..., p(k-1)_old, Δpk_old, p(k+1), ..., pn, b1, ..., bm.
//! ```
//!
//! In the P2 execution model each such delta rule becomes a **rule strand**
//! (Figures 3 and 5): a dataflow fragment that is triggered by the arrival
//! of a new tuple of the trigger predicate, joins it against the locally
//! stored tables of the other body predicates, evaluates assignments and
//! filters, and emits the head tuple.
//!
//! The "old"/"new" distinction is enforced by the runtime: with pipelined
//! semi-naive evaluation every tuple carries a local timestamp (sequence
//! number) and joins only match tuples whose timestamp is not newer than
//! the trigger's (Section 3.3.2), which guarantees no repeated inferences
//! (Theorem 2). The rewrite here is therefore purely structural — it
//! enumerates the strands; [`DeltaRule::older_only`] records which body
//! positions the classic SN algorithm would restrict to "old" tuples, which
//! the non-pipelined evaluator uses.

use crate::ast::{Literal, Program, Rule};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One rule strand: a rule plus the body literal that triggers it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaRule {
    /// The (localized) rule this strand evaluates.
    pub rule: Rule,
    /// Index into `rule.body` of the triggering predicate literal.
    pub trigger: usize,
    /// Name of the trigger predicate (cached from the body literal).
    pub trigger_relation: String,
    /// Strand identifier, e.g. `sp2b-1` for the first strand of rule
    /// `sp2b`, following the paper's naming (SP2-1 etc.).
    pub strand_id: String,
    /// Body literal indexes that the textbook semi-naive algorithm joins
    /// against *old* tuples only (those derived before the previous
    /// iteration's deltas): the recursive predicates to the left of the
    /// trigger.
    pub older_only: Vec<usize>,
}

/// Generate rule strands for a program.
///
/// `dynamic` is the set of relation names whose updates should trigger
/// strands. For classic semi-naive evaluation over static base data this is
/// the set of recursive (intensional) predicates; for declarative
/// networking, where base tuples (links) change during execution, it is
/// every stored relation, which [`delta_rewrite_full`] provides.
pub fn delta_rewrite(program: &Program, dynamic: &BTreeSet<String>) -> Vec<DeltaRule> {
    let intensional = program.intensional();
    let mut out = Vec::new();
    for rule in &program.rules {
        if rule.is_fact() {
            continue;
        }
        let mut strand_no = 0;
        for (idx, literal) in rule.body.iter().enumerate() {
            let Literal::Atom(atom) = literal else {
                continue;
            };
            if !dynamic.contains(&atom.name) {
                continue;
            }
            strand_no += 1;
            // Recursive predicates that appear before the trigger join
            // against old tuples only (footnote 2 of the paper).
            let older_only = rule
                .body
                .iter()
                .enumerate()
                .take(idx)
                .filter_map(|(i, l)| match l {
                    Literal::Atom(a) if intensional.contains(&a.name) => Some(i),
                    _ => None,
                })
                .collect();
            out.push(DeltaRule {
                rule: rule.clone(),
                trigger: idx,
                trigger_relation: atom.name.clone(),
                strand_id: format!("{}-{}", rule.label, strand_no),
                older_only,
            });
        }
    }
    out
}

/// Generate rule strands triggered by *every* body predicate, which is what
/// the distributed engine installs: in a dynamic network any stored
/// relation (including `link`) can receive updates at any time.
pub fn delta_rewrite_full(program: &Program) -> Vec<DeltaRule> {
    let mut all: BTreeSet<String> = program.intensional();
    all.extend(program.extensional());
    delta_rewrite(program, &all)
}

/// Generate strands triggered only by recursive (intensional) predicates —
/// the textbook semi-naive rewrite used for static base data.
pub fn delta_rewrite_recursive(program: &Program) -> Vec<DeltaRule> {
    delta_rewrite(program, &program.intensional())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localize::localize;
    use crate::parser::parse_program;

    const SP: &str = r#"
        sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C), P := f_cons(S, f_cons(D, nil)).
        sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
            C := C1 + C2, P := f_cons(S, P2).
        sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
        sp4 shortestPath(@S,@D,P,C) :- spCost(@S,@D,C), path(@S,@D,@Z,P,C).
    "#;

    #[test]
    fn recursive_rewrite_matches_textbook() {
        let p = parse_program(SP).unwrap();
        let strands = delta_rewrite_recursive(&p);
        // sp1: no recursive body predicate -> no strand.
        // sp2: one (path). sp3: one (path). sp4: two (spCost, path).
        assert_eq!(strands.len(), 4);
        let sp2: Vec<_> = strands.iter().filter(|s| s.rule.label == "sp2").collect();
        assert_eq!(sp2.len(), 1);
        assert_eq!(sp2[0].trigger_relation, "path");
        assert_eq!(sp2[0].strand_id, "sp2-1");
        assert!(sp2[0].older_only.is_empty());
    }

    #[test]
    fn full_rewrite_triggers_on_base_relations_too() {
        let p = parse_program(SP).unwrap();
        let strands = delta_rewrite_full(&p);
        // sp1: link. sp2: link + path. sp3: path. sp4: spCost + path.
        assert_eq!(strands.len(), 6);
        assert!(strands
            .iter()
            .any(|s| s.rule.label == "sp1" && s.trigger_relation == "link"));
        assert!(strands
            .iter()
            .any(|s| s.rule.label == "sp2" && s.trigger_relation == "link"));
    }

    #[test]
    fn older_only_marks_left_recursive_predicates() {
        // Non-linear rule: two recursive predicates.
        let p = parse_program(
            "t reach(@S,@D) :- reach(@S,@Z), reach2(@Z,@D). t2 reach2(@S,@D) :- reach(@S,@D).",
        )
        .unwrap();
        let strands = delta_rewrite_recursive(&p);
        let triggered_by_second: Vec<_> = strands
            .iter()
            .filter(|s| s.rule.label == "t" && s.trigger == 1)
            .collect();
        assert_eq!(triggered_by_second.len(), 1);
        assert_eq!(triggered_by_second[0].older_only, vec![0]);
        let triggered_by_first: Vec<_> = strands
            .iter()
            .filter(|s| s.rule.label == "t" && s.trigger == 0)
            .collect();
        assert!(triggered_by_first[0].older_only.is_empty());
    }

    #[test]
    fn localized_sp_produces_distributed_strands() {
        let p = localize(&parse_program(SP).unwrap()).unwrap();
        let strands = delta_rewrite_full(&p);
        // Figure 5 of the paper: the localized SP2 yields a strand for the
        // transfer rule (triggered by link) and strands for the join rule
        // (triggered by the reverse link, the transfer relation and path).
        assert!(strands.iter().any(|s| s.rule.label == "sp2a"));
        let sp2b: Vec<_> = strands.iter().filter(|s| s.rule.label == "sp2b").collect();
        assert_eq!(sp2b.len(), 3);
        let triggers: BTreeSet<_> = sp2b.iter().map(|s| s.trigger_relation.clone()).collect();
        assert!(triggers.contains("path_sp2_xd"));
        assert!(triggers.contains("path"));
        assert!(triggers.contains("link"));
    }

    #[test]
    fn facts_produce_no_strands() {
        let p = parse_program("f link(@n0, @n1, 1). r reach(@S,@D) :- #link(@S,@D,C).").unwrap();
        let strands = delta_rewrite_full(&p);
        assert_eq!(strands.len(), 1);
        assert_eq!(strands[0].rule.label, "r");
    }

    #[test]
    fn strand_ids_are_unique() {
        let p = localize(&parse_program(SP).unwrap()).unwrap();
        let strands = delta_rewrite_full(&p);
        let ids: BTreeSet<_> = strands.iter().map(|s| s.strand_id.clone()).collect();
        assert_eq!(ids.len(), strands.len());
    }
}
