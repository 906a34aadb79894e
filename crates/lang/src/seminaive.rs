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
//! (Theorem 2). The rewrite here is therefore purely structural: it
//! enumerates the strands.

use crate::ast::{Literal, Program, Rule};
use serde::{Deserialize, Serialize};

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
}

/// Generate rule strands triggered by *every* body predicate, which is what
/// the distributed engine installs: in a dynamic network any stored
/// relation (including `link`) can receive updates at any time.
pub fn delta_rewrite_full(program: &Program) -> Vec<DeltaRule> {
    let mut out = Vec::new();
    for rule in program.rules.iter().filter(|r| !r.is_fact()) {
        let atoms = rule
            .body
            .iter()
            .enumerate()
            .filter_map(|(idx, literal)| match literal {
                Literal::Atom(atom) => Some((idx, atom)),
                _ => None,
            });
        for (strand_no, (idx, atom)) in atoms.enumerate() {
            out.push(DeltaRule {
                rule: rule.clone(),
                trigger: idx,
                trigger_relation: atom.name.clone(),
                strand_id: format!("{}-{}", rule.label, strand_no + 1),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localize::localize;
    use crate::parser::parse_program;
    use std::collections::BTreeSet;

    const SP: &str = r#"
        sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C), P := f_cons(S, f_cons(D, nil)).
        sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
            C := C1 + C2, P := f_cons(S, P2).
        sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
        sp4 shortestPath(@S,@D,P,C) :- spCost(@S,@D,C), path(@S,@D,@Z,P,C).
    "#;

    #[test]
    fn full_rewrite_triggers_on_base_relations_too() {
        let p = parse_program(SP).unwrap();
        let strands = delta_rewrite_full(&p);
        // sp1: link. sp2: link + path. sp3: path. sp4: spCost + path.
        assert_eq!(strands.len(), 6);
        assert!(strands
            .iter()
            .any(|s| s.rule.label == "sp1" && s.trigger_relation == "link"));
        let sp2: Vec<_> = strands.iter().filter(|s| s.rule.label == "sp2").collect();
        let sp2: Vec<_> = sp2
            .iter()
            .map(|s| (s.strand_id.as_str(), s.trigger, s.trigger_relation.as_str()))
            .collect();
        assert_eq!(sp2, [("sp2-1", 0, "link"), ("sp2-2", 1, "path")]);
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
