//! Predicate reordering (Section 5.1.2).
//!
//! The shortest-path recursion can be evaluated **bottom-up** (BU) — paths
//! grow from the destination backwards, the right-recursive form SP2 — or
//! **top-down** (TD) — paths grow from the source forwards, the
//! left-recursive form SP2-SD. The paper observes that the two differ only
//! in the order of the `#link` and `path` predicates in the recursive rule
//! body (plus, for the TD variant, accumulating the path at the destination
//! rather than the source).
//!
//! The general utility here reorders body literals so that either the link
//! literal or the recursive predicate comes first, which controls the join
//! order the planner uses and documents the BU↔TD relationship. The
//! complete TD program used in the experiments (with its relocated
//! accumulator relation `pathDst`) is provided by
//! [`crate::programs::shortest_path_source_routing`].

use crate::ast::{Literal, Program, Rule};

/// Join-order preference for a rule body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyOrder {
    /// Link literals first, then other predicates (right-recursive / BU).
    LinkFirst,
    /// Recursive/other predicates first, link literals last
    /// (left-recursive / TD).
    LinkLast,
}

/// Reorder a rule's body predicates according to `order`. Assignments and
/// filters keep their relative order and stay after all predicate atoms.
/// That decides only the join order: where a constraint sits in the body
/// does not decide where it runs, since the runtime's batch compiler places
/// each filter right after whatever binds its inputs anyway — the trigger,
/// a join or an assignment.
fn reorder_rule(rule: &Rule, order: BodyOrder) -> Rule {
    let mut links = Vec::new();
    let mut atoms = Vec::new();
    let mut constraints = Vec::new();
    for lit in &rule.body {
        match lit {
            Literal::Atom(a) if a.link => links.push(lit.clone()),
            Literal::Atom(_) => atoms.push(lit.clone()),
            _ => constraints.push(lit.clone()),
        }
    }
    let mut body = Vec::with_capacity(rule.body.len());
    match order {
        BodyOrder::LinkFirst => {
            body.extend(links);
            body.extend(atoms);
        }
        BodyOrder::LinkLast => {
            body.extend(atoms);
            body.extend(links);
        }
    }
    body.extend(constraints);
    Rule {
        label: rule.label.clone(),
        head: rule.head.clone(),
        body,
    }
}

/// Reorder every rule in a program.
pub fn reorder_program(program: &Program, order: BodyOrder) -> Program {
    let mut out = program.clone();
    out.rules = out.rules.iter().map(|r| reorder_rule(r, order)).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const SP2: &str = r#"
        sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
            C := C1 + C2, P := f_cons(S, P2).
    "#;

    #[test]
    fn link_last_makes_rule_left_recursive() {
        let p = parse_program(SP2).unwrap();
        let td = reorder_rule(&p.rules[0], BodyOrder::LinkLast);
        let first = td.body_atoms().next().unwrap();
        assert_eq!(first.name, "path");
        assert!(!first.link);
        let second = td.body_atoms().nth(1).unwrap();
        assert!(second.link);
        // Constraints still trail the predicates.
        assert!(matches!(td.body[2], Literal::Assign(_)));
        assert!(matches!(td.body[3], Literal::Assign(_)));
    }

    #[test]
    fn link_first_restores_right_recursive_form() {
        let p = parse_program(SP2).unwrap();
        let td = reorder_rule(&p.rules[0], BodyOrder::LinkLast);
        let bu = reorder_rule(&td, BodyOrder::LinkFirst);
        assert_eq!(bu.body, p.rules[0].body);
    }

    #[test]
    fn reorder_is_idempotent() {
        let p = parse_program(SP2).unwrap();
        let once = reorder_rule(&p.rules[0], BodyOrder::LinkLast);
        let twice = reorder_rule(&once, BodyOrder::LinkLast);
        assert_eq!(once, twice);
    }

    #[test]
    fn program_level_reordering() {
        let p = parse_program(SP2).unwrap();
        let td = reorder_program(&p, BodyOrder::LinkLast);
        assert_eq!(td.rules.len(), 1);
        assert_eq!(td.rules[0].label, "sp2");
        assert!(!td.rules[0].body_atoms().next().unwrap().link);
    }

    #[test]
    fn rules_without_links_unchanged() {
        let p = parse_program("a p(@S, C) :- q(@S, C), C < 5.").unwrap();
        let r = reorder_rule(&p.rules[0], BodyOrder::LinkLast);
        assert_eq!(r, p.rules[0]);
    }
}
