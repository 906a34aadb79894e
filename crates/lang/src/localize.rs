//! Rule localization (Algorithm 2 of the paper).
//!
//! Non-local link-restricted rules join relations stored at different nodes
//! (e.g. rule SP2 joins `#link(@S,@Z,...)` stored at `@S` with
//! `path(@Z,...)` stored at `@Z`). The localization rewrite transforms such
//! a rule into rules whose bodies are each evaluable at a single node, with
//! the only communication being derived tuples sent along a link:
//!
//! ```text
//! SP2  path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
//!                            C := C1 + C2, P := f_concatPath(...).
//! ```
//!
//! becomes (following the paper's SP2a/SP2b):
//!
//! ```text
//! SP2a path_sp2_xd(@Z,@S,C1)    :- #link(@S,@Z,C1).
//! SP2b path(@S,@D,@Z,P,C)  :- #link(@Z,@S,LR0), path_sp2_xd(@Z,@S,C1),
//!                             path(@Z,@D,@Z2,P2,C2),
//!                             C := C1 + C2, P := f_concatPath(...).
//! ```
//!
//! The intermediate relation (`path_sp2_xd` here, `linkD` in the paper) carries
//! the link-source-side bindings across the link to the destination. If the
//! original head is located at the link *source*, a reverse link literal is
//! added to the final rule so the result can be shipped back along the link
//! (links are bidirectional, Section 2.1).
//!
//! Rules that are already evaluable at a single node (local rules, facts, or
//! rules whose non-link body predicates are all co-located with the link
//! source) are left untouched: for those, the only communication is the
//! shipment of the derived head tuple, which the planner handles.

use crate::ast::{Atom, Literal, Program, Rule, Term, Variable};
use crate::error::LangError;
use std::collections::BTreeSet;

/// Suffix used for the intermediate "transfer" relation of a localized rule.
pub const XFER_SUFFIX: &str = "_xd";

/// Localize every rule of a program. The input is assumed to have passed
/// [`crate::validate::validate`]; rules that cannot be localized (e.g.
/// non-link-restricted rules) produce an error.
pub fn localize(program: &Program) -> Result<Program, LangError> {
    let mut out = Program::new(program.name.clone());
    out.tables = program.tables.clone();
    out.queries = program.queries.clone();
    for rule in &program.rules {
        out.rules.extend(localize_rule(rule)?);
    }
    Ok(out)
}

/// Localize a single rule, producing one or two rules.
fn localize_rule(rule: &Rule) -> Result<Vec<Rule>, LangError> {
    if rule.is_fact() || rule.is_local() {
        return Ok(vec![rule.clone()]);
    }
    let links: Vec<&Atom> = rule.link_literals().collect();
    if links.len() != 1 {
        return Err(LangError::Rewrite(format!(
            "rule {} is non-local but has {} link literals; it is not link-restricted",
            rule.label,
            links.len()
        )));
    }
    let link = links[0].clone();
    if link.arity() < 2 {
        return Err(LangError::Rewrite(format!(
            "rule {}: link literal must have source and destination fields",
            rule.label
        )));
    }
    let src_term = link.args[0].clone();
    let dst_term = link.args[1].clone();

    // Partition non-link body atoms by side.
    let mut src_side: Vec<Atom> = Vec::new();
    let mut dst_side: Vec<Atom> = Vec::new();
    for atom in rule.body_atoms() {
        if atom.link {
            continue;
        }
        let loc = atom.location().ok_or_else(|| {
            LangError::Rewrite(format!(
                "rule {}: predicate {} has no location specifier",
                rule.label, atom.name
            ))
        })?;
        if *loc == src_term {
            src_side.push(atom.clone());
        } else if *loc == dst_term {
            dst_side.push(atom.clone());
        } else {
            return Err(LangError::Rewrite(format!(
                "rule {}: predicate {} is located at {} which is not an endpoint of the link",
                rule.label, atom.name, loc
            )));
        }
    }

    // If nothing needs to be evaluated on the destination side, the whole
    // body already lives at the link source and no rewrite is required.
    if dst_side.is_empty() {
        return Ok(vec![rule.clone()]);
    }

    let head_loc = rule.head.location().cloned().ok_or_else(|| {
        LangError::Rewrite(format!(
            "rule {}: head has no location specifier",
            rule.label
        ))
    })?;
    if head_loc != src_term && head_loc != dst_term {
        return Err(LangError::Rewrite(format!(
            "rule {}: head location {} is not an endpoint of the link literal",
            rule.label, head_loc
        )));
    }

    // Variables bound on the source side (by the link literal or source-side
    // predicates).
    let mut src_bound: BTreeSet<String> = link.variables().into_iter().collect();
    for a in &src_side {
        src_bound.extend(a.variables());
    }
    // Variables needed after the transfer: by destination-side predicates,
    // constraints, or the head.
    let mut needed: BTreeSet<String> = rule.head.variables().into_iter().collect();
    for a in &dst_side {
        needed.extend(a.variables());
    }
    for c in rule.constraints() {
        needed.extend(c.variables());
    }
    let src_var = src_term.var_name().map(str::to_string);
    let dst_var = dst_term.var_name().map(str::to_string);
    let carried: Vec<String> = src_bound
        .intersection(&needed)
        .filter(|v| {
            Some(v.as_str()) != src_var.as_deref() && Some(v.as_str()) != dst_var.as_deref()
        })
        .cloned()
        .collect();

    // The transfer relation: xd(@Dst, @Src, carried...). Its name includes
    // the head relation so that several instances of the same rule set
    // (e.g. per-metric suffixed copies of the shortest-path query running
    // concurrently) never share transfer tuples.
    let xfer_name = format!("{}_{}{}", rule.head.name, rule.label, XFER_SUFFIX);
    let mut xfer_args = vec![as_located(&dst_term), as_located(&src_term)];
    xfer_args.extend(carried.iter().map(|v| Term::var(v.clone())));
    let xfer_head = Atom::new(xfer_name.clone(), xfer_args.clone());

    // Rule A: evaluate the source side and ship the bindings to the
    // destination endpoint of the link.
    let mut rule_a_body: Vec<Literal> = vec![Literal::Atom(link.clone())];
    rule_a_body.extend(src_side.iter().cloned().map(Literal::Atom));
    let rule_a = Rule::new(format!("{}a", rule.label), xfer_head, rule_a_body);

    // Rule B: evaluate the destination side (plus all constraints) and
    // derive the original head. If the head lives at the link source, add a
    // reverse link literal so the result travels back along the link.
    let mut rule_b_body: Vec<Literal> = Vec::new();
    if head_loc == src_term {
        // Fresh variables for the remaining fields of the reverse link.
        let mut reverse_args = vec![as_located(&dst_term), as_located(&src_term)];
        for i in 2..link.arity() {
            reverse_args.push(Term::Var(Variable::plain(format!("LR{}", i - 2))));
        }
        rule_b_body.push(Literal::Atom(Atom::link(link.name.clone(), reverse_args)));
    }
    rule_b_body.push(Literal::Atom(Atom::new(xfer_name, xfer_args)));
    rule_b_body.extend(dst_side.iter().cloned().map(Literal::Atom));
    rule_b_body.extend(rule.constraints().cloned());
    let rule_b = Rule::new(format!("{}b", rule.label), rule.head.clone(), rule_b_body);

    Ok(vec![rule_a, rule_b])
}

/// Force a term to be address-typed when it is a variable (the transfer
/// relation's first two fields are addresses by construction).
fn as_located(t: &Term) -> Term {
    match t {
        Term::Var(v) => Term::Var(Variable::located(v.name.clone())),
        other => other.clone(),
    }
}

/// Check whether a program is fully localized: every rule's body predicates
/// share a single location specifier (the body is evaluable at one node).
pub fn is_localized(program: &Program) -> bool {
    program.rules.iter().all(|r| {
        let mut locs = r.body_atoms().filter_map(|a| a.location());
        match locs.next() {
            None => true,
            Some(first) => locs.all(|l| l == first),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::validate::validate;

    const SP: &str = r#"
        sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C), P := f_cons(S, f_cons(D, nil)).
        sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
            C := C1 + C2, P := f_cons(S, P2).
        sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
        sp4 shortestPath(@S,@D,P,C) :- spCost(@S,@D,C), path(@S,@D,@Z,P,C).
    "#;

    #[test]
    fn local_rules_pass_through() {
        let p = parse_program(SP).unwrap();
        let sp3 = p.rule("sp3").unwrap();
        assert_eq!(localize_rule(sp3).unwrap(), vec![sp3.clone()]);
        let sp1 = p.rule("sp1").unwrap();
        assert_eq!(localize_rule(sp1).unwrap().len(), 1);
    }

    #[test]
    fn sp2_splits_into_transfer_and_join() {
        let p = parse_program(SP).unwrap();
        let rules = localize_rule(p.rule("sp2").unwrap()).unwrap();
        assert_eq!(rules.len(), 2);

        let a = &rules[0];
        assert_eq!(a.label, "sp2a");
        assert_eq!(a.head.name, "path_sp2_xd");
        // xd(@Z, @S, C1): destination, source, carried cost.
        assert_eq!(a.head.arity(), 3);
        assert_eq!(a.head.location_var(), Some("Z"));
        assert_eq!(a.body_atoms().count(), 1);
        assert!(a.body_atoms().next().unwrap().link);

        let b = &rules[1];
        assert_eq!(b.label, "sp2b");
        assert_eq!(b.head.name, "path");
        // Head at @S (link source) so a reverse link literal is added.
        let first = b.body_atoms().next().unwrap();
        assert!(
            first.link,
            "reverse link literal added for backward shipping"
        );
        assert_eq!(first.location_var(), Some("Z"));
        // Constraints moved to rule B.
        assert_eq!(b.constraints().count(), 2);
    }

    #[test]
    fn localized_program_is_locally_evaluable() {
        let p = parse_program(SP).unwrap();
        assert!(validate(&p).is_empty());
        assert!(!is_localized(&p));
        let localized = localize(&p).unwrap();
        assert!(is_localized(&localized));
        assert_eq!(localized.rules.len(), 5);
        // The rewritten program still passes the NDlog constraints.
        assert!(
            validate(&localized).is_empty(),
            "{:?}",
            validate(&localized)
        );
    }

    #[test]
    fn head_at_destination_needs_no_reverse_link() {
        // p is derived at the destination of the link; q lives at the
        // destination too, so the rule must be split but rule B needs no
        // reverse link literal.
        let src = "a p(@D, X) :- #link(@S, @D, C), q(@D, X), r(@S, X).";
        let p = parse_program(src).unwrap();
        let rules = localize_rule(&p.rules[0]).unwrap();
        assert_eq!(rules.len(), 2);
        let b = &rules[1];
        assert!(b.body_atoms().all(|a| !a.link));
        assert_eq!(b.head.location_var(), Some("D"));
        let localized = localize(&p).unwrap();
        assert!(is_localized(&localized));
    }

    #[test]
    fn all_source_side_rule_untouched() {
        // Body entirely at @S; head shipped to @D. Already evaluable at one
        // node, so no rewrite.
        let src = "a p(@D, X) :- #link(@S, @D, C), q(@S, X).";
        let p = parse_program(src).unwrap();
        let rules = localize_rule(&p.rules[0]).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0], p.rules[0]);
    }

    #[test]
    fn carried_variables_are_minimal() {
        // C1 is needed downstream (for the cost sum); the unused link field
        // U is not carried.
        let src = "a p(@S, C) :- #link(@S, @Z, C1, U), q(@Z, C2), C := C1 + C2.";
        let p = parse_program(src).unwrap();
        let rules = localize_rule(&p.rules[0]).unwrap();
        let xd = &rules[0].head;
        let vars = xd.variables();
        assert!(vars.contains(&"C1".to_string()));
        assert!(!vars.contains(&"U".to_string()));
    }

    #[test]
    fn non_link_restricted_rule_errors() {
        let src = "a p(@S, X) :- q(@D, X), r(@S, X).";
        let p = parse_program(src).unwrap();
        assert!(localize_rule(&p.rules[0]).is_err());
    }

    #[test]
    fn facts_pass_through() {
        let p = parse_program("f link(@n0, @n1, 1).").unwrap();
        assert_eq!(localize_rule(&p.rules[0]).unwrap().len(), 1);
    }
}
