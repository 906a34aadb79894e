//! Aggregate normal form: every aggregate rule folds one stored relation.
//!
//! The runtime maintains an aggregate rule incrementally over a relation
//! the node already stores (Sections 3.3 and 4 of the paper) when the rule
//! is in **normal form**: its body is one atom of distinct variables, and
//! every head field but the aggregate is a constant or one of those
//! variables, as in SP3 (`spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C)`).
//! Every other aggregate rule — a guard atom (SP3-SD's `magicDst(@D)`), a
//! filter, an assignment, a constant or a repeated variable in the source
//! atom — is split into two rules with the same label. A plain rule
//! evaluates the original body and derives a new relation, named from the
//! head and the label the way [`crate::localize`] names its transfer
//! relations; its head is the source atom's arguments — the one body atom
//! that mentions the aggregated variable — followed by each head variable
//! the source atom lacks. The aggregate rule then folds that relation
//! through an atom of distinct variables:
//!
//! ```text
//! l low(@S, B, min<C>) :- obs(@S, 1, C), ok(@S), C > 4, B := C / 10.
//! ```
//!
//! becomes
//!
//! ```text
//! l low_l_ag(@S, 1, C, B) :- obs(@S, 1, C), ok(@S), C > 4, B := C / 10.
//! l low(@V0, V3, min<V2>) :- low_l_ag(@V0, V1, V2, V3).
//! ```
//!
//! The new relation is keyed on all its columns, so a group counts each
//! distinct source tuple once. The source columns keep their positions, so
//! an aggregate selection inferred on the original rule ([`crate::aggsel`])
//! names the new relation's columns too. Strands and DRed maintain the
//! plain rule like any other: a guard or input that arrives late, or
//! leaves, reaches the aggregate as an insertion or deletion.

use crate::ast::{Atom, Literal, Program, Rule, Term, Variable};

/// Suffix of the relation a split aggregate rule folds.
const SPLIT_SUFFIX: &str = "_ag";

/// Whether an aggregate rule is in normal form: its body is one atom of
/// distinct variables, and every non-aggregate head field is a constant or
/// one of those variables.
pub fn in_normal_form(rule: &Rule) -> bool {
    let [Literal::Atom(source)] = rule.body.as_slice() else {
        return false;
    };
    let column = |name: &str| source.args.iter().position(|t| t.var_name() == Some(name));
    let distinct = source
        .args
        .iter()
        .enumerate()
        .all(|(col, term)| matches!(term, Term::Var(v) if column(&v.name) == Some(col)));
    let bound = rule.head.args.iter().all(|term| match term {
        Term::Var(v) => column(&v.name).is_some(),
        Term::Const(_) | Term::Agg(_) => true,
    });
    distinct && bound
}

/// Split every aggregate rule not in normal form into a plain rule and an
/// aggregate rule in normal form; every other rule is kept as it is. A
/// rule with other than one aggregate head field, or an aggregate in its
/// body, is kept too, for the runtime to refuse. Fails when no single body
/// atom provides an aggregate rule's aggregated variable.
pub fn split_aggregates(program: &Program) -> Result<Program, String> {
    let rules: Vec<Vec<Rule>> = program
        .rules
        .iter()
        .map(split_rule)
        .collect::<Result<_, _>>()?;
    Ok(Program {
        rules: rules.concat(),
        ..program.clone()
    })
}

fn split_rule(rule: &Rule) -> Result<Vec<Rule>, String> {
    let (&[at], false, false) = (
        rule.head.aggregate_positions().as_slice(),
        in_normal_form(rule),
        rule.body_atoms().any(Atom::has_aggregate),
    ) else {
        return Ok(vec![rule.clone()]);
    };
    let Term::Agg(agg) = &rule.head.args[at] else {
        unreachable!("position came from aggregate_positions");
    };
    let mut providers = rule
        .body_atoms()
        .filter(|a| a.variables().contains(&agg.var));
    let (Some(source), None) = (providers.next(), providers.next()) else {
        return Err(format!(
            "rule {}: the aggregated variable {} must be provided by exactly one body atom",
            rule.label, agg.var
        ));
    };
    let mut columns = source.args.clone();
    for term in &rule.head.args {
        let var = term.var_name();
        if var.is_some() && !columns.iter().any(|c| c.var_name() == var) {
            columns.push(term.clone());
        }
    }
    let name = format!("{}_{}{}", rule.head.name, rule.label, SPLIT_SUFFIX);
    let head = Atom::new(name.clone(), columns.clone());
    let plain = Rule::new(rule.label.clone(), head, rule.body.clone());

    // The aggregate rule calls column `i` `Vi`, and a head variable by the
    // first column holding it.
    let var = |col: usize, located: bool| {
        let name = format!("V{col}");
        Term::Var(Variable { name, located })
    };
    let col_of = |name: &str| {
        let col = columns.iter().position(|c| c.var_name() == Some(name));
        col.expect("every head variable is a column")
    };
    let head = rule.head.args.iter().map(|term| match term {
        Term::Var(v) => var(col_of(&v.name), v.located),
        Term::Agg(a) => Term::agg(a.func, format!("V{}", col_of(&a.var))),
        Term::Const(_) => term.clone(),
    });
    let columns = columns.iter().enumerate();
    let args = columns.map(|(col, term)| var(col, col == 0 || term.is_address()));
    let aggregate = Rule::new(
        rule.label.clone(),
        Atom::new(rule.head.name.clone(), head.collect()),
        vec![Literal::Atom(Atom::new(name, args.collect()))],
    );
    Ok(vec![plain, aggregate])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn split(src: &str) -> Vec<String> {
        let program = split_aggregates(&parse_program(src).unwrap()).unwrap();
        program.rules.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn rules_in_normal_form_are_kept() {
        for src in [
            "sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).",
            "c cnt(@S, 7, count<C>) :- obs(@S, K, C).",
            "sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C), P := f_cons(S, nil).",
        ] {
            let program = parse_program(src).unwrap();
            assert!(program
                .rules
                .iter()
                .all(|r| !r.head.has_aggregate() || in_normal_form(r)));
            assert_eq!(split_aggregates(&program).unwrap(), program);
        }
    }

    #[test]
    fn a_guarded_rule_folds_a_relation_keeping_the_source_columns() {
        let rules = split("sd3 spCost(@D,@S,min<C>) :- magicDst(@D), pathDst(@D,@S,@Z,P,C).");
        assert_eq!(
            rules,
            [
                "sd3 spCost_sd3_ag(@D, @S, @Z, P, C) :- magicDst(@D), pathDst(@D, @S, @Z, P, C).",
                "sd3 spCost(@V0, @V1, min<V4>) :- spCost_sd3_ag(@V0, @V1, @V2, V3, V4).",
            ]
        );
    }

    #[test]
    fn constants_repeats_filters_and_assigned_head_variables_become_columns() {
        let rules = split("l low(@S, B, min<C>) :- obs(@S, 1, C, C), C > 4, B := C / 10.");
        assert_eq!(
            rules,
            [
                "l low_l_ag(@S, 1, C, C, B) :- obs(@S, 1, C, C), (C > 4), B := (C / 10).",
                "l low(@V0, V4, min<V2>) :- low_l_ag(@V0, V1, V2, V3, V4).",
            ]
        );
        let program = parse_program(&rules.join("\n")).unwrap();
        assert!(in_normal_form(&program.rules[1]));
        assert_eq!(split_aggregates(&program).unwrap(), program);
    }

    #[test]
    fn an_aggregated_variable_needs_exactly_one_provider_and_no_body_aggregate() {
        for src in [
            "x agg(@S, min<C>) :- p(@S, C), q(@S, C).",
            "x agg(@S, min<D>) :- p(@S, C), D := C.",
        ] {
            let err = split_aggregates(&parse_program(src).unwrap()).unwrap_err();
            assert!(
                err.contains("must be provided by exactly one body atom"),
                "{err}"
            );
        }
        let p = parse_program("x agg(@S, min<C>) :- p(@S, C), q(@S, max<D>).").unwrap();
        assert_eq!(split_aggregates(&p).unwrap(), p);
    }
}
