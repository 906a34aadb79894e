//! Abstract syntax for NDlog programs.
//!
//! A [`Program`] is a set of [`Rule`]s, optional table declarations
//! ([`TableDecl`], the analogue of P2's `materialize` statements) and query
//! atoms. Rules have a head [`Atom`] and a body of [`Literal`]s; literals
//! are predicate atoms (possibly link literals, written `#link(...)`),
//! assignments (`C := C1 + C2`), or boolean filters (`C1 < 10`).

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Aggregate functions supported in rule heads (e.g. `min<C>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// Minimum of the aggregated field per group.
    Min,
    /// Maximum of the aggregated field per group.
    Max,
    /// Number of tuples per group.
    Count,
    /// Sum of the aggregated field per group.
    Sum,
}

impl AggFunc {
    /// The NDlog keyword for this aggregate.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
        }
    }

    /// Parse an aggregate keyword.
    pub fn from_name(s: &str) -> Option<AggFunc> {
        match s {
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            _ => None,
        }
    }

    /// Whether the aggregate is monotonic in the sense required by
    /// aggregate selections (a better value can only improve as more input
    /// arrives in one direction): min and max are, count and sum are not.
    pub fn is_selection_monotonic(&self) -> bool {
        matches!(self, AggFunc::Min | AggFunc::Max)
    }
}

/// A variable occurrence, possibly marked as an address (`@X`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Variable {
    /// Variable name (starts with an upper-case letter by convention).
    pub name: String,
    /// Whether the occurrence is written with an `@` prefix (address type).
    pub located: bool,
}

impl Variable {
    /// A plain (non-address) variable.
    pub fn plain(name: impl Into<String>) -> Self {
        Variable {
            name: name.into(),
            located: false,
        }
    }

    /// An address-typed variable (`@X`).
    pub fn located(name: impl Into<String>) -> Self {
        Variable {
            name: name.into(),
            located: true,
        }
    }
}

/// An aggregate head argument such as `min<C>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Aggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated variable.
    pub var: String,
}

/// A term: an argument of a predicate atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Term {
    /// A variable.
    Var(Variable),
    /// A constant value.
    Const(Value),
    /// An aggregate (only legal in head arguments).
    Agg(Aggregate),
}

impl Term {
    /// Convenience: a plain variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(Variable::plain(name))
    }

    /// Convenience: an address-typed variable term.
    pub fn at(name: impl Into<String>) -> Term {
        Term::Var(Variable::located(name))
    }

    /// Convenience: an aggregate term.
    pub fn agg(func: AggFunc, var: impl Into<String>) -> Term {
        Term::Agg(Aggregate {
            func,
            var: var.into(),
        })
    }

    /// The variable name, if this term is a variable.
    pub fn var_name(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(&v.name),
            _ => None,
        }
    }

    /// Whether this term denotes an address: either an `@`-marked variable
    /// or an address constant.
    pub fn is_address(&self) -> bool {
        match self {
            Term::Var(v) => v.located,
            Term::Const(c) => c.is_addr(),
            Term::Agg(_) => false,
        }
    }

    /// All variable names mentioned by this term.
    pub fn variables(&self) -> Vec<&str> {
        match self {
            Term::Var(v) => vec![v.name.as_str()],
            Term::Agg(a) => vec![a.var.as_str()],
            Term::Const(_) => vec![],
        }
    }
}

/// Binary operators in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinOp {
    /// The surface syntax of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Expressions used in assignments and filters.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A variable reference.
    Var(String),
    /// A constant.
    Const(Value),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A builtin function call (`f_concatPath(...)`, `f_member(...)`, ...).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// A variable expression.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// A binary expression.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// A function call expression.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    /// All variable names referenced by this expression.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Var(v) => {
                out.insert(v.clone());
            }
            Expr::Const(_) => {}
            Expr::Binary(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }
}

/// A predicate atom: `path(@S, @D, @Z, P, C)` or `#link(@S, @D, C)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Atom {
    /// Relation name.
    pub name: String,
    /// Whether the atom is a link literal (`#`-prefixed).
    pub link: bool,
    /// Arguments; the first is the location specifier.
    pub args: Vec<Term>,
}

impl Atom {
    /// Build a (non-link) atom.
    pub fn new(name: impl Into<String>, args: Vec<Term>) -> Atom {
        Atom {
            name: name.into(),
            link: false,
            args,
        }
    }

    /// Build a link literal.
    pub fn link(name: impl Into<String>, args: Vec<Term>) -> Atom {
        Atom {
            name: name.into(),
            link: true,
            args,
        }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The location specifier (first argument), if any.
    pub fn location(&self) -> Option<&Term> {
        self.args.first()
    }

    /// The location specifier's variable name, if it is a variable.
    pub fn location_var(&self) -> Option<&str> {
        self.location().and_then(Term::var_name)
    }

    /// All variable names in the atom's arguments, in positional order
    /// (with duplicates removed, preserving first occurrence).
    pub fn variables(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.args {
            for v in t.variables() {
                if seen.insert(v.to_string()) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }

    /// Whether any argument is an aggregate.
    pub fn has_aggregate(&self) -> bool {
        self.args.iter().any(|t| matches!(t, Term::Agg(_)))
    }

    /// Positions of aggregate arguments.
    pub fn aggregate_positions(&self) -> Vec<usize> {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, Term::Agg(_)))
            .map(|(i, _)| i)
            .collect()
    }
}

/// An assignment literal `Var := Expr` (the paper writes `=`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Assignment {
    /// Variable being bound (or checked, if already bound).
    pub var: String,
    /// The defining expression.
    pub expr: Expr,
}

/// A body literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Literal {
    /// A predicate atom (possibly a link literal).
    Atom(Atom),
    /// An assignment `V := expr`.
    Assign(Assignment),
    /// A boolean filter expression.
    Filter(Expr),
}

impl Literal {
    /// The atom inside, if this literal is a predicate.
    fn as_atom(&self) -> Option<&Atom> {
        match self {
            Literal::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// Variables referenced by the literal.
    pub fn variables(&self) -> BTreeSet<String> {
        match self {
            Literal::Atom(a) => a.variables().into_iter().collect(),
            Literal::Assign(a) => {
                let mut v = a.expr.variables();
                v.insert(a.var.clone());
                v
            }
            Literal::Filter(e) => e.variables(),
        }
    }
}

/// A rule: `head :- body.`  A rule with an empty body asserts a fact.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rule {
    /// The rule label (e.g. `sp1`); auto-generated if absent in the source.
    pub label: String,
    /// The head atom.
    pub head: Atom,
    /// Body literals, in source order.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Build a rule.
    pub fn new(label: impl Into<String>, head: Atom, body: Vec<Literal>) -> Rule {
        Rule {
            label: label.into(),
            head,
            body,
        }
    }

    /// Predicate atoms in the body, in order.
    pub fn body_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(Literal::as_atom)
    }

    /// Link literals in the body.
    pub fn link_literals(&self) -> impl Iterator<Item = &Atom> {
        self.body_atoms().filter(|a| a.link)
    }

    /// Non-predicate literals (assignments and filters), in order.
    pub fn constraints(&self) -> impl Iterator<Item = &Literal> {
        self.body.iter().filter(|l| !matches!(l, Literal::Atom(_)))
    }

    /// Whether the rule is **local** (Definition 3): every predicate,
    /// including the head, has the same location specifier term.
    pub fn is_local(&self) -> bool {
        let Some(head_loc) = self.head.location() else {
            return false;
        };
        self.body_atoms()
            .all(|a| a.location().map(|l| l == head_loc).unwrap_or(false))
    }

    /// Whether the rule is a fact (empty body).
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// All variables appearing anywhere in the rule.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = self.head.variables().into_iter().collect();
        for l in &self.body {
            out.extend(l.variables());
        }
        out
    }

    /// Map from variable name to whether it is ever written with `@` in
    /// this rule (address-typed occurrences).
    pub fn address_usage(&self) -> BTreeMap<String, (bool, bool)> {
        // (used_as_address, used_as_non_address)
        let mut usage: BTreeMap<String, (bool, bool)> = BTreeMap::new();
        let mut record = |term: &Term| {
            if let Term::Var(v) = term {
                let e = usage.entry(v.name.clone()).or_insert((false, false));
                if v.located {
                    e.0 = true;
                } else {
                    e.1 = true;
                }
            }
        };
        for t in &self.head.args {
            record(t);
        }
        for a in self.body_atoms() {
            for t in &a.args {
                record(t);
            }
        }
        usage
    }
}

/// A table declaration, the analogue of P2's `materialize` statement:
/// relation name, primary-key columns (1-based in the surface syntax,
/// 0-based here) and an optional soft-state lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDecl {
    /// Relation name.
    pub name: String,
    /// Primary-key column indexes (0-based). Empty means "all columns".
    pub key_columns: Vec<usize>,
    /// Soft-state time-to-live in seconds; `None` means the tuples are hard
    /// state (kept until deleted).
    pub ttl_seconds: Option<f64>,
    /// Declared arity, if known.
    pub arity: Option<usize>,
}

/// A parsed NDlog program.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Program {
    /// Optional program name.
    pub name: String,
    /// Table declarations.
    pub tables: Vec<TableDecl>,
    /// Rules in source order.
    pub rules: Vec<Rule>,
    /// Query atoms (`Query shortestPath(@S,@D,P,C).`).
    pub queries: Vec<Atom>,
}

impl Program {
    /// Create an empty program with a name.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Names of relations used as link literals anywhere in the program.
    pub fn link_relations(&self) -> BTreeSet<String> {
        self.rules
            .iter()
            .flat_map(|r| r.link_literals().map(|a| a.name.clone()))
            .collect()
    }

    /// Find the declaration for a relation, if present.
    pub fn table_decl(&self, name: &str) -> Option<&TableDecl> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Find a rule by label.
    pub fn rule(&self, label: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.label == label)
    }

    /// Arity of a relation as used in the program (first occurrence wins).
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        if let Some(d) = self.table_decl(name) {
            if let Some(a) = d.arity {
                return Some(a);
            }
        }
        for r in &self.rules {
            if r.head.name == name {
                return Some(r.head.arity());
            }
            for a in r.body_atoms() {
                if a.name == name {
                    return Some(a.arity());
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Pretty printing (the NDlog surface syntax).
// ---------------------------------------------------------------------------

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => {
                if v.located {
                    write!(f, "@{}", v.name)
                } else {
                    write!(f, "{}", v.name)
                }
            }
            Term::Const(c) => write!(f, "{c}"),
            Term::Agg(a) => write!(f, "{}<{}>", a.func.name(), a.var),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Binary(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.link {
            write!(f, "#")?;
        }
        write!(f, "{}(", self.name)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Atom(a) => write!(f, "{a}"),
            Literal::Assign(a) => write!(f, "{} := {}", a.var, a.expr),
            Literal::Filter(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.label, self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        write!(f, ".")
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            write!(f, "materialize({}, keys(", t.name)?;
            for (i, k) in t.key_columns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", k + 1)?;
            }
            write!(f, ")")?;
            if let Some(ttl) = t.ttl_seconds {
                write!(f, ", ttl({ttl})")?;
            }
            writeln!(f, ").")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        for q in &self.queries {
            writeln!(f, "query {q}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp2_rule() -> Rule {
        // sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
        //     C := C1 + C2, P := f_concat(S, P2).
        Rule::new(
            "sp2",
            Atom::new(
                "path",
                vec![
                    Term::at("S"),
                    Term::at("D"),
                    Term::at("Z"),
                    Term::var("P"),
                    Term::var("C"),
                ],
            ),
            vec![
                Literal::Atom(Atom::link(
                    "link",
                    vec![Term::at("S"), Term::at("Z"), Term::var("C1")],
                )),
                Literal::Atom(Atom::new(
                    "path",
                    vec![
                        Term::at("Z"),
                        Term::at("D"),
                        Term::at("Z2"),
                        Term::var("P2"),
                        Term::var("C2"),
                    ],
                )),
                Literal::Assign(Assignment {
                    var: "C".into(),
                    expr: Expr::bin(BinOp::Add, Expr::var("C1"), Expr::var("C2")),
                }),
                Literal::Assign(Assignment {
                    var: "P".into(),
                    expr: Expr::call("f_concat", vec![Expr::var("S"), Expr::var("P2")]),
                }),
            ],
        )
    }

    #[test]
    fn atom_helpers() {
        let a = Atom::new("path", vec![Term::at("S"), Term::at("D"), Term::var("C")]);
        assert_eq!(a.arity(), 3);
        assert_eq!(a.location_var(), Some("S"));
        assert_eq!(a.variables(), vec!["S", "D", "C"]);
        assert!(!a.has_aggregate());

        let agg = Atom::new("spCost", vec![Term::at("S"), Term::agg(AggFunc::Min, "C")]);
        assert!(agg.has_aggregate());
        assert_eq!(agg.aggregate_positions(), vec![1]);
    }

    #[test]
    fn rule_locality() {
        let local = Rule::new(
            "sp4",
            Atom::new("shortestPath", vec![Term::at("S"), Term::var("C")]),
            vec![
                Literal::Atom(Atom::new("spCost", vec![Term::at("S"), Term::var("C")])),
                Literal::Atom(Atom::new("path", vec![Term::at("S"), Term::var("C")])),
            ],
        );
        assert!(local.is_local());
        assert!(
            !sp2_rule().is_local(),
            "sp2 joins relations at different locations"
        );
    }

    #[test]
    fn rule_accessors() {
        let r = sp2_rule();
        assert_eq!(r.body_atoms().count(), 2);
        assert_eq!(r.link_literals().count(), 1);
        assert_eq!(r.constraints().count(), 2);
        assert!(!r.is_fact());
        assert!(r.variables().contains("C1"));
        let usage = r.address_usage();
        assert_eq!(usage.get("S"), Some(&(true, false)));
        assert_eq!(usage.get("P"), Some(&(false, true)));
    }

    #[test]
    fn program_relation_classification() {
        let mut p = Program::new("sp");
        p.rules.push(sp2_rule());
        assert!(p.link_relations().contains("link"));
        assert_eq!(p.arity_of("path"), Some(5));
        assert_eq!(p.arity_of("link"), Some(3));
        assert_eq!(p.arity_of("missing"), None);
    }

    #[test]
    fn display_roundtrip_shapes() {
        let r = sp2_rule();
        let s = r.to_string();
        assert!(s.starts_with("sp2 path(@S, @D, @Z, P, C) :- #link(@S, @Z, C1)"));
        assert!(s.contains("C := (C1 + C2)"));
        assert!(s.ends_with("."));

        let t = Term::agg(AggFunc::Min, "C");
        assert_eq!(t.to_string(), "min<C>");
    }

    #[test]
    fn expr_variables() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("A"),
            Expr::call("f", vec![Expr::var("B"), Expr::Const(Value::Int(1))]),
        );
        let vars = e.variables();
        assert!(vars.contains("A") && vars.contains("B"));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn aggfunc_properties() {
        assert_eq!(AggFunc::from_name("min"), Some(AggFunc::Min));
        assert_eq!(AggFunc::from_name("avg"), None);
        assert!(AggFunc::Min.is_selection_monotonic());
        assert!(!AggFunc::Count.is_selection_monotonic());
        assert_eq!(AggFunc::Sum.name(), "sum");
    }
}
