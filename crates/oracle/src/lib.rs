//! A naive, stratified, bottom-up NDlog evaluator: the reference the
//! engine's tests compare against.
//!
//! It depends on `ndlog-lang` alone, shares no code with `ndlog-runtime`,
//! and is only ever a dev-dependency. Every choice is the simplest one
//! that can be right:
//!
//! * a rule body is nested loops over whole relations, in body order — no
//!   index, no batch, no timestamp but a trigger's visibility limit in
//!   [`fire_one`];
//! * expressions and builtins are evaluated here, over [`Value`] and the
//!   methods of `ndlog_lang::value::List`;
//! * a relation sits one stratum above every relation an aggregate rule
//!   deriving it reads; each stratum runs to its fixpoint after the lower
//!   ones have finished, its `min`/`max`/`count`/`sum` rules first, each
//!   folded per group over the distinct source tuples that join the whole
//!   body;
//! * relations are sets, and each derived tuple carries its number of
//!   distinct derivations: rule × combination of body tuples (an
//!   aggregate's output counts one);
//! * location specifiers, keys and TTLs are ignored.
//!
//! What ignoring keys means for a comparison is [`Oracle::agrees`].

use ndlog_lang::seminaive::DeltaRule;
use ndlog_lang::{AggFunc, Atom, BinOp, Expr, Literal, Program, Rule, Term, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A tuple, as its fields.
pub type Row = Vec<Value>;

/// Per relation: every tuple and its number of distinct derivations (zero
/// for an input tuple no rule derives).
type Relations = BTreeMap<String, BTreeMap<Row, usize>>;

/// The variable bindings of one combination of body tuples.
type Env = BTreeMap<String, Value>;

/// What a body atom ranges over: `rows(i, atom)` lists the tuples body
/// literal `i` joins.
type Rows<'a, 'r> = &'a dyn Fn(usize, &Atom) -> Vec<&'r [Value]>;

/// A program's fixpoint over a set of input tuples.
#[derive(Debug, Clone)]
pub struct Oracle {
    program: Program,
    relations: Relations,
}

impl Oracle {
    /// Evaluate `program` bottom-up over the `input` tuples, each named by
    /// its relation, and the program's own facts.
    pub fn run(
        program: &Program,
        input: impl IntoIterator<Item = (String, Row)>,
    ) -> Result<Oracle, String> {
        let mut relations = Relations::new();
        for (name, row) in input {
            relations.entry(name).or_default().entry(row).or_insert(0);
        }
        for stratum in strata(program)? {
            let (aggregates, plain): (Vec<&Rule>, Vec<&Rule>) =
                stratum.into_iter().partition(|r| r.head.has_aggregate());
            let mut outputs = Vec::new();
            for rule in aggregates {
                let rows = aggregate(rule, &relations)?;
                outputs.extend(rows.into_iter().map(|row| (&rule.head.name, row)));
            }
            for (name, row) in outputs {
                *relations
                    .entry(name.clone())
                    .or_default()
                    .entry(row)
                    .or_insert(0) += 1;
            }
            // Naive iteration: every round derives everything from all
            // that is known; the first round that finds nothing new is the
            // fixpoint, and its derivations are the ones counted.
            loop {
                let mut derived: BTreeMap<(&str, Row), usize> = BTreeMap::new();
                for rule in &plain {
                    for env in matches(&rule.body, &|_, atom| whole(&relations, atom))? {
                        let row = instantiate(&rule.head, &env)?;
                        *derived.entry((&rule.head.name, row)).or_insert(0) += 1;
                    }
                }
                let known = |name: &str, row: &Row| {
                    relations.get(name).is_some_and(|r| r.contains_key(row))
                };
                let grew = derived.keys().any(|(name, row)| !known(name, row));
                for ((name, row), n) in derived {
                    let count = relations.entry(name.to_string()).or_default();
                    let count = count.entry(row).or_insert(0);
                    if !grew {
                        *count += n;
                    }
                }
                if !grew {
                    break;
                }
            }
        }
        Ok(Oracle {
            program: program.clone(),
            relations,
        })
    }

    /// Every tuple of `relation`.
    pub fn tuples(&self, relation: &str) -> BTreeSet<Row> {
        self.relations
            .get(relation)
            .map_or_else(BTreeSet::new, |r| r.keys().cloned().collect())
    }

    /// The primary-key projection of a tuple of `relation`: every column
    /// when the program declares no key.
    fn key_of(&self, relation: &str, row: &[Value]) -> Row {
        match self.program.table_decl(relation) {
            Some(decl) if !decl.key_columns.is_empty() => decl
                .key_columns
                .iter()
                .filter_map(|&col| row.get(col).cloned())
                .collect(),
            _ => row.to_vec(),
        }
    }

    /// Whether an engine's tuples of `relation` agree with the fixpoint:
    /// they are a subset of the oracle's, and their primary-key projections
    /// are the oracle's. That is exact equality wherever no key holds two
    /// derivable tuples; where one does, the engine's keyed replacement
    /// keeps one of them by arrival order (equal-cost ties).
    pub fn agrees(&self, relation: &str, engine: &[Row]) -> Result<(), String> {
        let ours = self.tuples(relation);
        if let Some(extra) = engine.iter().find(|row| !ours.contains(*row)) {
            return Err(format!("{relation}{} is not derivable", show(extra)));
        }
        let held: BTreeSet<Row> = engine.iter().map(|r| self.key_of(relation, r)).collect();
        let mut keys = ours.iter().map(|row| (self.key_of(relation, row), row));
        match keys.find(|(key, _)| !held.contains(key)) {
            Some((key, row)) => Err(format!(
                "{relation}: nothing under key {} (e.g. {relation}{})",
                show(&key),
                show(row)
            )),
            None => Ok(()),
        }
    }

    /// Whether an engine's derivation counts for `relation` are the
    /// oracle's, on every key under which the oracle holds exactly one
    /// derived tuple.
    pub fn counts_agree(&self, relation: &str, engine: &[(Row, u64)]) -> Result<(), String> {
        let mut per_key: BTreeMap<Row, Vec<(&Row, usize)>> = BTreeMap::new();
        for (row, &n) in self.relations.get(relation).into_iter().flatten() {
            let key = self.key_of(relation, row);
            per_key.entry(key).or_default().push((row, n));
        }
        for (row, count) in engine {
            let once = per_key.get(&self.key_of(relation, row));
            let Some(&[(only, n)]) = once.map(Vec::as_slice) else {
                continue;
            };
            if only == row && n > 0 && u64::try_from(n) != Ok(*count) {
                return Err(format!(
                    "{relation}{} is stored with count {count}, derivable {n} ways",
                    show(row)
                ));
            }
        }
        Ok(())
    }
}

/// The derivations of one trigger of a strand: `rule`'s body with its
/// trigger literal bound to the tuple `trigger` and every other atom
/// ranging over the `stored` tuples (relation, fields, timestamp) whose
/// timestamp is at most `seq_limit` — one head tuple per combination.
pub fn fire_one(
    rule: &DeltaRule,
    trigger: &[Value],
    stored: &[(&str, Row, u64)],
    seq_limit: u64,
) -> Result<Vec<Row>, String> {
    let rows = |i: usize, atom: &Atom| {
        if i == rule.trigger {
            return vec![trigger];
        }
        let visible = stored
            .iter()
            .filter(|(name, _, seq)| *name == atom.name && *seq <= seq_limit);
        visible.map(|(_, row, _)| row.as_slice()).collect()
    };
    let envs = matches(&rule.rule.body, &rows)?;
    envs.iter()
        .map(|env| instantiate(&rule.rule.head, env))
        .collect()
}

/// A relation's tuples, all of them.
fn whole<'r>(relations: &'r Relations, atom: &Atom) -> Vec<&'r [Value]> {
    relations
        .get(&atom.name)
        .map_or_else(Vec::new, |r| r.keys().map(Vec::as_slice).collect())
}

/// The rules grouped by stratum, lowest first. A relation sits no lower
/// than anything a plain rule deriving it reads, and one above anything an
/// aggregate rule deriving it reads; a program that recurses through an
/// aggregate has no such assignment.
fn strata(program: &Program) -> Result<Vec<Vec<&Rule>>, String> {
    let mut level: BTreeMap<&str, usize> = BTreeMap::new();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let step = usize::from(rule.head.has_aggregate());
            let read = rule
                .body_atoms()
                .map(|a| level.get(a.name.as_str()).copied());
            let need = read.map(|l| l.unwrap_or(0) + step).max().unwrap_or(0);
            let have = level.entry(&rule.head.name).or_insert(0);
            if need > *have {
                if need > program.rules.len() {
                    return Err(format!("rule {} recurses through an aggregate", rule.label));
                }
                *have = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut strata: BTreeMap<usize, Vec<&Rule>> = BTreeMap::new();
    for rule in &program.rules {
        let at = level[rule.head.name.as_str()];
        strata.entry(at).or_default().push(rule);
    }
    Ok(strata.into_values().collect())
}

/// The outputs of an aggregate rule over relations that are complete: per
/// group of head values, the aggregate over the distinct tuples of the
/// source atom — the one body atom that mentions the aggregated variable —
/// that join the whole body.
fn aggregate(rule: &Rule, relations: &Relations) -> Result<Vec<Row>, String> {
    let &[at] = rule.head.aggregate_positions().as_slice() else {
        return Err(format!("rule {}: one aggregate per head", rule.label));
    };
    let Term::Agg(agg) = &rule.head.args[at] else {
        unreachable!("an aggregate position holds an aggregate");
    };
    let mentions = |a: &&Atom| {
        a.args
            .iter()
            .any(|t| t.var_name() == Some(agg.var.as_str()))
    };
    let Some(source) = rule.body_atoms().find(mentions) else {
        return Err(format!("rule {}: no atom provides {}", rule.label, agg.var));
    };
    let mut groups: BTreeMap<Row, BTreeMap<Row, Value>> = BTreeMap::new();
    for env in matches(&rule.body, &|_, atom| whole(relations, atom))? {
        let group = rule
            .head
            .args
            .iter()
            .filter(|t| !matches!(t, Term::Agg(_)))
            .map(|t| term_value(t, &env))
            .collect::<Result<Row, _>>()?;
        let tuple = instantiate(source, &env)?;
        groups
            .entry(group)
            .or_default()
            .insert(tuple, env[&agg.var].clone());
    }
    let fold = |inputs: BTreeMap<Row, Value>| -> Value {
        let count = inputs.len();
        let values = inputs.into_values();
        match agg.func {
            AggFunc::Min => values.min().expect("a group has an input"),
            AggFunc::Max => values.max().expect("a group has an input"),
            AggFunc::Count => Value::Int(i64::try_from(count).expect("count fits i64")),
            AggFunc::Sum => Value::Float(values.map(|v| v.as_f64().unwrap_or(0.0)).sum()),
        }
    };
    let outputs = groups.into_iter().map(|(mut group, inputs)| {
        group.insert(at, fold(inputs));
        group
    });
    Ok(outputs.collect())
}

/// Every environment that binds the whole `body`: nested loops in body
/// order, each atom over `rows`.
fn matches(body: &[Literal], rows: Rows) -> Result<Vec<Env>, String> {
    let mut out = Vec::new();
    extend(body, rows, 0, Env::new(), &mut out)?;
    Ok(out)
}

/// [`matches`] of `body[i..]` on top of `env`.
fn extend(
    body: &[Literal],
    rows: Rows,
    i: usize,
    env: Env,
    out: &mut Vec<Env>,
) -> Result<(), String> {
    let Some(literal) = body.get(i) else {
        out.push(env);
        return Ok(());
    };
    match literal {
        Literal::Atom(atom) => {
            for row in rows(i, atom) {
                if let Some(next) = unify(atom, row, &env) {
                    extend(body, rows, i + 1, next, out)?;
                }
            }
        }
        Literal::Assign(assign) => {
            let value = eval(&assign.expr, &env)?;
            match env.get(&assign.var) {
                Some(bound) if *bound != value => {}
                Some(_) => extend(body, rows, i + 1, env, out)?,
                None => {
                    let mut env = env;
                    env.insert(assign.var.clone(), value);
                    extend(body, rows, i + 1, env, out)?;
                }
            }
        }
        Literal::Filter(expr) => {
            let holds = match eval(expr, &env)? {
                Value::Bool(b) => b,
                Value::Int(n) => n != 0,
                Value::Float(x) => x != 0.0,
                other => return Err(format!("filter {expr} is {other}, not a truth value")),
            };
            if holds {
                extend(body, rows, i + 1, env, out)?;
            }
        }
    }
    Ok(())
}

/// `env` extended so that `atom` reads `row`, if it can: the arity
/// matches, constants are equal and every variable takes one value.
fn unify(atom: &Atom, row: &[Value], env: &Env) -> Option<Env> {
    if atom.arity() != row.len() {
        return None;
    }
    let mut fresh: Vec<(&String, &Value)> = Vec::new();
    for (term, value) in atom.args.iter().zip(row) {
        let wanted = match term {
            Term::Const(c) => Some(c),
            Term::Var(v) => env.get(&v.name).or_else(|| {
                fresh
                    .iter()
                    .find(|(name, _)| **name == v.name)
                    .map(|(_, x)| *x)
            }),
            Term::Agg(_) => return None,
        };
        match (wanted, term) {
            (Some(wanted), _) if wanted != value => return None,
            (None, Term::Var(v)) => fresh.push((&v.name, value)),
            _ => {}
        }
    }
    let mut env = env.clone();
    for (name, value) in fresh {
        env.insert(name.clone(), value.clone());
    }
    Some(env)
}

/// An atom's tuple under `env`.
fn instantiate(atom: &Atom, env: &Env) -> Result<Row, String> {
    atom.args.iter().map(|t| term_value(t, env)).collect()
}

fn term_value(term: &Term, env: &Env) -> Result<Value, String> {
    match term {
        Term::Const(c) => Ok(c.clone()),
        Term::Var(v) => lookup(&v.name, env),
        Term::Agg(a) => Err(format!("aggregate of {} outside a head", a.var)),
    }
}

fn lookup(name: &str, env: &Env) -> Result<Value, String> {
    env.get(name)
        .cloned()
        .ok_or_else(|| format!("unbound variable {name}"))
}

fn eval(expr: &Expr, env: &Env) -> Result<Value, String> {
    match expr {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(name) => lookup(name, env),
        Expr::Binary(op, l, r) => binary(*op, &eval(l, env)?, &eval(r, env)?),
        Expr::Call(name, args) => {
            let args = args
                .iter()
                .map(|a| eval(a, env))
                .collect::<Result<Vec<_>, _>>()?;
            builtin(name, &args)
        }
    }
}

fn binary(op: BinOp, l: &Value, r: &Value) -> Result<Value, String> {
    let truth = |b: bool| Ok(Value::Bool(b));
    match op {
        BinOp::Eq => truth(l == r),
        BinOp::Ne => truth(l != r),
        BinOp::Lt => truth(l < r),
        BinOp::Le => truth(l <= r),
        BinOp::Gt => truth(l > r),
        BinOp::Ge => truth(l >= r),
        BinOp::And | BinOp::Or => match (l, r) {
            (Value::Bool(a), Value::Bool(b)) => {
                truth(if op == BinOp::And { *a && *b } else { *a || *b })
            }
            _ => Err(format!("{l} {} {r} needs two booleans", op.symbol())),
        },
        BinOp::Add => numeric(l, r, i64::checked_add, |a, b| a + b),
        BinOp::Sub => numeric(l, r, i64::checked_sub, |a, b| a - b),
        BinOp::Mul => numeric(l, r, i64::checked_mul, |a, b| a * b),
        BinOp::Div if r.as_f64() == Some(0.0) => Err(format!("{l} / {r} divides by zero")),
        BinOp::Div => {
            let exact = |a: i64, b: i64| (a.checked_rem(b)? == 0).then(|| a.checked_div(b))?;
            numeric(l, r, exact, |a, b| a / b)
        }
    }
}

/// Arithmetic: two integers stay an integer where the exact result is
/// one; anything else numeric is a float.
fn numeric(
    l: &Value,
    r: &Value,
    int: impl Fn(i64, i64) -> Option<i64>,
    float: impl Fn(f64, f64) -> f64,
) -> Result<Value, String> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        if let Some(exact) = int(*a, *b) {
            return Ok(Value::Int(exact));
        }
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok(Value::Float(float(a, b))),
        _ => Err(format!("arithmetic on {l} and {r}")),
    }
}

/// The `f_*` builtins (the prefix is optional).
fn builtin(name: &str, args: &[Value]) -> Result<Value, String> {
    let short = name.strip_prefix("f_").unwrap_or(name);
    let arity = match short {
        "size" | "first" | "last" => 1,
        "cons" | "concatPath" | "append" | "concat" | "member" | "min" | "max" => 2,
        _ => return Err(format!("unknown function {name}")),
    };
    if args.len() != arity {
        return Err(format!(
            "{name} takes {arity} arguments, not {}",
            args.len()
        ));
    }
    let list = |i: usize| {
        args[i]
            .as_list()
            .ok_or_else(|| format!("{name} needs a list, not {}", args[i]))
    };
    let end = |v: Option<&Value>| v.cloned().ok_or_else(|| format!("{name} of an empty list"));
    Ok(match short {
        "cons" | "concatPath" => Value::List(list(1)?.cons(args[0].clone())),
        "append" => Value::List(list(0)?.snoc(args[1].clone())),
        "concat" => Value::List(list(0)?.concat(list(1)?)),
        "member" => Value::Int(i64::from(list(0)?.contains(&args[1]))),
        "size" => Value::Int(i64::try_from(list(0)?.len()).expect("a length fits i64")),
        "first" => end(list(0)?.first())?,
        "last" => end(list(0)?.last())?,
        "min" => args[0].clone().min(args[1].clone()),
        _ => args[0].clone().max(args[1].clone()),
    })
}

fn show(row: &[Value]) -> String {
    let fields: Vec<String> = row.iter().map(Value::to_string).collect();
    format!("({})", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::seminaive::delta_rewrite_full;
    use ndlog_lang::{parse_program, programs};

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    fn run(src: &str, input: &[(&str, Row)]) -> Oracle {
        let program = parse_program(src).unwrap();
        let input = input.iter().map(|(n, r)| (n.to_string(), r.clone()));
        Oracle::run(&program, input).unwrap()
    }

    fn counts(oracle: &Oracle, relation: &str) -> Vec<(Row, usize)> {
        let rows = oracle.relations.get(relation).into_iter().flatten();
        rows.map(|(row, &n)| (row.clone(), n)).collect()
    }

    #[test]
    fn reachability_counts_every_derivation() {
        // 0 → 1 → 2 and 0 → 2: reach(0, 2) has two derivations.
        let link = |s: u32, d: u32| ("link", vec![addr(s), addr(d), int(1)]);
        let oracle = Oracle::run(
            &programs::reachability(""),
            [link(0, 1), link(1, 2), link(0, 2)].map(|(n, r)| (n.to_string(), r)),
        )
        .unwrap();
        let reach = |s: u32, d: u32| vec![addr(s), addr(d)];
        assert_eq!(
            counts(&oracle, "reachable"),
            vec![(reach(0, 1), 1), (reach(0, 2), 2), (reach(1, 2), 1)]
        );
        // Input tuples are held, not derived.
        assert_eq!(counts(&oracle, "link")[0].1, 0);
    }

    #[test]
    fn aggregates_fold_the_source_tuples_that_match_the_source_atom() {
        let obs = |s: u32, a: i64, c: i64| ("obs", vec![addr(s), int(a), int(c)]);
        let input = [obs(0, 1, 5), obs(0, 2, 7), obs(0, 1, 9), obs(1, 4, 4)];
        let oracle = run(
            "c cnt(@S, count<C>) :- obs(@S, 1, C).
             m same(@S, max<C>) :- obs(@S, C, C).
             l low(@S, min<C>) :- obs(@S, A, C).
             s total(@S, sum<C>) :- obs(@S, A, C).
             h high(@S, max<C>) :- obs(@S, A, C), cnt(@S, N).",
            &input,
        );
        assert_eq!(counts(&oracle, "cnt"), vec![(vec![addr(0), int(2)], 1)]);
        assert_eq!(counts(&oracle, "same"), vec![(vec![addr(1), int(4)], 1)]);
        let low = oracle.tuples("low").into_iter().collect::<Vec<_>>();
        assert_eq!(low, vec![vec![addr(0), int(5)], vec![addr(1), int(4)]]);
        let total = oracle.tuples("total").into_iter().collect::<Vec<_>>();
        assert_eq!(total[0], vec![addr(0), Value::Float(21.0)]);
        // `high` reads `cnt`, so it runs a stratum above it: only node 0
        // has a count.
        let high = oracle.tuples("high").into_iter().collect::<Vec<_>>();
        assert_eq!(high, vec![vec![addr(0), int(9)]]);
    }

    #[test]
    fn recursion_through_an_aggregate_is_refused() {
        let program = parse_program(
            "a best(@S, min<C>) :- cost(@S, C).
             b cost(@S, C) :- best(@S, C).",
        )
        .unwrap();
        assert!(Oracle::run(&program, []).is_err());
    }

    #[test]
    fn expressions_and_builtins() {
        let oracle = run(
            "r out(@S, A, B, C, D, L, M) :- in(@S, X, Y), A := X + Y, B := X / Y,
                 C := (X * 2.5) - 1, D := f_max(X, Y) == 4,
                 L := f_append(f_cons(S, nil), X), M := f_size(L) + f_member(L, X),
                 X != Y, f_first(L) == S, f_last(L) == X.",
            &[
                ("in", vec![addr(3), int(4), int(2)]),
                ("in", vec![addr(3), int(1), int(2)]),
            ],
        );
        let list = Value::list(vec![addr(3), int(4)]);
        let want = vec![
            addr(3),
            int(6),
            int(2),
            Value::Float(9.0),
            Value::Bool(true),
            list,
            int(3),
        ];
        let got = oracle.tuples("out").into_iter().collect::<Vec<_>>();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&want), "{got:?}");
        let half = got.iter().find(|row| row[1] == int(3)).unwrap();
        assert_eq!(half[2], Value::Float(0.5));

        let fails = |src: &str| {
            let program = parse_program(src).unwrap();
            let input = [("in".to_string(), vec![addr(0), int(1), Value::str("x")])];
            Oracle::run(&program, input).unwrap_err()
        };
        assert!(fails("r out(@S) :- in(@S, X, Y), Y.").contains("truth value"));
        assert!(fails("r out(@S, Z) :- in(@S, X, Y), Z := X / 0.").contains("zero"));
        assert!(fails("r out(@S, Z) :- in(@S, X, Y), Z := X + Y.").contains("arithmetic"));
        assert!(fails("r out(@S, Z) :- in(@S, X, Y), Z := f_size(X).").contains("list"));
        assert!(fails("r out(@S, Z) :- in(@S, X, Y).").contains("unbound"));
    }

    #[test]
    fn fire_one_binds_the_trigger_and_sees_only_older_tuples() {
        let program = parse_program("r out(@S, W) :- q(@S, K), t(@S, K, W), W > K.").unwrap();
        let strand = delta_rewrite_full(&program)
            .into_iter()
            .find(|s| s.trigger_relation == "q")
            .unwrap();
        let stored = [
            ("t", vec![addr(0), int(1), int(5)], 1),
            ("t", vec![addr(0), int(1), int(0)], 2),
            ("t", vec![addr(0), int(1), int(6)], 3),
            ("q", vec![addr(0), int(1)], 4),
        ];
        let trigger = [addr(0), int(1)];
        let fired = |limit| fire_one(&strand, &trigger, &stored, limit).unwrap();
        assert_eq!(
            fired(u64::MAX),
            vec![vec![addr(0), int(5)], vec![addr(0), int(6)]]
        );
        assert_eq!(fired(2), vec![vec![addr(0), int(5)]]);
        assert_eq!(fired(0), Vec::<Row>::new());
    }

    #[test]
    fn keyed_relations_agree_on_a_subset_with_every_key() {
        let oracle = run(
            "materialize(best, keys(1)).
             r best(@S, C) :- cost(@S, C).",
            &[
                ("cost", vec![addr(0), int(1)]),
                ("cost", vec![addr(0), int(2)]),
                ("cost", vec![addr(1), int(3)]),
            ],
        );
        let best = |s: u32, c: i64| vec![addr(s), int(c)];
        assert_eq!(oracle.agrees("best", &[best(0, 2), best(1, 3)]), Ok(()));
        assert!(
            oracle.agrees("best", &[best(0, 2)]).is_err(),
            "key 1 missing"
        );
        assert!(
            oracle.agrees("best", &[best(0, 2), best(1, 4)]).is_err(),
            "not derivable"
        );
        // Counts are compared where a key holds one tuple only.
        assert_eq!(
            oracle.counts_agree("best", &[(best(0, 2), 7), (best(1, 3), 1)]),
            Ok(())
        );
        assert!(oracle.counts_agree("best", &[(best(1, 3), 2)]).is_err());
        // Without a declared key, a tuple is its own key.
        assert!(oracle.agrees("cost", &[best(0, 1), best(1, 3)]).is_err());
    }
}
