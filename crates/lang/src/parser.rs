//! Recursive-descent parser for the NDlog surface syntax.
//!
//! Supported statements:
//!
//! ```text
//! materialize(path, keys(1,2,3), ttl(30)).        % table declaration
//! sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C),       % rule with optional label
//!       P := f_concat(S, f_cons(D, nil)).
//! sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C). % aggregate head
//! query shortestPath(@S,@D,P,C).                  % query declaration
//! ```
//!
//! Conventions (following the paper):
//! * predicate and function names start with a lower-case letter; builtin
//!   function names start with `f_`;
//! * variables start with an upper-case letter; `@`-prefixed variables are
//!   address-typed; `@n3` is an address constant;
//! * `#` marks a link literal;
//! * `V := expr` (or `V = expr`) is an assignment; other expressions in the
//!   body are boolean filters;
//! * `min<C>`, `max<C>`, `count<C>`, `sum<C>` are head aggregates.

use crate::ast::{
    AggFunc, Assignment, Atom, BinOp, Expr, Literal, Program, Rule, TableDecl, Term, Variable,
};
use crate::error::ParseError;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::value::Value;
use ndlog_net::NodeAddr;

/// Parse a complete NDlog program from source text.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src)?;
    Parser::new(tokens).parse_program()
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    auto_label: usize,
}

impl Parser {
    pub(crate) fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            auto_label: 0,
        }
    }

    pub(crate) fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    pub(crate) fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    pub(crate) fn peek_ahead(&self, n: usize) -> &TokenKind {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    pub(crate) fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn error(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(t.line, t.column, msg.into())
    }

    pub(crate) fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.peek_kind() == kind {
            Ok(self.advance())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek_kind().describe()
            )))
        }
    }

    pub(crate) fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new("ndlog");
        while self.peek_kind() != &TokenKind::Eof {
            match self.peek_kind() {
                TokenKind::Ident(id) if id == "materialize" => {
                    let decl = self.parse_materialize()?;
                    program.tables.push(decl);
                }
                TokenKind::Ident(id) if id == "query" => {
                    self.advance();
                    let atom = self.parse_atom()?;
                    self.expect(&TokenKind::Period)?;
                    program.queries.push(atom);
                }
                _ => {
                    let rule = self.parse_rule_stmt()?;
                    program.rules.push(rule);
                }
            }
        }
        Ok(program)
    }

    pub(crate) fn parse_materialize(&mut self) -> Result<TableDecl, ParseError> {
        self.advance(); // materialize
        self.expect(&TokenKind::LParen)?;
        let name = match self.advance().kind {
            TokenKind::Ident(s) => s,
            other => {
                return Err(self.error(format!(
                    "expected relation name, found {}",
                    other.describe()
                )))
            }
        };
        let mut decl = TableDecl {
            name,
            key_columns: Vec::new(),
            ttl_seconds: None,
            arity: None,
        };
        let mut bare_positional = 0;
        while self.eat(&TokenKind::Comma) {
            match self.peek_kind().clone() {
                TokenKind::Ident(id) if id == "keys" => {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    loop {
                        match self.advance().kind {
                            TokenKind::Int(k) if k >= 1 => {
                                decl.key_columns.push((k - 1) as usize);
                            }
                            other => {
                                return Err(self.error(format!(
                                    "expected 1-based key column index, found {}",
                                    other.describe()
                                )))
                            }
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                }
                TokenKind::Ident(id) if id == "ttl" => {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    decl.ttl_seconds = Some(self.parse_number()?);
                    self.expect(&TokenKind::RParen)?;
                }
                TokenKind::Ident(id) if id == "arity" => {
                    self.advance();
                    self.expect(&TokenKind::LParen)?;
                    let n = self.parse_number()?;
                    decl.arity = Some(n as usize);
                    self.expect(&TokenKind::RParen)?;
                }
                // P2-style positional arguments: materialize(link, infinity, infinity, keys(1,2)).
                // The first positional argument is the lifetime (TTL), the
                // second is the table size bound (ignored here).
                TokenKind::Ident(id) if id == "infinity" => {
                    self.advance();
                    bare_positional += 1;
                }
                TokenKind::Int(_) | TokenKind::Float(_) => {
                    let v = self.parse_number()?;
                    bare_positional += 1;
                    if bare_positional == 1 {
                        decl.ttl_seconds = Some(v);
                    }
                }
                other => {
                    return Err(self.error(format!(
                        "unexpected materialize argument {}",
                        other.describe()
                    )))
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Period)?;
        Ok(decl)
    }

    fn parse_number(&mut self) -> Result<f64, ParseError> {
        match self.advance().kind {
            TokenKind::Int(i) => Ok(i as f64),
            TokenKind::Float(f) => Ok(f),
            other => Err(self.error(format!("expected number, found {}", other.describe()))),
        }
    }

    pub(crate) fn parse_rule_stmt(&mut self) -> Result<Rule, ParseError> {
        // Optional label: an identifier directly followed by another
        // identifier or `#` (the head atom) rather than `(`.
        let label = match (self.peek_kind(), self.peek_ahead(1)) {
            (TokenKind::Ident(l), TokenKind::Ident(_)) | (TokenKind::Ident(l), TokenKind::Hash) => {
                let l = l.clone();
                self.advance();
                l
            }
            _ => {
                self.auto_label += 1;
                format!("r{}", self.auto_label)
            }
        };
        let head = self.parse_atom()?;
        let mut body = Vec::new();
        if self.eat(&TokenKind::ColonDash) {
            loop {
                body.push(self.parse_literal()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::Period)?;
        Ok(Rule { label, head, body })
    }

    pub(crate) fn parse_atom(&mut self) -> Result<Atom, ParseError> {
        let link = self.eat(&TokenKind::Hash);
        let name = match self.advance().kind {
            TokenKind::Ident(s) => s,
            other => {
                return Err(self.error(format!(
                    "expected predicate name, found {}",
                    other.describe()
                )))
            }
        };
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek_kind() != &TokenKind::RParen {
            loop {
                args.push(self.parse_term()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Atom { name, link, args })
    }

    pub(crate) fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::AtVar(name) => {
                self.advance();
                Ok(Term::Var(Variable::located(name)))
            }
            TokenKind::AtConst(a) => {
                self.advance();
                Ok(Term::Const(Value::Addr(NodeAddr(a))))
            }
            TokenKind::Var(name) => {
                self.advance();
                Ok(Term::Var(Variable::plain(name)))
            }
            TokenKind::Int(i) => {
                self.advance();
                Ok(Term::Const(Value::Int(i)))
            }
            TokenKind::Float(f) => {
                self.advance();
                Ok(Term::Const(Value::Float(f)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Term::Const(Value::str(s)))
            }
            TokenKind::LBracket => {
                let v = self.parse_list_value()?;
                Ok(Term::Const(v))
            }
            TokenKind::Ident(id) => {
                if id == "nil" {
                    self.advance();
                    return Ok(Term::Const(Value::nil()));
                }
                if id == "true" || id == "false" {
                    self.advance();
                    return Ok(Term::Const(Value::Bool(id == "true")));
                }
                // Aggregate: min<C>, max<C>, count<C>, sum<C>.
                if let Some(func) = AggFunc::from_name(&id) {
                    if self.peek_ahead(1) == &TokenKind::Lt {
                        self.advance(); // func name
                        self.advance(); // <
                        let var = match self.advance().kind {
                            TokenKind::Var(v) => v,
                            other => {
                                return Err(self.error(format!(
                                    "expected variable inside aggregate, found {}",
                                    other.describe()
                                )))
                            }
                        };
                        self.expect(&TokenKind::Gt)?;
                        return Ok(Term::agg(func, var));
                    }
                }
                Err(self.error(format!(
                    "unexpected identifier `{id}` in predicate argument"
                )))
            }
            other => Err(self.error(format!(
                "unexpected {} in predicate argument",
                other.describe()
            ))),
        }
    }

    pub(crate) fn parse_list_value(&mut self) -> Result<Value, ParseError> {
        self.expect(&TokenKind::LBracket)?;
        let mut items = Vec::new();
        if self.peek_kind() != &TokenKind::RBracket {
            loop {
                let v = match self.advance().kind {
                    TokenKind::Int(i) => Value::Int(i),
                    TokenKind::Float(f) => Value::Float(f),
                    TokenKind::Str(s) => Value::str(s),
                    TokenKind::AtConst(a) => Value::Addr(NodeAddr(a)),
                    other => {
                        return Err(self.error(format!(
                            "only constants are allowed in list literals, found {}",
                            other.describe()
                        )))
                    }
                };
                items.push(v);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RBracket)?;
        Ok(Value::list(items))
    }

    pub(crate) fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        match self.peek_kind().clone() {
            // Assignment: Var := expr  or  Var = expr.
            TokenKind::Var(name)
                if matches!(self.peek_ahead(1), TokenKind::Assign | TokenKind::EqSign) =>
            {
                self.advance();
                self.advance();
                let expr = self.parse_expr()?;
                Ok(Literal::Assign(Assignment { var: name, expr }))
            }
            // Predicate atom: `#link(...)` or `pred(...)` where the name is
            // not an `f_`-prefixed builtin function.
            TokenKind::Hash => Ok(Literal::Atom(self.parse_atom()?)),
            TokenKind::Ident(id)
                if !id.starts_with("f_")
                    && id != "nil"
                    && id != "true"
                    && id != "false"
                    && self.peek_ahead(1) == &TokenKind::LParen =>
            {
                Ok(Literal::Atom(self.parse_atom()?))
            }
            // Anything else is a boolean filter expression.
            _ => Ok(Literal::Filter(self.parse_expr()?)),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.parse_and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.parse_cmp()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_additive()?;
        let op = match self.peek_kind() {
            TokenKind::EqEq | TokenKind::EqSign => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let rhs = self.parse_additive()?;
            Ok(Expr::bin(op, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_mul()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_primary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_primary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Int(i) => {
                self.advance();
                Ok(Expr::Const(Value::Int(i)))
            }
            TokenKind::Float(f) => {
                self.advance();
                Ok(Expr::Const(Value::Float(f)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Const(Value::str(s)))
            }
            TokenKind::Var(v) => {
                self.advance();
                Ok(Expr::Var(v))
            }
            TokenKind::AtVar(v) => {
                self.advance();
                Ok(Expr::Var(v))
            }
            TokenKind::AtConst(a) => {
                self.advance();
                Ok(Expr::Const(Value::Addr(NodeAddr(a))))
            }
            TokenKind::LBracket => {
                let v = self.parse_list_value()?;
                Ok(Expr::Const(v))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Minus => {
                self.advance();
                let e = self.parse_primary()?;
                Ok(Expr::bin(BinOp::Sub, Expr::Const(Value::Int(0)), e))
            }
            TokenKind::Ident(id) => {
                self.advance();
                match id.as_str() {
                    "nil" => Ok(Expr::Const(Value::nil())),
                    "true" => Ok(Expr::Const(Value::Bool(true))),
                    "false" => Ok(Expr::Const(Value::Bool(false))),
                    _ => {
                        // Function call.
                        self.expect(&TokenKind::LParen)?;
                        let mut args = Vec::new();
                        if self.peek_kind() != &TokenKind::RParen {
                            loop {
                                args.push(self.parse_expr()?);
                                if !self.eat(&TokenKind::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                        Ok(Expr::Call(id, args))
                    }
                }
            }
            other => Err(self.error(format!("unexpected {} in expression", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggFunc, BinOp, Literal, Term};

    /// The first rule of `src`.
    fn parse_rule(src: &str) -> Result<Rule, ParseError> {
        let program = parse_program(src)?;
        program
            .rules
            .into_iter()
            .next()
            .ok_or_else(|| ParseError::new(1, 1, "expected a rule"))
    }

    #[test]
    fn parses_shortest_path_program() {
        let src = r#"
            materialize(link, keys(1,2), ttl(60)).
            materialize(path, keys(1,2,3,4)).

            sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C),
                P := f_cons(S, f_cons(D, nil)).
            sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
                C := C1 + C2, P := f_cons(S, P2), f_member(P2, S) == 0.
            sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
            sp4 shortestPath(@S,@D,P,C) :- spCost(@S,@D,C), path(@S,@D,@Z,P,C).

            query shortestPath(@S,@D,P,C).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.tables.len(), 2);
        assert_eq!(p.rules.len(), 4);
        assert_eq!(p.queries.len(), 1);

        let link_decl = p.table_decl("link").unwrap();
        assert_eq!(link_decl.key_columns, vec![0, 1]);
        assert_eq!(link_decl.ttl_seconds, Some(60.0));

        let sp1 = p.rule("sp1").unwrap();
        assert_eq!(sp1.head.name, "path");
        assert_eq!(sp1.head.arity(), 5);
        assert!(sp1.body_atoms().next().unwrap().link);

        let sp2 = p.rule("sp2").unwrap();
        assert_eq!(sp2.body.len(), 5);
        assert!(matches!(sp2.body[4], Literal::Filter(_)));

        let sp3 = p.rule("sp3").unwrap();
        assert!(matches!(
            sp3.head.args[2],
            Term::Agg(ref a) if a.func == AggFunc::Min && a.var == "C"
        ));
    }

    #[test]
    fn parses_p2_style_materialize() {
        let p = parse_program("materialize(link, infinity, infinity, keys(1,2)).").unwrap();
        assert_eq!(p.tables[0].key_columns, vec![0, 1]);
        assert_eq!(p.tables[0].ttl_seconds, None);

        let p = parse_program("materialize(cache, 120, infinity, keys(1)).").unwrap();
        assert_eq!(p.tables[0].ttl_seconds, Some(120.0));
    }

    #[test]
    fn facts_and_unlabelled_rules() {
        let p = parse_program("link(@n0, @n1, 5). reach(@S,@D) :- #link(@S,@D,C).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(p.rules[0].is_fact());
        assert_eq!(p.rules[0].label, "r1");
        assert_eq!(p.rules[1].label, "r2");
        assert_eq!(
            p.rules[0].head.args[0],
            Term::Const(Value::Addr(NodeAddr(0)))
        );
    }

    #[test]
    fn assignment_with_plain_equals() {
        let r = parse_rule("a p(@S,C) :- q(@S,C1), C = C1 + 1.").unwrap();
        match &r.body[1] {
            Literal::Assign(a) => {
                assert_eq!(a.var, "C");
                assert!(matches!(a.expr, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn filter_expressions() {
        let r = parse_rule("a p(@S) :- q(@S,C), C < 10, f_size(C) != 2.").unwrap();
        assert!(matches!(r.body[1], Literal::Filter(_)));
        assert!(matches!(r.body[2], Literal::Filter(_)));
    }

    #[test]
    fn operator_precedence() {
        let r = parse_rule("a p(@S,C) :- q(@S,A,B), C := A + B * 2.").unwrap();
        let Literal::Assign(assign) = &r.body[1] else {
            panic!()
        };
        // A + (B * 2)
        match &assign.expr {
            Expr::Binary(BinOp::Add, l, r) => {
                assert!(matches!(**l, Expr::Var(ref v) if v == "A"));
                assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected expr {other:?}"),
        }
    }

    #[test]
    fn parenthesized_expressions() {
        let r = parse_rule("a p(@S,C) :- q(@S,A,B), C := (A + B) * 2.").unwrap();
        let Literal::Assign(assign) = &r.body[1] else {
            panic!()
        };
        assert!(matches!(assign.expr, Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn list_and_nil_constants() {
        let r = parse_rule("a p(@S, [1, 2, @n3], nil) :- q(@S).").unwrap();
        let Term::Const(Value::List(items)) = &r.head.args[1] else {
            panic!()
        };
        assert_eq!(items.len(), 3);
        assert_eq!(r.head.args[2], Term::Const(Value::nil()));
    }

    #[test]
    fn query_statement() {
        let p = parse_program("query shortestPath(@S, @D, P, C).").unwrap();
        assert_eq!(p.queries.len(), 1);
        assert_eq!(p.queries[0].name, "shortestPath");
    }

    #[test]
    fn negative_numbers_in_expressions() {
        let r = parse_rule("a p(@S,C) :- q(@S,A), C := -1 + A.").unwrap();
        assert!(matches!(r.body[1], Literal::Assign(_)));
    }

    #[test]
    fn errors_have_positions() {
        let err = parse_program("a p(@S) :- q(@S)").unwrap_err();
        assert!(err.message.contains("expected"));
        assert!(err.line >= 1);

        assert!(parse_program("p(@S) :- .").is_err());
        assert!(
            parse_program("p(@S) :- 42abc.").is_err() || parse_program("p(@S) :- f_x(.").is_err()
        );
        assert!(
            parse_program("materialize(p, keys(0)).").is_err(),
            "key columns are 1-based"
        );
    }

    #[test]
    fn aggregate_requires_variable() {
        assert!(parse_program("a s(@S, min<3>) :- p(@S, C).").is_err());
    }

    #[test]
    fn min_without_angle_bracket_is_error() {
        // `min` not followed by `<` is not a valid term.
        assert!(parse_program("a s(@S, min) :- p(@S, C).").is_err());
    }

    #[test]
    fn display_then_reparse_is_stable() {
        let src = r#"
            sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
                C := C1 + C2, P := f_cons(S, P2).
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1.rules, p2.rules);
    }
}
