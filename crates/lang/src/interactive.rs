//! The interactive command dialect spoken by the `ndlog` shell and the
//! line-protocol network service.
//!
//! On top of the base program syntax ([`crate::parser`]) the interactive
//! dialect adds update statements, queries and meta commands, one command
//! per statement:
//!
//! ```text
//! +link(@n0, @n1, 5.0).                 % insert one ground fact
//! -link(@n0, @n1, 5.0).                 % delete one ground fact
//! +link[(@n0,@n1,1.0), (@n1,@n0,1.0)].  % bulk insert (one atomic batch)
//! -link[(@n0,@n1,1.0), (@n1,@n0,1.0)].  % bulk delete
//! ?- shortestPath(@n0, @D, P, C).       % query the current fixpoint
//! sp1 path(@S,@D,C) :- #link(@S,@D,C).  % add a rule (also with `+` prefix)
//! materialize(link, keys(1,2)).         % declare a table
//! .load "examples/shortest_path.ndl"    % load a program file
//! .subscribe shortestPath               % live deltas for a relation
//! .subscribe shortestPath(@n0, _, _, _) % ... filtered on bound columns
//! .unsubscribe 1                        % cancel by subscription id
//! .rel  .rules  .dump  .help  .quit     % introspection & session control
//! ```
//!
//! Queries are single ground-or-open atoms matched against the stored
//! fixpoint; update facts must be ground (constants only). Parse errors
//! carry positions and render caret snippets via
//! [`ParseError::render`](crate::error::ParseError::render).

use crate::ast::{Atom, Rule, TableDecl, Term};
use crate::error::ParseError;
use crate::lexer::{tokenize, TokenKind};
use crate::parser::Parser;
use crate::value::Value;
use std::fmt;

/// Direction of an update statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `+fact.`
    Insert,
    /// `-fact.`
    Delete,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Insert => "+",
            Op::Delete => "-",
        })
    }
}

/// One update statement: a signed batch of ground tuples for one relation.
/// A bulk statement (`+rel[(..), (..)].`) carries several tuples that the
/// session layer applies as one atomic batch (one epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Insert or delete.
    pub op: Op,
    /// Target relation.
    pub relation: String,
    /// Ground tuples, one `Vec<Value>` per fact.
    pub tuples: Vec<Vec<Value>>,
}

/// A column filter for `.subscribe rel(pattern)`: `Some(v)` binds the
/// column to a constant, `None` (written `_` or any variable) matches any
/// value.
pub type SubscribeFilter = Vec<Option<Value>>;

/// Target of `.unsubscribe`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsubscribeTarget {
    /// `.unsubscribe 3` — by the id returned from `.subscribe`.
    Id(u64),
    /// `.unsubscribe path` — every subscription on the relation.
    Relation(String),
}

/// Meta commands (dot-prefixed, not part of the stored program).
#[derive(Debug, Clone, PartialEq)]
pub enum MetaCommand {
    /// `.load "path"` — parse a program file and merge it into the session.
    Load(String),
    /// `.subscribe rel` / `.subscribe rel(pattern)`.
    Subscribe {
        /// Relation to watch.
        relation: String,
        /// Optional bound-column pattern (length = relation arity).
        filter: Option<SubscribeFilter>,
    },
    /// `.unsubscribe <id|relation>`.
    Unsubscribe(UnsubscribeTarget),
    /// `.rel` — list relations with tuple counts.
    Relations,
    /// `.rules` — list the rules of the loaded program.
    Rules,
    /// `.dump` — every stored tuple with its derivation count (the bitwise
    /// store fingerprint used by the consistency tests).
    Dump,
    /// `.help`.
    Help,
    /// `.quit` / `.exit`.
    Quit,
}

/// A parsed interactive command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `+fact.` / `-fact.` / bulk updates.
    Update(Update),
    /// `?- atom.` (and `query atom.`).
    Query(Atom),
    /// A rule statement (optionally `+`-prefixed).
    Rule(Rule),
    /// `materialize(...).`
    Table(TableDecl),
    /// Dot-prefixed meta command.
    Meta(MetaCommand),
}

/// Parse exactly one interactive command. Returns `Ok(None)` for blank or
/// comment-only input; trailing tokens after the first command are an
/// error.
pub fn parse_command(src: &str) -> Result<Option<Command>, ParseError> {
    let mut p = Parser::new(tokenize(src)?);
    let cmd = parse_next(&mut p)?;
    if cmd.is_some() && p.peek_kind() != &TokenKind::Eof {
        return Err(p.error(format!(
            "unexpected {} after the command",
            p.peek_kind().describe()
        )));
    }
    Ok(cmd)
}

fn parse_next(p: &mut Parser) -> Result<Option<Command>, ParseError> {
    match p.peek_kind().clone() {
        TokenKind::Eof => Ok(None),
        TokenKind::Plus => {
            p.advance();
            parse_signed(p, Op::Insert).map(Some)
        }
        TokenKind::Minus => {
            p.advance();
            parse_signed(p, Op::Delete).map(Some)
        }
        TokenKind::QuestionDash => {
            p.advance();
            let atom = p.parse_atom()?;
            p.expect(&TokenKind::Period)?;
            Ok(Some(Command::Query(atom)))
        }
        TokenKind::Period => {
            p.advance();
            parse_meta(p).map(Some)
        }
        TokenKind::Ident(id) if id == "materialize" => {
            Ok(Some(Command::Table(p.parse_materialize()?)))
        }
        TokenKind::Ident(id) if id == "query" && matches!(p.peek_ahead(1), TokenKind::Ident(_)) => {
            p.advance();
            let atom = p.parse_atom()?;
            p.expect(&TokenKind::Period)?;
            Ok(Some(Command::Query(atom)))
        }
        _ => {
            // A rule or a bare fact; bare facts are insert updates.
            let (line, column) = {
                let t = p.peek();
                (t.line, t.column)
            };
            // Remember whether the label is written out: unlabelled rules
            // keep an empty label so the session layer can pick one that
            // is fresh across the whole session, not just this statement.
            let labelled = matches!(
                (p.peek_kind(), p.peek_ahead(1)),
                (TokenKind::Ident(_), TokenKind::Ident(_)) | (TokenKind::Ident(_), TokenKind::Hash)
            );
            let mut rule = p.parse_rule_stmt()?;
            if rule.is_fact() {
                let tuple = ground_args(&rule.head, line, column)?;
                Ok(Some(Command::Update(Update {
                    op: Op::Insert,
                    relation: rule.head.name,
                    tuples: vec![tuple],
                })))
            } else {
                if !labelled {
                    rule.label = String::new();
                }
                Ok(Some(Command::Rule(rule)))
            }
        }
    }
}

/// After a leading `+`/`-`: either an update statement or (for `+` only) a
/// rule addition `+head :- body.`.
fn parse_signed(p: &mut Parser, op: Op) -> Result<Command, ParseError> {
    let (line, column) = {
        let t = p.peek();
        (t.line, t.column)
    };
    let relation = match p.peek_kind().clone() {
        TokenKind::Ident(name) if p.peek_ahead(1) == &TokenKind::LBracket => {
            p.advance();
            name
        }
        _ => {
            let atom = p.parse_atom()?;
            if p.peek_kind() == &TokenKind::ColonDash {
                if op == Op::Delete {
                    return Err(p.error("rules cannot be retracted with `-` (use `+` to add)"));
                }
                p.advance();
                let mut body = Vec::new();
                loop {
                    body.push(p.parse_literal()?);
                    if !p.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                p.expect(&TokenKind::Period)?;
                return Ok(Command::Rule(Rule {
                    label: String::new(), // relabelled by the session layer
                    head: atom,
                    body,
                }));
            }
            p.expect(&TokenKind::Period)?;
            let tuple = ground_args(&atom, line, column)?;
            return Ok(Command::Update(Update {
                op,
                relation: atom.name,
                tuples: vec![tuple],
            }));
        }
    };
    // Bulk form: rel[(t1), (t2), ...].
    p.expect(&TokenKind::LBracket)?;
    let mut tuples = Vec::new();
    loop {
        p.expect(&TokenKind::LParen)?;
        let mut tuple = Vec::new();
        if p.peek_kind() != &TokenKind::RParen {
            loop {
                let (tl, tc) = {
                    let t = p.peek();
                    (t.line, t.column)
                };
                match p.parse_term()? {
                    Term::Const(v) => tuple.push(v),
                    other => {
                        return Err(ParseError::new(
                            tl,
                            tc,
                            format!("update facts must be ground, found `{other}`"),
                        ))
                    }
                }
                if !p.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        p.expect(&TokenKind::RParen)?;
        tuples.push(tuple);
        if !p.eat(&TokenKind::Comma) {
            break;
        }
    }
    p.expect(&TokenKind::RBracket)?;
    p.expect(&TokenKind::Period)?;
    Ok(Command::Update(Update {
        op,
        relation,
        tuples,
    }))
}

fn parse_meta(p: &mut Parser) -> Result<Command, ParseError> {
    let name = match p.peek_kind().clone() {
        TokenKind::Ident(s) => {
            p.advance();
            s
        }
        other => {
            return Err(p.error(format!(
                "expected a meta command name after `.`, found {}",
                other.describe()
            )))
        }
    };
    let meta = match name.as_str() {
        "load" => match p.peek_kind().clone() {
            TokenKind::Str(path) => {
                p.advance();
                MetaCommand::Load(path)
            }
            other => {
                return Err(p.error(format!(
                    "`.load` expects a quoted file path, found {}",
                    other.describe()
                )))
            }
        },
        "subscribe" => {
            let relation = match p.peek_kind().clone() {
                TokenKind::Ident(s) => {
                    p.advance();
                    s
                }
                other => {
                    return Err(p.error(format!(
                        "`.subscribe` expects a relation name, found {}",
                        other.describe()
                    )))
                }
            };
            let filter = if p.eat(&TokenKind::LParen) {
                let mut pattern = Vec::new();
                if p.peek_kind() != &TokenKind::RParen {
                    loop {
                        match p.peek_kind().clone() {
                            TokenKind::Var(_) | TokenKind::AtVar(_) => {
                                p.advance();
                                pattern.push(None);
                            }
                            _ => {
                                let (tl, tc) = {
                                    let t = p.peek();
                                    (t.line, t.column)
                                };
                                match p.parse_term()? {
                                    Term::Const(v) => pattern.push(Some(v)),
                                    other => {
                                        return Err(ParseError::new(
                                            tl,
                                            tc,
                                            format!(
                                                "subscribe patterns take constants or `_`, \
                                                 found `{other}`"
                                            ),
                                        ))
                                    }
                                }
                            }
                        }
                        if !p.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                p.expect(&TokenKind::RParen)?;
                Some(pattern)
            } else {
                None
            };
            MetaCommand::Subscribe { relation, filter }
        }
        "unsubscribe" => match p.peek_kind().clone() {
            TokenKind::Int(id) if id >= 0 => {
                p.advance();
                MetaCommand::Unsubscribe(UnsubscribeTarget::Id(id as u64))
            }
            TokenKind::Ident(rel) => {
                p.advance();
                MetaCommand::Unsubscribe(UnsubscribeTarget::Relation(rel))
            }
            other => {
                return Err(p.error(format!(
                    "`.unsubscribe` expects a subscription id or relation name, found {}",
                    other.describe()
                )))
            }
        },
        "rel" | "relations" => MetaCommand::Relations,
        "rule" | "rules" => MetaCommand::Rules,
        "dump" => MetaCommand::Dump,
        "help" => MetaCommand::Help,
        "quit" | "exit" => MetaCommand::Quit,
        other => return Err(p.error(format!("unknown meta command `.{other}` (try `.help`)"))),
    };
    // Meta commands need no terminator, but tolerate a trailing period.
    p.eat(&TokenKind::Period);
    Ok(Command::Meta(meta))
}

fn ground_args(atom: &Atom, line: usize, column: usize) -> Result<Vec<Value>, ParseError> {
    atom.args
        .iter()
        .map(|t| match t {
            Term::Const(v) => Ok(v.clone()),
            other => Err(ParseError::new(
                line,
                column,
                format!("update facts must be ground, found `{other}`"),
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_net::NodeAddr;

    fn one(src: &str) -> Command {
        parse_command(src).unwrap().unwrap()
    }

    #[test]
    fn insert_and_delete_facts() {
        let Command::Update(u) = one("+link(@n0, @n1, 5.0).") else {
            panic!()
        };
        assert_eq!(u.op, Op::Insert);
        assert_eq!(u.relation, "link");
        assert_eq!(
            u.tuples,
            vec![vec![
                Value::Addr(NodeAddr(0)),
                Value::Addr(NodeAddr(1)),
                Value::Float(5.0)
            ]]
        );

        let Command::Update(u) = one("-edge(1, 2).") else {
            panic!()
        };
        assert_eq!(u.op, Op::Delete);
        assert_eq!(u.tuples, vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn bare_fact_is_insert() {
        let Command::Update(u) = one("link(@n0, @n1, 2).") else {
            panic!()
        };
        assert_eq!(u.op, Op::Insert);
        assert_eq!(u.relation, "link");
    }

    #[test]
    fn bulk_updates() {
        let Command::Update(u) = one("+edge[(1,2), (3,4), (5,6)].") else {
            panic!()
        };
        assert_eq!(u.op, Op::Insert);
        assert_eq!(u.relation, "edge");
        assert_eq!(u.tuples.len(), 3);
        assert_eq!(u.tuples[2], vec![Value::Int(5), Value::Int(6)]);

        let Command::Update(u) = one("-edge[(1,2)].") else {
            panic!()
        };
        assert_eq!(u.op, Op::Delete);
        assert_eq!(u.tuples.len(), 1);
    }

    #[test]
    fn updates_must_be_ground() {
        let err = parse_command("+link(@S, @D, 5).").unwrap_err();
        assert!(err.message.contains("ground"), "{}", err.message);
        assert_eq!((err.line, err.column), (1, 2));
        assert!(parse_command("+edge[(X, 2)].").is_err());
    }

    #[test]
    fn queries() {
        let Command::Query(atom) = one("?- shortestPath(@n0, @D, P, C).") else {
            panic!()
        };
        assert_eq!(atom.name, "shortestPath");
        assert_eq!(atom.arity(), 4);
        // The program-dialect spelling works too.
        let Command::Query(atom) = one("query path(@S, @D).") else {
            panic!()
        };
        assert_eq!(atom.name, "path");
    }

    #[test]
    fn rules_plain_and_plus_prefixed() {
        let Command::Rule(r) = one("sp1 path(@S,@D,C) :- #link(@S,@D,C).") else {
            panic!()
        };
        assert_eq!(r.label, "sp1");
        assert_eq!(r.head.name, "path");

        let Command::Rule(r) = one("+path(@S,@D,C) :- #link(@S,@D,C).") else {
            panic!()
        };
        assert!(r.label.is_empty());
        assert_eq!(r.body.len(), 1);

        assert!(parse_command("-path(@S,@D,C) :- #link(@S,@D,C).").is_err());
    }

    #[test]
    fn table_declarations() {
        let Command::Table(t) = one("materialize(link, keys(1,2), ttl(60)).") else {
            panic!()
        };
        assert_eq!(t.name, "link");
        assert_eq!(t.key_columns, vec![0, 1]);
    }

    #[test]
    fn meta_commands() {
        assert_eq!(
            one(".load \"examples/sp.ndl\""),
            Command::Meta(MetaCommand::Load("examples/sp.ndl".into()))
        );
        assert_eq!(one(".rel"), Command::Meta(MetaCommand::Relations));
        assert_eq!(one(".rules"), Command::Meta(MetaCommand::Rules));
        assert_eq!(one(".dump"), Command::Meta(MetaCommand::Dump));
        assert_eq!(one(".help"), Command::Meta(MetaCommand::Help));
        assert_eq!(one(".quit"), Command::Meta(MetaCommand::Quit));
        assert_eq!(one(".exit."), Command::Meta(MetaCommand::Quit));
        assert_eq!(
            one(".unsubscribe 3"),
            Command::Meta(MetaCommand::Unsubscribe(UnsubscribeTarget::Id(3)))
        );
        assert_eq!(
            one(".unsubscribe path"),
            Command::Meta(MetaCommand::Unsubscribe(UnsubscribeTarget::Relation(
                "path".into()
            )))
        );
        let err = parse_command(".bogus").unwrap_err();
        assert!(err.message.contains("unknown meta command"));
    }

    #[test]
    fn subscribe_with_and_without_filter() {
        assert_eq!(
            one(".subscribe shortestPath"),
            Command::Meta(MetaCommand::Subscribe {
                relation: "shortestPath".into(),
                filter: None
            })
        );
        let Command::Meta(MetaCommand::Subscribe { relation, filter }) =
            one(".subscribe shortestPath(@n0, _, _, C)")
        else {
            panic!()
        };
        assert_eq!(relation, "shortestPath");
        assert_eq!(
            filter,
            Some(vec![Some(Value::Addr(NodeAddr(0))), None, None, None])
        );
        assert!(parse_command(".subscribe p(q(1))").is_err());
    }

    #[test]
    fn every_command_kind_and_blank_input() {
        assert_eq!(parse_command("  % just a comment\n").unwrap(), None);
        let cmds: Vec<Command> = [
            "materialize(edge, keys(1,2)).",
            "+edge[(1,2), (2,3)].",
            "reach(A,B) :- edge(A,B).",
            "?- reach(A,B).",
            ".subscribe reach",
            "-edge(1,2).",
            ".quit",
        ]
        .into_iter()
        .map(|line| parse_command(line).unwrap().unwrap())
        .collect();
        assert!(matches!(cmds[0], Command::Table(_)));
        assert!(matches!(cmds[1], Command::Update(_)));
        assert!(matches!(cmds[2], Command::Rule(_)));
        assert!(matches!(cmds[3], Command::Query(_)));
        assert!(matches!(cmds[6], Command::Meta(MetaCommand::Quit)));
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let err = parse_command("+edge(1,2). extra").unwrap_err();
        assert!(err.message.contains("after the command"));
    }

    #[test]
    fn errors_render_caret_snippets() {
        let src = "+link(@n0 @n1).";
        let err = parse_command(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains('^'), "{rendered}");
        assert!(rendered.contains("+link(@n0 @n1)."));
    }
}
