//! Error types for the NDlog language frontend.

use std::fmt;

/// An error produced while parsing NDlog text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where the error occurred.
    pub line: usize,
    /// 1-based column where the error occurred.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Construct a parse error.
    pub fn new(line: usize, column: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            column,
            message: message.into(),
        }
    }

    /// The offending source line with a caret pointing at the error column,
    /// or `None` when the recorded position falls outside `src` (e.g. an
    /// end-of-input error one past the last line).
    ///
    /// ```text
    ///   path(@S, @D :- link(@S, @D).
    ///               ^
    /// ```
    fn snippet(&self, src: &str) -> Option<String> {
        let line = src.lines().nth(self.line.checked_sub(1)?)?;
        // Columns are 1-based character offsets; pad with spaces, preserving
        // tabs so the caret stays aligned under tab-indented source.
        let mut pad = String::new();
        for (idx, c) in line.chars().enumerate() {
            if idx + 1 >= self.column {
                break;
            }
            pad.push(if c == '\t' { '\t' } else { ' ' });
        }
        // A column one past the end of the line (end-of-line errors) still
        // gets a caret; anything further out is not anchored to this line.
        if self.column > line.chars().count() + 1 {
            return None;
        }
        Some(format!("  {line}\n  {pad}^"))
    }

    /// Full diagnostic: the `line:column: message` header plus the caret
    /// snippet when the position maps into `src`. This is what interactive
    /// front ends (REPL, service) show for a bad command.
    pub fn render(&self, src: &str) -> String {
        match self.snippet(src) {
            Some(snippet) => format!("{self}\n{snippet}"),
            None => self.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A violation of the NDlog syntactic constraints (Definition 6 in the
/// paper), reported per rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A predicate's first attribute is not a location specifier
    /// (constraint 1, *location specificity*).
    MissingLocationSpecifier { rule: String, predicate: String },
    /// A variable is used both as an address and as a non-address
    /// (constraint 2, *address type safety*).
    AddressTypeViolation { rule: String, variable: String },
    /// A link relation appears in the head of a rule with a non-empty body
    /// (constraint 3, *stored link relations*).
    DerivedLinkRelation { rule: String, predicate: String },
    /// A non-local rule is not link-restricted (constraint 4): either it has
    /// no link literal, more than one, or some literal's location specifier
    /// is not an endpoint of the link literal.
    NotLinkRestricted { rule: String, reason: String },
    /// A rule head or body predicate has no arguments at all.
    EmptyPredicate { rule: String, predicate: String },
    /// The same predicate is used with inconsistent arities.
    ArityMismatch {
        predicate: String,
        expected: usize,
        found: usize,
        rule: String,
    },
    /// A variable in the head does not appear in the body (unsafe rule).
    UnboundHeadVariable { rule: String, variable: String },
    /// An aggregate appears somewhere other than a head argument.
    MisplacedAggregate { rule: String },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::MissingLocationSpecifier { rule, predicate } => write!(
                f,
                "rule {rule}: predicate {predicate} does not start with a location specifier"
            ),
            ValidationError::AddressTypeViolation { rule, variable } => write!(
                f,
                "rule {rule}: variable {variable} is used both as an address and as a non-address"
            ),
            ValidationError::DerivedLinkRelation { rule, predicate } => write!(
                f,
                "rule {rule}: link relation {predicate} may not be derived (it must be stored)"
            ),
            ValidationError::NotLinkRestricted { rule, reason } => {
                write!(f, "rule {rule}: not link-restricted: {reason}")
            }
            ValidationError::EmptyPredicate { rule, predicate } => {
                write!(f, "rule {rule}: predicate {predicate} has no arguments")
            }
            ValidationError::ArityMismatch {
                predicate,
                expected,
                found,
                rule,
            } => write!(
                f,
                "rule {rule}: predicate {predicate} used with arity {found}, expected {expected}"
            ),
            ValidationError::UnboundHeadVariable { rule, variable } => write!(
                f,
                "rule {rule}: head variable {variable} is not bound in the body"
            ),
            ValidationError::MisplacedAggregate { rule } => {
                write!(
                    f,
                    "rule {rule}: aggregates may only appear in head arguments"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Any error from the language frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// Parsing failed.
    Parse(ParseError),
    /// The program violates the NDlog constraints.
    Validation(Vec<ValidationError>),
    /// A rewrite step could not be applied.
    Rewrite(String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Parse(e) => write!(f, "{e}"),
            LangError::Validation(errors) => {
                writeln!(f, "program violates NDlog constraints:")?;
                for e in errors {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            LangError::Rewrite(msg) => write!(f, "rewrite error: {msg}"),
        }
    }
}

impl std::error::Error for LangError {}

impl From<ParseError> for LangError {
    fn from(e: ParseError) -> Self {
        LangError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_error() {
        let e = ParseError::new(3, 7, "unexpected token");
        assert_eq!(e.to_string(), "parse error at 3:7: unexpected token");
    }

    #[test]
    fn snippet_points_at_offending_column() {
        let src = "good line\n+path(@S @D).\n";
        let e = ParseError::new(2, 10, "expected `,` or `)`");
        assert_eq!(e.snippet(src).unwrap(), "  +path(@S @D).\n           ^");
        let rendered = e.render(src);
        assert!(rendered.starts_with("parse error at 2:10:"));
        assert!(rendered.ends_with("           ^"));
    }

    #[test]
    fn snippet_allows_end_of_line_column() {
        let src = "+edge(1,2)";
        let e = ParseError::new(1, 11, "expected `.`");
        assert_eq!(e.snippet(src).unwrap(), "  +edge(1,2)\n            ^");
    }

    #[test]
    fn snippet_preserves_tab_alignment() {
        let src = "\t+edge(,).";
        let e = ParseError::new(1, 8, "expected a term");
        assert_eq!(e.snippet(src).unwrap(), "  \t+edge(,).\n  \t      ^");
    }

    #[test]
    fn snippet_out_of_range_is_none() {
        let e = ParseError::new(9, 1, "eof");
        assert_eq!(e.snippet("one line"), None);
        assert_eq!(e.render("one line"), e.to_string());
        let far = ParseError::new(1, 40, "way out");
        assert_eq!(far.snippet("one line"), None);
    }

    #[test]
    fn display_validation_errors() {
        let e = ValidationError::NotLinkRestricted {
            rule: "sp2".into(),
            reason: "two link literals".into(),
        };
        assert!(e.to_string().contains("sp2"));
        assert!(e.to_string().contains("two link literals"));

        let all = LangError::Validation(vec![e]);
        assert!(all.to_string().contains("violates NDlog constraints"));
    }

    #[test]
    fn parse_error_converts_to_lang_error() {
        let e: LangError = ParseError::new(1, 1, "x").into();
        assert!(matches!(e, LangError::Parse(_)));
    }
}
