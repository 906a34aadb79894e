//! The line protocol the TCP service speaks.
//!
//! Everything is newline-delimited UTF-8 text. On connect the server
//! greets with `hello <session-id>`. Each client line is one interactive
//! command; the server answers with zero or more *payload* lines followed
//! by exactly one *terminator* line:
//!
//! | line                          | meaning                                     |
//! |-------------------------------|---------------------------------------------|
//! | `info <text>`                 | one line of human-readable output           |
//! | `row <rel>(<args>)`           | one query result row                        |
//! | `dump <rel> <count> (<args>)` | one stored tuple with its derivation count  |
//! | `sub <id> <rel>`              | subscription created                        |
//! | `ok <summary>`                | command succeeded (terminator)              |
//! | `err <message>`               | command failed (terminator)                 |
//! | `bye`                         | `.quit` acknowledged; server closes         |
//!
//! Live-query events are pushed asynchronously as
//! `delta <sub-id> <epoch> <±rel(args)>` lines (they are produced by
//! *other* sessions' commits); clients must treat any `delta ` line as
//! out-of-band. The server writes whole *frames*: the `delta` lines one
//! commit owes a subscription arrive contiguous and in commit order, and
//! never inside another frame — a reply's payload lines and terminator
//! are one frame too, so a `delta` line can precede or follow a reply but
//! not split it.
//! A commit's frame is its net change: it names a tuple at most once, only
//! if the commit moved it (no tuple the commit asserted and retracted on
//! the way, no route retracted and re-asserted), and puts every `-` line
//! before every `+` line, so a client that indexes rows by primary key can
//! apply a frame line by line.
//! Embedded newlines in `err`/`info` text are escaped as `\n` so the
//! line framing survives multi-line caret snippets.

use crate::session::{DeltaEvent, Response};
use std::fmt::Write;

/// Append `text` to `out` escaped onto one line (`\` → `\\`, newline →
/// `\n`).
fn escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// Undo `escape_into`.
pub fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

// The writers below append whole lines, `\n` included, to a buffer the
// connection owns and reuses: a frame is rendered once, in place, and no
// line is a `String` of its own. Writing into a `String` cannot fail,
// hence the discarded `fmt::Result`s.

/// Append a successful response's wire lines (payload lines then the
/// terminator) to `out`.
pub fn write_response(out: &mut String, resp: &Response) {
    match resp {
        Response::Empty => out.push_str("ok\n"),
        Response::Ok(text) => {
            let mut lines = text.lines();
            let first = lines.next().unwrap_or("");
            for line in lines {
                let _ = writeln!(out, "info {line}");
            }
            out.push_str("ok ");
            escape_into(out, first);
            out.push('\n');
        }
        Response::Rows {
            relation,
            rows,
            epoch,
        } => {
            for row in rows {
                let _ = writeln!(out, "row {relation}{row}");
            }
            let _ = writeln!(out, "ok {} row(s); epoch {epoch}", rows.len());
        }
        Response::Subscribed {
            id,
            relation,
            snapshot,
            epoch,
        } => {
            let _ = writeln!(out, "sub {id} {relation}");
            let _ = writeln!(
                out,
                "ok subscribed {relation} as #{id}; {snapshot} tuple(s) in snapshot; epoch {epoch}"
            );
        }
        Response::Dump { rows, epoch } => {
            for (rel, count, tuple) in rows {
                let _ = writeln!(out, "dump {rel} {count} {tuple}");
            }
            let _ = writeln!(out, "ok {} stored tuple(s); epoch {epoch}", rows.len());
        }
        Response::Quit => out.push_str("bye\n"),
    }
}

/// Append an error terminator line to `out`.
pub fn write_error(out: &mut String, err: &crate::ServeError) {
    out.push_str("err ");
    escape_into(out, &err.to_string());
    out.push('\n');
}

/// Append an asynchronous live-query event line to `out`. The delta itself
/// prints as `+rel(args)` / `-rel(args)` (the runtime's signed-tuple
/// `Display`).
pub fn write_event(out: &mut String, event: &DeltaEvent) {
    let _ = writeln!(
        out,
        "delta {} {} {}",
        event.subscription, event.epoch, event.delta
    );
}

/// One line a writer appended, without its terminator.
fn single_line(write: impl FnOnce(&mut String)) -> String {
    let mut line = String::new();
    write(&mut line);
    line.pop();
    line
}

/// [`write_event`]'s line, terminator stripped.
pub fn format_event(event: &DeltaEvent) -> String {
    single_line(|out| write_event(out, event))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::Value;
    use ndlog_runtime::{Tuple, TupleDelta};

    /// [`write_response`]'s lines, one `String` each, terminators stripped.
    fn format_response(resp: &Response) -> Vec<String> {
        let mut out = String::new();
        write_response(&mut out, resp);
        out.split_terminator('\n').map(str::to_string).collect()
    }

    /// [`write_error`]'s line, terminator stripped.
    fn format_error(err: &crate::ServeError) -> String {
        single_line(|out| write_error(out, err))
    }

    #[test]
    fn escape_round_trips() {
        for text in ["plain", "two\nlines", "back\\slash\nand\\nmore"] {
            let mut escaped = String::new();
            escape_into(&mut escaped, text);
            assert!(!escaped.contains('\n'));
            assert_eq!(unescape(&escaped), text);
        }
    }

    #[test]
    fn responses_render_payload_then_terminator() {
        let rows = Response::Rows {
            relation: "link".to_string(),
            rows: vec![Tuple::new(vec![
                Value::addr(0u32),
                Value::addr(1u32),
                Value::Float(5.0),
            ])],
            epoch: 3,
        };
        assert_eq!(
            format_response(&rows),
            vec![
                "row link(@n0, @n1, 5.0)".to_string(),
                "ok 1 row(s); epoch 3".to_string(),
            ]
        );

        let multi = Response::Ok("first\nsecond".to_string());
        assert_eq!(
            format_response(&multi),
            vec!["info second".to_string(), "ok first".to_string()]
        );

        let event = DeltaEvent {
            subscription: 2,
            epoch: 7,
            delta: TupleDelta::delete(
                "link",
                Tuple::new(vec![
                    Value::addr(0u32),
                    Value::addr(2u32),
                    Value::Float(1.0),
                ]),
            ),
        };
        assert_eq!(format_event(&event), "delta 2 7 -link(@n0, @n2, 1.0)");
    }

    #[test]
    fn wrappers_return_exactly_the_lines_the_writers_append() {
        let tuple = || {
            Tuple::new(vec![
                Value::addr(0u32),
                Value::str("two\nlines \\ slash"),
                Value::Float(5.0),
            ])
        };
        let responses = [
            Response::Empty,
            Response::Ok(String::new()),
            Response::Ok("first \\ line\nsecond\nthird".to_string()),
            Response::Rows {
                relation: "link".to_string(),
                rows: vec![tuple(), tuple()],
                epoch: 3,
            },
            Response::Rows {
                relation: "link".to_string(),
                rows: Vec::new(),
                epoch: 0,
            },
            Response::Subscribed {
                id: 4,
                relation: "link".to_string(),
                snapshot: 2,
                epoch: 9,
            },
            Response::Dump {
                rows: vec![("link".to_string(), 2, tuple())],
                epoch: 1,
            },
            Response::Quit,
        ];
        // One buffer for everything, as a connection uses it: each writer
        // appends, none disturbs what is already there.
        let mut out = String::new();
        for resp in &responses {
            let before = out.len();
            write_response(&mut out, resp);
            assert_eq!(out[before..], format_response(resp).join("\n") + "\n");
        }
        for delta in [
            TupleDelta::insert("link", tuple()),
            TupleDelta::delete("link", tuple()),
        ] {
            let event = DeltaEvent {
                subscription: 1,
                epoch: 2,
                delta,
            };
            let before = out.len();
            write_event(&mut out, &event);
            assert_eq!(out[before..], format_event(&event) + "\n");
        }
        let err = crate::ServeError::new("line one\n  ^ here \\".to_string());
        let before = out.len();
        write_error(&mut out, &err);
        assert_eq!(out[before..], format_error(&err) + "\n");
        assert_eq!(format_error(&err), "err line one\\n  ^ here \\\\");
    }
}
