//! The interactive shell: the same session layer as the TCP service,
//! rendered for a human on stdout.
//!
//! Statements may span lines (input is buffered until a line ends with
//! `.`); meta commands (leading `.`) always execute immediately. Live
//! subscription deltas print as `delta <sub> <epoch> <±rel(args)>` lines
//! as they happen, interleaved with the prompt like any other async
//! notification.

use crate::session::{DeltaEvent, EventSink, Response, Service};
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};

/// A sink that prints live deltas to stdout: rendered when delivered,
/// printed — stdout locked once for the lot — when flushed.
#[derive(Default)]
struct StdoutSink {
    lines: Mutex<String>,
}

impl EventSink for StdoutSink {
    fn deliver(&self, events: &[DeltaEvent]) {
        let mut lines = self.lines.lock().expect("rendering does not panic");
        for event in events {
            crate::protocol::write_event(&mut lines, event);
        }
    }

    fn flush(&self) {
        let lines = std::mem::take(&mut *self.lines.lock().expect("rendering does not panic"));
        print!("{lines}");
    }
}

/// Render a response for a human.
fn render(resp: &Response) -> String {
    match resp {
        Response::Empty => String::new(),
        Response::Ok(text) => text.clone(),
        Response::Rows {
            relation,
            rows,
            epoch,
        } => {
            let mut out = String::new();
            for row in rows {
                out.push_str(&format!("{relation}{row}\n"));
            }
            out.push_str(&format!("{} row(s); epoch {epoch}", rows.len()));
            out
        }
        Response::Subscribed {
            id,
            relation,
            snapshot,
            epoch,
        } => format!(
            "subscribed {relation} as #{id}; {snapshot} tuple(s) in snapshot; epoch {epoch}"
        ),
        Response::Dump { rows, epoch } => {
            let mut out = String::new();
            for (rel, count, tuple) in rows {
                out.push_str(&format!("{rel} x{count} {tuple}\n"));
            }
            out.push_str(&format!("{} stored tuple(s); epoch {epoch}", rows.len()));
            out
        }
        Response::Quit => "bye".to_string(),
    }
}

/// Is this line a complete statement on its own (a meta command), or does
/// it terminate the buffered statement (ends with `.`)?
fn complete(buffer: &str) -> bool {
    let trimmed = buffer.trim();
    trimmed.starts_with('.') || trimmed.ends_with('.')
}

/// Run the shell until EOF or `.quit`, reading from `input` and writing
/// prompts/results to `output`. Split out from [`run`] so tests can drive
/// it with in-memory buffers.
pub fn run_on(
    service: &Arc<Service>,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    let session = service.open_session(Arc::new(StdoutSink::default()));
    let mut buffer = String::new();
    write!(output, "ndlog> ")?;
    output.flush()?;
    for line in input.lines() {
        let line = line?;
        if !buffer.is_empty() {
            buffer.push('\n');
        }
        buffer.push_str(&line);
        if buffer.trim().is_empty() {
            buffer.clear();
        } else if complete(&buffer) {
            let statement = std::mem::take(&mut buffer);
            match session.execute_line(&statement) {
                Ok(Response::Quit) => {
                    writeln!(output, "bye")?;
                    return Ok(());
                }
                Ok(resp) => {
                    let text = render(&resp);
                    if !text.is_empty() {
                        writeln!(output, "{text}")?;
                    }
                }
                Err(err) => writeln!(output, "error: {err}")?,
            }
        } else {
            write!(output, "  ...> ")?;
            output.flush()?;
            continue;
        }
        write!(output, "ndlog> ")?;
        output.flush()?;
    }
    writeln!(output)?;
    session.close();
    Ok(())
}

/// Run the shell on stdin/stdout.
pub fn run(service: &Arc<Service>) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    run_on(service, stdin.lock(), std::io::stdout())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_executes_multi_line_statements_and_meta_commands() {
        let service = Service::new();
        let script = "\
materialize(edge, keys(1,2)).
+edge[(1,2),
      (2,3)].
reach(A,B) :- edge(A,B).
reach(A,C) :-
    edge(A,B),
    reach(B,C).
?- reach(1, _).
.rel
.quit
";
        let mut out = Vec::new();
        run_on(&service, script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("reach(1, 2)"), "{text}");
        assert!(text.contains("reach(1, 3)"), "{text}");
        assert!(text.contains("2 row(s)"), "{text}");
        assert!(text.contains("edge: 2 tuple(s)"), "{text}");
        assert!(text.contains("  ...> "), "continuation prompt: {text}");
        assert!(text.trim_end().ends_with("bye"), "{text}");
    }

    #[test]
    fn shell_reports_errors_and_keeps_going() {
        let service = Service::new();
        let script = "+edge(1 2).\n.relations\n";
        let mut out = Vec::new();
        run_on(&service, script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("error:"), "{text}");
        assert!(text.contains('^'), "caret snippet survives: {text}");
        assert!(text.contains("(no relations)"), "{text}");
    }
}
