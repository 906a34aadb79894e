//! A scripted line-protocol client, used by the CI smoke test and the
//! integration tests. Not a general-purpose client library: it drives one
//! command at a time and stashes any asynchronous `delta` lines it
//! encounters along the way.

use crate::protocol;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed `delta` push line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaLine {
    /// Subscription id the event matched.
    pub subscription: u64,
    /// Epoch of the producing commit.
    pub epoch: u64,
    /// The rendered signed tuple, e.g. `-shortestPath(@n0, @n1, ..., 2.0)`.
    pub body: String,
}

/// A command's reply: its payload lines and terminator.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Payload lines (`row …`, `dump …`, `info …`, `sub …`), in order.
    pub payload: Vec<String>,
    /// Whether the terminator was `ok`/`bye` (vs `err`).
    pub ok: bool,
    /// The terminator's message (unescaped; empty for a bare `ok`).
    pub message: String,
}

/// A connected scripted client.
pub struct ScriptClient {
    write: TcpStream,
    reader: BufReader<TcpStream>,
    session: u64,
    deltas: Vec<DeltaLine>,
}

fn parse_delta(line: &str) -> Option<DeltaLine> {
    let rest = line.strip_prefix("delta ")?;
    let mut parts = rest.splitn(3, ' ');
    let subscription = parts.next()?.parse().ok()?;
    let epoch = parts.next()?.parse().ok()?;
    let body = parts.next()?.to_string();
    Some(DeltaLine {
        subscription,
        epoch,
        body,
    })
}

impl ScriptClient {
    /// Connect and read the `hello` greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ScriptClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let session = line
            .trim()
            .strip_prefix("hello ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad greeting: {line:?}"),
                )
            })?;
        Ok(ScriptClient {
            write,
            reader,
            session,
            deltas: Vec::new(),
        })
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Send one command line and read its reply. `delta` pushes that
    /// arrive in between are stashed (see [`ScriptClient::take_deltas`]).
    pub fn send(&mut self, command: &str) -> std::io::Result<Reply> {
        // One write, one packet: the socket is unbuffered and has
        // `TCP_NODELAY` set.
        self.write.write_all(format!("{command}\n").as_bytes())?;
        let mut payload = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if let Some(delta) = parse_delta(trimmed) {
                self.deltas.push(delta);
            } else if trimmed == "bye" {
                return Ok(Reply {
                    payload,
                    ok: true,
                    message: "bye".to_string(),
                });
            } else if let Some(rest) = trimmed.strip_prefix("ok") {
                return Ok(Reply {
                    payload,
                    ok: true,
                    message: protocol::unescape(rest.trim_start()),
                });
            } else if let Some(rest) = trimmed.strip_prefix("err ") {
                return Ok(Reply {
                    payload,
                    ok: false,
                    message: protocol::unescape(rest),
                });
            } else {
                payload.push(trimmed.to_string());
            }
        }
    }

    /// Wait up to `timeout` for one more asynchronous `delta` push.
    /// Returns `Ok(None)` on timeout.
    pub fn recv_delta(&mut self, timeout: Duration) -> std::io::Result<Option<DeltaLine>> {
        if !self.deltas.is_empty() {
            return Ok(Some(self.deltas.remove(0)));
        }
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let mut line = String::new();
        let outcome = match self.reader.read_line(&mut line) {
            Ok(0) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed",
            )),
            Ok(_) => Ok(parse_delta(line.trim_end_matches(['\r', '\n']))),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        };
        self.reader.get_ref().set_read_timeout(None)?;
        outcome
    }

    /// Take every `delta` push stashed so far.
    pub fn take_deltas(&mut self) -> Vec<DeltaLine> {
        std::mem::take(&mut self.deltas)
    }
}
