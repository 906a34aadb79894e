//! The TCP front end: one thread per connection, all connections sharing
//! one [`Service`](crate::Service).
//!
//! The unit of the write path is a **frame**: all the lines one commit
//! owes one connection (or one subscribe snapshot, one program-change
//! diff, one command reply). Everything a connection is sent — replies
//! from its own thread *and* the `delta` frames other sessions' commits
//! produce — goes through its [`Outbox`]: one mutex over the rendered but
//! unwritten bytes and the socket's write half. Queueing appends under
//! that mutex and does nothing else (it is all a commit does to a
//! connection while it holds the engine lock). Flushing happens after the
//! engine lock is released: whoever finds the write half free takes it and
//! writes everything pending with one `write_all`, again until nothing is
//! pending, so frames reach the socket whole, in the order they were
//! queued, and none is left behind. The outbox mutex is never held across
//! a write or a call into the service, and no lock is taken under it: it
//! replaces the per-connection write lock and its lock hierarchy.
//!
//! A peer that stops reading costs the engine nothing. Its frames pile up
//! in its outbox while one thread — the one that was flushing to it — waits
//! on its full socket. Once the backlog passes [`MAX_BACKLOG_BYTES`], or
//! that write has moved no byte for [`STALLED_WRITE_TIMEOUT`], the socket
//! is shut down: the waiting write fails, the connection's own reader
//! thread sees EOF and reaps the session, and every later delivery to the
//! outbox is a no-op.

use crate::protocol;
use crate::session::{DeltaEvent, EventSink, Response, Service, Session};
use crate::ServeError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// The longest request line a peer may send, terminator included. A longer
/// one is answered with `err` and its connection closed: the line buffer is
/// the one allocation whose size a peer chooses.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most rendered but unwritten bytes a connection may have waiting
/// behind the write in progress when another frame is queued for it. A
/// peer further behind than this is hung up on — it can reconnect and take
/// a fresh snapshot; the server does not buffer for it without bound. (An
/// outbox within the bound takes one more frame of any size: a large
/// `.dump` or snapshot is a reply, not a backlog.)
pub const MAX_BACKLOG_BYTES: usize = 1 << 20;

/// A write that moves no byte for this long fails, and its peer is hung
/// up on. The backlog bound alone would leave a lone committer waiting
/// forever on a subscriber that stopped reading: a backlog only grows by
/// the commits of others.
pub const STALLED_WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// A peer that sends nothing for this long is treated as gone: the read
/// loop wakes up, the connection is dropped and the session reaped,
/// instead of a silent dead peer pinning its delta subscription until
/// process exit.
const IDLE_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(300);

/// One connection's write side (module docs). `W` is the socket's write
/// half, or a counting stand-in in tests.
struct Outbox<W> {
    pending: Mutex<Pending<W>>,
    /// Shuts the connection down; callable from any thread, also while
    /// another is blocked writing to it.
    shut: Box<dyn Fn(Shutdown) + Send + Sync>,
}

struct Pending<W> {
    /// Rendered frames no thread has started writing.
    bytes: String,
    /// The emptied buffer of the previous write, kept for the next.
    spare: String,
    /// The write half, while nobody is writing. Whoever takes it is the
    /// writer until `bytes` is empty; everyone else only queues.
    writer: Option<W>,
    /// `bytes` ends with the connection's last frame: the write side is
    /// shut down behind it.
    last: bool,
    /// Nothing more is queued or written: a write failed, the peer fell
    /// too far behind, or its last frame went out.
    closed: bool,
}

impl<W> Pending<W> {
    fn status(&self) -> std::io::Result<()> {
        if self.closed {
            Err(std::io::ErrorKind::BrokenPipe.into())
        } else {
            Ok(())
        }
    }
}

impl<W: Write> Outbox<W> {
    fn new(writer: W, shut: impl Fn(Shutdown) + Send + Sync + 'static) -> Self {
        Outbox {
            pending: Mutex::new(Pending {
                bytes: String::new(),
                spare: String::new(),
                writer: Some(writer),
                last: false,
                closed: false,
            }),
            shut: Box::new(shut),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Pending<W>> {
        self.pending
            .lock()
            .expect("no thread panics while it holds an outbox")
    }

    fn close(&self, pending: &mut Pending<W>, how: Shutdown) {
        if !pending.closed {
            pending.closed = true;
            pending.bytes = String::new();
            (self.shut)(how);
        }
    }

    /// Append one frame. Never waits for the peer: this is what runs under
    /// the engine lock.
    fn queue(&self, render: impl FnOnce(&mut String)) {
        let mut pending = self.lock();
        if pending.bytes.len() > MAX_BACKLOG_BYTES {
            self.close(&mut pending, Shutdown::Both);
        }
        if !pending.closed {
            render(&mut pending.bytes);
        }
    }

    /// Write what is pending, unless another thread already is: it will
    /// not stop before this call's frames are out too. An error means the
    /// connection is closed.
    fn flush(&self) -> std::io::Result<()> {
        let mut pending = self.lock();
        let Some(mut writer) = pending.writer.take() else {
            return pending.status();
        };
        let mut chunk = std::mem::take(&mut pending.spare);
        while !pending.closed && !pending.bytes.is_empty() {
            std::mem::swap(&mut pending.bytes, &mut chunk);
            let last = pending.last;
            drop(pending);
            let written = writer.write_all(chunk.as_bytes());
            chunk.clear();
            pending = self.lock();
            if written.is_err() {
                self.close(&mut pending, Shutdown::Both);
            } else if last {
                self.close(&mut pending, Shutdown::Write);
            }
        }
        pending.writer = Some(writer);
        pending.spare = chunk;
        pending.status()
    }

    /// Queue one frame and flush: how a connection's own thread replies.
    fn send(&self, render: impl FnOnce(&mut String)) -> std::io::Result<()> {
        self.queue(render);
        self.flush()
    }

    /// Send the connection's last frame. Whichever thread writes it shuts
    /// the write side down behind it, so the peer reads the frame and then
    /// EOF whoever was writing when it was queued.
    fn send_last(&self, render: impl FnOnce(&mut String)) {
        {
            let mut pending = self.lock();
            if !pending.closed {
                render(&mut pending.bytes);
                pending.last = true;
            }
        }
        // Closed either way by the time the frame is out.
        let _ = self.flush();
    }
}

impl<W: Write + Send> EventSink for Outbox<W> {
    fn deliver(&self, events: &[DeltaEvent]) {
        self.queue(|bytes| {
            for event in events {
                protocol::write_event(bytes, event);
            }
        });
    }

    fn flush(&self) {
        // A failed write closed the outbox and shut the socket down; the
        // connection's reader thread reaps the session.
        let _ = Outbox::flush(self);
    }
}

/// A running TCP server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting; established connections run until their clients quit.
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// The bound address (useful with a `:0` bind in tests).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting new connections and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_accepting();
        }
    }
}

/// Bind `addr` and serve `service` until shutdown.
pub fn start(service: Arc<Service>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for incoming in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = incoming else { continue };
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let _ = serve_connection(&service, stream);
                });
            }
        })
    };
    Ok(Server {
        addr,
        stop,
        accept: Some(accept),
    })
}

/// Read the next request line into `line` (cleared first), stopping one
/// byte past [`MAX_LINE_BYTES`]; returns how many bytes were read.
fn read_request(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<usize> {
    line.clear();
    let cap = u64::try_from(MAX_LINE_BYTES).expect("the limit fits u64") + 1;
    reader.take(cap).read_until(b'\n', line)
}

fn serve_connection(service: &Arc<Service>, stream: TcpStream) -> std::io::Result<()> {
    // A frame is one write; Nagle + delayed ACK would hold the next one
    // back ~40ms.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_READ_TIMEOUT))?;
    stream.set_write_timeout(Some(STALLED_WRITE_TIMEOUT))?;
    let output = stream.try_clone()?;
    let peer = stream.try_clone()?;
    serve_on(service, BufReader::new(stream), output, move |how| {
        let _ = peer.shutdown(how);
    })
}

/// Serve one connection: a session whose requests are the lines of `input`
/// and whose frames — the greeting, one per reply, one per commit that
/// touches its subscriptions — are each one `write_all` on `output`. `shut`
/// hangs up on the peer, making a write blocked on `output` fail and
/// `input` end; it is called at most once, from whichever thread finds the
/// peer gone or too far behind. Returns when `input` ends, idles out or
/// says `.quit`; the session and its subscriptions go with it.
pub fn serve_on(
    service: &Arc<Service>,
    input: impl BufRead,
    output: impl Write + Send + 'static,
    shut: impl Fn(Shutdown) + Send + Sync + 'static,
) -> std::io::Result<()> {
    let outbox = Arc::new(Outbox::new(output, shut));
    let session = service.open_session(outbox.clone());
    let outcome = converse(&session, &outbox, input);
    // Whatever ended the conversation — EOF, idle timeout or a
    // mid-session I/O error — the session and its subscriptions must not
    // outlive the connection. (`.quit` dropped them itself.)
    if !matches!(outcome, Ok(true)) {
        session.close();
    }
    outcome.map(|_| ())
}

/// The request/reply loop; returns whether the client quit cleanly.
fn converse<W: Write>(
    session: &Session,
    outbox: &Outbox<W>,
    mut reader: impl BufRead,
) -> std::io::Result<bool> {
    outbox.send(|out| out.push_str(&format!("hello {}\n", session.id())))?;
    let mut line = Vec::new();
    loop {
        match read_request(&mut reader, &mut line) {
            Ok(0) => return Ok(false), // EOF: client vanished.
            Ok(n) if n > MAX_LINE_BYTES => {
                // Reap the session, refuse, hang up, then discard what the
                // peer still has in flight: closing over unread input
                // resets the connection, which can take the reply with it.
                session.close();
                let refusal = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                outbox.send_last(|out| protocol::write_error(out, &ServeError::new(refusal)));
                let _ = std::io::copy(&mut reader, &mut std::io::sink());
                return Ok(false);
            }
            Ok(_) => {}
            // The idle timeout fired: treat the silent peer as gone.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false)
            }
            Err(e) => return Err(e),
        }
        let line = std::str::from_utf8(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let result = session.execute_line(line.trim_end_matches(['\r', '\n']));
        outbox.send(|out| match &result {
            Ok(resp) => protocol::write_response(out, resp),
            Err(err) => protocol::write_error(out, err),
        })?;
        if matches!(result, Ok(Response::Quit)) {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A peer under the test's control: every `write` announces itself and
    /// then waits to be told whether it succeeds.
    struct Gated {
        entered: mpsc::Sender<Vec<u8>>,
        verdict: mpsc::Receiver<bool>,
    }

    impl Write for Gated {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.entered.send(buf.to_vec()).unwrap();
            if self.verdict.recv().unwrap() {
                Ok(buf.len())
            } else {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An outbox over a [`Gated`] peer, and the test's ends of it: every
    /// write as it starts, the verdicts to hand out, every shutdown.
    struct Rig {
        outbox: Arc<Outbox<Gated>>,
        writes: mpsc::Receiver<Vec<u8>>,
        verdicts: mpsc::Sender<bool>,
        shuts: Arc<Mutex<Vec<Shutdown>>>,
    }

    fn gated() -> Rig {
        let (entered, writes) = mpsc::channel();
        let (verdicts, verdict) = mpsc::channel();
        let shuts = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&shuts);
        let outbox = Outbox::new(Gated { entered, verdict }, move |how| {
            log.lock().unwrap().push(how)
        });
        Rig {
            outbox: Arc::new(outbox),
            writes,
            verdicts,
            shuts,
        }
    }

    #[test]
    fn frames_queued_behind_a_write_go_out_in_order_as_one_write() {
        let Rig {
            outbox,
            writes,
            verdicts,
            shuts,
        } = gated();
        let writer = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || outbox.send(|out| out.push_str("a\n")))
        };
        // The writer thread is inside `write` now, not holding the outbox:
        // other threads queue behind it and leave.
        assert_eq!(writes.recv().unwrap(), b"a\n");
        outbox.send(|out| out.push_str("b\n")).unwrap();
        outbox.send(|out| out.push_str("c\n")).unwrap();
        verdicts.send(true).unwrap();
        // It does not stop before their frames are out too.
        assert_eq!(writes.recv().unwrap(), b"b\nc\n");
        verdicts.send(true).unwrap();
        writer.join().unwrap().unwrap();
        assert!(writes.try_recv().is_err() && shuts.lock().unwrap().is_empty());
    }

    #[test]
    fn a_peer_too_far_behind_is_hung_up_on_once_and_then_ignored() {
        let Rig {
            outbox,
            writes,
            verdicts,
            shuts,
        } = gated();
        let writer = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || outbox.send(|out| out.push_str("stuck\n")))
        };
        writes.recv().unwrap();
        // One frame of any size is taken by an outbox within the bound...
        let huge = "x".repeat(MAX_BACKLOG_BYTES + 1);
        outbox.send(|out| out.push_str(&huge)).unwrap();
        assert!(shuts.lock().unwrap().is_empty());
        // ...and the next one finds the peer too far behind.
        assert!(outbox.send(|_| panic!("not rendered")).is_err());
        assert_eq!(*shuts.lock().unwrap(), [Shutdown::Both]);
        // The shutdown fails the write in progress; its thread is free and
        // the backlog is dropped, not written.
        verdicts.send(false).unwrap();
        assert!(writer.join().unwrap().is_err());
        assert!(outbox.send(|_| panic!("not rendered")).is_err());
        assert!(writes.try_recv().is_err());
        assert_eq!(shuts.lock().unwrap().len(), 1);
    }

    #[test]
    fn a_failed_write_closes_the_connection_on_the_first_error() {
        let Rig {
            outbox,
            writes,
            verdicts,
            shuts,
        } = gated();
        verdicts.send(false).unwrap();
        assert!(outbox.send(|out| out.push_str("lost\n")).is_err());
        assert_eq!(writes.recv().unwrap(), b"lost\n");
        assert_eq!(*shuts.lock().unwrap(), [Shutdown::Both]);
        // Later deliveries are neither rendered nor written.
        let event = DeltaEvent {
            subscription: 1,
            epoch: 1,
            delta: ndlog_runtime::TupleDelta::insert("p", ndlog_runtime::Tuple::new(Vec::new())),
        };
        outbox.deliver(&[event]);
        EventSink::flush(&*outbox);
        assert!(outbox.lock().bytes.is_empty() && writes.try_recv().is_err());
        assert_eq!(shuts.lock().unwrap().len(), 1);
    }

    #[test]
    fn the_last_frame_is_followed_by_a_write_side_shutdown() {
        let Rig {
            outbox,
            writes,
            verdicts,
            shuts,
        } = gated();
        verdicts.send(true).unwrap();
        outbox.send_last(|out| out.push_str("err too long\n"));
        assert_eq!(writes.recv().unwrap(), b"err too long\n");
        assert_eq!(*shuts.lock().unwrap(), [Shutdown::Write]);
        assert!(outbox.send(|_| panic!("not rendered")).is_err());
    }

    #[test]
    fn request_reads_stop_one_byte_past_the_limit() {
        // A peer that never sends a newline: the read returns, and the
        // buffer holds what was read and no more than doubling leaves.
        let mut endless = BufReader::new(std::io::repeat(b'a'));
        let mut line = b"stale".to_vec();
        let n = read_request(&mut endless, &mut line).unwrap();
        assert_eq!((n, line.len()), (MAX_LINE_BYTES + 1, MAX_LINE_BYTES + 1));
        assert!(line.capacity() <= 2 * (MAX_LINE_BYTES + 1));
        // Lines within the limit come through whole, one at a time.
        let mut two = BufReader::new(&b"+p(1).\n.quit\n"[..]);
        assert_eq!(read_request(&mut two, &mut line).unwrap(), 7);
        assert_eq!(line, b"+p(1).\n");
        assert_eq!(read_request(&mut two, &mut line).unwrap(), 6);
        assert_eq!(read_request(&mut two, &mut line).unwrap(), 0);
    }
}
