//! The TCP front end: one thread per connection, all connections sharing
//! one [`Service`](crate::Service).
//!
//! Each connection's writes (command responses *and* asynchronous `delta`
//! pushes) go through a per-connection write lock so lines never
//! interleave. Lock hierarchy: the engine lock is always taken *before* a
//! write lock (event delivery happens inside commits, which hold the
//! engine lock), and connection threads never hold their write lock while
//! calling into the service — so the two locks cannot deadlock.

use crate::protocol;
use crate::session::{DeltaEvent, EventSink, Response, Service};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A sink that pushes `delta` lines down a TCP connection.
struct WireSink {
    write: Arc<Mutex<TcpStream>>,
}

impl EventSink for WireSink {
    fn deliver(&self, event: &DeltaEvent) {
        let mut stream = self.write.lock().unwrap();
        // A dead peer just stops receiving; its reader thread will see
        // EOF and reap the session.
        let _ = writeln!(stream, "{}", protocol::format_event(event));
        let _ = stream.flush();
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
                    let _ = serve_connection(service, stream);
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

/// A peer that sends nothing for this long is treated as gone: the read
/// loop wakes up, the connection is dropped and the session reaped,
/// instead of a silent dead peer pinning its delta subscription until
/// process exit.
const IDLE_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(300);

/// The longest request line a peer may send, terminator included. A longer
/// one is answered with `err` and its connection closed: the line buffer is
/// the one allocation whose size a peer chooses.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read the next request line into `line` (cleared first), stopping one
/// byte past [`MAX_LINE_BYTES`]; returns how many bytes were read.
fn read_request(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<usize> {
    line.clear();
    let cap = u64::try_from(MAX_LINE_BYTES).expect("the limit fits u64") + 1;
    reader.take(cap).read_until(b'\n', line)
}

fn serve_connection(service: Arc<Service>, stream: TcpStream) -> std::io::Result<()> {
    // Responses are small request/reply lines; Nagle + delayed ACK would
    // add ~40ms to every round trip.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_READ_TIMEOUT))?;
    let write = Arc::new(Mutex::new(stream.try_clone()?));
    let sink = Arc::new(WireSink {
        write: Arc::clone(&write),
    });
    let session = service.open_session(sink);
    // Returns whether the client quit cleanly (`.quit` drops the session
    // state itself).
    let drive = || -> std::io::Result<bool> {
        {
            let mut w = write.lock().unwrap();
            writeln!(w, "hello {}", session.id())?;
            w.flush()?;
        }
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        loop {
            match read_request(&mut reader, &mut line) {
                Ok(0) => return Ok(false), // EOF: client vanished.
                Ok(n) if n > MAX_LINE_BYTES => {
                    let mut w = write.lock().unwrap();
                    let refusal = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    let refusal = protocol::format_error(&crate::ServeError::new(refusal));
                    writeln!(w, "{refusal}")?;
                    w.flush()?;
                    // Hang up and reap the session, then discard what the
                    // peer still has in flight: closing over unread input
                    // resets the connection, which can take the reply
                    // with it.
                    w.shutdown(Shutdown::Write)?;
                    drop(w);
                    session.close();
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
            // Execute WITHOUT holding the write lock (lock hierarchy).
            let result = session.execute_line(line.trim_end_matches(['\r', '\n']));
            let quitting = matches!(result, Ok(Response::Quit));
            let lines = match &result {
                Ok(resp) => protocol::format_response(resp),
                Err(err) => vec![protocol::format_error(err)],
            };
            {
                let mut w = write.lock().unwrap();
                for out in &lines {
                    writeln!(w, "{out}")?;
                }
                w.flush()?;
            }
            if quitting {
                return Ok(true);
            }
        }
    };
    let outcome = drive();
    // Whatever ended the loop — EOF, idle timeout or a mid-session I/O
    // error — the session and its subscriptions must not outlive the
    // connection. (Dropping an already-quit session is a no-op.)
    if !matches!(outcome, Ok(true)) {
        session.close();
    }
    outcome.map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

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
