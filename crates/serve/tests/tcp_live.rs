//! End-to-end TCP checks: multiple clients on real sockets committing
//! interleaved updates, a subscriber receiving its live delta stream over
//! the wire, and the dumped store matching the in-process fingerprint —
//! and the write path's three promises: a frame is one write, a subscriber
//! that stops reading is dropped and stalls nobody, and concurrent
//! committers' frames reach a subscriber whole and in epoch order.

use ndlog_lang::programs;
use ndlog_serve::client::ScriptClient;
use ndlog_serve::{service, Service};
use std::time::Duration;

fn start_figure2() -> (std::sync::Arc<Service>, service::Server) {
    let svc = Service::from_program(&programs::shortest_path("")).unwrap();
    let server = service::start(std::sync::Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let mut seed = ScriptClient::connect(server.addr()).unwrap();
    let reply = seed
        .send(
            "+link[(@n0,@n1,5.0),(@n1,@n0,5.0),(@n0,@n2,1.0),(@n2,@n0,1.0),\
             (@n2,@n1,1.0),(@n1,@n2,1.0),(@n1,@n3,1.0),(@n3,@n1,1.0),\
             (@n4,@n0,1.0),(@n0,@n4,1.0)].",
        )
        .unwrap();
    assert!(reply.ok, "{}", reply.message);
    seed.send(".quit").unwrap();
    (svc, server)
}

#[test]
fn tcp_subscriber_sees_exact_deltas_in_commit_order() {
    let (_svc, server) = start_figure2();

    let mut watcher = ScriptClient::connect(server.addr()).unwrap();
    let reply = watcher
        .send(".subscribe shortestPath(@n0, _, _, _)")
        .unwrap();
    assert!(reply.ok, "{}", reply.message);
    let snapshot = watcher.take_deltas();
    assert_eq!(snapshot.len(), 4, "a reaches b, c, d, e: {snapshot:?}");
    assert!(snapshot
        .iter()
        .all(|d| d.body.starts_with("+shortestPath(@n0,")));

    // Another client breaks the cheap a—c edge; the watcher's wire stream
    // must carry the reroute: -cost-2 route out, +cost-5 route in.
    let mut updater = ScriptClient::connect(server.addr()).unwrap();
    let reply = updater.send("-link[(@n0,@n2,1.0),(@n2,@n0,1.0)].").unwrap();
    assert!(reply.ok, "{}", reply.message);

    let mut churn = Vec::new();
    while let Ok(Some(delta)) = watcher.recv_delta(Duration::from_millis(500)) {
        churn.push(delta);
        if churn
            .iter()
            .any(|d| d.body.contains("5.0") && d.body.starts_with('+'))
        {
            break;
        }
    }
    assert!(
        churn
            .iter()
            .any(|d| d.body.starts_with("-shortestPath(@n0, @n1,") && d.body.contains("2.0")),
        "missing retraction: {churn:?}"
    );
    assert!(
        churn
            .iter()
            .any(|d| d.body.starts_with("+shortestPath(@n0, @n1,") && d.body.contains("5.0")),
        "missing reroute: {churn:?}"
    );
    // The bound-column filter holds on the wire too.
    assert!(churn.iter().all(|d| {
        let body = d.body.trim_start_matches(['+', '-']);
        body.starts_with("shortestPath(@n0,")
    }));
    // Epochs are non-decreasing: commit order is preserved per subscriber.
    assert!(churn.windows(2).all(|w| w[0].epoch <= w[1].epoch));

    updater.send(".quit").unwrap();
    watcher.send(".quit").unwrap();
    server.shutdown();
}

#[test]
fn dropped_connection_reaps_its_subscription() {
    let (svc, server) = start_figure2();

    let mut watcher = ScriptClient::connect(server.addr()).unwrap();
    let reply = watcher
        .send(".subscribe shortestPath(@n0, _, _, _)")
        .unwrap();
    assert!(reply.ok, "{}", reply.message);
    assert_eq!(svc.subscription_count(), 1);

    // Vanish without `.quit`: the server's reader sees EOF and must reap
    // the session, subscription included, instead of pinning it until
    // process exit.
    drop(watcher);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while svc.subscription_count() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        svc.subscription_count(),
        0,
        "dead peer's subscription lingered"
    );
    server.shutdown();
}

#[test]
fn tcp_dump_matches_in_process_fingerprint() {
    let (svc, server) = start_figure2();
    let mut client = ScriptClient::connect(server.addr()).unwrap();

    // Interleave a few more commits from two live connections first.
    let mut other = ScriptClient::connect(server.addr()).unwrap();
    for round in 0..5u32 {
        let cost = f64::from(round % 2 + 1);
        let a = client
            .send(&format!(
                "+link[(@n0, @n7, {cost:.1}), (@n7, @n0, {cost:.1})].",
            ))
            .unwrap();
        assert!(a.ok, "{}", a.message);
        let b = other
            .send(&format!(
                "+link[(@n1, @n8, {cost:.1}), (@n8, @n1, {cost:.1})].",
            ))
            .unwrap();
        assert!(b.ok, "{}", b.message);
    }

    let reply = client.send(".dump").unwrap();
    assert!(reply.ok, "{}", reply.message);
    let expected: Vec<String> = svc
        .fingerprint()
        .into_iter()
        .map(|(rel, count, tuple)| format!("dump {rel} {count} {tuple}"))
        .collect();
    assert_eq!(reply.payload, expected, "wire dump equals the fingerprint");

    // Sequential replay of the commit log reproduces that fingerprint.
    let fresh = Service::from_program(&programs::shortest_path("")).unwrap();
    let replayer = fresh.open_session(std::sync::Arc::new(ndlog_serve::NullSink));
    for batch in svc.commit_log() {
        replayer.apply_batch(batch.deltas).unwrap();
    }
    assert_eq!(fresh.fingerprint(), svc.fingerprint());

    client.send(".quit").unwrap();
    other.send(".quit").unwrap();
    server.shutdown();
}

#[test]
fn oversized_line_is_refused_and_only_its_connection_closes() {
    use std::io::{BufRead, BufReader, Read, Write};
    let (_svc, server) = start_figure2();
    let mut bystander = ScriptClient::connect(server.addr()).unwrap();

    let mut flood = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut replies = BufReader::new(flood.try_clone().unwrap());
    let mut line = String::new();
    replies.read_line(&mut line).unwrap();
    assert!(line.starts_with("hello "), "{line:?}");
    // 2 MiB and no newline; the server reads all of it without keeping it.
    let chunk = [b'a'; 1 << 16];
    for _ in 0..32 {
        flood.write_all(&chunk).unwrap();
    }
    line.clear();
    replies.read_line(&mut line).unwrap();
    let limit = service::MAX_LINE_BYTES.to_string();
    assert!(
        line.starts_with("err ") && line.contains(&limit),
        "{line:?}"
    );
    let mut rest = Vec::new();
    replies.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the server hung up after the refusal");

    // Everyone else keeps committing.
    let reply = bystander
        .send("+link[(@n5,@n0,1.0),(@n0,@n5,1.0)].")
        .unwrap();
    assert!(reply.ok, "{}", reply.message);
    let reply = bystander.send("?- shortestPath(@n5, @n3, _, _).").unwrap();
    assert!(reply.ok && reply.payload.len() == 1, "{reply:?}");
    bystander.send(".quit").unwrap();
    server.shutdown();
}

/// A connection's input under the test's control: each message is the
/// next bytes the server reads, and dropping the sender is EOF.
struct Requests(std::sync::mpsc::Receiver<&'static str>);

impl std::io::Read for Requests {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let request = self.0.recv().unwrap_or("");
        buf[..request.len()].copy_from_slice(request.as_bytes());
        Ok(request.len())
    }
}

/// A connection's output as the test sees it: one message per `write`
/// call, so what a frame costs is a count, not a time.
struct Writes(std::sync::mpsc::Sender<String>);

impl std::io::Write for Writes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let text = String::from_utf8(buf.to_vec()).expect("the protocol is UTF-8");
        self.0.send(text).expect("the test outlives the connection");
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_frame_reaches_the_writer_as_one_write() {
    let (svc, server) = start_figure2();
    let (requests, input) = std::sync::mpsc::channel();
    let (output, writes) = std::sync::mpsc::channel();
    let connection = {
        let svc = std::sync::Arc::clone(&svc);
        std::thread::spawn(move || {
            let input = std::io::BufReader::new(Requests(input));
            service::serve_on(&svc, input, Writes(output), |_| {})
        })
    };
    let next = || writes.recv_timeout(Duration::from_secs(10)).unwrap();
    let lines = |frame: &str, prefix: &str| frame.lines().filter(|l| l.starts_with(prefix)).count();
    assert!(next().starts_with("hello "));

    // A subscribe snapshot: one write of 4 `delta` lines, then the reply.
    requests
        .send(".subscribe shortestPath(@n0, _, _, _)\n")
        .unwrap();
    let snapshot = next();
    assert_eq!(
        (lines(&snapshot, "delta "), snapshot.lines().count()),
        (4, 4)
    );
    let reply = next();
    assert!(reply.starts_with("sub ") && reply.lines().nth(1).unwrap().starts_with("ok "));

    // Another session's commit: every delta it owes this connection, one
    // write, made by the committing thread.
    let other = svc.open_session(std::sync::Arc::new(ndlog_serve::NullSink));
    other
        .execute_line("-link[(@n0,@n2,1.0),(@n2,@n0,1.0)].")
        .unwrap();
    let frame = next();
    let streamed = lines(&frame, "delta ");
    assert!(
        streamed >= 2 && streamed == frame.lines().count(),
        "{frame:?}"
    );

    // A query reply: N rows and the terminator, one write.
    requests.send("?- shortestPath(@n0, _, _, _).\n").unwrap();
    let reply = next();
    assert_eq!((lines(&reply, "row "), reply.lines().count()), (4, 5));
    assert!(reply.ends_with("epoch 2\n"), "{reply:?}");

    requests.send(".quit\n").unwrap();
    assert_eq!(next(), "bye\n");
    connection.join().unwrap().unwrap();
    assert!(writes.try_recv().is_err(), "nothing else was written");
    assert_eq!(svc.subscription_count(), 0);
    server.shutdown();
}

/// A subscriber the test reads on a thread of its own, so that it never
/// falls behind: every `delta` body up to the reply to the fence query the
/// test sends once the commits are over, and that reply's rows.
fn read_to_fence(
    stream: std::net::TcpStream,
    subscribed: std::sync::mpsc::Sender<()>,
) -> (Vec<String>, Vec<String>) {
    use std::io::BufRead;
    let (mut deltas, mut rows) = (Vec::new(), Vec::new());
    for line in std::io::BufReader::new(stream).lines() {
        let line = line.unwrap();
        if let Some(delta) = line.strip_prefix("delta ") {
            deltas.push(delta.splitn(3, ' ').nth(2).unwrap().to_string());
        } else if let Some(row) = line.strip_prefix("row ") {
            rows.push(row.to_string());
        } else if line.starts_with("ok subscribed") {
            subscribed.send(()).unwrap();
        } else if line.contains(" row(s); epoch ") {
            break;
        }
    }
    (deltas, rows)
}

/// Replay signed tuple texts from empty: signs strictly alternate per
/// tuple, and what is left is the relation.
fn replay(deltas: impl IntoIterator<Item = String>) -> std::collections::BTreeSet<String> {
    let mut visible = std::collections::BTreeSet::new();
    for delta in deltas {
        let (sign, tuple) = delta.split_at(1);
        match sign {
            "+" => assert!(visible.insert(tuple.to_string()), "double insert: {tuple}"),
            _ => assert!(visible.remove(tuple), "retract of invisible: {tuple}"),
        }
    }
    visible
}

#[test]
fn stalled_subscriber_is_dropped_and_stalls_nobody() {
    use std::io::Write;
    use std::sync::mpsc;
    const COMMITS: usize = 48;
    const DEADLINE: Duration = Duration::from_secs(30);

    let svc = Service::new();
    let server = service::start(std::sync::Arc::clone(&svc), "127.0.0.1:0").unwrap();
    let mut committer = ScriptClient::connect(server.addr()).unwrap();
    assert!(committer.send("materialize(blob, keys(1)).").unwrap().ok);

    // Subscribes, then never reads again.
    let mut stalled = ScriptClient::connect(server.addr()).unwrap();
    assert!(stalled.send(".subscribe blob").unwrap().ok);

    // Subscribes and keeps reading.
    let mut healthy = std::net::TcpStream::connect(server.addr()).unwrap();
    let (subscribed_tx, subscribed) = mpsc::channel();
    let reader = {
        let stream = healthy.try_clone().unwrap();
        std::thread::spawn(move || read_to_fence(stream, subscribed_tx))
    };
    healthy.write_all(b".subscribe blob\n").unwrap();
    subscribed.recv_timeout(DEADLINE).unwrap();
    assert_eq!(svc.subscription_count(), 2);

    // Each commit replaces the one `blob` tuple: a retraction and an
    // insertion of ~256 KiB each, so the commits together owe the stalled
    // peer far more than its socket buffers and `MAX_BACKLOG_BYTES` hold.
    let frame_bytes = 2 * (256 << 10);
    assert!(COMMITS * frame_bytes > 16 * service::MAX_BACKLOG_BYTES);
    let (answered_tx, answered) = mpsc::channel();
    let commits = std::thread::spawn(move || {
        for i in 0..COMMITS {
            let payload = char::from(b'a' + (i % 26) as u8)
                .to_string()
                .repeat(256 << 10);
            let reply = committer
                .send(&format!("+blob(1, \"{payload}\")."))
                .unwrap();
            answered_tx.send(reply.ok).unwrap();
        }
        committer.send(".quit").unwrap();
    });
    // Every commit answers `ok`, none later than the deadline: at most one
    // of them waited for the stalled peer, and not under the engine lock.
    for i in 0..COMMITS {
        let ok = answered.recv_timeout(DEADLINE);
        assert_eq!(ok, Ok(true), "commit {i} of {COMMITS}");
    }
    commits.join().unwrap();

    // The stalled peer was hung up on and its reader thread reaped it.
    let deadline = std::time::Instant::now() + DEADLINE;
    while svc.subscription_count() != 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(svc.subscription_count(), 1, "the stalled peer lingers");

    // The healthy one beside it missed nothing.
    healthy.write_all(b"?- blob(_, _).\n").unwrap();
    let (deltas, rows) = reader.join().unwrap();
    assert_eq!(deltas.len(), 2 * COMMITS - 1);
    assert_eq!(replay(deltas), rows.into_iter().collect());
    drop(stalled);
    server.shutdown();
}

#[test]
fn tcp_subscriber_sees_concurrent_commits_in_epoch_order() {
    use ndlog_lang::Value;
    use ndlog_runtime::{Tuple, TupleDelta};
    const WORKERS: u32 = 4;
    const BATCHES: u32 = 20;

    // Worker `w`'s batch `b`, as in `concurrent_sessions.rs`: a private
    // spoke re-costed beside churn on the shared figure-2 edges.
    fn batch(w: u32, b: u32) -> Vec<TupleDelta> {
        let link = |insert: bool, s: u32, d: u32, c: f64| {
            let tuple = Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)]);
            if insert {
                TupleDelta::insert("link", tuple)
            } else {
                TupleDelta::delete("link", tuple)
            }
        };
        let (spoke, cost) = (10 + w, f64::from(b % 3 + 1));
        let mut deltas = vec![link(true, 0, spoke, cost), link(true, spoke, 0, cost)];
        match b % 4 {
            0 => deltas.extend([link(false, 0, 2, 1.0), link(false, 2, 0, 1.0)]),
            1 => deltas.extend([link(true, 0, 2, 1.0), link(true, 2, 0, 1.0)]),
            2 => deltas.push(link(true, 1, 3, f64::from(w) + 2.0)),
            _ => deltas.push(link(true, 1, 3, 1.0)),
        }
        deltas
    }

    let (svc, server) = start_figure2();
    let mut watcher = ScriptClient::connect(server.addr()).unwrap();
    assert!(watcher.send(".subscribe shortestPath").unwrap().ok);

    // Four threads commit at once; each flushes the watcher's frames
    // itself, after releasing the engine lock, racing the other three.
    let writers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let svc = std::sync::Arc::clone(&svc);
            std::thread::spawn(move || {
                let session = svc.open_session(std::sync::Arc::new(ndlog_serve::NullSink));
                for b in 0..BATCHES {
                    session.apply_batch(batch(w, b)).unwrap();
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    assert_eq!(svc.epoch(), u64::from(WORKERS * BATCHES) + 1);

    // A reply is queued behind every frame delivered before it.
    assert!(watcher.send("?- link(@n0, @n1, _).").unwrap().ok);
    let stream = watcher.take_deltas();
    // Epochs never decrease — so each epoch's lines are contiguous: no
    // commit's frame was split by, or swapped with, another's.
    assert!(stream.windows(2).all(|w| w[0].epoch <= w[1].epoch));
    assert!(
        stream
            .iter()
            .map(|d| d.epoch)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            > 10
    );
    let expected: std::collections::BTreeSet<String> = svc
        .fingerprint()
        .into_iter()
        .filter(|(rel, _, _)| rel == "shortestPath")
        .map(|(rel, _, tuple)| format!("{rel}{tuple}"))
        .collect();
    assert_eq!(replay(stream.into_iter().map(|d| d.body)), expected);

    watcher.send(".quit").unwrap();
    server.shutdown();
}
