//! End-to-end TCP checks: multiple clients on real sockets committing
//! interleaved updates, a subscriber receiving its live delta stream over
//! the wire, and the dumped store matching the in-process fingerprint.

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
