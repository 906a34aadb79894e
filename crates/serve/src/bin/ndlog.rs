//! The `ndlog` command: interactive shell, network service and CI smoke
//! test over the shared session layer.

#![forbid(unsafe_code)]

use ndlog_serve::client::ScriptClient;
use ndlog_serve::{repl, service, Service};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: ndlog <command> [options]

commands:
  repl  [--program FILE]                 interactive shell
  serve --listen ADDR [--program FILE]   TCP line-protocol service
  smoke [--verbose]                      scripted end-to-end TCP session (CI)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn service_from(program: Option<&str>) -> Arc<Service> {
    match program {
        None => Service::new(),
        Some(path) => {
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("ndlog: cannot read {path}: {e}");
                std::process::exit(1)
            });
            Service::from_source(&src).unwrap_or_else(|e| {
                eprintln!("ndlog: {path}: {e}");
                std::process::exit(1)
            })
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("repl") => {
            let service = service_from(flag_value(&args, "--program"));
            if let Err(e) = repl::run(&service) {
                eprintln!("ndlog: {e}");
                std::process::exit(1);
            }
        }
        Some("serve") => {
            let Some(listen) = flag_value(&args, "--listen") else {
                usage()
            };
            let svc = service_from(flag_value(&args, "--program"));
            let server = service::start(svc, listen).unwrap_or_else(|e| {
                eprintln!("ndlog: cannot bind {listen}: {e}");
                std::process::exit(1)
            });
            println!("ndlog: serving on {}", server.addr());
            loop {
                std::thread::park();
            }
        }
        Some("smoke") => {
            let verbose = args.iter().any(|a| a == "--verbose");
            if let Err(e) = smoke(verbose) {
                eprintln!("smoke FAILED: {e}");
                std::process::exit(1);
            }
            println!("smoke OK");
        }
        Some("--help" | "-h") => println!("{USAGE}"),
        _ => usage(),
    }
}

/// The scripted end-to-end session CI runs: load the shortest-path
/// program over the wire, explain its recursive rule, feed the figure-2
/// graph, query, subscribe, re-cost an off-route link twice and hear
/// nothing, re-cost an on-route link and hear only its net change, break a
/// link, watch the retraction arrive, dump, quit.
fn smoke(verbose: bool) -> Result<(), String> {
    let service = Service::new();
    let server = service::start(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let mut client = ScriptClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;

    let program = [
        "materialize(link, keys(1,2)).",
        "materialize(path, keys(1,2,4)).",
        "materialize(spCost, keys(1,2)).",
        "materialize(shortestPath, keys(1,2)).",
        "sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C), P := f_cons(S, f_cons(D, nil)).",
        "sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2), \
         f_member(P2, S) == 0, C := C1 + C2, P := f_cons(S, P2).",
        "sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).",
        "sp4 shortestPath(@S,@D,P,C) :- spCost(@S,@D,C), path(@S,@D,@Z,P,C).",
    ];
    fn step(
        client: &mut ScriptClient,
        verbose: bool,
        cmd: &str,
    ) -> Result<ndlog_serve::client::Reply, String> {
        let reply = client.send(cmd).map_err(|e| format!("{cmd}: {e}"))?;
        if verbose {
            println!("> {cmd}");
            for line in &reply.payload {
                println!("  {line}");
            }
            println!("  => {}", reply.message);
        }
        if !reply.ok {
            return Err(format!("{cmd}: server said: {}", reply.message));
        }
        Ok(reply)
    }

    for line in program {
        step(&mut client, verbose, line)?;
    }

    // `.explain` lists both forward strands of sp2, each with its stages.
    let reply = step(&mut client, verbose, ".explain sp2")?;
    for strand in ["info sp2-1 link: probe path", "info sp2-2 path: probe link"] {
        if !reply.payload.iter().any(|l| l.starts_with(strand)) {
            return Err(format!("no `{strand}` in {:?}", reply.payload));
        }
    }
    step(
        &mut client,
        verbose,
        "+link[(@n0,@n1,5.0),(@n1,@n0,5.0),(@n0,@n2,1.0),(@n2,@n0,1.0),\
         (@n2,@n1,1.0),(@n1,@n2,1.0),(@n1,@n3,1.0),(@n3,@n1,1.0),\
         (@n4,@n0,1.0),(@n0,@n4,1.0)].",
    )?;

    // Figure 2: a's best route to b goes via c at cost 2.
    let reply = step(&mut client, verbose, "?- shortestPath(@n0, @n1, P, C).")?;
    if reply.payload.len() != 1 || !reply.payload[0].contains("2.0") {
        return Err(format!(
            "expected one cost-2.0 row, got {:?}",
            reply.payload
        ));
    }

    let reply = step(&mut client, verbose, ".subscribe shortestPath")?;
    if !reply.payload.iter().any(|l| l.starts_with("sub ")) {
        return Err(format!("no sub line in {:?}", reply.payload));
    }
    let snapshot = client.take_deltas();
    if snapshot.is_empty() || !snapshot.iter().all(|d| d.body.starts_with('+')) {
        return Err(format!("bad subscribe snapshot: {snapshot:?}"));
    }

    /// Every delta the commit just made streamed, drained for 200 ms.
    fn drain(client: &mut ScriptClient) -> Vec<ndlog_serve::client::DeltaLine> {
        let mut deltas = client.take_deltas();
        while let Ok(Some(d)) = client.recv_delta(Duration::from_millis(200)) {
            deltas.push(d);
        }
        deltas
    }

    // Re-costing the off-route link a—b moves no shortest path, so the
    // shortestPath subscription, the only one, stays silent: no unchanged
    // route is retracted and re-asserted.
    for cost in ["6.0", "5.0"] {
        let recost = format!("+link[(@n0,@n1,{cost}),(@n1,@n0,{cost})].");
        step(&mut client, verbose, &recost)?;
        let deltas = drain(&mut client);
        if !deltas.is_empty() {
            return Err(format!("re-costing a—b to {cost} streamed {deltas:?}"));
        }
    }

    // Cheapening a—c to 0.5 re-costs every route through it. The frame is
    // the commit's net change: 12 retractions, then the 12 routes that
    // replace them — none of the routes evaluation passed through on the
    // way, such as b→a over the direct link at 5.0.
    step(&mut client, verbose, "+link[(@n0,@n2,0.5),(@n2,@n0,0.5)].")?;
    let deltas = drain(&mut client);
    let signs: String = deltas.iter().map(|d| &d.body[..1]).collect();
    if signs != format!("{}{}", "-".repeat(12), "+".repeat(12)) {
        return Err(format!("re-costing a—c to 0.5 streamed {deltas:?}"));
    }
    if let Some(transient) = deltas.iter().find(|d| d.body.contains("[@n1, @n0], 5.0")) {
        return Err(format!("the frame holds a transient route: {transient:?}"));
    }
    step(&mut client, verbose, "+link[(@n0,@n2,1.0),(@n2,@n0,1.0)].")?;
    drain(&mut client);

    // Breaking a—c reroutes a→b; the live stream must carry the exact
    // retraction of the old shortest path.
    step(&mut client, verbose, "-link[(@n0,@n2,1.0),(@n2,@n0,1.0)].")?;
    let deltas = drain(&mut client);
    if !deltas
        .iter()
        .any(|d| d.body.starts_with("-shortestPath(@n0, @n1,") && d.body.contains("2.0"))
    {
        return Err(format!("no retraction of the cost-2 route in {deltas:?}"));
    }
    if !deltas
        .iter()
        .any(|d| d.body.starts_with("+shortestPath(@n0, @n1,") && d.body.contains("5.0"))
    {
        return Err(format!("no rerouted cost-5 path in {deltas:?}"));
    }

    let reply = step(&mut client, verbose, ".dump")?;
    if !reply.payload.iter().any(|l| l.starts_with("dump link ")) {
        return Err(format!("dump has no link rows: {:?}", reply.payload));
    }

    // Parse errors come back rendered with a caret snippet.
    let bad = client
        .send("+link(@n0 @n1).")
        .map_err(|e| format!("bad line: {e}"))?;
    if bad.ok || !bad.message.contains('^') {
        return Err(format!(
            "expected caret-rendered error, got {:?}",
            bad.message
        ));
    }

    step(&mut client, verbose, ".quit")?;
    server.shutdown();
    Ok(())
}
