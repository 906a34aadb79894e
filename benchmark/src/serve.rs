//! `serve_mixed`: the `ndlog serve` stack over loopback TCP with writes
//! beside reads.
//!
//! Two closed-loop connections. **W** sends keyed link-cost replacements,
//! one statement per commit. **R** holds `.subscribe bestRoute`, reads its
//! socket continuously — stamping every `delta` line as it arrives — and
//! issues `?- bestRoute(@n, _, _, _).` back to back. R never stops
//! reading: a subscriber that does fills its socket under the engine lock
//! and stalls every commit, so every read here also carries a deadline.

use crate::inputs::{
    build_net, digest_links, link_statements, whole_cost, Shape, Sizes, Statement,
};
use crate::oracle::{two_hop_best, StreamReplay};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{Checks, Layers, Round};
use ndlog_lang::optimizer::{optimize, Pipeline};
use ndlog_lang::{parse_command, programs, Value};
use ndlog_net::NodeAddr;
use ndlog_runtime::{Evaluator, Strategy, Tuple, TupleDelta};
use ndlog_serve::service::{self, Server};
use ndlog_serve::{protocol, CollectSink, DeltaEvent, NullSink, Service};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every socket read gives up after this long; the round then fails
/// instead of hanging.
const READ_DEADLINE: Duration = Duration::from_secs(10);
/// Hop bound of the served distance-vector program. The centralized
/// evaluator prunes nothing by aggregate selection, so the route table
/// explodes with the bound (README, "Sizing constraints").
const MAX_HOPS: u32 = 2;
/// Uncontended in-process queries timed by the traced run.
const QUIET_QUERIES: usize = 200;

pub struct Serve {
    shape: Shape,
    seed: u64,
    links: Vec<(u32, u32, f64)>,
    statements: Vec<Statement>,
    /// Directed link costs after the last statement.
    final_costs: BTreeMap<(u32, u32), f64>,
    pub input_digest: String,
}

/// A terminated reply: its payload lines and whether it ended in `ok`.
struct Reply {
    ok: bool,
    message: String,
    rows: Vec<String>,
}

/// The benchmark's own line client: blocking, with a read deadline, and
/// handing every out-of-band `delta` line to the caller as it is read.
struct LineClient {
    write: TcpStream,
    reader: BufReader<TcpStream>,
    bytes_sent: u64,
    bytes_read: u64,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_DEADLINE))?;
        let mut client = LineClient {
            write: stream.try_clone()?,
            reader: BufReader::new(stream),
            bytes_sent: 0,
            bytes_read: 0,
        };
        let mut hello = String::new();
        client.reader.read_line(&mut hello)?;
        if !hello.starts_with("hello ") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad greeting {hello:?}"),
            ));
        }
        Ok(client)
    }

    /// Send one statement and read up to its terminator. `on_delta` gets
    /// the epoch and the signed tuple of every `delta` line on the way.
    fn request(
        &mut self,
        statement: &str,
        mut on_delta: impl FnMut(u64, &str, usize),
    ) -> io::Result<Reply> {
        writeln!(self.write, "{statement}")?;
        self.write.flush()?;
        self.bytes_sent += statement.len() as u64 + 1;
        let mut rows = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            self.bytes_read += line.len() as u64;
            let text = line.trim_end_matches(['\r', '\n']);
            if let Some(rest) = text.strip_prefix("delta ") {
                // `delta <sub> <epoch> <±tuple>`
                let mut parts = rest.splitn(3, ' ');
                let epoch = parts.nth(1).and_then(|e| e.parse().ok());
                match (epoch, parts.next()) {
                    (Some(epoch), Some(signed)) => on_delta(epoch, signed, line.len()),
                    _ => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("malformed delta line {text:?}"),
                        ))
                    }
                }
            } else if text == "bye" || text == "ok" || text.starts_with("ok ") {
                return Ok(Reply {
                    ok: true,
                    message: text.to_string(),
                    rows,
                });
            } else if text.starts_with("err ") {
                return Ok(Reply {
                    ok: false,
                    message: text.to_string(),
                    rows,
                });
            } else if let Some(row) = text.strip_prefix("row ") {
                rows.push(row.to_string());
            }
        }
    }
}

/// `epoch E` out of a commit's `ok applied n update(s); epoch E; ...`.
fn reply_epoch(message: &str) -> Option<u64> {
    let rest = message.split("epoch ").nth(1)?;
    rest.split(';').next()?.trim().parse().ok()
}

/// What the writer measured: per commit its epoch, send and `ok` instants.
struct Written {
    commits: Vec<(u64, Instant, Instant)>,
    wire_bytes: u64,
    checks: Checks,
}

/// What the reader measured.
struct ReadBack {
    snapshot: Vec<String>,
    /// (epoch, instant read, signed tuple) of every live delta, in order.
    deltas: Vec<(u64, Instant, String)>,
    delta_bytes: u64,
    /// (send instant, latency ms) of every query.
    queries: Vec<(Instant, f64)>,
    query_rows: u64,
    checks: Checks,
}

/// Everything one TCP round measured.
struct Tcp {
    round: Round,
    lag_ms: Vec<f64>,
    deltas: usize,
    delta_bytes: u64,
    queries: usize,
    query_rows: u64,
    service: Arc<Service>,
    /// (send, `ok`) of every commit.
    commits: Vec<(Instant, Instant)>,
    /// (send, latency ms) of every query sent while W was writing.
    contended_queries: Vec<(Instant, f64)>,
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn link_delta(s: u32, d: u32, cost: f64) -> TupleDelta {
    TupleDelta::insert(
        "link",
        Tuple::new(vec![
            Value::Addr(NodeAddr(s)),
            Value::Addr(NodeAddr(d)),
            Value::Float(cost),
        ]),
    )
}

impl Serve {
    pub fn new(sizes: &Sizes, seed: u64, traced: bool) -> Serve {
        let net = build_net(sizes.serve, seed, &mut Tracer::new(), None);
        let links = net.costed(whole_cost);
        let commits = if traced {
            sizes.serve_commits_traced
        } else {
            sizes.serve_commits
        };
        let (statements, final_costs) = link_statements(&links, commits, seed);
        let mut digest = digest_links(&links);
        for statement in &statements {
            digest.u64(u64::from(statement.a) << 32 | u64::from(statement.b));
            digest.f64(statement.cost);
        }
        Serve {
            shape: sizes.serve,
            seed,
            links,
            statements,
            final_costs,
            input_digest: digest.hex(),
        }
    }

    fn bulk(&self) -> Vec<TupleDelta> {
        self.links
            .iter()
            .map(|&(s, d, c)| link_delta(s, d, c))
            .collect()
    }

    fn query(&self, i: usize) -> String {
        format!("?- bestRoute(@n{}, _, _, _).", i % self.shape.nodes())
    }

    /// Topology, program, service, bulk load and listener, one span each.
    fn setup(&self, tracer: &mut Tracer, parent: Option<usize>) -> (Arc<Service>, Server) {
        let net = build_net(self.shape, self.seed, tracer, parent);
        let bulk: Vec<TupleDelta> = net
            .costed(whole_cost)
            .into_iter()
            .map(|(s, d, c)| link_delta(s, d, c))
            .collect();
        let program = tracer.call("lang.parse_program", parent, 0, || {
            programs::distance_vector("", MAX_HOPS)
        });
        let service = tracer
            .call("serve.service_from_program", parent, 0, || {
                Service::from_program(&program)
            })
            .expect("canonical program serves");
        tracer.call("serve.bulk_load", parent, 0, || {
            service
                .open_session(Arc::new(NullSink))
                .apply_batch(bulk)
                .expect("bulk load commits");
        });
        let server = tracer
            .call("serve.listen", parent, 0, || {
                service::start(Arc::clone(&service), "127.0.0.1:0")
            })
            .expect("loopback bind");
        (service, server)
    }

    fn write_all(&self, addr: SocketAddr) -> Written {
        let mut out = Written {
            commits: Vec::with_capacity(self.statements.len()),
            wire_bytes: 0,
            checks: Checks::default(),
        };
        let mut client = match LineClient::connect(addr) {
            Ok(client) => client,
            Err(e) => {
                out.checks.fail(format!("writer cannot connect: {e}"));
                return out;
            }
        };
        for statement in &self.statements {
            let sent = Instant::now();
            match client.request(&statement.text, |_, _, _| {}) {
                Ok(reply) => {
                    let done = Instant::now();
                    let epoch = reply_epoch(&reply.message).filter(|_| reply.ok);
                    out.checks.check(epoch.is_some(), || {
                        format!("commit {:?} answered {:?}", statement.text, reply.message)
                    });
                    if let Some(epoch) = epoch {
                        out.commits.push((epoch, sent, done));
                    }
                }
                Err(e) => {
                    // A deadline hit or a dead server: everything unsent
                    // fails with it.
                    let unsent = self.statements.len() - out.commits.len();
                    out.checks.attempted += unsent as u64;
                    out.checks.failed += unsent as u64 - 1;
                    out.checks.fail(format!("writer gave up: {e}"));
                    break;
                }
            }
        }
        let _ = client.request(".quit", |_, _, _| {});
        out.wire_bytes = client.bytes_sent + client.bytes_read;
        out
    }

    fn read_along(
        &self,
        addr: SocketAddr,
        ready: mpsc::Sender<()>,
        writer_done: &AtomicBool,
    ) -> ReadBack {
        let mut out = ReadBack {
            snapshot: Vec::new(),
            deltas: Vec::new(),
            delta_bytes: 0,
            queries: Vec::new(),
            query_rows: 0,
            checks: Checks::default(),
        };
        let outcome = (|| -> io::Result<()> {
            let mut client = LineClient::connect(addr)?;
            let reply = client.request(".subscribe bestRoute", |_, signed, _| {
                out.snapshot.push(signed.to_string());
            })?;
            out.checks.check(reply.ok, || {
                format!("subscribe answered {:?}", reply.message)
            });
            // The writer starts only once the subscription stands. A
            // receiver that is gone already means the round was abandoned.
            let _ = ready.send(());
            let mut i = 0;
            // After the writer's last `ok` every delta is already in this
            // socket (they are written under the engine lock, before the
            // reply), so one more query reads past all of them.
            let mut fence = false;
            while !fence {
                fence = writer_done.load(Ordering::SeqCst);
                let sent = Instant::now();
                let reply = client.request(&self.query(i), |epoch, signed, bytes| {
                    out.deltas.push((epoch, Instant::now(), signed.to_string()));
                    out.delta_bytes += bytes as u64;
                })?;
                out.queries.push((sent, ms_between(sent, Instant::now())));
                out.query_rows += reply.rows.len() as u64;
                out.checks.check(reply.ok && !reply.rows.is_empty(), || {
                    format!("query answered {:?} with no rows", reply.message)
                });
                i += 1;
            }
            client.request(".quit", |_, _, _| {})?;
            Ok(())
        })();
        if let Err(e) = outcome {
            out.checks.fail(format!("reader gave up: {e}"));
            let _ = ready.send(());
        }
        out
    }

    /// One TCP round: fresh service, R subscribed, W through its whole
    /// statement stream, then the checks.
    fn tcp_round(&self, tracer: &mut Tracer) -> Tcp {
        let setup_start = Instant::now();
        let setup = tracer.start("setup", None, 0);
        let (service, server) = self.setup(tracer, Some(setup));
        tracer.end(setup);
        let setup_s = setup_start.elapsed().as_secs_f64();
        let addr = server.addr();

        let writer_done = &AtomicBool::new(false);
        let (ready_tx, ready_rx) = mpsc::channel();
        let (written, read) = std::thread::scope(|scope| {
            let reader = scope.spawn(move || self.read_along(addr, ready_tx, writer_done));
            let writer = scope.spawn(move || {
                // Released by the reader once subscribed (or failed).
                let _ = ready_rx.recv_timeout(READ_DEADLINE);
                let written = self.write_all(addr);
                writer_done.store(true, Ordering::SeqCst);
                written
            });
            (
                writer.join().expect("writer thread"),
                reader.join().expect("reader thread"),
            )
        });

        let mut checks = Checks::default();
        // The final relation, read once everything has quiesced.
        let final_rows = LineClient::connect(addr)
            .and_then(|mut c| {
                let reply = c.request("?- bestRoute(_, _, _, _).", |_, _, _| {})?;
                c.request(".quit", |_, _, _| {})?;
                Ok(reply.rows)
            })
            .unwrap_or_else(|e| {
                checks.fail(format!("final query failed: {e}"));
                Vec::new()
            });
        server.shutdown();

        let sent_at: BTreeMap<u64, Instant> = written
            .commits
            .iter()
            .map(|&(e, sent, _)| (e, sent))
            .collect();
        let mut last_delta: BTreeMap<u64, Instant> = BTreeMap::new();
        let mut lag_ms = Vec::with_capacity(read.deltas.len());
        let mut replay = StreamReplay::default();
        for signed in &read.snapshot {
            replay.apply(signed);
        }
        for (epoch, at, signed) in &read.deltas {
            replay.apply(signed);
            match sent_at.get(epoch) {
                Some(&sent) => {
                    lag_ms.push(ms_between(sent, *at));
                    last_delta.insert(*epoch, *at);
                }
                None => checks.fail(format!("delta of unknown epoch {epoch}: {signed}")),
            }
        }
        checks.passed(read.deltas.len() as u64);
        checks.check(replay.violations() == 0, || {
            format!("{} lost or duplicated deltas", replay.violations())
        });
        let streamed: Vec<&str> = replay.tuples().iter().map(String::as_str).collect();
        let mut stored: Vec<&str> = final_rows.iter().map(String::as_str).collect();
        stored.sort_unstable();
        checks.check(streamed == stored, || {
            format!(
                "snapshot + deltas replay to {} tuples, the relation holds {}",
                streamed.len(),
                stored.len()
            )
        });
        self.check_best_routes(&final_rows, &mut checks);

        // A write is over when its `ok` is back and the last delta it
        // caused has been read by the subscriber.
        let ops_ms: Vec<f64> = written
            .commits
            .iter()
            .map(|&(epoch, sent, done)| {
                let seen = last_delta.get(&epoch).map_or(done, |&d| d.max(done));
                ms_between(sent, seen)
            })
            .collect();
        let wall_s = match (written.commits.first(), written.commits.last()) {
            (Some(first), Some(last)) => ms_between(first.1, last.2) / 1e3,
            _ => 0.0,
        };
        // Queries sent before the first commit or after the last `ok`
        // never waited behind a commit; they are not the mixed workload.
        let contended: Vec<(Instant, f64)> = match (written.commits.first(), written.commits.last())
        {
            (Some(first), Some(last)) => read
                .queries
                .iter()
                .copied()
                .filter(|&(sent, _)| sent >= first.1 && sent <= last.2)
                .collect(),
            _ => Vec::new(),
        };
        let commits = written.commits.iter().map(|&(_, s, d)| (s, d)).collect();
        checks.absorb(written.checks);
        checks.absorb(read.checks);
        Tcp {
            round: Round {
                setup_s,
                wall_s,
                ops_ms,
                wire_mb: (written.wire_bytes + read.delta_bytes) as f64 / 1e6,
                checks,
            },
            lag_ms,
            deltas: read.deltas.len(),
            delta_bytes: read.delta_bytes,
            queries: read.queries.len(),
            query_rows: read.query_rows,
            service,
            commits,
            contended_queries: contended,
        }
    }

    /// `bestRoute` against the brute-force table of least costs over at
    /// most two hops on the final link costs: the same pairs, every cost
    /// equal.
    fn check_best_routes(&self, rows: &[String], checks: &mut Checks) {
        let want = two_hop_best(&self.final_costs);
        let mut got: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for row in rows {
            // bestRoute(@n0, @n1, @n1, 5.0)
            let fields: Vec<&str> = row
                .trim_start_matches("bestRoute(")
                .trim_end_matches(')')
                .split(", ")
                .collect();
            let node = |f: &str| f.strip_prefix("@n").and_then(|n| n.parse::<u32>().ok());
            match (
                fields.len(),
                node(fields[0]),
                fields.get(1).and_then(|f| node(f)),
            ) {
                (4, Some(s), Some(d)) => match fields[3].parse::<f64>() {
                    Ok(cost) => {
                        got.insert((s, d), cost);
                    }
                    Err(_) => checks.fail(format!("malformed row {row}")),
                },
                _ => checks.fail(format!("malformed row {row}")),
            }
        }
        let extra = got.keys().filter(|k| !want.contains_key(k)).count();
        checks.check(extra == 0 && got.len() == rows.len(), || {
            format!(
                "{extra} routes beyond two hops, {} rows for {} pairs",
                rows.len(),
                got.len()
            )
        });
        for (pair, cost) in &want {
            checks.check(got.get(pair) == Some(cost), || {
                format!(
                    "bestRoute {pair:?}: oracle {cost}, program {:?}",
                    got.get(pair)
                )
            });
        }
    }

    pub fn round(&self, tracer: &mut Tracer) -> Round {
        self.tcp_round(tracer).round
    }

    /// The traced run: a reference TCP round, a TCP round whose client
    /// timestamps are kept as spans, then the same statement stream
    /// replayed single-threaded through progressively thicker stacks of
    /// the program; layer self times come out by subtraction, statement
    /// by statement.
    pub fn traced(&self, tracer: &mut Tracer) -> (Layers, Checks) {
        let mut layers = Layers::new();
        let reference = self.tcp_round(tracer);
        let mut checks = reference.round.checks;

        let tcp = self.tcp_round(tracer);
        let setup = tracer
            .spans()
            .iter()
            .rposition(|s| s.name == "setup")
            .expect("the round recorded its set-up");
        for (i, &(sent, done)) in tcp.commits.iter().enumerate() {
            tracer.record("serve.tcp_commit", None, i as u64, sent, done - sent);
        }
        for (i, &(sent, ms)) in tcp.contended_queries.iter().enumerate() {
            let busy = Duration::from_secs_f64(ms / 1e3);
            tracer.record("serve.tcp_query", None, i as u64, sent, busy);
        }

        // The thicker and thicker stacks, statement by statement and side by
        // side, so that a slow spell of the host falls on all three alike:
        // the parser alone; the committed batch through a bare evaluator
        // (no session, no tap routing, no socket); the statement through an
        // in-process session with a collecting subscriber. The three spans
        // of one statement share its index as their request id; they are
        // separate calls, not nested ones, so the session's self time is
        // the first minus the other two.
        let log = tcp.service.commit_log();
        checks.check(log.len() == self.statements.len() + 1, || {
            format!(
                "commit log holds {} batches for {} statements and the bulk load",
                log.len(),
                self.statements.len()
            )
        });
        let program = programs::distance_vector("", MAX_HOPS);
        let optimized = optimize(&program, &Pipeline::identity()).expect("identity optimizes");
        let mut bare = Evaluator::new(&optimized.program).expect("canonical program plans");
        bare.run(Strategy::Pipelined).expect("empty fixpoint");
        tracer
            .call("runtime.bulk_load", None, 0, || {
                bare.update_batch(self.bulk())
            })
            .expect("bare bulk load");
        bare.drain_tap();

        let replayed = Service::from_program(&program).expect("canonical program serves");
        let sink = CollectSink::new();
        let session = replayed.open_session(sink.clone());
        session.apply_batch(self.bulk()).expect("bulk load commits");
        session
            .execute_line(".subscribe bestRoute")
            .expect("subscribe");
        sink.drain();

        let mut events: Vec<DeltaEvent> = Vec::new();
        let mut self_us = Vec::with_capacity(self.statements.len());
        for (i, (statement, batch)) in self.statements.iter().zip(log.iter().skip(1)).enumerate() {
            let request = i as u64;
            let execute = tracer.start("serve.session_execute", None, request);
            let reply = session.execute_line(&statement.text);
            let execute_us = tracer.end(execute);
            checks.check(reply.is_ok(), || {
                format!("in-process commit failed: {}", statement.text)
            });
            events.extend(sink.drain());

            let parse = tracer.start("lang.parse_command", None, request);
            let parsed = parse_command(&statement.text);
            let parse_us = tracer.end(parse);
            checks.check(matches!(parsed, Ok(Some(_))), || {
                format!("statement does not parse: {}", statement.text)
            });

            let update = tracer.start("runtime.update_batch", None, request);
            let applied = bare.update_batch(batch.deltas.clone());
            let update_us = tracer.end(update);
            checks.check(applied.is_ok(), || {
                format!("bare replay of commit {i} failed")
            });
            bare.drain_tap();
            self_us.push(execute_us - parse_us - update_us);
        }
        for i in 0..QUIET_QUERIES {
            let reply = tracer.call("serve.query_execute", None, i as u64, || {
                session.execute_line(&self.query(i))
            });
            checks.check(reply.is_ok(), || "in-process query failed".to_string());
        }
        // The TCP service saw the writer's commits in the writer's order;
        // a sequential replay must land in the identical store, counts
        // included.
        checks.check(replayed.fingerprint() == tcp.service.fingerprint(), || {
            "fingerprint differs from the sequential replay".to_string()
        });
        checks.check(events.len() == tcp.deltas, || {
            format!(
                "the replay streamed {} deltas, the socket carried {}",
                events.len(),
                tcp.deltas
            )
        });

        // 4. Rendering the collected events as wire lines.
        let format = tracer.start("serve.format_events", None, 0);
        let mut rendered = 0usize;
        for event in &events {
            rendered += std::hint::black_box(protocol::format_event(event)).len();
        }
        let format_us = tracer.end(format);
        std::hint::black_box(rendered);

        // --- per-layer metrics ---------------------------------------
        let durations = |name: &str| tracer.durations_us(name);
        let setup_us = |name: &str| tracer.child_total_us(setup, name);
        let commit_ms: Vec<f64> = tcp
            .commits
            .iter()
            .map(|&(sent, done)| ms_between(sent, done))
            .collect();
        let query_ms: Vec<f64> = tcp.contended_queries.iter().map(|q| q.1).collect();
        let parse = durations("lang.parse_command");
        let update = durations("runtime.update_batch");
        let execute = durations("serve.session_execute");
        let quiet = durations("serve.query_execute");
        let commit_p50_ms = median(&commit_ms);
        let query_p50_ms = median(&query_ms);

        layers.insert("lang.parse_program_us", setup_us("lang.parse_program"));
        layers.insert("lang.rules_out", optimized.program.rules.len() as f64);
        layers.insert("lang.parse_command_us_p50", median(&parse));
        layers.insert(
            "net.topology_build_us",
            setup_us("net.gtitm_generate") + setup_us("net.overlay_random_neighbors"),
        );
        layers.insert(
            "runtime.bulk_load_us",
            durations("runtime.bulk_load").iter().sum(),
        );
        layers.insert("runtime.update_batch_us_p50", median(&update));
        layers.insert("runtime.update_batch_us_p99", percentile(&update, 99.0));
        layers.insert("runtime.store_tuples", bare.store().total_tuples() as f64);
        layers.insert("serve.session_execute_us_p50", median(&execute));
        layers.insert("serve.session_execute_us_p99", percentile(&execute, 99.0));
        layers.insert("serve.session_self_us_p50", median(&self_us));
        layers.insert(
            "serve.tcp_self_us_p50",
            commit_p50_ms * 1e3 - median(&execute),
        );
        layers.insert("serve.query_execute_us_p50", median(&quiet));
        layers.insert(
            "serve.query_wait_us_p50",
            query_p50_ms * 1e3 - median(&quiet),
        );
        layers.insert(
            "serve.format_event_us_per_delta",
            format_us / events.len().max(1) as f64,
        );
        layers.insert(
            "serve.deltas_per_commit",
            tcp.deltas as f64 / commit_ms.len().max(1) as f64,
        );
        layers.insert("serve.deltas_streamed", tcp.deltas as f64);
        layers.insert("serve.bytes_streamed", tcp.delta_bytes as f64);
        layers.insert(
            "serve.query_rows_mean",
            tcp.query_rows as f64 / tcp.queries.max(1) as f64,
        );
        layers.insert("serve.commit_log_len", log.len() as f64);
        layers.insert("serve.commit_p50_ms", commit_p50_ms);
        layers.insert("serve.commit_p99_ms", percentile(&commit_ms, 99.0));
        layers.insert("serve.query_p50_ms", query_p50_ms);
        layers.insert("serve.query_p99_ms", percentile(&query_ms, 99.0));
        layers.insert("serve.delta_lag_p50_ms", median(&tcp.lag_ms));
        layers.insert("serve.delta_lag_p99_ms", percentile(&tcp.lag_ms, 99.0));
        layers.insert(
            "serve.ops_per_s",
            (commit_ms.len() + query_ms.len()) as f64 / tcp.round.wall_s,
        );
        layers.insert(
            "trace_overhead_share",
            tcp.round.wall_s / reference.round.wall_s - 1.0,
        );
        checks.absorb(tcp.round.checks);
        (layers, checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_replies_carry_their_epoch() {
        assert_eq!(
            reply_epoch("ok applied 2 update(s); epoch 17; 140 derivation(s)"),
            Some(17)
        );
        assert_eq!(reply_epoch("ok 3 row(s); epoch 4"), Some(4));
        assert_eq!(reply_epoch("err evaluation error"), None);
    }
}
