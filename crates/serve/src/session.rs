//! The shared session layer behind both front ends (REPL and TCP).
//!
//! One [`Service`] owns one incremental engine (an
//! [`Evaluator`]) behind a mutex. Any number of
//! [`Session`]s execute interactive commands against it; every committed
//! update batch advances the service **epoch** by one, and everything a
//! command observes — query rows, dumps, subscription snapshots — is read
//! under the engine lock, so reads are snapshot-consistent at epoch
//! boundaries: a query sees either all of a concurrent batch or none of
//! it, never a half-applied state.
//!
//! **Live queries.** `.subscribe rel` registers the session's
//! [`EventSink`] for a relation (optionally with a bound-column filter).
//! The subscriber first receives the relation's current contents as
//! insert events at the current epoch, then the exact insert/retract
//! stream produced by the incremental maintenance machinery (the
//! [`DeltaTap`](ndlog_runtime::DeltaTap) visibility transitions), tagged
//! with the epoch that produced them. Everything one commit owes one
//! subscription — a *frame* — is handed to its sink in one
//! [`EventSink::deliver`] call while the engine lock is held, so every
//! subscriber's frames queue up in commit order; the sinks a command
//! touched are then [`EventSink::flush`]ed after the lock is released, so
//! nothing that can block — a socket, a pipe — ever runs under it.
//!
//! **Commit log.** Every committed batch is appended to a log. This gives
//! the concurrency tests their oracle (replaying the log sequentially
//! must land in the bitwise-identical store), and makes interactive rule
//! addition sound: adding a rule/table rebuilds a fresh engine from the
//! extended program and replays the log — incremental maintenance equals
//! from-scratch evaluation, so the store (counts included) is exactly
//! what it would have been had the rule existed all along. Subscribers
//! are sent the net visibility diff the new rule causes.

use crate::error::ServeError;
use ndlog_lang::ast::{Atom, Program, Rule, TableDecl, Term};
use ndlog_lang::interactive::{
    Command, MetaCommand, Op, SubscribeFilter, UnsubscribeTarget, Update,
};
use ndlog_lang::{parse_command, parse_program, Value};
use ndlog_runtime::{Evaluator, RelName, Strategy, Tuple, TupleDelta};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// A live-query event: one exact insert/retract delta of a subscribed
/// relation, tagged with the subscription it matched and the epoch of the
/// commit that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEvent {
    /// The subscription this event matched.
    pub subscription: u64,
    /// The epoch of the producing commit (snapshot events carry the epoch
    /// current at `.subscribe` time).
    pub epoch: u64,
    /// The signed tuple.
    pub delta: TupleDelta,
}

/// Where a session's live-query events go (a TCP connection, stdout, a
/// collecting buffer in tests).
pub trait EventSink: Send + Sync {
    /// Take one frame: the events one commit (or one subscribe snapshot,
    /// one program change) produced for one subscription, in order. Called
    /// under the engine lock and in commit order, so an implementation must
    /// only *queue*: it must not block, and must not call back into the
    /// service. Errors are the sink's problem (a dead TCP peer just stops
    /// seeing deltas; the session is reaped when its reader returns EOF).
    fn deliver(&self, events: &[DeltaEvent]);

    /// Push out what [`deliver`](EventSink::deliver) queued. Called once
    /// per delivered frame, after the engine lock is released, on the
    /// thread whose command produced the frame; this is where a sink may
    /// block. Frames other commits queued in the meantime may go out with
    /// it, in the order they were delivered.
    fn flush(&self) {}
}

/// A sink that discards events.
pub struct NullSink;

impl EventSink for NullSink {
    fn deliver(&self, _events: &[DeltaEvent]) {}
}

/// A sink that buffers events for later inspection (tests, examples).
#[derive(Default)]
pub struct CollectSink {
    events: Mutex<Vec<DeltaEvent>>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Take everything delivered so far.
    pub fn drain(&self) -> Vec<DeltaEvent> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl EventSink for CollectSink {
    fn deliver(&self, events: &[DeltaEvent]) {
        self.events.lock().unwrap().extend_from_slice(events);
    }
}

/// One committed update batch, in commit order. The log is the replay
/// oracle: applying every batch's deltas in order onto a fresh engine for
/// the same program reproduces the store bit-for-bit.
#[derive(Debug, Clone)]
pub struct CommittedBatch {
    /// The session that committed the batch.
    pub session: u64,
    /// The epoch the commit produced.
    pub epoch: u64,
    /// The batch's deltas, as applied.
    pub deltas: Vec<TupleDelta>,
}

/// What a command returned (the wire/REPL layers render this).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Blank input.
    Empty,
    /// Success with a human-readable summary (may span lines).
    Ok(String),
    /// Query result rows, sorted.
    Rows {
        /// Queried relation.
        relation: String,
        /// Matching tuples.
        rows: Vec<Tuple>,
        /// Epoch the read was consistent at.
        epoch: u64,
    },
    /// `.subscribe` succeeded; the snapshot was already delivered through
    /// the sink.
    Subscribed {
        /// Subscription id (for `.unsubscribe`).
        id: u64,
        /// Subscribed relation.
        relation: String,
        /// Number of snapshot tuples delivered.
        snapshot: usize,
        /// Epoch of the snapshot.
        epoch: u64,
    },
    /// `.dump`: every stored tuple with its derivation count, sorted —
    /// the store fingerprint the consistency tests compare.
    Dump {
        /// `(relation, derivation count, tuple)` rows.
        rows: Vec<(String, u64, Tuple)>,
        /// Epoch the dump was consistent at.
        epoch: u64,
    },
    /// `.quit`: the session is closed.
    Quit,
}

struct Subscription {
    id: u64,
    session: u64,
    relation: String,
    filter: Option<SubscribeFilter>,
    sink: Arc<dyn EventSink>,
}

struct Core {
    /// The user-facing program (as typed/loaded — `.rules` shows this).
    program: Program,
    eval: Evaluator,
    epoch: u64,
    commits: Vec<CommittedBatch>,
    subs: Vec<Subscription>,
    /// The sinks the command in progress delivered a frame to. Whoever
    /// holds the lock takes the list with it and flushes them once the
    /// lock is released (see [`Session::execute`]).
    touched: Vec<Arc<dyn EventSink>>,
    next_sub: u64,
    next_session: u64,
}

/// The shared engine all sessions execute against.
pub struct Service {
    core: Mutex<Core>,
}

/// One client session (a REPL, one TCP connection, one test thread).
pub struct Session {
    service: Arc<Service>,
    id: u64,
    sink: Arc<dyn EventSink>,
}

const HELP: &str = "\
+fact.                      insert one ground fact
-fact.                      delete one ground fact
+rel[(..), (..)].           bulk insert (one atomic batch / epoch)
-rel[(..), (..)].           bulk delete
?- rel(pattern).            query the current fixpoint (constants bind, _ is a wildcard)
head :- body.               add a rule (also with a leading +)
materialize(rel, keys(..)). declare a table (primary key, optional ttl)
.load \"file\"                load an NDlog program file
.subscribe rel[(pattern)]   live insert/retract deltas, optionally filtered
.unsubscribe <id|rel>       cancel subscriptions
.rel                        list relations with tuple counts
.rules                      show the loaded program
.dump                       every stored tuple with its derivation count
.help                       this text
.quit                       close the session";

impl Service {
    /// A service with an empty program (rules and tables arrive
    /// interactively).
    pub fn new() -> Arc<Self> {
        Self::from_program(&Program::new("session")).expect("empty program always plans")
    }

    /// A service preloaded with a program (its facts are in the initial
    /// fixpoint; the epoch starts at 0). No optimizer rewrites are applied.
    pub fn from_program(program: &Program) -> Result<Arc<Self>, ServeError> {
        let mut eval = Evaluator::new(program).map_err(ServeError::new)?;
        eval.run(Strategy::Pipelined)
            .map_err(|e| ServeError::new(format!("initial fixpoint failed: {e}")))?;
        eval.drain_tap();
        Ok(Arc::new(Service {
            core: Mutex::new(Core {
                program: program.clone(),
                eval,
                epoch: 0,
                commits: Vec::new(),
                subs: Vec::new(),
                touched: Vec::new(),
                next_sub: 1,
                next_session: 1,
            }),
        }))
    }

    /// A service preloaded from program source text.
    pub fn from_source(src: &str) -> Result<Arc<Self>, ServeError> {
        let program = parse_program(src).map_err(|e| ServeError::new(e.render(src)))?;
        Self::from_program(&program)
    }

    /// Open a session whose live-query events go to `sink`.
    pub fn open_session(self: &Arc<Self>, sink: Arc<dyn EventSink>) -> Session {
        let id = {
            let mut core = self.core.lock().unwrap();
            let id = core.next_session;
            core.next_session += 1;
            id
        };
        Session {
            service: Arc::clone(self),
            id,
            sink,
        }
    }

    /// The current epoch (number of committed batches and program
    /// changes).
    pub fn epoch(&self) -> u64 {
        self.core.lock().unwrap().epoch
    }

    /// The commit log, in commit order.
    pub fn commit_log(&self) -> Vec<CommittedBatch> {
        self.core.lock().unwrap().commits.clone()
    }

    /// Live query subscriptions across all sessions. A connection that
    /// drops mid-session must take its subscriptions with it — this is
    /// the observable for that invariant.
    pub fn subscription_count(&self) -> usize {
        self.core.lock().unwrap().subs.len()
    }

    /// The bitwise store fingerprint: every stored tuple with its
    /// derivation count, sorted. Two services whose fingerprints are equal
    /// hold identical visible stores *including* per-tuple derivation
    /// counts.
    pub fn fingerprint(&self) -> Vec<(String, u64, Tuple)> {
        self.core.lock().unwrap().dump_rows()
    }
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The service this session executes against.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Parse and execute one line of the interactive dialect. Parse errors
    /// come back rendered with a caret snippet pointing at the offending
    /// token.
    pub fn execute_line(&self, line: &str) -> Result<Response, ServeError> {
        match parse_command(line) {
            Err(e) => Err(ServeError::new(e.render(line))),
            Ok(None) => Ok(Response::Empty),
            Ok(Some(cmd)) => self.execute(cmd),
        }
    }

    /// Run `command` under the engine lock, then — the lock released —
    /// flush every sink it delivered a frame to. No sink is ever written
    /// under the lock, so a peer that stops reading cannot hold it.
    fn locked<T>(&self, command: impl FnOnce(&mut Core) -> T) -> T {
        let (result, touched) = {
            let mut core = self.service.core.lock().unwrap();
            let result = command(&mut core);
            (result, std::mem::take(&mut core.touched))
        };
        for sink in touched {
            sink.flush();
        }
        result
    }

    /// Execute one parsed command.
    pub fn execute(&self, cmd: Command) -> Result<Response, ServeError> {
        self.locked(|core| self.run(core, cmd))
    }

    fn run(&self, core: &mut Core, cmd: Command) -> Result<Response, ServeError> {
        match cmd {
            Command::Update(update) => core.apply_update(self.id, update),
            Command::Query(atom) => core.query(&atom),
            Command::Rule(rule) => core.add_rule(rule),
            Command::Table(decl) => core.add_table(decl),
            Command::Meta(meta) => match meta {
                MetaCommand::Load(path) => core.load_file(&path),
                MetaCommand::Subscribe { relation, filter } => {
                    core.subscribe(self.id, Arc::clone(&self.sink), relation, filter)
                }
                MetaCommand::Unsubscribe(target) => core.unsubscribe(self.id, target),
                MetaCommand::Relations => core.relations(),
                MetaCommand::Rules => core.rules(),
                MetaCommand::Dump => {
                    let rows = core.dump_rows();
                    Ok(Response::Dump {
                        rows,
                        epoch: core.epoch,
                    })
                }
                MetaCommand::Help => Ok(Response::Ok(HELP.to_string())),
                MetaCommand::Quit => {
                    core.drop_session(self.id);
                    Ok(Response::Quit)
                }
            },
        }
    }

    /// Commit a pre-built delta batch (one epoch), bypassing the text
    /// dialect. The concurrency tests and `benchmark/` drive the engine
    /// this way; it is exactly what an `Update` command does after parsing.
    pub fn apply_batch(&self, deltas: Vec<TupleDelta>) -> Result<Response, ServeError> {
        self.locked(|core| core.commit(self.id, deltas))
    }

    /// Close the session: drop its subscriptions.
    pub fn close(&self) {
        self.service.core.lock().unwrap().drop_session(self.id);
    }
}

impl Core {
    fn apply_update(&mut self, session: u64, update: Update) -> Result<Response, ServeError> {
        let deltas: Vec<TupleDelta> = update
            .tuples
            .into_iter()
            .map(|values| {
                let tuple = Tuple::new(values);
                match update.op {
                    Op::Insert => TupleDelta::insert(update.relation.clone(), tuple),
                    Op::Delete => TupleDelta::delete(update.relation.clone(), tuple),
                }
            })
            .collect();
        self.commit(session, deltas)
    }

    fn commit(&mut self, session: u64, deltas: Vec<TupleDelta>) -> Result<Response, ServeError> {
        // A tuple the store could not key is refused before anything is
        // applied: the batch commits whole or not at all.
        let store = self.eval.store();
        for delta in &deltas {
            let schema = store.relation(&delta.relation).map(|r| r.schema());
            if let Some(why) = schema.and_then(|s| s.lacks_key(delta.tuple.arity())) {
                return Err(ServeError::new(format!(
                    "{delta}: {why}; nothing committed"
                )));
            }
        }
        let n = deltas.len();
        let stats = match self.eval.update_batch(deltas.clone()) {
            Ok(stats) => stats,
            Err(e) => {
                // The batch is half-applied: put back the engine the commit
                // log describes, as a rebuild would, with no epoch and no
                // frame for the failed batch.
                self.eval = self.replayed(&self.program).map_err(|restore| {
                    ServeError::new(format!("evaluation error: {e}; {restore}"))
                })?;
                return Err(ServeError::new(format!(
                    "evaluation error: {e}; nothing committed"
                )));
            }
        };
        self.epoch += 1;
        self.commits.push(CommittedBatch {
            session,
            epoch: self.epoch,
            deltas,
        });
        // The tap's recorded visibility transitions, in store order.
        let deltas = self.eval.drain_tap();
        self.deliver_frames(&deltas);
        Ok(Response::Ok(format!(
            "applied {n} update(s); epoch {}; {} derivation(s)",
            self.epoch, stats.derivations
        )))
    }

    /// Hand every subscription the frame `deltas` holds for it: its
    /// matching deltas at the current epoch, in order, in one `deliver`
    /// call. Runs under the engine lock, so every sink is handed its frames
    /// in commit order; the sinks are flushed by whoever releases the lock.
    fn deliver_frames(&mut self, deltas: &[TupleDelta]) {
        let mut frame = Vec::new();
        for sub in &self.subs {
            frame.extend(
                deltas
                    .iter()
                    .filter(|d| sub.relation == d.relation && filter_matches(&sub.filter, &d.tuple))
                    .map(|delta| DeltaEvent {
                        subscription: sub.id,
                        epoch: self.epoch,
                        delta: delta.clone(),
                    }),
            );
            if !frame.is_empty() {
                sub.sink.deliver(&frame);
                self.touched.push(Arc::clone(&sub.sink));
                frame.clear();
            }
        }
    }

    fn query(&self, atom: &Atom) -> Result<Response, ServeError> {
        // Filter in storage order and sort only the matches: the stored
        // order is by primary key, the reply's by whole tuple.
        let mut rows: Vec<Tuple> = match self.eval.store().relation(&atom.name) {
            Some(relation) => relation
                .iter_unordered()
                .filter(|stored| atom_matches(atom, &stored.tuple))
                .map(|stored| stored.tuple.clone())
                .collect(),
            None => Vec::new(),
        };
        rows.sort();
        Ok(Response::Rows {
            relation: atom.name.clone(),
            rows,
            epoch: self.epoch,
        })
    }

    fn add_rule(&mut self, mut rule: Rule) -> Result<Response, ServeError> {
        if rule.label.is_empty() {
            rule.label = self.fresh_rule_label();
        } else if self.program.rule(&rule.label).is_some() {
            return Err(ServeError::new(format!(
                "rule label `{}` is already defined (pick another)",
                rule.label
            )));
        }
        let mut program = self.program.clone();
        program.rules.push(rule.clone());
        self.rebuild(program, format!("added rule {}", rule.label))
    }

    fn add_table(&mut self, decl: TableDecl) -> Result<Response, ServeError> {
        if self.program.table_decl(&decl.name).is_some() {
            return Err(ServeError::new(format!(
                "relation `{}` is already materialized",
                decl.name
            )));
        }
        let name = decl.name.clone();
        let mut program = self.program.clone();
        program.tables.push(decl);
        self.rebuild(program, format!("materialized {name}"))
    }

    fn load_file(&mut self, path: &str) -> Result<Response, ServeError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| ServeError::new(format!("cannot read {path}: {e}")))?;
        let loaded = parse_program(&src)
            .map_err(|e| ServeError::new(format!("{path}: {}", e.render(&src))))?;
        let mut program = self.program.clone();
        for decl in loaded.tables {
            if program.table_decl(&decl.name).is_some() {
                return Err(ServeError::new(format!(
                    "{path}: relation `{}` is already materialized",
                    decl.name
                )));
            }
            program.tables.push(decl);
        }
        let (mut rules, mut facts) = (0usize, 0usize);
        for mut rule in loaded.rules {
            if rule.is_fact() {
                facts += 1;
            } else {
                rules += 1;
            }
            if rule.label.is_empty() || program.rule(&rule.label).is_some() {
                rule.label = fresh_label_in(&program);
            }
            program.rules.push(rule);
        }
        program.queries.extend(loaded.queries);
        self.rebuild(
            program,
            format!("loaded {path}: {rules} rule(s), {facts} fact(s)"),
        )
    }

    fn fresh_rule_label(&self) -> String {
        fresh_label_in(&self.program)
    }

    /// A fresh engine for `program`, its tap watching what the current
    /// one's watches: the whole program's fixpoint, then the commit log
    /// replayed — the store, derivation counts included, is exactly as if
    /// the program had always been this one and only the logged batches
    /// had arrived. The replay's transitions are drained: they are not what
    /// subscribers should see.
    fn replayed(&self, program: &Program) -> Result<Evaluator, ServeError> {
        let mut eval = Evaluator::new(program).map_err(ServeError::new)?;
        for relation in self.eval.tap().subscribed() {
            eval.tap_mut().subscribe(relation.to_string());
        }
        eval.run(Strategy::Pipelined)
            .map_err(|e| ServeError::new(format!("fixpoint failed: {e}")))?;
        for batch in &self.commits {
            eval.update_batch(batch.deltas.clone())
                .map_err(|e| ServeError::new(format!("replaying the commit log failed: {e}")))?;
        }
        eval.drain_tap();
        Ok(eval)
    }

    /// Swap in an extended program: rebuild a fresh engine for it over the
    /// commit log, and send subscribers the net visibility diff as one
    /// epoch.
    fn rebuild(&mut self, program: Program, what: String) -> Result<Response, ServeError> {
        let before = self.subscribed_visible();
        self.eval = self.replayed(&program)?;
        self.program = program;
        self.epoch += 1;
        let after = self.subscribed_visible();
        let retracted = before
            .difference(&after)
            .map(|(relation, tuple)| TupleDelta::delete(relation.clone(), tuple.clone()));
        let inserted = after
            .difference(&before)
            .map(|(relation, tuple)| TupleDelta::insert(relation.clone(), tuple.clone()));
        let diff: Vec<TupleDelta> = retracted.chain(inserted).collect();
        self.deliver_frames(&diff);
        Ok(Response::Ok(format!("{what}; epoch {}", self.epoch)))
    }

    fn subscribed_visible(&self) -> BTreeSet<(String, Tuple)> {
        let mut set = BTreeSet::new();
        for relation in self.eval.tap().subscribed() {
            for tuple in self.eval.store().tuples(relation) {
                set.insert((relation.to_string(), tuple));
            }
        }
        set
    }

    fn subscribe(
        &mut self,
        session: u64,
        sink: Arc<dyn EventSink>,
        relation: String,
        filter: Option<SubscribeFilter>,
    ) -> Result<Response, ServeError> {
        if let Some(filter) = &filter {
            // The program's arity holds whether or not anything is stored
            // yet; a relation it does not name is judged by a stored tuple.
            let arity = self.program.arity_of(&relation).or_else(|| {
                let stored = self.eval.store().tuples(&relation);
                stored.first().map(|t| t.values().len())
            });
            if let Some(arity) = arity.filter(|&a| a != filter.len()) {
                return Err(ServeError::new(format!(
                    "subscribe pattern has {} column(s) but `{relation}` has {arity}",
                    filter.len(),
                )));
            }
        }
        let id = self.next_sub;
        self.next_sub += 1;
        self.eval.tap_mut().subscribe(relation.clone());
        // Snapshot: the relation's current matching contents as insert
        // events at the current epoch, before any live delta.
        let mut snapshot: Vec<Tuple> = self
            .eval
            .store()
            .tuples(&relation)
            .into_iter()
            .filter(|t| filter_matches(&filter, t))
            .collect();
        snapshot.sort();
        let count = snapshot.len();
        // One shared name for the whole snapshot, and one frame.
        let name = RelName::from(&relation);
        let frame: Vec<DeltaEvent> = snapshot
            .into_iter()
            .map(|tuple| DeltaEvent {
                subscription: id,
                epoch: self.epoch,
                delta: TupleDelta::insert(name.clone(), tuple),
            })
            .collect();
        if !frame.is_empty() {
            sink.deliver(&frame);
            self.touched.push(Arc::clone(&sink));
        }
        self.subs.push(Subscription {
            id,
            session,
            relation: relation.clone(),
            filter,
            sink,
        });
        Ok(Response::Subscribed {
            id,
            relation,
            snapshot: count,
            epoch: self.epoch,
        })
    }

    fn unsubscribe(
        &mut self,
        session: u64,
        target: UnsubscribeTarget,
    ) -> Result<Response, ServeError> {
        let before = self.subs.len();
        match &target {
            UnsubscribeTarget::Id(id) => {
                self.subs.retain(|s| !(s.session == session && s.id == *id));
            }
            UnsubscribeTarget::Relation(relation) => {
                self.subs
                    .retain(|s| !(s.session == session && &s.relation == relation));
            }
        }
        let removed = before - self.subs.len();
        if removed == 0 {
            return Err(ServeError::new(
                "no matching subscription in this session".to_string(),
            ));
        }
        self.gc_tap();
        Ok(Response::Ok(format!(
            "unsubscribed {removed} subscription(s)"
        )))
    }

    fn drop_session(&mut self, session: u64) {
        self.subs.retain(|s| s.session != session);
        self.gc_tap();
    }

    /// Stop tapping relations nobody subscribes to anymore.
    fn gc_tap(&mut self) {
        let active: BTreeSet<&str> = self.subs.iter().map(|s| s.relation.as_str()).collect();
        let stale: Vec<String> = self
            .eval
            .tap()
            .subscribed()
            .filter(|r| !active.contains(r))
            .map(str::to_string)
            .collect();
        for relation in stale {
            self.eval.tap_mut().unsubscribe(&relation);
        }
    }

    fn relations(&self) -> Result<Response, ServeError> {
        let mut lines: Vec<String> = self
            .eval
            .store()
            .relation_names()
            .map(|name| format!("{name}: {} tuple(s)", self.eval.store().count(name)))
            .collect();
        lines.sort();
        if lines.is_empty() {
            lines.push("(no relations)".to_string());
        }
        Ok(Response::Ok(lines.join("\n")))
    }

    fn rules(&self) -> Result<Response, ServeError> {
        let text = self.program.to_string();
        let trimmed = text.trim();
        Ok(Response::Ok(if trimmed.is_empty() {
            "(empty program)".to_string()
        } else {
            trimmed.to_string()
        }))
    }

    fn dump_rows(&self) -> Vec<(String, u64, Tuple)> {
        let store = self.eval.store();
        let mut rows = Vec::new();
        for name in store.relation_names() {
            if let Some(relation) = store.relation(name) {
                for stored in relation.iter() {
                    rows.push((name.to_string(), stored.count, stored.tuple.clone()));
                }
            }
        }
        rows.sort();
        rows
    }
}

fn fresh_label_in(program: &Program) -> String {
    let mut n = program.rules.len() + 1;
    loop {
        let label = format!("r{n}");
        if program.rule(&label).is_none() {
            return label;
        }
        n += 1;
    }
}

/// Does a tuple match a subscribe filter? `None` matches everything; a
/// pattern matches when every bound column equals the tuple's value (a
/// pattern of the wrong arity matches nothing).
fn filter_matches(filter: &Option<SubscribeFilter>, tuple: &Tuple) -> bool {
    match filter {
        None => true,
        Some(pattern) => {
            pattern.len() == tuple.values().len()
                && pattern
                    .iter()
                    .zip(tuple.values())
                    .all(|(slot, value)| slot.as_ref().is_none_or(|bound| bound == value))
        }
    }
}

/// Does a tuple match a query atom? Constants must equal, variables bind
/// (repeated variables must agree), `_`-prefixed variables are wildcards.
fn atom_matches(atom: &Atom, tuple: &Tuple) -> bool {
    if atom.args.len() != tuple.values().len() {
        return false;
    }
    let mut bindings: BTreeMap<&str, &Value> = BTreeMap::new();
    for (term, value) in atom.args.iter().zip(tuple.values()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return false;
                }
            }
            Term::Var(v) => {
                if v.name.starts_with('_') {
                    continue;
                }
                match bindings.get(v.name.as_str()) {
                    Some(bound) => {
                        if *bound != value {
                            return false;
                        }
                    }
                    None => {
                        bindings.insert(v.name.as_str(), value);
                    }
                }
            }
            Term::Agg(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::programs;
    use ndlog_runtime::Sign;

    fn figure2(service: &Arc<Service>) -> Session {
        let session = service.open_session(Arc::new(NullSink));
        let edges: [(u32, u32, f64); 5] = [
            (0, 1, 5.0),
            (0, 2, 1.0),
            (2, 1, 1.0),
            (1, 3, 1.0),
            (4, 0, 1.0),
        ];
        let mut deltas = Vec::new();
        for (a, b, c) in edges {
            for (s, d) in [(a, b), (b, a)] {
                deltas.push(TupleDelta::insert(
                    "link",
                    Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)]),
                ));
            }
        }
        session.apply_batch(deltas).unwrap();
        session
    }

    #[test]
    fn updates_queries_and_epochs() {
        let service = Service::from_program(&programs::shortest_path("")).unwrap();
        let session = figure2(&service);
        assert_eq!(service.epoch(), 1);

        // Bound query: a's shortest path to b goes via c at cost 2.
        let resp = session
            .execute_line("?- shortestPath(@n0, @n1, P, C).")
            .unwrap();
        let Response::Rows { rows, epoch, .. } = resp else {
            panic!("expected rows, got {resp:?}");
        };
        assert_eq!(epoch, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(3), Some(&Value::Float(2.0)));

        // Wildcards and repeated variables.
        let Response::Rows { rows: all, .. } = session
            .execute_line("?- shortestPath(@n0, _, _, _).")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(all.len(), 4);
        let Response::Rows { rows: none, .. } =
            session.execute_line("?- link(@S, @S, _).").unwrap()
        else {
            panic!()
        };
        assert!(none.is_empty(), "no self-links in figure 2");

        // Text updates advance the epoch.
        let resp = session
            .execute_line("+link[(@n2, @n3, 1.0), (@n3, @n2, 1.0)].")
            .unwrap();
        assert!(matches!(resp, Response::Ok(_)));
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.commit_log().len(), 2);
    }

    #[test]
    fn subscriptions_stream_snapshot_then_exact_deltas() {
        let service = Service::from_program(&programs::shortest_path("")).unwrap();
        let session = figure2(&service);
        let sink = CollectSink::new();
        let watcher = service.open_session(sink.clone());

        let resp = watcher
            .execute_line(".subscribe shortestPath(@n0, _, _, _)")
            .unwrap();
        let Response::Subscribed { id, snapshot, .. } = resp else {
            panic!("expected subscribed, got {resp:?}");
        };
        assert_eq!(snapshot, 4, "a reaches b, c, d, e");
        let events = sink.drain();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.subscription == id
            && e.delta.sign == Sign::Insert
            && e.delta.tuple.get(0) == Some(&Value::addr(0u32))));

        // Deleting the cheap a—c edge reroutes a→b: the watcher sees the
        // retract of the cost-2 route and the insert of the cost-5 one.
        session
            .execute_line("-link[(@n0, @n2, 1.0), (@n2, @n0, 1.0)].")
            .unwrap();
        let churn = sink.drain();
        assert!(churn.iter().any(|e| e.delta.sign == Sign::Delete
            && e.delta.tuple.get(1) == Some(&Value::addr(1u32))
            && e.delta.tuple.get(3) == Some(&Value::Float(2.0))));
        assert!(churn.iter().any(|e| e.delta.sign == Sign::Insert
            && e.delta.tuple.get(1) == Some(&Value::addr(1u32))
            && e.delta.tuple.get(3) == Some(&Value::Float(5.0))));
        // The filter holds: only @n0-rooted tuples were delivered.
        assert!(churn
            .iter()
            .all(|e| e.delta.tuple.get(0) == Some(&Value::addr(0u32))));

        // Unsubscribing stops the stream and GCs the tap.
        watcher.execute_line(".unsubscribe shortestPath").unwrap();
        session
            .execute_line("+link[(@n0, @n2, 1.0), (@n2, @n0, 1.0)].")
            .unwrap();
        assert!(sink.drain().is_empty());
        assert!(watcher.execute_line(".unsubscribe 99").is_err());
    }

    /// A pattern of the wrong width could never match; it is refused the
    /// same way whether the relation is still empty or not.
    #[test]
    fn a_subscribe_pattern_of_the_wrong_arity_is_refused_even_when_empty() {
        let program = ndlog_lang::parse_program(
            "materialize(link, keys(1,2)). r1 reach(@A,@B) :- link(@A,@B,C).",
        )
        .unwrap();
        let service = Service::from_program(&program).unwrap();
        let session = service.open_session(Arc::new(NullSink));
        let refusal = |line: &str| session.execute_line(line).unwrap_err().to_string();

        let empty = refusal(".subscribe reach(@n0, _, _)");
        assert_eq!(empty, "subscribe pattern has 3 column(s) but `reach` has 2");
        session.execute_line("+link(@n0, @n1, 1.0).").unwrap();
        assert_eq!(refusal(".subscribe reach(@n0, _, _)"), empty);

        // A relation the program does not name is judged by what is stored.
        session.execute_line("+extra(1, 2).").unwrap();
        assert!(refusal(".subscribe extra(1)").contains("`extra` has 2"));
        assert!(session.execute_line(".subscribe extra(1, _)").is_ok());
    }

    #[test]
    fn interactive_program_growth_replays_the_commit_log() {
        let service = Service::new();
        let session = service.open_session(Arc::new(NullSink));
        let sink = CollectSink::new();
        let watcher = service.open_session(sink.clone());

        session
            .execute_line("materialize(edge, keys(1,2)).")
            .unwrap();
        session.execute_line("+edge[(1,2), (2,3), (3,4)].").unwrap();
        watcher.execute_line(".subscribe reach").unwrap();
        assert!(sink.drain().is_empty(), "reach does not exist yet");

        // Adding rules *after* the data arrived must behave as if they had
        // always been there (rebuild + commit-log replay), and the watcher
        // gets the net diff.
        session.execute_line("reach(A,B) :- edge(A,B).").unwrap();
        session
            .execute_line("reach(A,C) :- edge(A,B), reach(B,C).")
            .unwrap();
        let events = sink.drain();
        assert_eq!(
            events.len(),
            6,
            "3 direct + 3 transitive reach tuples, inserts only: {events:?}"
        );
        assert!(events.iter().all(|e| e.delta.sign == Sign::Insert));

        let Response::Rows { rows, .. } = session.execute_line("?- reach(1, _).").unwrap() else {
            panic!()
        };
        assert_eq!(rows.len(), 3);

        // Deleting a base edge retracts the affected closure exactly.
        session.execute_line("-edge(1,2).").unwrap();
        let retracts = sink.drain();
        assert_eq!(retracts.len(), 3, "1→2, 1→3, 1→4 all go: {retracts:?}");
        assert!(retracts.iter().all(|e| e.delta.sign == Sign::Delete));

        // Duplicate labels and tables are rejected.
        assert!(session
            .execute_line("materialize(edge, keys(1,2)).")
            .is_err());
        session
            .execute_line("mine reach2(A,B) :- edge(A,B).")
            .unwrap();
        assert!(session
            .execute_line("mine reach3(A,B) :- edge(A,B).")
            .is_err());
    }

    /// A list literal as long as a request line allows — ≈ 500 k elements,
    /// one node each — is stored, streamed, compared and freed by loops:
    /// committing and retracting it leaves the session working.
    #[test]
    fn a_request_line_sized_list_commits_and_retracts() {
        let service = Service::new();
        let session = service.open_session(Arc::new(NullSink));
        let sink = CollectSink::new();
        let watcher = service.open_session(sink.clone());
        session.execute_line("materialize(big, keys(1)).").unwrap();
        watcher.execute_line(".subscribe big").unwrap();

        let items = (crate::service::MAX_LINE_BYTES - 64) / 2;
        let mut literal = String::with_capacity(2 * items + 2);
        literal.push('[');
        for i in 0..items {
            literal.push(char::from(b'0' + (i % 10) as u8));
            literal.push(if i + 1 < items { ',' } else { ']' });
        }
        let insert = format!("+big(1, {literal}).");
        assert!(insert.len() <= crate::service::MAX_LINE_BYTES);
        session.execute_line(&insert).unwrap();
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        let stored = events[0]
            .delta
            .tuple
            .get(1)
            .and_then(Value::as_list)
            .unwrap();
        assert_eq!(stored.len(), items);
        assert_eq!(events[0].delta.tuple.to_string().len(), 3 * items + 5);
        drop(events);

        session
            .execute_line(&format!("-big(1, {literal})."))
            .unwrap();
        let events = sink.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].delta.sign, Sign::Delete);
        drop(events);
        let Response::Rows { rows, .. } = session.execute_line("?- big(_, _).").unwrap() else {
            panic!()
        };
        assert!(rows.is_empty());
        session.execute_line("+big(2, [1, 2]).").unwrap();
        let Response::Rows { rows, .. } = session.execute_line("?- big(2, _).").unwrap() else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
    }

    /// A tuple or a rule head with fewer columns than its relation's key is
    /// refused with an error before it reaches the store: nothing commits,
    /// the epoch stays, and every session keeps working.
    #[test]
    fn tuples_and_heads_shorter_than_the_key_are_refused() {
        let service = Service::new();
        let session = service.open_session(Arc::new(NullSink));
        session
            .execute_line("materialize(r, infinity, infinity, keys(2)).")
            .unwrap();
        session.execute_line("materialize(s, keys(1)).").unwrap();
        let epoch = service.epoch();
        let refused = |line: &str| {
            let err = session.execute_line(line).unwrap_err().to_string();
            assert!(err.contains("`r` has 1 column(s)"), "{line}: {err}");
            assert!(err.contains("column 2"), "{line}: {err}");
            assert_eq!(service.epoch(), epoch, "{line}");
        };
        refused("+r(1).");
        refused("-r(1).");
        refused("+r[(1, 2), (3)].");
        refused("r1 r(@X) :- s(@X).");
        let short = TupleDelta::insert("r", Tuple::new(vec![Value::Int(1)]));
        assert!(session.apply_batch(vec![short]).is_err());
        assert_eq!(service.epoch(), epoch);
        assert!(service.commit_log().is_empty());
        session.execute_line("+s(1).").unwrap();
        assert_eq!(service.epoch(), epoch + 1);

        let other = service.open_session(Arc::new(NullSink));
        other.execute_line("+r(1, 2).").unwrap();
        let Response::Rows { rows, .. } = other.execute_line("?- r(X, Y).").unwrap() else {
            panic!()
        };
        assert_eq!(rows, [Tuple::new(vec![Value::Int(1), Value::Int(2)])]);
    }

    /// A batch whose evaluation fails commits nothing: store, epoch and
    /// commit log stay as they were, no subscriber gets a frame, and the
    /// next commit is the next epoch, its frame holding only its own
    /// transitions.
    #[test]
    fn a_batch_that_fails_evaluation_commits_nothing() {
        let service = Service::new();
        let session = service.open_session(Arc::new(NullSink));
        let sink = CollectSink::new();
        let watcher = service.open_session(sink.clone());
        session
            .execute_line("r1 out(@S, C) :- src(@S, X), C := X + 1.")
            .unwrap();
        session.execute_line("+src(1, 2).").unwrap();
        watcher.execute_line(".subscribe src").unwrap();
        watcher.execute_line(".subscribe out").unwrap();
        sink.drain();
        let (epoch, fingerprint) = (service.epoch(), service.fingerprint());
        let commits = service.commit_log().len();

        let failed = session.execute_line("+src[(2, 5), (3, \"a\"), (4, 7)].");
        let err = failed.unwrap_err().to_string();
        assert!(err.contains("type mismatch"), "{err}");
        assert!(err.ends_with("nothing committed"), "{err}");
        assert_eq!(service.fingerprint(), fingerprint);
        assert_eq!(service.epoch(), epoch);
        assert_eq!(service.commit_log().len(), commits);
        assert!(sink.drain().is_empty(), "no frame for a failed batch");

        session.execute_line("+src(4, 7).").unwrap();
        assert_eq!(service.epoch(), epoch + 1);
        let events = sink.drain();
        let tuples: Vec<String> = events.iter().map(|e| e.delta.tuple.to_string()).collect();
        assert_eq!(tuples, ["(4, 7)", "(4, 8)"], "{events:?}");
        assert!(events.iter().all(|e| e.epoch == epoch + 1));
        // A rebuild replays exactly what was committed.
        session.execute_line("r2 seen(@S) :- src(@S, X).").unwrap();
        let Response::Rows { rows, .. } = session.execute_line("?- src(_, _).").unwrap() else {
            panic!()
        };
        assert_eq!(rows.len(), 2, "{rows:?}");
    }

    #[test]
    fn dump_and_fingerprint_agree() {
        let service = Service::from_program(&programs::shortest_path("")).unwrap();
        let session = figure2(&service);
        let Response::Dump { rows, epoch } = session.execute_line(".dump").unwrap() else {
            panic!()
        };
        assert_eq!(epoch, 1);
        assert_eq!(rows, service.fingerprint());
        assert!(rows.iter().any(|(rel, _, _)| rel == "shortestPath"));
        // Ten links, each inserted once.
        assert_eq!(
            rows.iter()
                .filter(|(rel, count, _)| rel == "link" && *count == 1)
                .count(),
            10
        );
    }

    #[test]
    fn rules_added_mid_session_match_the_load_time_fixpoint() {
        let full = programs::shortest_path("");

        // Service A: the whole program at load time.
        let at_load = Service::from_program(&full).unwrap();
        let a_session = figure2(&at_load);
        let a_sink = CollectSink::new();
        let a_watcher = at_load.open_session(a_sink.clone());
        a_watcher.execute_line(".subscribe shortestPath").unwrap();

        // Service B: only the table declarations at load time; data
        // arrives, a watcher subscribes, and the rules are added
        // mid-session one at a time (each add rebuilds the engine).
        let mut base = full.clone();
        base.rules.clear();
        let mid_session = Service::from_program(&base).unwrap();
        let b_session = figure2(&mid_session);
        let b_sink = CollectSink::new();
        let b_watcher = mid_session.open_session(b_sink.clone());
        b_watcher.execute_line(".subscribe shortestPath").unwrap();
        assert!(b_sink.drain().is_empty(), "no rules yet, nothing derived");
        for rule in &full.rules {
            b_session.execute(Command::Rule(rule.clone())).unwrap();
        }

        // The subscribed sessions saw identical deltas: A's snapshot (the
        // load-time fixpoint) equals the net diff B received from the
        // mid-session additions.
        let key = |e: &DeltaEvent| {
            (
                e.delta.relation.clone(),
                e.delta.sign == Sign::Insert,
                e.delta.tuple.clone(),
            )
        };
        let mut a_events: Vec<_> = a_sink.drain().iter().map(key).collect();
        let mut b_events: Vec<_> = b_sink.drain().iter().map(key).collect();
        a_events.sort();
        b_events.sort();
        assert!(!a_events.is_empty());
        assert_eq!(a_events, b_events);

        // And the stores are bitwise identical, derivation counts included.
        assert_eq!(at_load.fingerprint(), mid_session.fingerprint());

        // Further updates keep agreeing: both engines run the same plans.
        a_session.execute_line("-link(@n0, @n2, 1.0).").unwrap();
        b_session.execute_line("-link(@n0, @n2, 1.0).").unwrap();
        let mut a_churn: Vec<_> = a_sink.drain().iter().map(key).collect();
        let mut b_churn: Vec<_> = b_sink.drain().iter().map(key).collect();
        a_churn.sort();
        b_churn.sort();
        assert!(!a_churn.is_empty());
        assert_eq!(a_churn, b_churn);
    }

    #[test]
    fn parse_errors_render_caret_snippets() {
        let service = Service::new();
        let session = service.open_session(Arc::new(NullSink));
        let err = session.execute_line("+link(@n0 @n1).").unwrap_err();
        assert!(err.to_string().contains('^'), "{err}");
        assert!(matches!(
            session.execute_line("   % comment only").unwrap(),
            Response::Empty
        ));
        let help = session.execute_line(".help").unwrap();
        let Response::Ok(text) = help else { panic!() };
        assert!(text.contains(".subscribe"));
    }
}
