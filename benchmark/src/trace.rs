//! Spans recorded from outside the program, around calls into its public
//! functions.
//!
//! A span is a name (`layer.call`), a start and an end on the benchmark's
//! own clock, the span that caused it and a request id shared by all spans
//! of one unit of work (an epoch of the simulator workloads, a statement of
//! `serve_mixed`). Spans stay in memory and are written out once, when the
//! run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in microseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.at(Instant::now());
        self.spans[id].end_us = now;
        self.spans[id].duration_us()
    }

    /// Time one call as a span.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span measured elsewhere: by a client thread, or accumulated
    /// over many short calls (every `Simulator::send` of one epoch). It
    /// starts at `start` and lasts `busy`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        busy: Duration,
    ) {
        let start_us = self.at(start);
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us + busy.as_secs_f64() * 1e6,
            parent,
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span of one name, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Total duration of the spans of one name directly under `parent`
    /// (several rounds record a `setup` subtree; this picks one round's).
    pub fn child_total_us(&self, parent: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(Span::duration_us)
            .sum()
    }

    /// A span's duration minus the part of it its children cover. Children
    /// are clipped to the parent and overlapping children count once.
    #[cfg(test)]
    pub fn self_time_us(&self, id: usize) -> f64 {
        let children = (0..self.spans.len()).filter(|&c| self.spans[c].parent == Some(id));
        self.uncovered_us(id, children)
    }

    fn uncovered_us(&self, id: usize, children: impl Iterator<Item = usize>) -> f64 {
        let parent = &self.spans[id];
        let mut covered: Vec<(f64, f64)> = children
            .map(|c| {
                let s = &self.spans[c];
                (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us))
            })
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut busy = 0.0;
        let mut edge = f64::NEG_INFINITY;
        for (a, b) in covered {
            if b > edge {
                busy += b - a.max(edge);
                edge = b;
            }
        }
        parent.duration_us() - busy
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(id);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let total = out.entry(span.name).or_default();
            total.count += 1;
            total.total_us += span.duration_us();
            total.self_us += self.uncovered_us(id, children[id].iter().copied());
        }
        out
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"us since trace start\", \"spans\": ["
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start\": {:.3}, \"end\": {:.3}, \"parent\": {parent}, \"request\": {}}}{comma}",
                s.name, s.start_us, s.end_us, s.request
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, f64, f64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_us, end_us, parent) in spans {
            t.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
                request: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = tracer_with(&[
            ("epoch", 0.0, 100.0, None),
            ("drain", 0.0, 10.0, Some(0)),
            ("run", 10.0, 60.0, Some(0)),
            // Overlaps `run` by 10 and sticks out of the parent by 20.
            ("replay", 50.0, 120.0, Some(0)),
            ("send", 70.0, 80.0, Some(3)),
        ]);
        // Children cover [0,10] + [10,60] + [60,100] = the whole parent.
        assert_eq!(t.self_time_us(0), 0.0);
        assert_eq!(t.self_time_us(1), 10.0);
        assert_eq!(t.self_time_us(3), 60.0);
        let totals = t.totals();
        assert_eq!(totals["replay"].total_us, 70.0);
        assert_eq!(totals["replay"].self_us, 60.0);
        assert_eq!(totals["send"].count, 1);
    }

    #[test]
    fn gaps_between_children_are_self_time() {
        let t = tracer_with(&[
            ("epoch", 0.0, 100.0, None),
            ("drain", 5.0, 15.0, Some(0)),
            ("run", 40.0, 70.0, Some(0)),
        ]);
        assert_eq!(t.self_time_us(0), 60.0);
    }

    #[test]
    fn real_spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let outer = t.start("outer", None, 7);
        t.call("inner", Some(outer), 7, || std::hint::black_box(1 + 1));
        t.end(outer);
        assert!(t.spans()[0].duration_us() >= t.spans()[1].duration_us());
        let json = t.to_json("w", 1);
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"request\": 7"));
    }
}
