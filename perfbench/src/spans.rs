//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time computation over them.

use crate::alloc;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call. `parent` is 0 for a root span; every span of one
/// session carries that session's id.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub session: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made while the span was open (all threads).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: its index in the recorder and the allocation counters
/// at entry.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    allocs: u64,
    bytes: u64,
}

impl Open {
    /// The span's id, for use as a child's parent.
    pub fn id(&self) -> u64 {
        self.index as u64 + 1
    }
}

/// Span recorder. Spans stay in memory until [`Tracer::to_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, session: u64, parent: u64) -> Open {
        let (allocs, bytes) = alloc::snapshot();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            parent,
            session,
            name,
            start_ns: now,
            end_ns: now,
            allocs: 0,
            alloc_bytes: 0,
        });
        Open {
            index: self.spans.len() - 1,
            allocs,
            bytes,
        }
    }

    /// Closes an open span now and returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = self.ns(Instant::now());
        let (allocs, bytes) = alloc::snapshot();
        let span = &mut self.spans[open.index];
        span.end_ns = end;
        span.allocs = allocs - open.allocs;
        span.alloc_bytes = bytes - open.bytes;
        Duration::from_nanos(span.duration_ns())
    }

    /// Records a span whose bounds were measured elsewhere (an
    /// operator sample a layer returned).
    pub fn record(
        &mut self,
        name: &'static str,
        session: u64,
        parent: u64,
        start: Instant,
        wall: Duration,
    ) -> u64 {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            parent,
            session,
            name,
            start_ns,
            end_ns: start_ns + wall.as_nanos() as u64,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.spans.len() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span as one JSON object per line, with its self time.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"session\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                span.id,
                span.parent,
                span.session,
                span.name,
                span.start_ns,
                span.end_ns,
                own,
                span.allocs,
                span.alloc_bytes
            );
        }
        out
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that its child spans cover (children
/// clipped to the parent, overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let Some(kids) = children.get(&span.id) else {
                return span.duration_ns();
            };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (s, e) in clipped {
                let s = s.max(cursor);
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time per span name, summed over `spans`.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.name).or_default() += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            session: 1,
            name: "s",
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children covering 10..50, and one poking
            // past the parent's end (clipped to 90..100).
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 120),
            // A grandchild does not count against the root.
            span(5, 2, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 20, 30, 8]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span(1, 0, 5, 9)];
        assert_eq!(self_times(&spans), vec![4]);
    }

    #[test]
    fn recorder_nests_and_writes_jsonl() {
        let mut tracer = Tracer::new();
        let root = tracer.open("session", 7, 0);
        let child = tracer.open("child", 7, root.id());
        std::thread::sleep(Duration::from_millis(2));
        tracer.close(child);
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        let jsonl = tracer.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\":\"child\""));
        let by_name = self_time_by_name(spans);
        assert!(by_name["child"] >= 2_000_000);
        assert!(by_name["session"] < by_name["child"]);
    }
}
