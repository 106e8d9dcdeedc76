//! In-memory spans recorded from outside the program, around the calls into
//! each layer. Kept in memory during the run and written out at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use congos_harness::Json;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    pub round: u64,
    /// TCP node the span was recorded on (`None` in the simulator, which
    /// has one clock for all processes).
    pub node: Option<usize>,
}

/// The spans of one clock (the engine's thread, or one TCP node's thread).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    node: Option<usize>,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, node: Option<usize>) -> Self {
        SpanLog {
            epoch,
            node,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, round: u64) {
        self.open_at(name, round, Instant::now());
    }

    /// Opens a span that started at `start` (a timestamp taken elsewhere,
    /// e.g. inside an adversary callback).
    pub fn open_at(&mut self, name: &'static str, round: u64, start: Instant) {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round,
            node: self.node,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span now.
    pub fn close(&mut self) {
        self.close_at(Instant::now());
    }

    /// Closes the innermost open span at `end`.
    pub fn close_at(&mut self, end: Instant) {
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id].end_ns = self.ns(end);
    }

    /// Records a finished child of the innermost open span.
    pub fn record(&mut self, name: &'static str, round: u64, start: Instant, end: Instant) {
        self.open_at(name, round, start);
        self.close_at(end);
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover, summed over all spans of that name. Children are
/// clipped to the parent and, being recorded on one clock in call order,
/// never overlap each other.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
    }
    out
}

/// `true` when every child lies inside its parent and siblings do not
/// overlap — the structural check on a recorded trace.
pub fn nests_without_overlap(spans: &[Span]) -> bool {
    let mut last_child_end: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    spans.iter().all(|s| {
        s.start_ns <= s.end_ns
            && match s.parent {
                None => true,
                Some(p) => {
                    let ok = s.start_ns >= last_child_end[p] && s.end_ns <= spans[p].end_ns;
                    last_child_end[p] = s.end_ns;
                    ok
                }
            }
    })
}

/// The trace file body: one object per span, in recording order.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|s| {
                let opt = |v: Option<usize>| v.map_or(Json::Null, |x| Json::from(x as u64));
                Json::object([
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", opt(s.parent)),
                    ("round", Json::from(s.round)),
                    ("node", opt(s.node)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
            node: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("round", 0, 100, None),
            span("send", 0, 40, Some(0)),
            span("route", 40, 50, Some(0)),
            span("outbox", 5, 25, Some(1)),
            span("round", 100, 130, None),
        ];
        let self_ns = self_time_ns(&spans);
        assert_eq!(self_ns["round"], 50 + 30);
        assert_eq!(self_ns["send"], 20);
        assert_eq!(self_ns["route"], 10);
        assert_eq!(self_ns["outbox"], 20);
        // Self times partition the top-level wall exactly.
        assert_eq!(self_ns.values().sum::<u64>(), 130);
        assert!(nests_without_overlap(&spans));
    }

    #[test]
    fn overlap_and_escape_are_detected() {
        let overlap = [
            span("round", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert!(!nests_without_overlap(&overlap));
        let escape = [span("round", 0, 100, None), span("a", 90, 110, Some(0))];
        assert!(!nests_without_overlap(&escape));
    }

    #[test]
    fn log_assigns_parents_from_the_open_stack() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0, Some(3));
        log.open("round", 7);
        log.open("phase", 7);
        log.record("call", 7, Instant::now(), Instant::now());
        log.close();
        log.close();
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, Some(1));
        assert_eq!(log.spans[2].node, Some(3));
        assert!(nests_without_overlap(&log.spans));
        let doc = to_json(&log.spans);
        assert_eq!(doc[0]["parent"], Json::Null);
        assert_eq!(doc[2]["parent"].as_f64(), Some(1.0));
    }
}
