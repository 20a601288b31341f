//! In-memory span recorder for the traced run.
//!
//! A span covers one *batch* of calls into a layer (an `Instant` read costs
//! more than an eager put, so per-call stamps would measure the clock).
//! Spans are kept in a pre-sized `Vec` and written out once, at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; `0` is reserved for "no parent".
pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub batch: u64,
    /// Calls the span covers (the batch size), to turn durations into
    /// per-call figures.
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        let mut spans = Vec::with_capacity(capacity + 1);
        // Slot 0 is the "no parent" sentinel.
        spans.push(Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: 0,
            batch: 0,
            calls: 0,
        });
        Spans { epoch, spans }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, batch: u64, calls: u64) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
            calls,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        batch: u64,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, batch, calls);
        let r = f();
        self.end(id);
        r
    }

    pub fn recorded(&self) -> &[Span] {
        &self.spans[1..]
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover. Children of one parent never overlap (they are
    /// opened and closed in sequence on one thread), so their durations
    /// add up to the covered interval.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in self.recorded() {
            if s.parent != 0 {
                child[s.parent] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per-call durations (ns) of every span with this name, in record
    /// order.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.recorded()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / s.calls.max(1) as f64)
            .collect()
    }

    /// Per-call self times (ns) of every span with this name.
    pub fn per_call_self_ns(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .skip(1)
            .filter(|(s, _)| s.name == name)
            .map(|(s, own)| own as f64 / s.calls.max(1) as f64)
            .collect()
    }

    /// JSON lines: one object per span, then one summary object per span
    /// name (count, total and self time).
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        let mut by_name: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(1) {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch\":{},\"calls\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.batch, s.calls, own[i]
            );
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.calls;
            e.2 += s.dur_ns();
            e.3 += own[i];
        }
        for (name, (spans, calls, total, selft)) in by_name {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"spans\":{spans},\"calls\":{calls},\"total_ns\":{total},\"self_ns\":{selft}}}"
            );
        }
        out
    }
}
