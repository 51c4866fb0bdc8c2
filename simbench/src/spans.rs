//! In-memory spans around calls into the program's public functions.
//!
//! Each span records its layer, the call it wraps, start and end (ns
//! since the tracer was created), its parent span and the iteration it
//! belongs to (0 = set-up or a probe). Spans stay in memory and are
//! written as one JSON file when the benchmark ends. A layer's self time
//! is the sum of its spans' durations minus the time their direct
//! children cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When off, [`Tracer::span`] is a plain call.
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    parent: Cell<Option<usize>>,
    iteration: Cell<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: Cell::new(on),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            parent: Cell::new(None),
            iteration: Cell::new(0),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.set(iteration);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.parent.get(),
                iteration: self.iteration.get(),
            });
            spans.len() - 1
        };
        let outer = self.parent.replace(Some(idx));
        let out = f();
        self.parent.set(outer);
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Per-layer `(self time in ms, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, children) in spans.iter().zip(&child_ns) {
            let entry = out.entry(s.layer).or_insert((0.0, 0));
            entry.0 += s.duration_ns().saturating_sub(*children) as f64 / 1e6;
            entry.1 += 1;
        }
        out
    }

    /// Every span as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iteration\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.iteration
            );
        }
        out.push_str("\n]");
        out
    }
}
