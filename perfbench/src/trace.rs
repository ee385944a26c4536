//! The benchmark's own spans: opened and closed around its calls into
//! each layer's public entry points, kept in memory, and written out
//! when the run ends. The program itself is not instrumented; it is
//! measured from outside.
//!
//! A disabled tracer records nothing, so untraced runs pay no tracing
//! cost at all.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span. Times are offsets from the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one, in the same tracer.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle a disabled tracer returns.
    pub const NONE: SpanId = SpanId(None);
}

/// Per-thread span store; worker threads get their own and the run
/// merges them with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's state and origin.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    pub fn open(&mut self, name: impl Into<String>, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.into(),
            parent: parent.0,
            start: now,
            end: now,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: impl Into<String>, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Moves another thread's spans in, re-basing their parent links;
    /// spans of `other` without a parent are attached to `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent.0);
            s
        }));
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("a", SpanId::NONE);
        assert_eq!(id, SpanId::NONE);
        t.close(id);
        assert_eq!(t.span("b", id, || 3), 3);
        assert!(t.seconds("a").is_empty() && t.seconds("b").is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_causes() {
        let mut main = Tracer::new(true, Instant::now());
        let root = main.open("root", SpanId::NONE);
        let mut worker = main.fork();
        let outer = worker.open("outer", SpanId::NONE);
        worker.span("inner", outer, || ());
        worker.close(outer);
        main.absorb(worker, root);
        main.close(root);
        assert_eq!(main.spans[1].name, "outer");
        assert_eq!(main.spans[1].parent, Some(0));
        assert_eq!(main.spans[2].parent, Some(1));
        assert!(main.spans.iter().all(|s| s.end >= s.start));
        assert_eq!(main.seconds("inner").len(), 1);
    }
}
