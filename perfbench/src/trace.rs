//! In-memory spans recorded around the benchmark's own calls into
//! each layer. Nothing inside the program is instrumented; a span
//! covers exactly one public call (or a block of identical calls).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    /// Operation the span belongs to; children share their root's id.
    pub op: u64,
    pub name: &'static str,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder; tracers sharing an origin merge into one
/// timeline.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer whose op ids start at `first_op` (give each thread its
    /// own range so ids stay unique after a merge).
    pub fn new(origin: Instant, first_op: u64) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            next_op: first_op,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span for a new operation.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let op = self.next_op;
        self.next_op += 1;
        self.open(op, name, None)
    }

    fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> T) -> T {
        let op = self.spans[parent.0].op;
        let id = self.open(op, name, Some(parent.0));
        let out = f();
        self.end(id);
        out
    }

    /// Duration of a closed span, in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans[id.0].dur_ns() as f64 * 1e-9
    }

    /// Moves `other`'s spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span (its duration minus the time its
    /// children cover), grouped by span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            out.entry(s.name)
                .or_default()
                .push(s.dur_ns().saturating_sub(c) as f64 * 1e-9);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one CSV line: `op,name,parent,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{}",
                s.op, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_merge_keeps_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 0);
        let root = a.begin("root");
        a.child(root, "kid", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        a.end(root);
        let mut b = Tracer::new(origin, 1_000);
        let r = b.begin("other");
        b.end(r);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].op, 1_000);
        assert_eq!(a.spans[2].parent, None);
        let st = a.self_times();
        let kid = st["kid"][0];
        assert!(kid >= 0.002);
        assert!(st["root"][0] < kid, "root self time excludes its child");
    }
}
