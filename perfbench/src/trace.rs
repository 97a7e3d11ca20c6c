//! In-memory spans around the layer calls the benchmark makes.
//!
//! A span is `(name, start, end, parent, op)`: times are nanoseconds
//! since the tracer was created, `parent` is the index of the enclosing
//! span (or [`ROOT`]), and `op` identifies the operation the span served
//! (trial index, instance id, replay iteration). Spans stay in memory
//! and are written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a top-level span.
pub const ROOT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    op: u64,
}

/// Span recorder. `Tracer::off()` records nothing, so traced and
/// untraced code share one path.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }

    /// A tracer whose times count from `other`'s epoch, so its spans can
    /// later be [`Tracer::absorb`]ed into `other`.
    pub fn sharing_epoch(other: &Tracer) -> Self {
        Tracer {
            epoch: other.epoch,
            ..Tracer::new()
        }
    }

    /// Moves `other`'s spans (recorded on this tracer's epoch) to the end
    /// of this tracer's, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Tracer::close`] and for
    /// children's `parent`.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn close(&mut self, span: u32) {
        if self.on {
            let end = self.now();
            self.spans[span as usize].end = end;
        }
    }

    /// Calls `f` inside a span named `name` that wraps only the call, and
    /// returns its result with the seconds it took, span included: a
    /// traced loop's rate then shows what tracing adds.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let span = self.open(name, ROOT, op);
        let out = f();
        self.close(span);
        (out, t0.elapsed().as_secs_f64())
    }

    /// Spans named `name`: `(count, total seconds)`.
    pub fn total(&self, name: &str) -> (u64, f64) {
        let mut count = 0u64;
        let mut ns = 0u64;
        for s in self.spans.iter().filter(|s| s.name == name) {
            count += 1;
            ns += s.end - s.start;
        }
        (count, ns as f64 * 1e-9)
    }

    /// Durations in seconds of the spans named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .collect()
    }

    /// Spans recorded.
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Writes every span as one CSV line: `name,start_ns,end_ns,parent,op`
    /// (`parent` is empty for top-level spans).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,op")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(out, "{},{},{},{},{}", s.name, s.start, s.end, parent, s.op)?;
        }
        out.flush()
    }
}
