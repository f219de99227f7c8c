//! In-memory spans recorded around calls into the program's layers, and
//! the per-layer metrics derived from them.
//!
//! Spans are recorded from the benchmark's side of each public call: the
//! caller thread opens layer spans with [`JobTrace::span`], and the timing
//! engine records one leaf span per simulation on whichever pool worker
//! runs it, attached to the caller's open span. Each job has its own
//! [`JobTrace`], so several callers can trace at once.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::stats::{self, percentile};

/// The layers the benchmark times from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// `DseFlow::build_design` (module `doe`).
    Doe,
    /// `DseFlow::fit` (module `rsm`).
    Rsm,
    /// `DseFlow::optimise` (module `optim`).
    Optim,
    /// `DseFlow::simulate_design`: one pool batch (module `core::pool`).
    Pool,
    /// `NetworkSim::evaluate` (modules `net::fleet` and `net::channel`).
    Fleet,
    /// One `EnvelopeSim::simulate` call.
    Envelope,
    /// One `FullSystemSim::simulate` call.
    FullSim,
    /// A served job as the client sees it, from sending the request to
    /// its `result` frame.
    Request,
    /// A served job's `accepted` to `running` frames: its queue wait.
    Queue,
    /// A served job's `running` to `result` frames: its execution.
    Exec,
}

impl Layer {
    /// The layer's name in trace files and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Doe => "doe",
            Layer::Rsm => "rsm",
            Layer::Optim => "optim",
            Layer::Pool => "pool",
            Layer::Fleet => "fleet",
            Layer::Envelope => "envelope",
            Layer::FullSim => "fullsim",
            Layer::Request => "request",
            Layer::Queue => "queue",
            Layer::Exec => "exec",
        }
    }
}

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects spans in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `instant` in tracer time (ns); 0 for instants before the tracer.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span whose times were taken elsewhere.
    pub fn record(&self, layer: Layer, job: u64, parent: Option<u64>, start: u64, end: u64) -> u64 {
        let id = self.new_id();
        self.push(Span {
            id,
            parent,
            job,
            layer,
            start,
            end,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The spans of one job: its id and the innermost span its caller has
/// open.
#[derive(Debug)]
pub struct JobTrace {
    tracer: Arc<Tracer>,
    job: u64,
    open: Mutex<Option<u64>>,
}

impl JobTrace {
    pub fn new(tracer: &Arc<Tracer>, job: u64) -> Arc<JobTrace> {
        Arc::new(JobTrace {
            tracer: Arc::clone(tracer),
            job,
            open: Mutex::new(None),
        })
    }

    /// Times `f` as a span of `layer` on the caller thread. Leaf spans
    /// recorded while `f` runs, on any thread, become its children.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.new_id();
        let parent = self
            .open
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(id);
        let start = self.tracer.now();
        let out = f();
        let end = self.tracer.now();
        *self.open.lock().unwrap_or_else(PoisonError::into_inner) = parent;
        self.tracer.push(Span {
            id,
            parent,
            job: self.job,
            layer,
            start,
            end,
        });
        out
    }

    /// Times `f` as a leaf span of `layer` under the caller's open span;
    /// safe to call from worker threads.
    pub fn leaf<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.new_id();
        let parent = *self.open.lock().unwrap_or_else(PoisonError::into_inner);
        let start = self.tracer.now();
        let out = f();
        let end = self.tracer.now();
        self.tracer.push(Span {
            id,
            parent,
            job: self.job,
            layer,
            start,
            end,
        });
        out
    }
}

/// Writes spans as tab-separated lines:
/// `id parent job layer start_ns end_ns` (parent 0 for a root span).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tjob\tlayer\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.unwrap_or(0),
            s.job,
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    out.flush()
}

/// Sum of `layer`'s self times: each span minus the union of its
/// children's intervals.
pub fn self_ns(spans: &[Span], layer: Layer) -> u64 {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            stats::self_time((s.start, s.end), kids)
        })
        .sum()
}

/// Share of `window` covered by the union of `spans`.
pub fn coverage(spans: &[Span], window: (u64, u64)) -> f64 {
    let clipped: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start.max(window.0), s.end.min(window.1)))
        .collect();
    stats::union_len(&clipped) as f64 / (window.1 - window.0).max(1) as f64
}

/// The span-derived per-layer metrics, as `(name, value)` pairs.
pub fn layer_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
    let count = |layer: Layer| of(layer).count() as f64;
    let busy_ms = |layer: Layer| of(layer).map(Span::len).sum::<u64>() as f64 / 1e6;
    let envelope_us: Vec<f64> = of(Layer::Envelope).map(|s| s.len() as f64 / 1e3).collect();
    vec![
        ("doe.calls", count(Layer::Doe)),
        ("doe.busy_ms", busy_ms(Layer::Doe)),
        ("rsm.calls", count(Layer::Rsm)),
        ("rsm.busy_ms", busy_ms(Layer::Rsm)),
        ("optim.calls", count(Layer::Optim)),
        ("optim.busy_ms", busy_ms(Layer::Optim)),
        ("envelope.evals", count(Layer::Envelope)),
        ("envelope.busy_ms", busy_ms(Layer::Envelope)),
        (
            "envelope.eval_p50_us",
            percentile(&envelope_us, 50.0).unwrap_or(0.0),
        ),
        ("fullsim.evals", count(Layer::FullSim)),
        ("fullsim.busy_ms", busy_ms(Layer::FullSim)),
        ("pool.batches", count(Layer::Pool)),
        ("pool.self_ms", self_ns(spans, Layer::Pool) as f64 / 1e6),
        ("fleet.self_ms", self_ns(spans, Layer::Fleet) as f64 / 1e6),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two jobs traced at once, each with leaves on worker threads: every
    /// leaf attaches to its own job's open span.
    #[test]
    fn leaf_spans_attach_to_their_jobs_open_span() {
        let tracer = Arc::new(Tracer::default());
        std::thread::scope(|s| {
            for job in [7, 8] {
                let trace = JobTrace::new(&tracer, job);
                s.spawn(move || {
                    trace.span(Layer::Pool, || {
                        std::thread::scope(|w| {
                            w.spawn(|| trace.leaf(Layer::Envelope, || ()));
                            w.spawn(|| trace.leaf(Layer::Envelope, || ()));
                        });
                    })
                });
            }
        });
        let spans = tracer.spans();
        for job in [7, 8] {
            let pool = spans
                .iter()
                .find(|s| s.layer == Layer::Pool && s.job == job)
                .unwrap();
            assert_eq!(pool.parent, None);
            let leaves: Vec<_> = spans.iter().filter(|s| s.parent == Some(pool.id)).collect();
            assert_eq!(leaves.len(), 2);
            assert!(leaves
                .iter()
                .all(|s| s.layer == Layer::Envelope && s.job == job));
        }
    }

    #[test]
    fn self_time_of_a_batch_with_parallel_children() {
        let span = |id, parent, layer, start, end| Span {
            id,
            parent,
            job: 0,
            layer,
            start,
            end,
        };
        // A 100 ns batch whose two workers ran [10, 60) and [30, 90).
        let spans = [
            span(1, None, Layer::Pool, 0, 100),
            span(2, Some(1), Layer::Envelope, 10, 60),
            span(3, Some(1), Layer::Envelope, 30, 90),
        ];
        assert_eq!(self_ns(&spans, Layer::Pool), 20);
        assert_eq!(coverage(&spans, (0, 200)), 0.5);
    }
}
