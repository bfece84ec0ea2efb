//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! around the public calls it makes into `bnn-serve`, `bnn-quant` and
//! `bnn-core`, and — through [`TimedEngine`], a [`BatchEngine`] wrapper —
//! around every batch the server hands to its engine. Nothing is written
//! until the run ends; [`Tracer::write_csv`] then dumps the spans.

use bnn_models::AdaptiveStats;
use bnn_serve::{BatchEngine, ExitPolicy, ServeError};
use bnn_tensor::Tensor;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The request this span belongs to (requests share it across spans).
    pub request: Option<u64>,
    /// Items the span processed (batch size for engine batches, else 1).
    pub items: u32,
}

/// An append-only span log with a fixed capacity: spans past it are
/// counted as dropped, so a long run cannot grow the log without bound.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

/// Spans one traced run keeps at most.
pub const SPAN_CAP: usize = 1 << 18;

impl Tracer {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAP),
            cap: SPAN_CAP,
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` and returns its index for use as a parent,
    /// or `None` if the log is full.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: Option<u64>,
        items: u32,
    ) -> Option<u32> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            items,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Times `f` as one root span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, None, None, 1);
        (out, (end - start).as_secs_f64())
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span as one CSV row
    /// (`id,name,start_ns,end_ns,parent,request,items`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,request,items")?;
        let opt = |v: Option<u64>| v.map_or(String::new(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id},{},{},{},{},{},{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.request),
                s.items
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// One batch an engine ran: when, and how many rows.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    /// Engine call entry.
    pub start: Instant,
    /// Engine call return.
    pub end: Instant,
    /// Rows in the batch.
    pub size: usize,
}

/// Batch timings shared by every fork of one [`TimedEngine`].
pub type BatchLog = Arc<Mutex<Vec<BatchTiming>>>;

/// A [`BatchEngine`] that times every batch its inner engine runs. Forks
/// share one log, so the server's workers all report into it.
pub struct TimedEngine {
    inner: Box<dyn BatchEngine>,
    log: BatchLog,
}

impl TimedEngine {
    /// Wraps `inner`; returns the engine and the log it fills.
    pub fn new(inner: Box<dyn BatchEngine>) -> (Self, BatchLog) {
        let log: BatchLog = Arc::new(Mutex::new(Vec::with_capacity(SPAN_CAP)));
        (
            TimedEngine {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn note(&self, start: Instant, size: usize) {
        let end = Instant::now();
        self.log
            .lock()
            .expect("a worker panicked while holding the batch log")
            .push(BatchTiming { start, end, size });
    }
}

impl BatchEngine for TimedEngine {
    fn in_dims(&self) -> &[usize] {
        self.inner.in_dims()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn num_exits(&self) -> usize {
        self.inner.num_exits()
    }

    fn fixed_unit_ops(&self, n_samples: usize) -> u64 {
        self.inner.fixed_unit_ops(n_samples)
    }

    fn ensure_batch(&mut self, max_batch: usize) {
        self.inner.ensure_batch(max_batch);
    }

    fn predict_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        let start = Instant::now();
        let result = self.inner.predict_batch_into(inputs, n_samples, seed, out);
        self.note(start, inputs.dims()[0]);
        result
    }

    fn predict_adaptive_batch_into(
        &mut self,
        inputs: &Tensor,
        n_samples: usize,
        seed: u64,
        policy: &ExitPolicy,
        out: &mut Vec<f32>,
        exit_taken: &mut Vec<usize>,
    ) -> Result<AdaptiveStats, ServeError> {
        let start = Instant::now();
        let result = self
            .inner
            .predict_adaptive_batch_into(inputs, n_samples, seed, policy, out, exit_taken);
        self.note(start, inputs.dims()[0]);
        result
    }

    fn fork(&self) -> Box<dyn BatchEngine> {
        Box::new(TimedEngine {
            inner: self.inner.fork(),
            log: Arc::clone(&self.log),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tracer_links_parents_and_caps_its_log() {
        let mut t = Tracer::new();
        t.cap = 2;
        let now = Instant::now();
        let root = t.record("a", now, now + Duration::from_micros(5), None, Some(9), 1);
        let child = t.record("b", now, now, root, Some(9), 1);
        assert_eq!((root, child), (Some(0), Some(1)));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns - t.spans()[0].start_ns >= 5_000);
        assert_eq!(t.record("c", now, now, None, None, 1), None);
        assert_eq!(t.dropped(), 1);
    }
}
