//! The traced run's span recorder and the timing wrappers around the
//! program's public seams.
//!
//! Spans (name, start, end, parent, run id) are kept in memory and written
//! out once when the benchmark ends. A span's parent is the innermost open
//! span on the same thread or, for work the program hands to its own
//! threads (the scheduler steps runs on scoped threads), the *ambient*
//! span the caller set around that call. Self time is a span's duration
//! minus the part of it its child spans cover.
//!
//! The wrappers only observe: they forward every call unchanged, so a
//! wrapped run is bit-identical to an unwrapped one (see the workload
//! tests).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::codec::{CodecError, Reader, Writer};
use stoch_eval::objective::{Estimate, SampleStream, StochasticObjective};
use stoch_eval::stats::{EstimatorChoice, TailReport};

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Layer boundary name, e.g. `engine.step`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Id of the span that caused this one, if any.
    pub parent: Option<u64>,
    /// Run the span belongs to (0 for work shared by many runs).
    pub run: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    /// Span id + 1 of the ambient parent; 0 when none.
    ambient: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

fn rec() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        on: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        ambient: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
        counts: Mutex::new(BTreeMap::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turn span recording on or off (off by default).
pub fn set_enabled(on: bool) {
    rec().on.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    rec().on.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    rec().epoch.elapsed().as_nanos() as u64
}

/// An open span; recorded when dropped.
pub struct Guard {
    span: Span,
}

impl Guard {
    /// This span's id.
    pub fn id(&self) -> u64 {
        self.span.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.span.end_ns = now_ns();
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        if let Ok(mut spans) = rec().spans.lock() {
            spans.push(self.span);
        }
    }
}

/// Open a span named `name` for `run`; `None` while recording is off.
pub fn span(name: &'static str, run: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let r = rec();
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| o.borrow().last().copied()).or_else(|| {
        let a = r.ambient.load(Ordering::SeqCst);
        (a != 0).then(|| a - 1)
    });
    OPEN.with(|o| o.borrow_mut().push(id));
    Some(Guard {
        span: Span {
            id,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            run,
        },
    })
}

/// Make `id` the parent of spans opened on threads with no open span of
/// their own (clear with `None`).
pub fn set_ambient(id: Option<u64>) {
    rec()
        .ambient
        .store(id.map_or(0, |i| i + 1), Ordering::SeqCst);
}

/// Add `n` to the named count (only while recording).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        if let Ok(mut c) = rec().counts.lock() {
            *c.entry(name).or_insert(0) += n;
        }
    }
}

/// Drain everything recorded so far.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    let r = rec();
    let spans = std::mem::take(&mut *r.spans.lock().expect("span store poisoned"));
    let counts = std::mem::take(&mut *r.counts.lock().expect("count store poisoned"));
    (spans, counts)
}

/// Per-name totals derived from a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, s.
    pub total_s: f64,
    /// Summed self times (duration minus child coverage), s.
    pub self_s: f64,
    /// Every duration, s (for percentiles).
    pub durs_s: Vec<f64>,
}

/// Group `spans` by name with totals and self times.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let d = s.dur_ns();
        let own = d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_s += d as f64 * 1e-9;
        l.self_s += own as f64 * 1e-9;
        l.durs_s.push(d as f64 * 1e-9);
    }
    out
}

/// Write `spans` as tab-separated text.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\trun")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.run
        )?;
    }
    w.flush()
}

/// A [`SamplingBackend`] that records one `mw.batch` span per
/// `extend_batch` and counts batches and jobs, then forwards the call.
pub struct TracedBackend<S> {
    inner: Arc<dyn SamplingBackend<S>>,
    batches: AtomicU64,
    jobs: AtomicU64,
}

impl<S> TracedBackend<S> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn SamplingBackend<S>>) -> Self {
        TracedBackend {
            inner,
            batches: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }
    }

    /// Jobs forwarded so far (counted whether or not recording is on).
    pub fn jobs(&self) -> u64 {
        self.jobs.load(Ordering::SeqCst)
    }

    /// Batches forwarded so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::SeqCst)
    }
}

impl<S: SampleStream> SamplingBackend<S> for TracedBackend<S> {
    fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        self.batches.fetch_add(1, Ordering::SeqCst);
        self.jobs.fetch_add(jobs.len() as u64, Ordering::SeqCst);
        let _g = span("mw.batch", 0);
        self.inner.extend_batch(jobs)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn pool_token(&self) -> Option<usize> {
        self.inner.pool_token()
    }
}

/// How many unit samples one `extend(dt)` draws, for an exact count.
#[derive(Debug, Clone, Copy)]
pub enum Draws {
    /// Per-sample streams: `ceil(dt / dt_sample)`, at least one.
    PerSample(f64),
    /// One draw per extension (oracle Gaussian increment, one MD replica).
    PerExtend,
}

impl Draws {
    fn for_dt(self, dt: f64) -> u64 {
        match self {
            Draws::PerSample(unit) => (dt / unit).ceil().max(1.0) as u64,
            Draws::PerExtend => 1,
        }
    }
}

/// A stream that records a `sampler.extend` span around every extension
/// and counts the samples drawn. It has no wire identity, so it is used
/// only on in-process backends (the serial replay).
#[derive(Clone)]
pub struct TimedStream<S> {
    inner: S,
    draws: Draws,
}

impl<S: SampleStream> SampleStream for TimedStream<S> {
    fn extend(&mut self, dt: f64) {
        let _g = span("sampler.extend", 0);
        self.inner.extend(dt);
        count("sampler.samples", self.draws.for_dt(dt));
    }

    fn estimate(&self) -> Estimate {
        self.inner.estimate()
    }

    fn save_state(&self, w: &mut Writer) -> Result<(), CodecError> {
        self.inner.save_state(w)
    }

    fn tail_report(&self) -> Option<TailReport> {
        self.inner.tail_report()
    }

    fn set_estimator(&mut self, choice: EstimatorChoice) {
        self.inner.set_estimator(choice)
    }

    fn nonfinite_samples(&self) -> u64 {
        self.inner.nonfinite_samples()
    }

    fn load_state(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Err(CodecError::Unsupported {
            what: "TimedStream",
        })
    }
}

/// An objective whose streams are [`TimedStream`]s over `F`'s.
pub struct Timed<'a, F> {
    /// The wrapped objective.
    pub inner: &'a F,
    /// Sample count rule for `F`'s streams.
    pub draws: Draws,
}

impl<F: StochasticObjective> StochasticObjective for Timed<'_, F> {
    type Stream = TimedStream<F::Stream>;

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn open(&self, x: &[f64], seed: u64) -> Self::Stream {
        TimedStream {
            inner: self.inner.open(x, seed),
            draws: self.draws,
        }
    }

    fn true_value(&self, x: &[f64]) -> Option<f64> {
        self.inner.true_value(x)
    }

    fn pool_token(&self) -> Option<usize> {
        self.inner.pool_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            sp(1, 0, 1_000, None),
            sp(2, 100, 400, Some(1)),
            sp(3, 500, 700, Some(1)),
        ];
        let l = layers(&spans);
        assert_eq!(l["root"].count, 1);
        assert!((l["root"].self_s - 500e-9).abs() < 1e-15);
        assert!((l["child"].total_s - 500e-9).abs() < 1e-15);
        assert!((l["child"].self_s - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn draws_count_ceil_of_units() {
        assert_eq!(Draws::PerSample(0.25).for_dt(1.0), 4);
        assert_eq!(Draws::PerSample(0.25).for_dt(1.1), 5);
        assert_eq!(Draws::PerSample(1.0).for_dt(0.3), 1);
        assert_eq!(Draws::PerExtend.for_dt(7.0), 1);
    }
}
