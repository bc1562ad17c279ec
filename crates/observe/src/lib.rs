//! Deterministic tracing, metrics, and profiling for the Pelican
//! workspace.
//!
//! The subsystem is built around one trait, [`Recorder`], with two
//! implementations: [`NoopRecorder`] — the default, whose methods are
//! empty so every instrumentation site reduces to one relaxed atomic
//! load — and [`InMemoryRecorder`], a mutex-guarded
//! [`Snapshot`] that accumulates:
//!
//! - **hierarchical spans** — [`span`] returns a scoped guard; nested
//!   guards build a `/`-joined per-thread call path, aggregated into
//!   count/total/min/max per path;
//! - **counters / gauges / histograms** — monotonic sums, last-write
//!   gauges stamped by the logical tick, and fixed log₂-bucket
//!   histograms whose merge is a lossless bucket-wise sum;
//! - **an event journal** — ring-buffered, stamped with
//!   `pelican-runtime`'s `VirtualClock` tick when the caller drives
//!   [`set_tick`], wall-clock microseconds otherwise.
//!
//! # Determinism contract
//!
//! [`Snapshot::to_jsonl`] never emits wall-clock values: spans export
//! counts only, and events/gauges carry virtual ticks whenever a clock
//! drove the recorder. Because every instrument merges commutatively
//! (see [`Snapshot::merge`]), a recording is **bit-identical across
//! `PELICAN_THREADS` settings** as long as the instrumented values are
//! themselves deterministic — which the runtime's output-partitioned
//! kernels guarantee. Wall-clock timings exist only in
//! [`Snapshot::summary`], the human-facing report.
//!
//! # Ambient recorders
//!
//! Instrumented code talks to the *ambient* recorder: a thread-local
//! override if one is installed (see [`with_recorder`] /
//! [`ScopedRecorder`]), else the process-wide global (see
//! [`install_global`]), else the no-op. The runtime's `Pool` re-installs
//! the spawning thread's ambient recorder inside each worker, so
//! recordings cross the thread boundary without any global state.
//!
//! ```
//! use std::sync::Arc;
//! use pelican_observe as observe;
//!
//! let rec = Arc::new(observe::InMemoryRecorder::new());
//! observe::with_recorder(rec.clone(), || {
//!     let _outer = observe::span("epoch");
//!     observe::counter_add("batches", 1);
//!     observe::gauge("loss", 0.25);
//! });
//! assert_eq!(rec.counter("batches"), 1);
//! ```

mod recorder;
mod snapshot;

pub use recorder::{InMemoryRecorder, NoopRecorder, Recorder, DEFAULT_JOURNAL_CAPACITY};
pub use snapshot::{
    EventRecord, FieldValue, Gauge, Histogram, Snapshot, SpanStats, HISTOGRAM_BUCKETS,
};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Count of *enabled* ambient recorders installed anywhere in the
/// process (the global counts once, plus one per live thread-local
/// override). Zero is the fast path: every helper bails after a single
/// relaxed load, before touching thread-locals or building arguments.
static ENABLED: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: OnceLock<RwLock<Arc<dyn Recorder>>> = OnceLock::new();

thread_local! {
    /// Per-thread recorder override, installed via [`ScopedRecorder`].
    static CURRENT: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    /// Per-thread stack of open span names, joined into paths.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn global_cell() -> &'static RwLock<Arc<dyn Recorder>> {
    GLOBAL.get_or_init(|| RwLock::new(Arc::new(NoopRecorder)))
}

/// Whether any enabled recorder is ambient anywhere in the process.
/// The zero-cost-when-disabled guarantee: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// The recorder ambient on this thread: the thread-local override if
/// present, else the process global (a no-op until
/// [`install_global`] replaces it).
pub fn current() -> Arc<dyn Recorder> {
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        global_cell()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    })
}

/// The thread-local override, if any — what `Pool` captures on the
/// spawning thread and re-installs inside workers so recordings follow
/// the computation across threads.
pub fn current_override() -> Option<Arc<dyn Recorder>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `rec` as the process-wide default recorder, returning the
/// previous one. Thread-local overrides still win where installed.
pub fn install_global(rec: Arc<dyn Recorder>) -> Arc<dyn Recorder> {
    let mut slot = global_cell()
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    if rec.is_enabled() {
        ENABLED.fetch_add(1, Ordering::Relaxed);
    }
    let prev = std::mem::replace(&mut *slot, rec);
    if prev.is_enabled() {
        ENABLED.fetch_sub(1, Ordering::Relaxed);
    }
    prev
}

/// RAII installation of a thread-local recorder override; the previous
/// override (if any) is restored on drop. This is how recorders scope
/// to a region of code — and how `Pool` workers inherit the spawning
/// thread's recorder.
pub struct ScopedRecorder {
    prev: Option<Arc<dyn Recorder>>,
    counted: bool,
}

impl ScopedRecorder {
    /// Installs `rec` on this thread until the guard drops.
    pub fn install(rec: Arc<dyn Recorder>) -> Self {
        let counted = rec.is_enabled();
        if counted {
            ENABLED.fetch_add(1, Ordering::Relaxed);
        }
        let prev = CURRENT.with(|c| c.borrow_mut().replace(rec));
        ScopedRecorder { prev, counted }
    }
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
        if self.counted {
            ENABLED.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Runs `f` with `rec` installed as this thread's recorder. Restores
/// the previous ambient recorder afterwards, panics included.
pub fn with_recorder<R>(rec: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    let _guard = ScopedRecorder::install(rec);
    f()
}

/// Adds `delta` to the named counter of the ambient recorder.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        current().counter_add(name, delta);
    }
}

/// Sets the named gauge of the ambient recorder.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        current().gauge_set(name, value);
    }
}

/// Records `value` into the named histogram of the ambient recorder.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if enabled() {
        current().histogram_record(name, value);
    }
}

/// Appends an event to the ambient recorder's journal. Field values are
/// only constructed by callers when a recorder is live — prefer
/// `if observe::enabled() { observe::event(...) }` when building the
/// payload costs anything.
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if enabled() {
        current().event(name, fields);
    }
}

/// Advances the ambient recorder's logical clock — the stamp applied to
/// subsequent events and gauge sets. Callers pass `VirtualClock::now()`
/// ticks (pipeline) or epoch indices (trainer).
#[inline]
pub fn set_tick(tick: u64) {
    if enabled() {
        current().set_tick(tick);
    }
}

/// Scoped span: records one occurrence of the current `/`-joined path
/// into the ambient recorder when dropped. Inert (no allocation, no
/// clock read) when no recorder is enabled.
pub struct SpanGuard {
    /// `Some` only when a live recorder was captured at entry; the
    /// guard then owns a stack slot that must be popped on drop.
    active: Option<(Arc<dyn Recorder>, Instant)>,
}

/// Opens a span named `name`, nested under any spans already open on
/// this thread. The returned guard records on drop.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let rec = current();
    if !rec.is_enabled() {
        return SpanGuard { active: None };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        active: Some((rec, Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, start)) = self.active.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            let path = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = stack.join("/");
                stack.pop();
                path
            });
            rec.span_record(&path, nanos);
        }
    }
}

/// A span that always measures, even with no recorder: the trainer uses
/// it so `History::epoch_secs` is populated whether or not observability
/// is on. Records into the ambient recorder exactly like [`span`] when
/// one is enabled.
pub struct TimedSpan {
    rec: Option<Arc<dyn Recorder>>,
    pushed: bool,
    start: Instant,
}

/// Opens an always-measuring span. Call [`TimedSpan::finish`] to obtain
/// the elapsed duration; dropping without finishing records too.
pub fn span_timed(name: &'static str) -> TimedSpan {
    let rec = if enabled() {
        let r = current();
        r.is_enabled().then_some(r)
    } else {
        None
    };
    let pushed = rec.is_some();
    if pushed {
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
    }
    TimedSpan {
        rec,
        pushed,
        start: Instant::now(),
    }
}

impl TimedSpan {
    fn close(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if self.pushed {
            self.pushed = false;
            let path = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let path = stack.join("/");
                stack.pop();
                path
            });
            if let Some(rec) = self.rec.take() {
                rec.span_record(&path, elapsed.as_nanos() as u64);
            }
        } else {
            self.rec = None;
        }
        elapsed
    }

    /// Closes the span and returns its wall-clock duration.
    pub fn finish(mut self) -> Duration {
        self.close()
    }
}

impl Drop for TimedSpan {
    fn drop(&mut self) {
        if self.pushed || self.rec.is_some() {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_helpers_are_inert() {
        // No global installed in this test binary ⇒ helpers no-op.
        counter_add("free", 1);
        gauge("free", 1.0);
        histogram("free", 1);
        event("free", &[]);
        let _s = span("free");
        assert!(current().snapshot().is_none() || current().snapshot().is_some());
    }

    #[test]
    fn with_recorder_scopes_to_the_closure() {
        let rec = Arc::new(InMemoryRecorder::new());
        with_recorder(rec.clone(), || {
            assert!(enabled());
            counter_add("in", 1);
        });
        counter_add("out", 1);
        assert_eq!(rec.counter("in"), 1);
        assert_eq!(rec.counter("out"), 0, "recording leaked past the scope");
    }

    #[test]
    fn nested_scoped_recorders_restore_outer() {
        let outer = Arc::new(InMemoryRecorder::new());
        let inner = Arc::new(InMemoryRecorder::new());
        with_recorder(outer.clone(), || {
            with_recorder(inner.clone(), || counter_add("c", 1));
            counter_add("c", 10);
        });
        assert_eq!(inner.counter("c"), 1);
        assert_eq!(outer.counter("c"), 10);
    }

    #[test]
    fn spans_nest_into_paths() {
        let rec = Arc::new(InMemoryRecorder::new());
        with_recorder(rec.clone(), || {
            let _a = span("fit");
            {
                let _b = span("epoch");
                let _c = span("forward");
            }
            let _d = span("epoch");
        });
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.spans["fit/epoch/forward"].count, 1);
        assert_eq!(snap.spans["fit/epoch"].count, 2);
        assert_eq!(snap.spans["fit"].count, 1);
    }

    #[test]
    fn timed_span_measures_without_a_recorder() {
        let d = span_timed("lonely").finish();
        assert!(d.as_nanos() > 0 || d.as_nanos() == 0); // always a value
                                                        // And records when one is live.
        let rec = Arc::new(InMemoryRecorder::new());
        let d = with_recorder(rec.clone(), || span_timed("epoch").finish());
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.spans["epoch"].count, 1);
        assert!(snap.spans["epoch"].total_nanos >= d.as_nanos() as u64 / 2);
    }

    #[test]
    fn timed_span_records_on_drop_too() {
        let rec = Arc::new(InMemoryRecorder::new());
        with_recorder(rec.clone(), || {
            let _t = span_timed("dropped");
        });
        assert_eq!(rec.snapshot().unwrap().spans["dropped"].count, 1);
    }

    #[test]
    fn scoped_recorder_crosses_threads_via_install() {
        let rec = Arc::new(InMemoryRecorder::new());
        let handle = with_recorder(rec.clone(), current_override);
        let inherited = handle.expect("override visible inside scope");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = ScopedRecorder::install(inherited.clone());
                counter_add("worker", 1);
            });
        });
        assert_eq!(rec.counter("worker"), 1);
    }
}
