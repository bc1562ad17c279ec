//! The [`Recorder`] trait and its two implementations: the default
//! [`NoopRecorder`] (every method an empty body, so a disabled build
//! optimises instrumentation to a single relaxed atomic load at each
//! call site) and the [`InMemoryRecorder`] (a mutex-guarded
//! [`Snapshot`] plus a ring-buffered event journal).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::snapshot::{EventRecord, FieldValue, Snapshot};

/// Sentinel tick meaning "never driven by a virtual clock": events fall
/// back to wall-clock microseconds since the recorder was created.
const TICK_UNSET: u64 = u64::MAX;

/// Default capacity of the event journal ring buffer.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

/// Sink for instrumentation. All methods take `&self`; implementations
/// must be internally synchronised (`Send + Sync`) because kernels
/// record from pool workers.
///
/// Determinism contract: an implementation must not inject wall-clock
/// values into anything reachable from [`Recorder::snapshot`] except
/// span *timings* (`SpanStats` nanoseconds) and the wall-clock event
/// fallback stamp used only before the first [`Recorder::set_tick`].
/// The JSONL export strips span timings, so a tick-driven recording is
/// bit-identical across thread counts.
pub trait Recorder: Send + Sync {
    /// Whether this recorder actually stores anything. `false` lets call
    /// sites skip argument construction entirely.
    fn is_enabled(&self) -> bool;

    /// Adds `delta` to the named monotonic counter.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Sets the named gauge, stamped with the current tick.
    fn gauge_set(&self, name: &'static str, value: f64);

    /// Records one observation into the named log-scale histogram.
    fn histogram_record(&self, name: &'static str, value: u64);

    /// Records one completed span occurrence for the `/`-joined `path`.
    fn span_record(&self, path: &str, nanos: u64);

    /// Appends an event to the journal, stamped with the current tick.
    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]);

    /// Advances the logical clock used to stamp events and gauges.
    /// Monotone by construction on the callers' side (`VirtualClock`
    /// ticks, epoch indices); the recorder itself just stores it.
    fn set_tick(&self, tick: u64);

    /// Detaches a copy of everything recorded so far, if this recorder
    /// stores anything.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }

    /// Folds an externally produced snapshot (another recorder's output,
    /// e.g. one per fold) into this recorder.
    fn absorb(&self, _snap: Snapshot) {}
}

/// The default recorder: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _value: f64) {}
    fn histogram_record(&self, _name: &'static str, _value: u64) {}
    fn span_record(&self, _path: &str, _nanos: u64) {}
    fn event(&self, _name: &'static str, _fields: &[(&'static str, FieldValue)]) {}
    fn set_tick(&self, _tick: u64) {}
}

struct Inner {
    snap: Snapshot,
    journal: VecDeque<EventRecord>,
    journal_capacity: usize,
    dropped_events: u64,
}

/// A recorder that accumulates into a [`Snapshot`] behind a
/// `Mutex`, with a bounded ring buffer for the journal.
pub struct InMemoryRecorder {
    inner: Mutex<Inner>,
    /// Current logical tick; `TICK_UNSET` until the first `set_tick`.
    tick: AtomicU64,
    /// Wall-clock origin for the no-virtual-clock fallback stamp.
    created_at: Instant,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryRecorder {
    /// A recorder with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A recorder whose journal keeps at most `capacity` events,
    /// evicting the oldest (and counting them as dropped) beyond that.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                snap: Snapshot::default(),
                journal: VecDeque::with_capacity(capacity.min(1024)),
                journal_capacity: capacity.max(1),
                dropped_events: 0,
            }),
            tick: AtomicU64::new(TICK_UNSET),
            created_at: Instant::now(),
        }
    }

    /// Locks the state, recovering a poisoned lock: a panic on one
    /// recording thread must not turn every later call into a panic.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stamp(&self) -> u64 {
        let tick = self.tick.load(Ordering::Relaxed);
        if tick != TICK_UNSET {
            tick
        } else {
            // Wall-clock fallback: microseconds since creation. Only
            // used when no virtual clock ever drove this recorder.
            self.created_at.elapsed().as_micros() as u64
        }
    }

    /// Convenience: current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().snap.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience: current state of a gauge.
    pub fn gauge(&self, name: &str) -> Option<crate::snapshot::Gauge> {
        self.lock().snap.gauges.get(name).copied()
    }

    /// Exports the current state as JSON Lines (see
    /// [`Snapshot::to_jsonl`]).
    pub fn export_jsonl(&self) -> String {
        self.snapshot_inner().to_jsonl()
    }

    /// Renders the human-readable report (see [`Snapshot::summary`]).
    pub fn summary(&self) -> String {
        self.snapshot_inner().summary()
    }

    fn snapshot_inner(&self) -> Snapshot {
        let inner = self.lock();
        let mut snap = inner.snap.clone();
        snap.events.extend(inner.journal.iter().cloned());
        snap.dropped_events += inner.dropped_events;
        snap
    }
}

impl Recorder for InMemoryRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.lock().snap.counter_add(name, delta);
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        let stamp = self.stamp();
        self.lock().snap.gauge_set(name, value, stamp);
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.lock().snap.histogram_record(name, value);
    }

    fn span_record(&self, path: &str, nanos: u64) {
        self.lock().snap.span_record(path, nanos);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let record = EventRecord {
            tick: self.stamp(),
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        let mut inner = self.lock();
        if inner.journal.len() == inner.journal_capacity {
            inner.journal.pop_front();
            inner.dropped_events += 1;
        }
        inner.journal.push_back(record);
    }

    fn set_tick(&self, tick: u64) {
        self.tick.store(tick.min(TICK_UNSET - 1), Ordering::Relaxed);
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.snapshot_inner())
    }

    fn absorb(&self, snap: Snapshot) {
        self.lock().snap.merge(&snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_stamping_replaces_wall_clock() {
        let rec = InMemoryRecorder::new();
        rec.set_tick(42);
        rec.event("e", &[("k", FieldValue::U64(1))]);
        rec.gauge_set("g", 3.0);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.events[0].tick, 42);
        assert_eq!(snap.gauges["g"].stamp, 42);
    }

    #[test]
    fn journal_ring_evicts_oldest() {
        let rec = InMemoryRecorder::with_journal_capacity(3);
        rec.set_tick(0);
        for i in 0..5u64 {
            rec.set_tick(i);
            rec.event("e", &[("i", FieldValue::U64(i))]);
        }
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped_events, 2);
        assert_eq!(snap.events[0].tick, 2, "oldest two evicted");
    }

    #[test]
    fn absorb_merges_external_snapshot() {
        let a = InMemoryRecorder::new();
        a.counter_add("c", 1);
        let b = InMemoryRecorder::new();
        b.counter_add("c", 2);
        b.histogram_record("h", 10);
        a.absorb(b.snapshot().unwrap());
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.snapshot().unwrap().histograms["h"].count, 1);
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let rec = InMemoryRecorder::new();
        rec.counter_add("c", 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = rec.inner.lock().unwrap();
            panic!("panic while holding the recorder lock");
        }));
        assert!(panicked.is_err() && rec.inner.is_poisoned());
        rec.counter_add("c", 2);
        assert_eq!(rec.counter("c"), 3);
    }

    #[test]
    fn noop_reports_disabled_and_snapshots_nothing() {
        let rec = NoopRecorder;
        assert!(!rec.is_enabled());
        rec.counter_add("c", 1);
        assert!(rec.snapshot().is_none());
    }
}
