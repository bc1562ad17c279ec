//! The Fig. 1 deployment: a trained network behind the supervised
//! streaming pipeline, driven by an open-loop load generator.

use crate::trace::span;
use crate::util::{ms, Digest};
use pelican_core::Confusion;
use pelican_data::{OneHotEncoder, RawDataset, Schema, Standardizer};
use pelican_nn::{predict, Layer};
use pelican_simulator::{Detector, Flow, ServedBy, StreamingPipeline, TrafficStream};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Wall-clock accounting shared between a [`NidsDetector`] and the load
/// generator.
#[derive(Debug, Default)]
pub struct DetectorClock {
    /// Total time inside `classify` so far.
    pub classify_ns: u64,
    /// Duration of every `classify` call.
    pub classify_ms: Vec<f64>,
    /// Time spent encoding each window (one-hot + standardise).
    pub encode_ms: Vec<f64>,
}

/// A trained network with its frozen preprocessing: one-hot encode,
/// standardise, then `predict` in `Mode::Eval`.
pub struct NidsDetector<L: Layer> {
    pub net: L,
    pub encoder: OneHotEncoder,
    pub scaler: Standardizer,
    pub schema: Schema,
    pub clock: Rc<RefCell<DetectorClock>>,
}

impl<L: Layer> Detector for NidsDetector<L> {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        let start = Instant::now();
        let preds = span("serve.classify", || {
            if window.is_empty() {
                return Vec::new();
            }
            let x = span("data.window_encode", || {
                let records = window.iter().map(|f| f.record.clone()).collect::<Vec<_>>();
                let labels = vec![0; records.len()];
                let raw = RawDataset::new(self.schema.clone(), records, labels);
                self.scaler.transform(&self.encoder.encode(&raw))
            });
            self.clock.borrow_mut().encode_ms.push(ms(start.elapsed()));
            predict(&mut self.net, &x, 256)
        });
        let took = start.elapsed();
        let mut clock = self.clock.borrow_mut();
        clock.classify_ns += took.as_nanos() as u64;
        clock.classify_ms.push(ms(took));
        preds
    }

    fn name(&self) -> &'static str {
        "pelican"
    }
}

/// Verdicts the serving digest covers: the first this many windows. A
/// window's verdict depends only on the windows before it, so the digest
/// is the same for every run length that reaches it.
pub const DIGEST_WINDOWS: usize = 600;

/// Open-loop traffic: `windows` windows of `background` flows (plus any
/// campaign burst) offered at a fixed `rate_hz`, each due at
/// `start + id / rate_hz` whether or not earlier ones were answered.
#[derive(Debug, Clone, Copy)]
pub struct LoadShape {
    pub rate_hz: f64,
    pub windows: usize,
    pub background: usize,
}

/// What the pipeline did with the offered load.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    /// Per window, due time until the call returning its verdict returned.
    pub latency_ms: Vec<f64>,
    /// Per window, due time until the call that served it started.
    pub queue_wait_ms: Vec<f64>,
    /// Per `ingest`/`finish` call, its wall time minus time in `classify`.
    pub self_us: Vec<f64>,
    /// Largest delay between a window's due time and its `ingest` call.
    pub lag_ms_max: f64,
    /// Flows per second of every `ingest`/`finish` call that returned
    /// exactly one verdict, served by the primary: the server's rate while
    /// busy with one window.
    pub primary_rate: Vec<f64>,
    /// Flows that received a verdict.
    pub flows: usize,
    /// Flows the primary classified.
    pub primary_flows: usize,
    pub windows: usize,
    pub primary: usize,
    /// Windows shed or left without a verdict.
    pub failed: usize,
    /// Windows the fallback served: the pipeline degraded as designed.
    pub degraded: usize,
    /// Binary attack-vs-normal confusion of every verdict.
    pub confusion: Confusion,
    /// Digest of the ordered `(id, served_by, preds)` of the verdicts of
    /// the first [`DIGEST_WINDOWS`] windows.
    pub digest: String,
}

/// Drives `pipe` with `load` drawn from `stream`. A window's verdict
/// comes back from a later call, so its latency includes the wait for
/// that call; windows are generated between calls, outside the timings.
pub fn run_open_loop<P: Detector, F: Detector>(
    pipe: &mut StreamingPipeline<P, F>,
    stream: &mut TrafficStream,
    load: LoadShape,
    clock: &Rc<RefCell<DetectorClock>>,
) -> ServeOutcome {
    let gap = Duration::from_secs_f64(1.0 / load.rate_hz);
    let mut truth: Vec<Vec<usize>> = Vec::with_capacity(load.windows);
    let mut verdicts: Vec<Option<(ServedBy, Vec<usize>)>> = vec![None; load.windows];
    let mut out = ServeOutcome {
        latency_ms: vec![f64::NAN; load.windows],
        queue_wait_ms: vec![f64::NAN; load.windows],
        windows: load.windows,
        ..Default::default()
    };
    let mut next = Some(stream.next_window(load.background));
    let start = Instant::now() + gap;
    let due = |id: usize| start + gap * id as u32;
    let mut record = |call_start: Instant,
                      call_end: Instant,
                      classify_before: u64,
                      got: Vec<pelican_simulator::WindowVerdict>,
                      out: &mut ServeOutcome| {
        let took = call_end - call_start;
        if let [v] = &got[..] {
            if v.served_by == ServedBy::Primary {
                out.primary_rate
                    .push(v.preds.len() as f64 / took.as_secs_f64());
            }
        }
        let classify = clock.borrow().classify_ns - classify_before;
        out.self_us
            .push((took.as_nanos() as f64 - classify as f64).max(0.0) / 1e3);
        for v in got {
            out.latency_ms[v.id] = ms(call_end.saturating_duration_since(due(v.id)));
            out.queue_wait_ms[v.id] = ms(call_start.saturating_duration_since(due(v.id)));
            verdicts[v.id] = Some((v.served_by, v.preds));
        }
    };
    for id in 0..load.windows {
        let window = next.take().expect("window generated ahead");
        truth.push(window.iter().map(|f| f.true_class).collect());
        let now = Instant::now();
        if now < due(id) {
            std::thread::sleep(due(id) - now);
        }
        let call_start = Instant::now();
        out.lag_ms_max = out.lag_ms_max.max(ms(call_start - due(id)));
        let before = clock.borrow().classify_ns;
        let got = pipe.ingest(window);
        let call_end = Instant::now();
        record(call_start, call_end, before, got, &mut out);
        if id + 1 < load.windows {
            next = Some(stream.next_window(load.background));
        }
    }
    let call_start = Instant::now();
    let before = clock.borrow().classify_ns;
    let got = pipe.finish();
    record(call_start, Instant::now(), before, got, &mut out);

    for (v, classes) in verdicts.iter().zip(&truth) {
        match v {
            Some((served_by, preds)) => {
                match served_by {
                    ServedBy::Primary => {
                        out.primary += 1;
                        out.primary_flows += preds.len();
                    }
                    ServedBy::Fallback => out.degraded += 1,
                    ServedBy::Shed => out.failed += 1,
                }
                if preds.len() == classes.len() {
                    out.flows += preds.len();
                    out.confusion
                        .merge(&Confusion::from_predictions(preds, classes, 0));
                }
            }
            None => out.failed += 1,
        }
    }
    let mut digest = Digest::new();
    for (id, v) in verdicts.iter().enumerate().take(DIGEST_WINDOWS) {
        digest.u64(id as u64);
        match v {
            Some((served_by, preds)) => {
                digest.u64(match served_by {
                    ServedBy::Primary => 0,
                    ServedBy::Fallback => 1,
                    ServedBy::Shed => 2,
                });
                digest.usizes(preds);
            }
            None => digest.u64(u64::MAX),
        }
    }
    out.digest = digest.hex();
    out
}
