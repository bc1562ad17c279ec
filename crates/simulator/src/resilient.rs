//! Graceful degradation for deployed detectors.
//!
//! A NIDS that crashes is worse than a NIDS that misses: the monitored
//! link keeps carrying traffic whether or not the model is healthy. This
//! module wraps any [`Detector`] so that malformed output (wrong length,
//! out-of-range classes), panics, or oversized windows degrade the
//! affected window to a configurable fallback detector instead of taking
//! the whole simulation down. Degraded windows are counted and surface in
//! [`SimReport::degraded_windows`](crate::SimReport::degraded_windows).
//!
//! [`FaultyDetector`] is the matching chaos source: a seeded wrapper that
//! corrupts an inner detector's verdicts, for exercising the resilience
//! path in tests and demos.

use crate::chaos::{ChaosEvent, ChaosSchedule};
use crate::detector::Detector;
use crate::traffic::Flow;
use pelican_tensor::SeededRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the resilience wrapper tolerates and how.
///
/// # Boundary semantics
///
/// Both bounds are **inclusive on the accepting side**:
///
/// * a window with exactly `flow_budget` flows is still served by the
///   primary (`len > flow_budget` degrades);
/// * a prediction of exactly `class_bound - 1` is still valid
///   (`class >= class_bound` degrades).
///
/// Degenerate configurations are well-defined rather than rejected:
/// `class_bound == 0` means *no* prediction is valid, so every non-empty
/// window degrades to the fallback (an empty window vacuously passes
/// validation); `flow_budget == 0` sends every non-empty window straight
/// to the fallback without invoking the primary. Both are useful as a
/// "force fallback" switch in drills.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Predictions must be `< class_bound`; anything larger is treated as
    /// corrupted output and degrades the window. `0` degrades every
    /// non-empty window.
    pub class_bound: usize,
    /// Largest window (inclusive) the primary detector is asked to
    /// classify. Bigger windows go straight to the fallback — overload
    /// protection for a model with a fixed inference budget. `0` routes
    /// every non-empty window to the fallback.
    pub flow_budget: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            class_bound: 64,
            flow_budget: 10_000,
        }
    }
}

/// The guarded primary call shared by [`ResilientDetector`] and the
/// streaming pipeline. A panic from `primary` (a poisoned network deep
/// in a tensor op) is contained rather than unwinding through the
/// simulator. The verdict is returned only if it has exactly one class
/// per flow and every class is `< class_bound`; an empty verdict over an
/// empty window is valid (vacuously — there is nothing to get wrong).
/// `None` means the window must degrade.
pub(crate) fn guarded_classify<D: Detector>(
    primary: &mut D,
    window: &[Flow],
    class_bound: usize,
) -> Option<Vec<usize>> {
    let preds = catch_unwind(AssertUnwindSafe(|| primary.classify(window))).ok()?;
    let valid = preds.len() == window.len() && preds.iter().all(|&c| c < class_bound);
    valid.then_some(preds)
}

/// Wraps a primary [`Detector`] with validation and a fallback.
///
/// Every window, the primary's verdict is accepted only if it has one
/// class per flow and every class is within bounds; otherwise (or on a
/// panic, or when the window exceeds the flow budget) the fallback
/// classifies the window and the degradation counter increments. The
/// primary is retried on the next window — one bad window does not
/// disable it.
pub struct ResilientDetector<P: Detector, F: Detector> {
    primary: P,
    fallback: F,
    config: ResilienceConfig,
    degraded: usize,
}

impl<P: Detector, F: Detector> ResilientDetector<P, F> {
    /// Wraps `primary`, degrading bad windows to `fallback`.
    pub fn new(primary: P, fallback: F, config: ResilienceConfig) -> Self {
        Self {
            primary,
            fallback,
            config,
            degraded: 0,
        }
    }

    /// Windows served by the fallback so far.
    pub fn degraded(&self) -> usize {
        self.degraded
    }

    /// The wrapped primary, e.g. to inspect its state after a run.
    pub fn primary(&self) -> &P {
        &self.primary
    }
}

impl<P: Detector, F: Detector> Detector for ResilientDetector<P, F> {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        if window.len() > self.config.flow_budget {
            self.degraded += 1;
            return self.fallback.classify(window);
        }
        match guarded_classify(&mut self.primary, window, self.config.class_bound) {
            Some(preds) => preds,
            None => {
                self.degraded += 1;
                self.fallback.classify(window)
            }
        }
    }

    fn name(&self) -> &'static str {
        "resilient"
    }

    fn degraded_windows(&self) -> usize {
        self.degraded + self.fallback.degraded_windows()
    }

    fn take_stall_ticks(&mut self) -> u64 {
        self.primary.take_stall_ticks() + self.fallback.take_stall_ticks()
    }
}

/// A fallback that never alerts — fail-silent: the pipeline stays up and
/// the analysts stay undisturbed, at the cost of missing attacks in
/// degraded windows. The conservative default when no legacy detector is
/// available to fall back on.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllNormalFallback;

impl Detector for AllNormalFallback {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        vec![0; window.len()]
    }

    fn name(&self) -> &'static str {
        "all-normal"
    }
}

/// The ways [`FaultyDetector`] corrupts a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DetectorFault {
    /// Drop the second half of the predictions (wrong length).
    Truncate,
    /// Return nothing at all (a stalled model).
    Stall,
    /// Replace a prediction with an absurd class index.
    Garbage,
    /// Panic mid-classification.
    Panic,
}

/// A seeded chaos wrapper corrupting an inner detector's output.
///
/// Two modes:
///
/// * **Rate mode** (the default): at the configured per-window rate it
///   truncates the verdict, returns an empty one, injects out-of-range
///   class indices, or (only when enabled via
///   [`with_panics`](FaultyDetector::with_panics)) panics outright —
///   exactly the failure modes [`ResilientDetector`] absorbs.
/// * **Schedule mode** (via
///   [`with_schedule`](FaultyDetector::with_schedule)): a
///   [`ChaosSchedule`] dictates per-window events, adding the pipeline-
///   level failure shapes — virtual-clock stalls (reported through
///   [`Detector::take_stall_ticks`]), transient corruption bursts, and
///   hard-down periods — all replayable from the seed.
pub struct FaultyDetector<D: Detector> {
    inner: D,
    rng: SeededRng,
    rate: f32,
    panics: bool,
    injected: usize,
    schedule: Option<ChaosSchedule>,
    stall_pending: u64,
    stalled: usize,
}

impl<D: Detector> FaultyDetector<D> {
    /// Corrupts roughly `rate` of windows (clamped to `[0, 1]`).
    pub fn new(inner: D, seed: u64, rate: f32) -> Self {
        Self {
            inner,
            rng: SeededRng::new(seed),
            rate: rate.clamp(0.0, 1.0),
            panics: false,
            injected: 0,
            schedule: None,
            stall_pending: 0,
            stalled: 0,
        }
    }

    /// Also inject panics (off by default: a panicking detector aborts
    /// any harness that does not catch it). In schedule mode this governs
    /// whether [`ChaosEvent::Down`] windows panic or return an empty
    /// verdict.
    pub fn with_panics(mut self, panics: bool) -> Self {
        self.panics = panics;
        self
    }

    /// Switches to schedule mode: `schedule` decides every window's fate
    /// and the per-window corruption rate is ignored.
    pub fn with_schedule(mut self, schedule: ChaosSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Windows corrupted so far (in schedule mode: corrupt + down
    /// windows; stalls deliver a correct verdict and are counted by
    /// [`stalled`](FaultyDetector::stalled) instead).
    pub fn injected(&self) -> usize {
        self.injected
    }

    /// Windows that incurred an injected stall so far.
    pub fn stalled(&self) -> usize {
        self.stalled
    }

    /// The chaos schedule, if attached — its
    /// [`log`](ChaosSchedule::log) is the ground-truth fault sequence for
    /// determinism assertions.
    pub fn schedule(&self) -> Option<&ChaosSchedule> {
        self.schedule.as_ref()
    }

    /// Applies one rate-mode corruption to `preds`.
    fn corrupt(&mut self, preds: &mut Vec<usize>, allow_panic: bool) {
        let faults: &[DetectorFault] = if allow_panic {
            &[
                DetectorFault::Truncate,
                DetectorFault::Stall,
                DetectorFault::Garbage,
                DetectorFault::Panic,
            ]
        } else {
            &[
                DetectorFault::Truncate,
                DetectorFault::Stall,
                DetectorFault::Garbage,
            ]
        };
        match faults[self.rng.index(faults.len())] {
            DetectorFault::Truncate => {
                let half = preds.len() / 2;
                preds.truncate(half);
            }
            DetectorFault::Stall => preds.clear(),
            DetectorFault::Garbage => {
                if !preds.is_empty() {
                    let i = self.rng.index(preds.len());
                    preds[i] = usize::MAX;
                }
            }
            DetectorFault::Panic => panic!("injected detector fault"),
        }
    }
}

impl<D: Detector> Detector for FaultyDetector<D> {
    fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
        if let Some(schedule) = self.schedule.as_mut() {
            // Schedule mode: the event is drawn before touching the inner
            // detector so the schedule stays a pure function of the seed
            // and the window count.
            let event = schedule.next_event();
            return match event {
                ChaosEvent::Healthy => self.inner.classify(window),
                ChaosEvent::Stall(ticks) => {
                    self.stall_pending = self.stall_pending.saturating_add(ticks);
                    self.stalled += 1;
                    self.inner.classify(window)
                }
                ChaosEvent::Corrupt => {
                    self.injected += 1;
                    let mut preds = self.inner.classify(window);
                    self.corrupt(&mut preds, false);
                    preds
                }
                ChaosEvent::Down => {
                    self.injected += 1;
                    if self.panics {
                        panic!("injected hard-down period");
                    }
                    Vec::new()
                }
            };
        }
        let mut preds = self.inner.classify(window);
        if self.rng.uniform() >= self.rate {
            return preds;
        }
        self.injected += 1;
        let allow_panic = self.panics;
        self.corrupt(&mut preds, allow_panic);
        preds
    }

    fn name(&self) -> &'static str {
        "faulty"
    }

    fn take_stall_ticks(&mut self) -> u64 {
        std::mem::take(&mut self.stall_pending) + self.inner.take_stall_ticks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::OracleDetector;
    use crate::traffic::TrafficStream;

    fn window(n: usize) -> Vec<Flow> {
        TrafficStream::nslkdd(0.3, 4).next_window(n)
    }

    #[test]
    fn healthy_primary_passes_through() {
        let w = window(50);
        let mut det = ResilientDetector::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            ResilienceConfig::default(),
        );
        let preds = det.classify(&w);
        assert_eq!(preds.len(), w.len());
        assert_eq!(det.degraded(), 0);
        assert_eq!(det.degraded_windows(), 0);
        for (p, f) in preds.iter().zip(&w) {
            assert_eq!(*p != 0, f.true_class != 0, "oracle verdict altered");
        }
    }

    /// A detector returning structurally broken output every time.
    struct Broken(usize);
    impl Detector for Broken {
        fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
            self.0 += 1;
            match self.0 % 3 {
                0 => Vec::new(),
                1 => vec![usize::MAX; window.len()],
                _ => vec![0; window.len() / 2],
            }
        }
        fn name(&self) -> &'static str {
            "broken"
        }
    }

    #[test]
    fn malformed_output_degrades_to_fallback() {
        let w = window(30);
        let mut det =
            ResilientDetector::new(Broken(0), AllNormalFallback, ResilienceConfig::default());
        for i in 1..=5 {
            let preds = det.classify(&w);
            assert_eq!(preds.len(), w.len(), "fallback must cover the window");
            assert!(preds.iter().all(|&p| p == 0));
            assert_eq!(det.degraded(), i);
        }
    }

    #[test]
    fn panicking_primary_is_contained() {
        struct Bomb;
        impl Detector for Bomb {
            fn classify(&mut self, _: &[Flow]) -> Vec<usize> {
                panic!("boom")
            }
            fn name(&self) -> &'static str {
                "bomb"
            }
        }
        // Silence the panic-hook backtrace noise for this test only.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let w = window(10);
        let mut det = ResilientDetector::new(Bomb, AllNormalFallback, ResilienceConfig::default());
        let preds = det.classify(&w);
        std::panic::set_hook(prev);
        assert_eq!(preds.len(), w.len());
        assert_eq!(det.degraded(), 1);
    }

    #[test]
    fn oversized_window_hits_the_flow_budget() {
        let w = window(40);
        let mut det = ResilientDetector::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            ResilienceConfig {
                flow_budget: 10,
                ..Default::default()
            },
        );
        let preds = det.classify(&w);
        assert_eq!(preds.len(), w.len());
        assert_eq!(det.degraded(), 1, "budget breach must degrade");
        assert!(preds.iter().all(|&p| p == 0), "fallback is all-normal");
    }

    #[test]
    fn faulty_detector_injects_at_rate() {
        let mut det = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 2), 9, 1.0);
        let w = window(20);
        for _ in 0..10 {
            det.classify(&w);
        }
        assert_eq!(det.injected(), 10, "rate 1.0 corrupts every window");
        let mut clean = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 2), 9, 0.0);
        for _ in 0..10 {
            let preds = clean.classify(&w);
            assert_eq!(preds.len(), w.len());
        }
        assert_eq!(clean.injected(), 0);
    }

    #[test]
    fn faulty_schedule_replays_bit_identically() {
        use crate::chaos::{ChaosConfig, ChaosSchedule};
        use pelican_runtime::{with_exec, with_workers, ExecConfig};
        let chaos = ChaosConfig {
            stall_rate: 0.3,
            stall_ticks: (10, 40),
            burst_rate: 0.2,
            burst_len: (1, 3),
            down_rate: 0.1,
            down_len: (2, 4),
        };
        let run = || {
            let mut det = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 2), 7, 0.0)
                .with_schedule(ChaosSchedule::new(chaos, 99));
            let mut stream = TrafficStream::nslkdd(0.2, 13);
            let mut preds = Vec::new();
            let mut stalls = Vec::new();
            for _ in 0..30 {
                let w = stream.next_window(12);
                preds.push(det.classify(&w));
                stalls.push(det.take_stall_ticks());
            }
            let log = det.schedule().expect("schedule attached").log().to_vec();
            (preds, stalls, log, det.injected(), det.stalled())
        };
        // Same seed + schedule ⇒ identical corruption/stall sequence on a
        // second run…
        let first = with_exec(ExecConfig::serial(), run);
        let second = with_exec(ExecConfig::serial(), run);
        assert_eq!(first, second, "schedule must replay identically");
        // …and across worker counts (the in-process analogue of
        // PELICAN_THREADS=1 vs =4; scripts/check.sh also runs the whole
        // suite under both env settings).
        let pooled = with_workers(4, run);
        assert_eq!(first, pooled, "schedule must not depend on workers");
        assert!(
            first.3 > 0 && first.4 > 0,
            "the chosen rates must actually inject faults and stalls"
        );
    }

    #[test]
    fn resilient_absorbs_injected_faults_end_to_end() {
        let w = window(25);
        let faulty = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 3), 21, 0.5);
        let mut det =
            ResilientDetector::new(faulty, AllNormalFallback, ResilienceConfig::default());
        let mut degraded_any = false;
        for _ in 0..40 {
            let preds = det.classify(&w);
            assert_eq!(preds.len(), w.len());
            assert!(preds.iter().all(|&p| p < 64));
            degraded_any |= det.degraded() > 0;
        }
        assert!(
            degraded_any,
            "rate 0.5 over 40 windows must trip at least once"
        );
        assert_eq!(det.degraded(), det.primary().injected());
    }
}
