//! The supervised streaming detection pipeline.
//!
//! [`ResilientDetector`](crate::ResilientDetector) degrades one window at
//! a time with no notion of time, queue depth, or sustained failure: it
//! happily re-invokes a primary that is hard-down, and it has no answer
//! to overload beyond a per-window size cap. This module is the
//! production-shaped serving loop the deployment diagram actually needs:
//!
//! * a **bounded ingest queue** ([`pelican_runtime::BoundedQueue`]) with
//!   an explicit [`ShedPolicy`] — block the producer, shed the oldest
//!   window, or route overflow straight to the fallback tier;
//! * a **deterministic deadline budget** per window, measured on a
//!   cost-model [`VirtualClock`] (ticks, not wall time), so the same run
//!   sheds and degrades identically at every `PELICAN_THREADS` setting;
//! * a **circuit breaker** around the primary — closed → open after K
//!   consecutive failures or a failure fraction over a sliding window,
//!   half-open probing with exponential backoff before re-admitting it;
//! * a **health surface** ([`pelican_core::PipelineHealth`]) counting
//!   every enqueue, shed, degrade, deadline miss, and breaker transition,
//!   exported through [`SimReport`](crate::SimReport).
//!
//! The pipeline is a single-server queueing model: windows arrive
//! [`CostModel::arrival_ticks`] apart, each costs the configured ticks
//! per flow on the chosen tier (plus any stall the detector reports via
//! [`Detector::take_stall_ticks`]), and a window's verdict is late when
//! it completes after `arrival + deadline_ticks`. Everything is integer
//! arithmetic over the virtual clock — bit-reproducible by construction.

use crate::detector::Detector;
use crate::resilient::guarded_classify;
use crate::traffic::Flow;
use pelican_core::PipelineHealth;
use pelican_observe as observe;
use pelican_runtime::{BoundedQueue, Deadline, OverflowPolicy, PushOutcome, VirtualClock};
use std::collections::VecDeque;

/// How ingest resolves a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Backpressure: stall the producer until the server frees a slot.
    /// Nothing is dropped; arrival times (and therefore deadlines) of
    /// later windows slip instead.
    Block,
    /// Drop the oldest queued window. Freshness wins: a stale window's
    /// verdict is operationally useless by the time it would be served.
    ShedOldest,
    /// Route the overflowing window straight to the fallback tier,
    /// bypassing the queue and the primary entirely.
    DegradeToFallback,
}

/// Circuit-breaker thresholds and backoff shape.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Open after this many consecutive primary failures.
    pub consecutive_failures: usize,
    /// Sliding window of recent primary outcomes to watch (0 disables
    /// fraction-based opening).
    pub outcome_window: usize,
    /// Open when at least this fraction of the full outcome window
    /// failed.
    pub failure_fraction: f32,
    /// Base open duration in virtual ticks; each reopen doubles it.
    pub open_ticks: u64,
    /// Cap on the exponential backoff.
    pub max_open_ticks: u64,
    /// Consecutive half-open probe successes required to close.
    pub half_open_probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            consecutive_failures: 3,
            outcome_window: 8,
            failure_fraction: 0.5,
            open_ticks: 64,
            max_open_ticks: 1024,
            half_open_probes: 2,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Primary in service; outcomes are being watched.
    Closed,
    /// Primary out of service until the backoff expires.
    Open,
    /// Backoff expired; a limited number of probe windows test the
    /// primary before it is re-admitted.
    HalfOpen,
}

/// A circuit breaker over primary-detector outcomes, driven entirely by
/// virtual-clock ticks.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive: usize,
    recent: VecDeque<bool>,
    open_until: u64,
    reopen_count: u32,
    probe_successes: usize,
    transitions: Vec<(u64, BreakerState)>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive: 0,
            recent: VecDeque::new(),
            open_until: 0,
            reopen_count: 0,
            probe_successes: 0,
            transitions: Vec::new(),
        }
    }

    /// Current state (as of the last [`admits`](CircuitBreaker::admits) or
    /// [`record`](CircuitBreaker::record) call).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Every state transition as `(tick, entered state)`, in order.
    pub fn transitions(&self) -> &[(u64, BreakerState)] {
        &self.transitions
    }

    /// Times the breaker has opened.
    pub fn opens(&self) -> usize {
        self.transitions
            .iter()
            .filter(|(_, s)| *s == BreakerState::Open)
            .count()
    }

    fn transition(&mut self, now: u64, state: BreakerState) {
        self.state = state;
        self.transitions.push((now, state));
        observe::event(
            "pipeline.breaker",
            &[
                ("at", now.into()),
                (
                    "state",
                    match state {
                        BreakerState::Closed => "closed",
                        BreakerState::Open => "open",
                        BreakerState::HalfOpen => "half_open",
                    }
                    .into(),
                ),
            ],
        );
    }

    /// Whether a window starting at `now` may be sent to the primary.
    /// An open breaker whose backoff has expired moves to half-open here.
    pub fn admits(&mut self, now: u64) -> bool {
        if self.state == BreakerState::Open && now >= self.open_until {
            self.probe_successes = 0;
            self.transition(now, BreakerState::HalfOpen);
        }
        self.state != BreakerState::Open
    }

    /// Whether the current admission is a half-open probe.
    pub fn probing(&self) -> bool {
        self.state == BreakerState::HalfOpen
    }

    fn backoff(&self) -> u64 {
        let doublings = self.reopen_count.min(32);
        self.config
            .open_ticks
            .saturating_mul(1u64 << doublings.min(63))
            .min(self.config.max_open_ticks.max(self.config.open_ticks))
    }

    fn trip(&mut self, now: u64) {
        self.open_until = now.saturating_add(self.backoff());
        self.reopen_count = self.reopen_count.saturating_add(1);
        self.consecutive = 0;
        self.recent.clear();
        self.transition(now, BreakerState::Open);
    }

    /// Records the outcome of a primary invocation that started at `now`.
    pub fn record(&mut self, now: u64, ok: bool) {
        match self.state {
            BreakerState::Open => {
                // A straggler outcome from before the trip; ignore.
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.probe_successes += 1;
                    if self.probe_successes >= self.config.half_open_probes.max(1) {
                        self.reopen_count = 0;
                        self.transition(now, BreakerState::Closed);
                    }
                } else {
                    // A failed probe re-opens with a longer backoff.
                    self.trip(now);
                }
            }
            BreakerState::Closed => {
                self.consecutive = if ok { 0 } else { self.consecutive + 1 };
                if self.config.outcome_window > 0 {
                    self.recent.push_back(ok);
                    while self.recent.len() > self.config.outcome_window {
                        self.recent.pop_front();
                    }
                }
                let consecutive_trip = self.consecutive >= self.config.consecutive_failures.max(1);
                let fraction_trip = self.config.outcome_window > 0
                    && self.recent.len() == self.config.outcome_window
                    && {
                        let failures = self.recent.iter().filter(|&&r| !r).count();
                        failures as f32
                            >= self.config.failure_fraction * self.config.outcome_window as f32
                    };
                if consecutive_trip || fraction_trip {
                    self.trip(now);
                }
            }
        }
    }
}

/// Virtual-clock costs of the two serving tiers.
///
/// The defaults model the Residual-41 primary as ~10× the per-flow cost
/// of the plain fallback tier (LuNet-style blocks without the residual
/// stack), which is what makes "degrade to fallback under deadline
/// pressure" a meaningful trade.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Clock advance per arriving window (inter-window gap).
    pub arrival_ticks: u64,
    /// Fixed primary cost per window.
    pub primary_base: u64,
    /// Primary cost per flow in the window.
    pub primary_per_flow: u64,
    /// Fixed fallback cost per window.
    pub fallback_base: u64,
    /// Fallback cost per flow in the window.
    pub fallback_per_flow: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            arrival_ticks: 100,
            primary_base: 10,
            primary_per_flow: 1,
            fallback_base: 1,
            fallback_per_flow: 0,
        }
    }
}

impl CostModel {
    fn primary_cost(&self, flows: usize) -> u64 {
        self.primary_base
            .saturating_add(self.primary_per_flow.saturating_mul(flows as u64))
    }

    fn fallback_cost(&self, flows: usize) -> u64 {
        self.fallback_base
            .saturating_add(self.fallback_per_flow.saturating_mul(flows as u64))
    }
}

/// Everything the pipeline needs to know about its shape and policies.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Ingest queue capacity in windows.
    pub queue_capacity: usize,
    /// Overflow policy when the queue is full.
    pub shed: ShedPolicy,
    /// Deadline budget per window, in ticks from its arrival.
    pub deadline_ticks: u64,
    /// Tier costs and inter-arrival gap.
    pub cost: CostModel,
    /// Breaker thresholds.
    pub breaker: BreakerConfig,
    /// Verdict validation and panic containment (shared with
    /// [`ResilientDetector`](crate::ResilientDetector)).
    pub resilience: crate::ResilienceConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 4,
            shed: ShedPolicy::DegradeToFallback,
            deadline_ticks: 400,
            cost: CostModel::default(),
            breaker: BreakerConfig::default(),
            resilience: crate::ResilienceConfig::default(),
        }
    }
}

/// Which tier (if any) produced a window's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The primary detector, verdict validated.
    Primary,
    /// The fallback tier (breaker open, deadline pressure, primary fault,
    /// or overflow under [`ShedPolicy::DegradeToFallback`]).
    Fallback,
    /// Never served: dropped by [`ShedPolicy::ShedOldest`]. `preds` is
    /// empty.
    Shed,
}

/// One window's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowVerdict {
    /// Ingest sequence number (0-based, in arrival order).
    pub id: usize,
    /// One predicted class per flow (empty for shed windows).
    pub preds: Vec<usize>,
    /// Which tier served the window.
    pub served_by: ServedBy,
    /// Whether the verdict completed after the window's deadline.
    pub deadline_missed: bool,
    /// Virtual tick the verdict completed at (shed windows: the tick they
    /// were dropped).
    pub completed_at: u64,
}

struct PendingWindow {
    id: usize,
    arrival: u64,
    deadline: Deadline,
    flows: Vec<Flow>,
}

/// The supervised streaming pipeline: bounded ingest, deadline-aware
/// two-tier serving, circuit breaking, health counters.
///
/// Drive it with [`ingest`](StreamingPipeline::ingest) per arriving
/// window and collect the tail with [`finish`](StreamingPipeline::finish);
/// or let [`Simulation::run_streaming`](crate::Simulation::run_streaming)
/// do both and fold the health counters into a
/// [`SimReport`](crate::SimReport).
pub struct StreamingPipeline<P: Detector, F: Detector> {
    primary: P,
    fallback: F,
    config: PipelineConfig,
    clock: VirtualClock,
    queue: BoundedQueue<PendingWindow>,
    breaker: CircuitBreaker,
    /// Tick the single server is busy until.
    busy_until: u64,
    health: PipelineHealth,
    next_id: usize,
}

impl<P: Detector, F: Detector> StreamingPipeline<P, F> {
    /// A pipeline serving `primary` with `fallback` as the cheap tier.
    pub fn new(primary: P, fallback: F, config: PipelineConfig) -> Self {
        Self {
            primary,
            fallback,
            clock: VirtualClock::new(),
            queue: BoundedQueue::new(config.queue_capacity.max(1)),
            breaker: CircuitBreaker::new(config.breaker),
            busy_until: 0,
            health: PipelineHealth::default(),
            next_id: 0,
            config,
        }
    }

    /// Health counters so far.
    pub fn health(&self) -> &PipelineHealth {
        &self.health
    }

    /// The breaker, for inspecting state and transitions.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The virtual clock's current tick.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The wrapped primary, e.g. to read a chaos log after a run.
    pub fn primary(&self) -> &P {
        &self.primary
    }

    /// Publishes the ingest queue depth; the gauge's max is the run's
    /// high-water mark. Called after every enqueue and dequeue.
    fn note_queue_depth(&self) {
        observe::gauge("pipeline.queue_depth", self.queue.len() as f64);
    }

    /// Serves one queued window starting at `start` and returns its
    /// verdict. Advances `busy_until` past the work done.
    fn serve(&mut self, window: PendingWindow, start: u64) -> WindowVerdict {
        let flows = window.flows;
        let n = flows.len();
        let cfg = &self.config;
        let primary_cost = cfg.cost.primary_cost(n);
        let over_budget = n > cfg.resilience.flow_budget;
        let predicted_miss = window.deadline.would_miss(start, primary_cost);

        let mut served_by = ServedBy::Fallback;
        let mut cost;
        let mut preds = None;

        let admitted = !over_budget && !predicted_miss && self.breaker.admits(start);
        if admitted {
            if self.breaker.probing() {
                self.health.breaker_probes += 1;
            }
            preds = guarded_classify(&mut self.primary, &flows, cfg.resilience.class_bound);
            let stall = self.primary.take_stall_ticks();
            cost = primary_cost.saturating_add(stall);
            // A verdict that arrives after the deadline is a failure even
            // when its contents are valid: persistent stalls must open
            // the breaker just like persistent corruption.
            let on_time = !window.deadline.would_miss(start, cost);
            self.breaker.record(start, preds.is_some() && on_time);
            self.health.breaker_opens = self.breaker.opens();
            if preds.is_some() {
                served_by = ServedBy::Primary;
            } else {
                self.health.primary_faults += 1;
            }
        } else {
            cost = 0;
            if !over_budget && !predicted_miss {
                // Rejected by the open breaker: fast-fail to the fallback.
                self.health.breaker_fast_fails += 1;
            }
        }

        let preds = match preds {
            Some(p) => p,
            None => {
                // Fallback tier serves the window (its cost is added on
                // top of whatever the failed primary attempt burned).
                self.health.degraded += 1;
                let reason = if over_budget {
                    "flow_budget"
                } else if predicted_miss {
                    "predicted_miss"
                } else if !admitted {
                    "breaker_open"
                } else {
                    "primary_fault"
                };
                observe::event(
                    "pipeline.degrade",
                    &[("id", window.id.into()), ("reason", reason.into())],
                );
                cost = cost.saturating_add(cfg.cost.fallback_cost(n));
                self.fallback.classify(&flows)
            }
        };

        let completed_at = start.saturating_add(cost);
        self.busy_until = completed_at;
        let deadline_missed = window.deadline.missed(completed_at);
        if deadline_missed || (predicted_miss && served_by == ServedBy::Fallback) {
            self.health.deadline_misses += 1;
            observe::event(
                "pipeline.deadline_miss",
                &[
                    ("id", window.id.into()),
                    ("completed_at", completed_at.into()),
                ],
            );
        }
        self.health.processed += 1;
        WindowVerdict {
            id: window.id,
            preds,
            served_by,
            deadline_missed,
            completed_at,
        }
    }

    /// Serves every queued window whose service can start at or before
    /// `now`.
    fn service_ready(&mut self, now: u64, out: &mut Vec<WindowVerdict>) {
        while let Some(front) = self.queue.front() {
            let start = self.busy_until.max(front.arrival);
            if start > now {
                break;
            }
            let window = self.queue.pop().expect("front exists");
            self.note_queue_depth();
            let verdict = self.serve(window, start);
            out.push(verdict);
        }
    }

    /// Accepts the next window from the monitored link, advancing the
    /// virtual clock by the inter-arrival gap, and returns the verdicts
    /// of every window whose service completed by the new current tick
    /// (possibly none, possibly several).
    pub fn ingest(&mut self, flows: Vec<Flow>) -> Vec<WindowVerdict> {
        let now = self.clock.advance(self.config.cost.arrival_ticks);
        // Events and gauges from here on are stamped with the virtual
        // tick, so a recorded run exports identically at every thread
        // count.
        observe::set_tick(now);
        let mut out = Vec::new();
        self.service_ready(now, &mut out);

        let id = self.next_id;
        self.next_id += 1;
        let mut window = PendingWindow {
            id,
            arrival: now,
            deadline: Deadline::from_budget(now, self.config.deadline_ticks),
            flows,
        };

        match self.config.shed {
            ShedPolicy::Block => loop {
                match self.queue.push(window, OverflowPolicy::Block) {
                    PushOutcome::Enqueued => {
                        self.health.enqueued += 1;
                        self.note_queue_depth();
                        break;
                    }
                    PushOutcome::WouldBlock(w) => {
                        // Cooperative backpressure: the producer waits
                        // until the server starts (and thus dequeues) the
                        // oldest window, then retries. The clock advances
                        // to that start tick — later arrivals slip.
                        self.health.backpressure_stalls += 1;
                        observe::event("pipeline.backpressure", &[("id", w.id.into())]);
                        let front_arrival =
                            self.queue.front().map(|f| f.arrival).expect("queue full");
                        let start = self.busy_until.max(front_arrival);
                        let now = self.clock.advance_to(start);
                        observe::set_tick(now);
                        self.service_ready(now, &mut out);
                        window = w;
                    }
                    _ => unreachable!("Block policy returns Enqueued or WouldBlock"),
                }
            },
            ShedPolicy::ShedOldest => match self.queue.push(window, OverflowPolicy::ShedOldest) {
                PushOutcome::Enqueued => {
                    self.health.enqueued += 1;
                    self.note_queue_depth();
                }
                PushOutcome::ShedOldest(dropped) => {
                    self.health.enqueued += 1;
                    self.health.shed += 1;
                    self.note_queue_depth();
                    observe::event("pipeline.shed", &[("id", dropped.id.into())]);
                    out.push(WindowVerdict {
                        id: dropped.id,
                        preds: Vec::new(),
                        served_by: ServedBy::Shed,
                        deadline_missed: true,
                        completed_at: now,
                    });
                }
                _ => unreachable!("ShedOldest policy never blocks or rejects"),
            },
            ShedPolicy::DegradeToFallback => {
                match self.queue.push(window, OverflowPolicy::Reject) {
                    PushOutcome::Enqueued => {
                        self.health.enqueued += 1;
                        self.note_queue_depth();
                    }
                    PushOutcome::Rejected(w) => {
                        // The fallback tier has its own capacity: overflow is
                        // served immediately at `now` without occupying the
                        // primary server.
                        self.health.degraded += 1;
                        self.health.processed += 1;
                        observe::event(
                            "pipeline.degrade",
                            &[("id", w.id.into()), ("reason", "overflow".into())],
                        );
                        let cost = self.config.cost.fallback_cost(w.flows.len());
                        let completed_at = now.saturating_add(cost);
                        let deadline_missed = w.deadline.missed(completed_at);
                        if deadline_missed {
                            self.health.deadline_misses += 1;
                            observe::event(
                                "pipeline.deadline_miss",
                                &[("id", w.id.into()), ("completed_at", completed_at.into())],
                            );
                        }
                        out.push(WindowVerdict {
                            id: w.id,
                            preds: self.fallback.classify(&w.flows),
                            served_by: ServedBy::Fallback,
                            deadline_missed,
                            completed_at,
                        });
                    }
                    _ => unreachable!("Reject policy never blocks or sheds"),
                }
            }
        }
        out
    }

    /// Drains every remaining queued window (the producer has stopped;
    /// virtual time runs forward as far as the backlog needs) and returns
    /// their verdicts.
    pub fn finish(&mut self) -> Vec<WindowVerdict> {
        let mut out = Vec::new();
        while let Some(front) = self.queue.front() {
            let start = self.busy_until.max(front.arrival);
            let now = self.clock.advance_to(start);
            observe::set_tick(now);
            let window = self.queue.pop().expect("front exists");
            self.note_queue_depth();
            let verdict = self.serve(window, start);
            out.push(verdict);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::OracleDetector;
    use crate::resilient::AllNormalFallback;
    use crate::traffic::TrafficStream;

    fn windows(n: usize, size: usize) -> Vec<Vec<Flow>> {
        let mut stream = TrafficStream::nslkdd(0.3, 5);
        (0..n).map(|_| stream.next_window(size)).collect()
    }

    fn run_all<P: Detector, F: Detector>(
        pipe: &mut StreamingPipeline<P, F>,
        windows: Vec<Vec<Flow>>,
    ) -> Vec<WindowVerdict> {
        let mut verdicts = Vec::new();
        for w in windows {
            verdicts.extend(pipe.ingest(w));
        }
        verdicts.extend(pipe.finish());
        verdicts.sort_by_key(|v| v.id);
        verdicts
    }

    #[test]
    fn healthy_pipeline_serves_everything_from_primary() {
        let mut pipe = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            PipelineConfig::default(),
        );
        let ws = windows(10, 20);
        let lens: Vec<usize> = ws.iter().map(Vec::len).collect();
        let verdicts = run_all(&mut pipe, ws);
        assert_eq!(verdicts.len(), 10);
        for (v, len) in verdicts.iter().zip(lens) {
            assert_eq!(v.served_by, ServedBy::Primary);
            assert_eq!(v.preds.len(), len);
            assert!(!v.deadline_missed);
        }
        let h = pipe.health();
        assert_eq!(h.enqueued, 10);
        assert_eq!(h.processed, 10);
        assert_eq!(h.shed + h.degraded + h.deadline_misses + h.breaker_opens, 0);
        assert_eq!(pipe.breaker().state(), BreakerState::Closed);
    }

    /// A primary that always returns garbage, to drive the breaker.
    struct AlwaysBroken;
    impl Detector for AlwaysBroken {
        fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
            vec![usize::MAX; window.len()]
        }
        fn name(&self) -> &'static str {
            "always-broken"
        }
    }

    #[test]
    fn breaker_opens_on_consecutive_failures_and_fast_fails() {
        let mut pipe = StreamingPipeline::new(
            AlwaysBroken,
            AllNormalFallback,
            PipelineConfig {
                breaker: BreakerConfig {
                    consecutive_failures: 3,
                    outcome_window: 0,
                    open_ticks: 1_000_000, // never half-opens in this run
                    max_open_ticks: 1_000_000,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let verdicts = run_all(&mut pipe, windows(10, 10));
        assert_eq!(verdicts.len(), 10);
        assert!(verdicts.iter().all(|v| v.served_by == ServedBy::Fallback));
        let h = *pipe.health();
        assert_eq!(h.primary_faults, 3, "breaker opened after exactly K faults");
        assert_eq!(h.breaker_fast_fails, 7, "remaining windows fast-failed");
        assert_eq!(pipe.breaker().opens(), 1);
        assert_eq!(pipe.breaker().state(), BreakerState::Open);
        assert_eq!(h.degraded, 10);
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        // Primary fails 3 times then recovers; short backoff so the
        // breaker half-opens within the run.
        struct Flaky(usize);
        impl Detector for Flaky {
            fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
                self.0 += 1;
                if self.0 <= 3 {
                    Vec::new()
                } else {
                    vec![0; window.len()]
                }
            }
            fn name(&self) -> &'static str {
                "flaky"
            }
        }
        let mut pipe = StreamingPipeline::new(
            Flaky(0),
            AllNormalFallback,
            PipelineConfig {
                breaker: BreakerConfig {
                    consecutive_failures: 3,
                    outcome_window: 0,
                    open_ticks: 150, // ~1.5 arrival gaps
                    max_open_ticks: 600,
                    half_open_probes: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let verdicts = run_all(&mut pipe, windows(12, 10));
        let states: Vec<BreakerState> = pipe
            .breaker()
            .transitions()
            .iter()
            .map(|(_, s)| *s)
            .collect();
        assert_eq!(
            states,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ],
            "full open → half-open → closed cycle"
        );
        assert_eq!(pipe.health().breaker_probes, 2);
        // Once closed, the recovered primary serves the tail.
        assert!(verdicts.last().unwrap().served_by == ServedBy::Primary);
    }

    #[test]
    fn deadline_pressure_degrades_to_fallback() {
        // Primary cost per window far exceeds the deadline budget.
        let mut pipe = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 1),
            AllNormalFallback,
            PipelineConfig {
                deadline_ticks: 5,
                cost: CostModel {
                    arrival_ticks: 100,
                    primary_base: 50,
                    primary_per_flow: 1,
                    fallback_base: 1,
                    fallback_per_flow: 0,
                },
                ..Default::default()
            },
        );
        let verdicts = run_all(&mut pipe, windows(5, 10));
        assert!(verdicts.iter().all(|v| v.served_by == ServedBy::Fallback));
        let h = pipe.health();
        assert_eq!(h.deadline_misses, 5);
        assert_eq!(h.degraded, 5);
        assert_eq!(
            h.primary_faults, 0,
            "predicted misses do not feed the breaker"
        );
        assert_eq!(pipe.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn shed_oldest_drops_exactly_the_overflow() {
        // Service is much slower than arrival: queue capacity 2, every
        // window takes 10 arrival gaps to serve.
        let cfg = PipelineConfig {
            queue_capacity: 2,
            shed: ShedPolicy::ShedOldest,
            deadline_ticks: u64::MAX, // isolate shedding from deadlines
            cost: CostModel {
                arrival_ticks: 10,
                primary_base: 100,
                primary_per_flow: 0,
                fallback_base: 1,
                fallback_per_flow: 0,
            },
            ..Default::default()
        };
        let mut pipe =
            StreamingPipeline::new(OracleDetector::new(1.0, 0.0, 1), AllNormalFallback, cfg);
        let verdicts = run_all(&mut pipe, windows(8, 5));
        assert_eq!(verdicts.len(), 8, "every window gets a verdict record");
        let shed: Vec<usize> = verdicts
            .iter()
            .filter(|v| v.served_by == ServedBy::Shed)
            .map(|v| v.id)
            .collect();
        assert_eq!(pipe.health().shed, shed.len());
        assert!(!shed.is_empty(), "overload must shed");
        assert!(
            shed.iter().all(|&id| id < 7),
            "the newest window is never the one shed"
        );
        for v in &verdicts {
            if v.served_by == ServedBy::Shed {
                assert!(v.preds.is_empty());
            }
        }
    }

    #[test]
    fn block_policy_drops_nothing_and_stalls_ingest() {
        let cfg = PipelineConfig {
            queue_capacity: 2,
            shed: ShedPolicy::Block,
            deadline_ticks: u64::MAX,
            cost: CostModel {
                arrival_ticks: 10,
                primary_base: 100,
                primary_per_flow: 0,
                fallback_base: 1,
                fallback_per_flow: 0,
            },
            ..Default::default()
        };
        let mut pipe =
            StreamingPipeline::new(OracleDetector::new(1.0, 0.0, 1), AllNormalFallback, cfg);
        let verdicts = run_all(&mut pipe, windows(8, 5));
        assert_eq!(verdicts.len(), 8);
        assert!(verdicts.iter().all(|v| v.served_by == ServedBy::Primary));
        let h = pipe.health();
        assert_eq!(h.shed, 0);
        assert_eq!(h.enqueued, 8);
        assert!(
            h.backpressure_stalls > 0,
            "overload must engage backpressure"
        );
    }

    #[test]
    fn degrade_policy_routes_overflow_to_fallback() {
        let cfg = PipelineConfig {
            queue_capacity: 2,
            shed: ShedPolicy::DegradeToFallback,
            deadline_ticks: u64::MAX,
            cost: CostModel {
                arrival_ticks: 10,
                primary_base: 100,
                primary_per_flow: 0,
                fallback_base: 1,
                fallback_per_flow: 0,
            },
            ..Default::default()
        };
        let mut pipe =
            StreamingPipeline::new(OracleDetector::new(1.0, 0.0, 1), AllNormalFallback, cfg);
        let verdicts = run_all(&mut pipe, windows(8, 5));
        assert_eq!(verdicts.len(), 8);
        let degraded = verdicts
            .iter()
            .filter(|v| v.served_by == ServedBy::Fallback)
            .count();
        assert!(degraded > 0, "overflow must reach the fallback tier");
        assert_eq!(pipe.health().shed, 0, "nothing is dropped");
        // Every flow of every window still got a verdict.
        assert!(verdicts.iter().all(|v| !v.preds.is_empty()));
    }

    #[test]
    fn verdict_ids_cover_every_window_once() {
        for policy in [
            ShedPolicy::Block,
            ShedPolicy::ShedOldest,
            ShedPolicy::DegradeToFallback,
        ] {
            let cfg = PipelineConfig {
                queue_capacity: 2,
                shed: policy,
                cost: CostModel {
                    arrival_ticks: 10,
                    primary_base: 35,
                    primary_per_flow: 0,
                    fallback_base: 1,
                    fallback_per_flow: 0,
                },
                ..Default::default()
            };
            let mut pipe =
                StreamingPipeline::new(OracleDetector::new(1.0, 0.0, 1), AllNormalFallback, cfg);
            let verdicts = run_all(&mut pipe, windows(12, 5));
            let ids: Vec<usize> = verdicts.iter().map(|v| v.id).collect();
            assert_eq!(ids, (0..12).collect::<Vec<_>>(), "{policy:?}");
        }
    }
}
