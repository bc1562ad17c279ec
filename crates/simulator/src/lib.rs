//! The paper's Fig. 1 deployment, as a discrete-event simulation.
//!
//! "NIDS sits within the network, continuously monitors in-out network
//! traffic, and reports any suspicious behaviours to the security team for
//! further attack identification and containment" — and crucially, high
//! false-alarm rates are "inevitably adding unnecessary workload to the
//! security team and may delay the counter-attack responses" (Sections I
//! and VI).
//!
//! This crate makes that argument quantitative:
//!
//! * [`TrafficStream`] replays timestamped flows with background traffic
//!   and injected attack *campaigns* (bursts of one attack class);
//! * a [`Detector`] (any classifier over encoded flows) inspects each
//!   window and raises [`Alert`]s;
//! * an [`Analyst`] pool triages alerts at finite throughput, so false
//!   alarms consume real capacity and delay the triage of true alerts;
//! * [`Simulation`] drives the pieces and reports detection latency,
//!   backlog and wasted triage effort;
//! * [`ResilientDetector`] wraps any detector with validation and a
//!   fallback, so a faulting model degrades windows instead of crashing
//!   the deployment ([`FaultyDetector`] injects such faults for tests);
//! * [`StreamingPipeline`] is the production-shaped serving loop: a
//!   bounded ingest queue with explicit [`ShedPolicy`] backpressure /
//!   load-shedding, per-window virtual-clock deadlines, a
//!   [`CircuitBreaker`] around the primary, and a
//!   [`PipelineHealth`] counter surface —
//!   with [`ChaosSchedule`] as the matching seeded fault source (stalls,
//!   error bursts, hard-down periods).
//!
//! # Example
//!
//! ```
//! use pelican_simulator::{Analyst, OracleDetector, Simulation, SimConfig, TrafficStream};
//!
//! let stream = TrafficStream::nslkdd(0.2, 7);
//! // An oracle with a 5% false-alarm rate, for illustration.
//! let detector = OracleDetector::new(1.0, 0.05, 3);
//! let report = Simulation::new(SimConfig::default())
//!     .run(stream, detector, Analyst::new(2, 300.0));
//! assert!(report.detection_rate >= 0.9);
//! ```

mod alerts;
mod chaos;
mod detector;
mod pipeline;
mod resilient;
mod sim;
mod traffic;

pub use alerts::{Alert, Analyst, TriageOutcome, TriageStats};
pub use chaos::{ChaosConfig, ChaosEvent, ChaosSchedule};
pub use detector::{Detector, OracleDetector, ThresholdNoiseDetector};
pub use pelican_core::PipelineHealth;
pub use pipeline::{
    BreakerConfig, BreakerState, CircuitBreaker, CostModel, PipelineConfig, ServedBy, ShedPolicy,
    StreamingPipeline, WindowVerdict,
};
pub use resilient::{AllNormalFallback, FaultyDetector, ResilienceConfig, ResilientDetector};
pub use sim::{SimConfig, SimReport, Simulation};
pub use traffic::{Campaign, Flow, TrafficConfig, TrafficStream};
