//! The simulation driver and its report.

use crate::alerts::{Alert, Analyst, TriageStats};
use crate::detector::Detector;
use crate::pipeline::{ServedBy, StreamingPipeline, WindowVerdict};
use crate::traffic::{Campaign, Flow, TrafficStream};
use pelican_core::PipelineHealth;
use std::collections::HashMap;

/// Simulation length and window shape.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of monitoring windows to replay.
    pub windows: usize,
    /// Background flows per window.
    pub flows_per_window: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            windows: 20,
            flows_per_window: 50,
        }
    }
}

/// Everything measured from one simulated deployment.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Detector display name.
    pub detector: &'static str,
    /// Flows inspected.
    pub flows: usize,
    /// Alerts raised.
    pub alerts: usize,
    /// Fraction of attack flows flagged (flow-level DR).
    pub detection_rate: f64,
    /// Fraction of normal flows flagged (flow-level FAR).
    pub false_alarm_rate: f64,
    /// Campaigns with at least one alert, over campaigns seen.
    pub campaigns_detected: usize,
    /// Total campaigns injected during the run.
    pub campaigns_total: usize,
    /// Mean seconds from a campaign's first flow to its first alert
    /// (detected campaigns only; `None` when no campaign was detected).
    pub mean_time_to_detection: Option<f64>,
    /// Windows served in a degraded mode (fallback verdicts after a
    /// detector fault); non-zero only for resilience-wrapped detectors.
    pub degraded_windows: usize,
    /// Windows dropped by the streaming pipeline's shed policy before any
    /// detector saw them (their flows are not counted in `flows` or the
    /// rate denominators). Zero outside streaming runs.
    pub shed_windows: usize,
    /// Per-stage health counters from the streaming pipeline; `None` for
    /// plain [`run`](Simulation::run) deployments.
    pub pipeline: Option<PipelineHealth>,
    /// The security team's triage statistics.
    pub triage: TriageStats,
}

/// Drives a [`TrafficStream`] through a [`Detector`] into an [`Analyst`]
/// pool. See the [crate docs](crate) for an example.
#[derive(Debug, Clone, Copy)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation with the given shape.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// Runs the deployment to completion and reports.
    pub fn run(
        &self,
        mut stream: TrafficStream,
        mut detector: impl Detector,
        team: Analyst,
    ) -> SimReport {
        let served: Vec<(Vec<Flow>, Vec<usize>)> = (0..self.config.windows)
            .map(|_| {
                let window = stream.next_window(self.config.flows_per_window);
                let preds = detector.classify(&window);
                (window, preds)
            })
            .collect();
        SimReport {
            detector: detector.name(),
            degraded_windows: detector.degraded_windows(),
            ..account(&served, 0, stream.campaigns(), team)
        }
    }

    /// Runs the deployment through a [`StreamingPipeline`] instead of a
    /// bare detector: windows are ingested under the pipeline's
    /// backpressure/shedding policy, served by its two tiers under the
    /// circuit breaker and deadline budget, and the health counters land
    /// in [`SimReport::pipeline`].
    ///
    /// Shed windows never reach a detector; their flows are excluded from
    /// `flows` and from the detection/false-alarm denominators and
    /// surface as [`SimReport::shed_windows`]. The pipeline is taken by
    /// `&mut` so the caller can inspect its breaker transitions or chaos
    /// log after the run.
    pub fn run_streaming<P: Detector, F: Detector>(
        &self,
        mut stream: TrafficStream,
        pipeline: &mut StreamingPipeline<P, F>,
        team: Analyst,
    ) -> SimReport {
        let mut windows: Vec<Vec<Flow>> = Vec::with_capacity(self.config.windows);
        let mut verdicts: Vec<WindowVerdict> = Vec::new();
        for _ in 0..self.config.windows {
            let window = stream.next_window(self.config.flows_per_window);
            windows.push(window.clone());
            verdicts.extend(pipeline.ingest(window));
        }
        verdicts.extend(pipeline.finish());
        // Replay outcomes in arrival order regardless of service order.
        verdicts.sort_by_key(|v| v.id);

        let shed = verdicts
            .iter()
            .filter(|v| v.served_by == ServedBy::Shed)
            .count();
        let served: Vec<(Vec<Flow>, Vec<usize>)> = verdicts
            .into_iter()
            .filter(|v| v.served_by != ServedBy::Shed)
            .map(|v| (std::mem::take(&mut windows[v.id]), v.preds))
            .collect();
        let health = *pipeline.health();
        SimReport {
            detector: "streaming",
            degraded_windows: health.degraded,
            pipeline: Some(health),
            ..account(&served, shed, stream.campaigns(), team)
        }
    }
}

/// The accounting pass of one run over its served `(window, preds)` pairs
/// in arrival order: flow counts and rates, alerts routed to `team` (which
/// triages up to each window's last flow, then drains one more horizon),
/// and each campaign's time to its first alert. `shed_windows` never
/// reached a detector. The report names no detector and carries no
/// degraded windows or pipeline health; the caller fills those in.
fn account(
    served: &[(Vec<Flow>, Vec<usize>)],
    shed_windows: usize,
    campaigns: &[Campaign],
    mut team: Analyst,
) -> SimReport {
    let mut flows_total = 0usize;
    let mut alerts_total = 0usize;
    let mut attacks = 0usize;
    let mut attacks_flagged = 0usize;
    let mut normals = 0usize;
    let mut normals_flagged = 0usize;
    let mut first_alert: HashMap<usize, f64> = HashMap::new();
    let mut clock = 0.0f64;

    for (window, preds) in served {
        debug_assert_eq!(preds.len(), window.len());
        for (flow, &pred) in window.iter().zip(preds) {
            flows_total += 1;
            clock = clock.max(flow.time);
            let flagged = pred != 0;
            if flow.true_class != 0 {
                attacks += 1;
                attacks_flagged += usize::from(flagged);
            } else {
                normals += 1;
                normals_flagged += usize::from(flagged);
            }
            if flagged {
                alerts_total += 1;
                if let Some(campaign) = flow.campaign {
                    first_alert.entry(campaign).or_insert(flow.time);
                }
                team.receive(Alert {
                    time: flow.time,
                    suspected_class: pred,
                    is_true_positive: flow.true_class != 0,
                    campaign: flow.campaign,
                });
            }
        }
        team.work_until(clock);
    }
    // Let the team drain whatever it can in one more triage horizon.
    team.work_until(clock + 1e9);

    let mut latency_sum = 0.0f64;
    let mut detected = 0usize;
    for campaign in campaigns {
        if let Some(&t) = first_alert.get(&campaign.id) {
            detected += 1;
            latency_sum += t - campaign.start;
        }
    }

    SimReport {
        detector: "",
        flows: flows_total,
        alerts: alerts_total,
        detection_rate: if attacks == 0 {
            0.0
        } else {
            attacks_flagged as f64 / attacks as f64
        },
        false_alarm_rate: if normals == 0 {
            0.0
        } else {
            normals_flagged as f64 / normals as f64
        },
        campaigns_detected: detected,
        campaigns_total: campaigns.len(),
        mean_time_to_detection: if detected == 0 {
            None
        } else {
            Some(latency_sum / detected as f64)
        },
        degraded_windows: 0,
        shed_windows,
        pipeline: None,
        triage: team.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{OracleDetector, ThresholdNoiseDetector};
    use crate::traffic::TrafficStream;

    fn run_with(det_dr: f64, det_far: f64) -> SimReport {
        let stream = TrafficStream::nslkdd(0.4, 11);
        let detector = OracleDetector::new(det_dr, det_far, 5);
        Simulation::new(SimConfig {
            windows: 10,
            flows_per_window: 40,
        })
        .run(stream, detector, Analyst::new(2, 30.0))
    }

    #[test]
    fn perfect_detector_catches_every_campaign() {
        let report = run_with(1.0, 0.0);
        assert_eq!(report.campaigns_detected, report.campaigns_total);
        assert_eq!(report.false_alarm_rate, 0.0);
        assert_eq!(report.triage.wasted_seconds, 0.0);
        assert!(report.mean_time_to_detection.unwrap_or(1e9) < 1.0);
    }

    #[test]
    fn blind_detector_catches_nothing() {
        let stream = TrafficStream::nslkdd(0.4, 11);
        let detector = ThresholdNoiseDetector::new(0.0, 5);
        let report =
            Simulation::new(SimConfig::default()).run(stream, detector, Analyst::new(1, 30.0));
        assert_eq!(report.alerts, 0);
        assert_eq!(report.campaigns_detected, 0);
        assert_eq!(report.mean_time_to_detection, None);
        assert_eq!(report.detection_rate, 0.0);
    }

    #[test]
    fn higher_far_wastes_more_analyst_time() {
        let clean = run_with(0.95, 0.01);
        let noisy = run_with(0.95, 0.3);
        assert!(
            noisy.triage.wasted_seconds > clean.triage.wasted_seconds,
            "noisy {} vs clean {}",
            noisy.triage.wasted_seconds,
            clean.triage.wasted_seconds
        );
        // And the queue backs up (or at least delays grow).
        assert!(
            noisy.triage.mean_queue_delay >= clean.triage.mean_queue_delay,
            "delays should grow with the false-alarm flood"
        );
    }

    #[test]
    fn degraded_windows_surface_in_the_report() {
        use crate::resilient::{
            AllNormalFallback, FaultyDetector, ResilienceConfig, ResilientDetector,
        };
        let stream = TrafficStream::nslkdd(0.4, 11);
        let faulty = FaultyDetector::new(OracleDetector::new(1.0, 0.0, 5), 17, 0.5);
        let detector =
            ResilientDetector::new(faulty, AllNormalFallback, ResilienceConfig::default());
        let cfg = SimConfig {
            windows: 20,
            flows_per_window: 40,
        };
        let report = Simulation::new(cfg).run(stream, detector, Analyst::new(2, 30.0));
        assert!(report.degraded_windows > 0, "rate 0.5 over 20 windows");
        assert!(report.degraded_windows <= cfg.windows);
        assert_eq!(report.detector, "resilient");
        // The run completed and produced a coherent report despite faults.
        assert!(report.flows >= cfg.windows * cfg.flows_per_window);
        assert!((0.0..=1.0).contains(&report.detection_rate));
        // A plain detector reports zero degraded windows.
        let clean = Simulation::new(cfg).run(
            TrafficStream::nslkdd(0.4, 11),
            OracleDetector::new(1.0, 0.0, 5),
            Analyst::new(2, 30.0),
        );
        assert_eq!(clean.degraded_windows, 0);
    }

    #[test]
    fn streaming_run_reports_pipeline_health() {
        use crate::pipeline::{PipelineConfig, StreamingPipeline};
        use crate::resilient::AllNormalFallback;
        let stream = TrafficStream::nslkdd(0.4, 11);
        let mut pipeline = StreamingPipeline::new(
            OracleDetector::new(1.0, 0.0, 5),
            AllNormalFallback,
            PipelineConfig::default(),
        );
        let cfg = SimConfig {
            windows: 10,
            flows_per_window: 40,
        };
        let report =
            Simulation::new(cfg).run_streaming(stream, &mut pipeline, Analyst::new(2, 30.0));
        let health = report.pipeline.expect("streaming runs carry health");
        assert_eq!(health.enqueued, 10);
        assert_eq!(health.processed, 10);
        assert_eq!(report.detector, "streaming");
        assert_eq!(report.shed_windows, 0);
        assert_eq!(report.degraded_windows, 0);
        // A healthy pipeline matches the plain run's detection quality.
        let plain = Simulation::new(cfg).run(
            TrafficStream::nslkdd(0.4, 11),
            OracleDetector::new(1.0, 0.0, 5),
            Analyst::new(2, 30.0),
        );
        assert_eq!(report.flows, plain.flows);
        assert_eq!(report.alerts, plain.alerts);
        assert_eq!(
            report.detection_rate.to_bits(),
            plain.detection_rate.to_bits(),
            "identical verdicts, identical rates"
        );
        assert!(plain.pipeline.is_none(), "plain runs carry no health");
    }

    #[test]
    fn report_counts_are_consistent() {
        let report = run_with(0.9, 0.1);
        assert_eq!(
            report.flows,
            10 * 40 + {
                // campaign flows on top of background
                report.flows - 400
            }
        );
        assert_eq!(report.alerts, report.triage.triaged + report.triage.backlog);
        assert!(report.campaigns_detected <= report.campaigns_total);
        assert!((0.0..=1.0).contains(&report.detection_rate));
        assert!((0.0..=1.0).contains(&report.false_alarm_rate));
    }
}
