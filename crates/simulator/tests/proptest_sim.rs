//! Property-based tests for the deployment simulator.

use pelican_simulator::{
    Alert, AllNormalFallback, Analyst, Detector, Flow, OracleDetector, ResilienceConfig,
    ResilientDetector, SimConfig, Simulation, TrafficConfig, TrafficStream,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The analyst queue conserves alerts: received = triaged + backlog.
    #[test]
    fn alert_conservation(n_alerts in 0usize..50, analysts in 1usize..4, horizon in 0.0f64..500.0) {
        let mut team = Analyst::new(analysts, 10.0);
        for i in 0..n_alerts {
            team.receive(Alert {
                time: i as f64,
                suspected_class: 1,
                is_true_positive: i % 2 == 0,
                campaign: None,
            });
        }
        team.work_until(horizon);
        prop_assert_eq!(team.outcomes().len() + team.backlog(), n_alerts);
        // Outcomes complete in non-decreasing start order per analyst and
        // never before their alert arrived.
        for o in team.outcomes() {
            prop_assert!(o.queue_delay >= 0.0);
            prop_assert!(o.completed_at >= 10.0);
        }
    }

    /// More analysts never increase the backlog for the same alert load.
    #[test]
    fn more_analysts_never_hurt(n_alerts in 1usize..40, horizon in 10.0f64..200.0) {
        let run = |count: usize| {
            let mut team = Analyst::new(count, 15.0);
            for i in 0..n_alerts {
                team.receive(Alert {
                    time: (i as f64) * 0.5,
                    suspected_class: 1,
                    is_true_positive: true,
                    campaign: None,
                });
            }
            team.work_until(horizon);
            team.backlog()
        };
        prop_assert!(run(3) <= run(1));
    }

    /// Simulation reports stay internally consistent for arbitrary
    /// detector operating points.
    #[test]
    fn report_invariants(dr in 0.0f64..1.0, far in 0.0f64..1.0, seed in 0u64..100) {
        let stream = TrafficStream::from_dataset(
            pelican_data::nslkdd::generate(300, seed),
            TrafficConfig::default(),
            seed,
        );
        let report = Simulation::new(SimConfig { windows: 4, flows_per_window: 25 })
            .run(stream, OracleDetector::new(dr, far, seed), Analyst::new(2, 20.0));
        prop_assert!((0.0..=1.0).contains(&report.detection_rate));
        prop_assert!((0.0..=1.0).contains(&report.false_alarm_rate));
        prop_assert!(report.campaigns_detected <= report.campaigns_total);
        prop_assert_eq!(report.alerts, report.triage.triaged + report.triage.backlog);
        prop_assert!(report.triage.wasted_fraction() >= 0.0);
        prop_assert!(report.triage.wasted_fraction() <= 1.0);
        if report.alerts == 0 {
            prop_assert_eq!(report.campaigns_detected, 0);
        }
    }

    /// The flow-budget boundary is inclusive: a window of exactly
    /// `flow_budget` flows is served by the primary; one flow more
    /// degrades to the fallback. Holds for every budget, including 0.
    #[test]
    fn flow_budget_boundary_is_inclusive(budget in 0usize..30, extra in 0usize..10, seed in 0u64..50) {
        let mut stream = TrafficStream::nslkdd(0.0, seed);
        let window = stream.next_window((budget + extra).max(1));
        let window = &window[..(budget + extra).min(window.len())];
        let config = ResilienceConfig { flow_budget: budget, ..Default::default() };
        let mut det = ResilientDetector::new(
            OracleDetector::new(1.0, 0.0, seed),
            AllNormalFallback,
            config,
        );
        let preds = det.classify(window);
        prop_assert_eq!(preds.len(), window.len(), "fallback or primary must cover the window");
        let should_degrade = window.len() > budget;
        prop_assert_eq!(
            det.degraded() > 0,
            should_degrade,
            "len {} vs budget {}: exactly-at-budget stays on the primary",
            window.len(),
            budget
        );
    }

    /// `class_bound == 0` makes every non-empty verdict invalid: the
    /// window always degrades to the fallback, and an empty window passes
    /// vacuously — the run never panics either way.
    #[test]
    fn zero_class_bound_always_degrades(len in 0usize..25, seed in 0u64..50) {
        let window: Vec<Flow> = if len == 0 {
            Vec::new()
        } else {
            TrafficStream::nslkdd(0.0, seed).next_window(len)
        };
        let config = ResilienceConfig { class_bound: 0, ..Default::default() };
        let mut det = ResilientDetector::new(
            OracleDetector::new(1.0, 0.0, seed),
            AllNormalFallback,
            config,
        );
        let preds = det.classify(&window);
        prop_assert_eq!(preds.len(), window.len());
        if window.is_empty() {
            prop_assert_eq!(det.degraded(), 0, "empty verdicts are vacuously valid");
        } else {
            prop_assert_eq!(det.degraded(), 1);
            prop_assert!(preds.iter().all(|&p| p == 0), "fallback serves the window");
        }
    }

    /// `flow_budget == 0` routes every non-empty window to the fallback
    /// without ever invoking the primary.
    #[test]
    fn zero_flow_budget_never_invokes_primary(len in 1usize..25, seed in 0u64..50) {
        /// Counts its invocations; a contained panic would go unseen.
        struct CountingPrimary(usize);
        impl Detector for CountingPrimary {
            fn classify(&mut self, window: &[Flow]) -> Vec<usize> {
                self.0 += 1;
                vec![0; window.len()]
            }
            fn name(&self) -> &'static str { "counting" }
        }
        let window = TrafficStream::nslkdd(0.0, seed).next_window(len);
        let config = ResilienceConfig { flow_budget: 0, ..Default::default() };
        let mut det = ResilientDetector::new(CountingPrimary(0), AllNormalFallback, config);
        let preds = det.classify(&window);
        prop_assert_eq!(preds.len(), window.len());
        prop_assert_eq!(det.degraded(), 1);
        prop_assert_eq!(det.primary().0, 0, "primary invoked");
    }

    /// Traffic windows always deliver at least the background count and
    /// flows carry valid classes.
    #[test]
    fn window_shape(background in 1usize..40, rate in 0.0f64..1.0, seed in 0u64..100) {
        let mut stream = TrafficStream::nslkdd(rate, seed);
        let window = stream.next_window(background);
        prop_assert!(window.len() >= background);
        let classes = stream.source().schema().class_count();
        for flow in &window {
            prop_assert!(flow.true_class < classes);
            prop_assert!(flow.time.is_finite() && flow.time >= 0.0);
        }
    }
}
