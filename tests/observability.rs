//! Observability integration: the `pelican-observe` subsystem must watch
//! the pipeline and the trainer without perturbing either, and its
//! deterministic export must be bit-identical at every worker count.
//!
//! `scripts/check.sh` runs this suite under both `PELICAN_THREADS=1` and
//! `PELICAN_THREADS=4`; the in-process worker-count sweeps below cover
//! the same contract without restarting the process.

use std::sync::Arc;

use pelican::observe::{InMemoryRecorder, Recorder, Snapshot};
use pelican::prelude::*;
use pelican::runtime::{with_exec, ExecConfig};
use pelican::simulator::{
    AllNormalFallback, Analyst, BreakerConfig, ChaosConfig, ChaosSchedule, CostModel,
    FaultyDetector, OracleDetector, PipelineConfig, PipelineHealth, ShedPolicy, SimConfig,
    Simulation, StreamingPipeline, TrafficStream,
};

/// The stall/corruption/hard-down mix from the pipeline resilience suite:
/// enough chaos to cycle the breaker, shed load, and miss deadlines.
fn chaos() -> ChaosConfig {
    ChaosConfig {
        stall_rate: 0.25,
        stall_ticks: (500, 900),
        burst_rate: 0.1,
        burst_len: (1, 3),
        down_rate: 0.1,
        down_len: (3, 6),
    }
}

fn chaos_pipeline(
    seed: u64,
    shed: ShedPolicy,
) -> StreamingPipeline<FaultyDetector<OracleDetector>, AllNormalFallback> {
    let primary = FaultyDetector::new(OracleDetector::new(1.0, 0.0, seed), seed, 0.0)
        .with_panics(true)
        .with_schedule(ChaosSchedule::new(chaos(), seed));
    StreamingPipeline::new(
        primary,
        AllNormalFallback,
        PipelineConfig {
            shed,
            breaker: BreakerConfig {
                consecutive_failures: 3,
                outcome_window: 8,
                failure_fraction: 0.5,
                open_ticks: 150,
                max_open_ticks: 1200,
                half_open_probes: 2,
            },
            ..Default::default()
        },
    )
}

/// Runs the streaming-chaos scenario under a fresh [`InMemoryRecorder`]
/// and returns the deterministic JSONL export plus the health counters.
fn observed_chaos_run(seed: u64) -> (String, Snapshot, PipelineHealth) {
    let rec = Arc::new(InMemoryRecorder::new());
    let health = pelican::observe::with_recorder(rec.clone(), || {
        let stream = TrafficStream::nslkdd(0.3, seed);
        let mut pipeline = chaos_pipeline(seed, ShedPolicy::DegradeToFallback);
        Simulation::new(SimConfig {
            windows: 60,
            flows_per_window: 30,
        })
        .run_streaming(stream, &mut pipeline, Analyst::new(2, 30.0));
        *pipeline.health()
    });
    let snap = rec.snapshot().expect("in-memory recorder snapshots");
    (rec.export_jsonl(), snap, health)
}

fn count_events(snap: &Snapshot, name: &str) -> usize {
    snap.events.iter().filter(|e| e.name == name).count()
}

/// The acceptance scenario: the full chaos run — breaker trips, degrades,
/// deadline misses — exports byte-identical JSONL on the serial path, on
/// a replay, and under four workers. Wall-clock span durations exist in
/// the snapshot but never reach the export.
#[test]
fn chaos_jsonl_is_bit_identical_across_worker_counts() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let serial = with_exec(ExecConfig::serial(), || observed_chaos_run(17));
    let again = with_exec(ExecConfig::serial(), || observed_chaos_run(17));
    let pooled = with_workers(4, || observed_chaos_run(17));
    std::panic::set_hook(prev);

    // The export saw real action.
    let (jsonl, snap, health) = &serial;
    assert!(health.breaker_opens > 0, "chaos must trip the breaker");
    assert!(jsonl.contains("\"pipeline.breaker\""));
    assert!(jsonl.contains("\"pipeline.degrade\""));
    assert!(jsonl.contains("\"pipeline.deadline_miss\""));
    assert!(snap.gauges.contains_key("pipeline.queue_depth"));

    // Every observe event pairs 1:1 with a health-counter increment.
    assert_eq!(count_events(snap, "pipeline.degrade"), health.degraded);
    assert_eq!(
        count_events(snap, "pipeline.deadline_miss"),
        health.deadline_misses
    );
    assert_eq!(count_events(snap, "pipeline.shed"), health.shed);

    // Byte-identical replay; worker count leaves no trace in the export.
    assert_eq!(serial.0, again.0, "replay drifted");
    assert_eq!(serial.0, pooled.0, "worker count leaked into the export");
    assert_eq!(serial.2, pooled.2);
}

/// Satellite: the queue-depth gauge's high-water mark and the event
/// journal must reconcile exactly with the [`PipelineHealth`] counters
/// under every overflow policy, in the overload scenario where the queue
/// actually fills (service 10× slower than arrival, capacity 2).
#[test]
fn queue_gauge_high_water_matches_health_under_every_policy() {
    let overload = |shed: ShedPolicy| PipelineConfig {
        queue_capacity: 2,
        shed,
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
    for shed in [
        ShedPolicy::Block,
        ShedPolicy::ShedOldest,
        ShedPolicy::DegradeToFallback,
    ] {
        let rec = Arc::new(InMemoryRecorder::new());
        let health = pelican::observe::with_recorder(rec.clone(), || {
            let mut pipeline = StreamingPipeline::new(
                OracleDetector::new(1.0, 0.0, 3),
                AllNormalFallback,
                overload(shed),
            );
            let mut stream = TrafficStream::nslkdd(0.0, 3);
            for w in stream.next_windows(12, 8) {
                pipeline.ingest(w);
            }
            pipeline.finish();
            *pipeline.health()
        });
        let snap = rec.snapshot().unwrap();
        let depth = &snap.gauges["pipeline.queue_depth"];

        // High-water mark: the overload fills the bounded queue to its
        // capacity under every policy, and never past it.
        assert_eq!(depth.max, 2.0, "{shed:?}: high-water != capacity");
        assert_eq!(depth.value, 0.0, "{shed:?}: queue must drain by finish");

        // Event journal ↔ health counters, policy by policy.
        assert_eq!(
            count_events(&snap, "pipeline.backpressure"),
            health.backpressure_stalls,
            "{shed:?}: backpressure events"
        );
        assert_eq!(
            count_events(&snap, "pipeline.shed"),
            health.shed,
            "{shed:?}: shed events"
        );
        assert_eq!(
            count_events(&snap, "pipeline.degrade"),
            health.degraded,
            "{shed:?}: degrade events"
        );
        assert_eq!(
            count_events(&snap, "pipeline.deadline_miss"),
            health.deadline_misses,
            "{shed:?}: deadline-miss events"
        );
        match shed {
            ShedPolicy::Block => assert!(health.backpressure_stalls > 0),
            ShedPolicy::ShedOldest => assert!(health.shed > 0),
            ShedPolicy::DegradeToFallback => assert!(health.degraded > 0),
        }
    }
}

/// Observation must not perturb the computation: a training run under a
/// live [`InMemoryRecorder`] produces bit-identical parameters and
/// history to the unobserved run, and the per-epoch wall times land in
/// `History::epoch_secs` either way.
#[test]
fn training_is_unchanged_by_observation() {
    use pelican::nn::io::params_to_bytes;
    use pelican::nn::loss::SoftmaxCrossEntropy;
    use pelican::nn::optim::RmsProp;

    let cfg = ExpConfig {
        dataset: DatasetKind::NslKdd,
        samples: 120,
        epochs: 2,
        batch_size: 32,
        learning_rate: 0.01,
        kernel: 10,
        dropout: 0.5,
        test_fraction: 0.2,
        seed: 23,
    };
    let run = || {
        let split = prepare_split(&cfg);
        let mut net = build_network(&NetConfig {
            in_features: cfg.dataset.encoded_width(),
            classes: cfg.dataset.classes(),
            blocks: 1,
            residual: true,
            kernel: cfg.kernel,
            dropout: cfg.dropout,
            seed: cfg.seed,
        });
        let history = Trainer::new(TrainerConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            shuffle_seed: 17,
            ..Default::default()
        })
        .fit(
            &mut net,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(cfg.learning_rate),
            &split.x_train,
            &split.y_train,
            Some((&split.x_test, &split.y_test)),
        )
        .expect("training");
        (history, params_to_bytes(&mut net))
    };

    let (plain_hist, plain_params) = run();
    let rec = Arc::new(InMemoryRecorder::new());
    let (observed_hist, observed_params) = pelican::observe::with_recorder(rec.clone(), run);

    assert_eq!(
        observed_params, plain_params,
        "observation changed the trained parameters"
    );
    assert_eq!(observed_hist.epochs, plain_hist.epochs);
    // Epoch wall times are measured unconditionally (Table VI artifact).
    assert_eq!(plain_hist.epoch_secs.len(), cfg.epochs);
    assert_eq!(observed_hist.epoch_secs.len(), cfg.epochs);
    assert!(observed_hist.total_train_secs() > 0.0);

    // And the recorder saw the whole run: per-epoch spans, per-layer
    // forward/backward activity, FLOP counters, training gauges.
    let snap = rec.snapshot().unwrap();
    assert_eq!(snap.spans["fit"].count, 1);
    assert_eq!(snap.spans["fit/epoch"].count, cfg.epochs as u64);
    assert!(snap
        .spans
        .keys()
        .any(|k| k.starts_with("fit/epoch/forward/")));
    assert!(snap
        .spans
        .keys()
        .any(|k| k.starts_with("fit/epoch/backward/")));
    assert!(snap.counters["tensor.matmul_flops"] > 0);
    assert!(snap.counters["tensor.conv_flops"] > 0);
    assert!(snap.gauges.contains_key("train.loss"));
    assert_eq!(snap.gauges["train.lr"].sets, cfg.epochs as u64);
}

/// The JSONL export and human summary of the same recorder agree on the
/// instruments they cover, and the export is parseable line by line.
#[test]
fn export_is_wellformed_jsonl() {
    let (jsonl, snap, _) = with_exec(ExecConfig::serial(), || {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = observed_chaos_run(17);
        std::panic::set_hook(prev);
        out
    });
    let mut lines = 0usize;
    for line in jsonl.lines() {
        lines += 1;
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
    }
    // meta + one line per instrument + one per event.
    let expected = 1
        + snap.counters.len()
        + snap.gauges.len()
        + snap.histograms.len()
        + snap.spans.len()
        + snap.events.len();
    assert_eq!(lines, expected);

    let summary = pelican::observe::InMemoryRecorder::new().summary();
    assert_eq!(summary, "(nothing recorded)\n");
}
