//! The three workloads, each as an untraced end-to-end run and a
//! separate traced run.
//!
//! Every workload repeats a fixed unit of work until `--seconds` are used
//! up, so each unit yields the same output digest; set-up is repeated
//! [`SETUP_REPEATS`] times and the first, cold one is `setup_s`.

use crate::model::{
    model_digest, net_config, schedule, step, traced_network, train_steps, useful_fwd_flops,
    StepClock, LEARNING_RATE,
};
use crate::serve::{
    run_open_loop, DetectorClock, LoadShape, NidsDetector, ServeOutcome, DIGEST_WINDOWS,
};
use crate::trace::{self, Kind, Span};
use crate::util::{median, percentile};
use pelican_core::experiment::{prepare_split, run_kfold, Arch, DatasetKind, ExpConfig};
use pelican_core::models::{build_network, NetConfig};
use pelican_core::Confusion;
use pelican_data::{holdout_indices, EncodedSplit, KFold, OneHotEncoder, RawDataset, Standardizer};
use pelican_nn::loss::SoftmaxCrossEntropy;
use pelican_nn::optim::RmsProp;
use pelican_nn::{predict, History, Layer, Mode, Trainer, TrainerConfig};
use pelican_runtime::with_workers;
use pelican_simulator::{
    AllNormalFallback, ChaosConfig, ChaosSchedule, FaultyDetector, PipelineConfig,
    StreamingPipeline, TrafficStream,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Set-ups per run. The first pays the once-per-process warm-up (pool
/// spawn, workspace-arena growth, fresh heap pages) and is `setup_s`;
/// the warm repeats are printed beside it, so the warm-up's share shows.
pub const SETUP_REPEATS: usize = 5;

/// Offered load of the serving workload, windows per second: about two
/// thirds of the single-server capacity measured at this benchmark's
/// introduction (≈89 windows/s, 11 ms per window, on a 2-core x86-64
/// host).
pub const SERVE_RATE_HZ: f64 = 60.0;
/// Background flows per window; campaigns add ≈3 more on average.
pub const SERVE_BACKGROUND: usize = 50;
/// Per-window probability that an attack campaign starts.
pub const SERVE_CAMPAIGN_RATE: f64 = 0.3;
/// Kernel workers while serving. The pipeline is a single server; at
/// m≈53 splitting a window's kernels over two workers gained ≈5% and
/// doubled the run-to-run spread of `rows_per_s` (worker wake-ups), so
/// serving runs serial, as `run_kfold` runs each fold.
/// `runtime.speedup_2w` on this workload reports what two would give.
pub const SERVE_WORKERS: usize = 1;
/// Windows the serving phase of a traced training workload offers.
pub const PROBE_WINDOWS: usize = 300;
/// Seed of the chaos schedule: fixed, so every run sees the same faults.
pub const CHAOS_SEED: u64 = 9;

/// Mild chaos: the primary serves about nine windows in ten.
pub fn chaos() -> ChaosConfig {
    ChaosConfig {
        stall_rate: 0.02,
        stall_ticks: (450, 700),
        burst_rate: 0.02,
        burst_len: (1, 2),
        down_rate: 0.004,
        down_len: (3, 5),
    }
}

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = [
    "train-unsw-r41-b4000",
    "kfold-nsl-r21-b64",
    "serve-unsw-r41-stream",
];

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Operations completed in degraded form: windows the fallback served.
    pub degraded: u64,
    /// Output digest of one unit of work, when the run produces one.
    pub digest: Option<String>,
    /// Problems that make the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Workload-specific figures under their own names, printed but not
    /// part of the benchmark's metric set.
    pub detail: Vec<Metric>,
    /// Human-readable context (sample counts, secondary figures).
    pub notes: Vec<String>,
    /// Every span of a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    fn check_digest(&mut self, unit: &str) {
        match &self.digest {
            None => self.digest = Some(unit.to_string()),
            Some(d) if d != unit => self.errors.push(format!(
                "unit digest {unit} differs from the run's first {d}"
            )),
            Some(_) => {}
        }
    }
}

/// How one run is made.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Runs `setup` [`SETUP_REPEATS`] times, reports the first (cold) one as
/// `setup_s`, and returns the last one's state.
fn timed_setup<S>(report: &mut Report, mut setup: impl FnMut() -> S) -> S {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    report.metrics.push(m("setup_s", times[0], "s"));
    report.notes.push(format!(
        "setup runs (s): {times:.4?}; setup_s is the first, cold one; warm-up share {:.1}%",
        100.0 * (1.0 - median(&times[1..]) / times[0])
    ));
    state.expect("at least one set-up")
}

/// Spawns the worker pool and grows the workspace arena with one Train
/// forward and backward pass of `net` on the first `batch` rows.
fn warm_up(net: &mut dyn Layer, x: &pelican_tensor::Tensor, y: &[usize], batch: usize) {
    let rows: Vec<usize> = (0..batch.min(x.shape()[0])).collect();
    let xb = x.gather_rows(&rows);
    let out = net.forward(&xb, Mode::Train);
    let labels: Vec<usize> = rows.iter().map(|&i| y[i]).collect();
    let (_, dout) = pelican_nn::loss::Loss::loss(&SoftmaxCrossEntropy, &out, &labels);
    net.backward(&dout);
}

/// Reports `peak_rss_mb` the first time it is called: `VmHWM` once set-up
/// and the first unit of work are done, a fixed amount of work whatever
/// the run length. With glibc's per-thread malloc arenas the peak keeps
/// creeping up over repeated units (k-fold: ≈16 MiB per `run_kfold`),
/// so the end-of-run peak would depend on how many units fit.
fn first_unit_rss(report: &mut Report) {
    if !report.metrics.iter().any(|m| m.name == "peak_rss_mb") {
        report
            .metrics
            .push(m("peak_rss_mb", crate::util::peak_rss_mb(), "MiB"));
    }
}

/// Whether the workload's time is up, given how long its last unit took.
fn time_left(start: Instant, seconds: f64, last_unit: f64) -> bool {
    start.elapsed().as_secs_f64() + last_unit <= seconds
}

/// Detection quality on the binary attack-vs-normal view.
fn quality(report: &mut Report, c: &Confusion) {
    report
        .detail
        .push(m("detection_rate", c.detection_rate() as f64, "ratio"));
    report
        .detail
        .push(m("false_alarm_rate", c.false_alarm_rate() as f64, "ratio"));
    report.notes.push(format!(
        "binary confusion: tp {} tn {} fp {} fn {}",
        c.tp, c.tn, c.fp, c.fn_
    ));
}

/// The highest of p99, p90, p75 that has at least ten of `n` samples
/// beyond it; the median when none has.
fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.90, 0.75]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// `latency_p50_ms` and `latency_tail_ms` over the run's operations, the
/// tail at [`tail_quantile`]. Returns the samples used.
fn latency(report: &mut Report, what: &str, samples_ms: &[f64]) -> Vec<f64> {
    let samples: Vec<f64> = samples_ms
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    let q = tail_quantile(samples.len());
    report
        .metrics
        .push(m("latency_p50_ms", percentile(&samples, 0.5), "ms"));
    report
        .metrics
        .push(m("latency_tail_ms", percentile(&samples, q), "ms"));
    report.notes.push(format!(
        "latency: {} {what}; tail = p{}",
        samples.len(),
        (q * 100.0).round()
    ));
    samples
}

// ---------------------------------------------------------------------
// train-unsw-r41-b4000
// ---------------------------------------------------------------------

const TRAIN_BLOCKS: usize = 10;
const TRAIN_BATCH: usize = 4000;
/// 16 000 records split evenly: two steps per epoch, 8 000 held out.
const TRAIN_SAMPLES: usize = 16_000;
const TRAIN_EPOCHS: usize = 3;

fn train_exp(seed: u64) -> ExpConfig {
    let mut cfg = ExpConfig::paper(DatasetKind::UnswNb15);
    cfg.samples = TRAIN_SAMPLES;
    cfg.epochs = TRAIN_EPOCHS;
    cfg.batch_size = TRAIN_BATCH;
    cfg.test_fraction = 0.5;
    cfg.seed = seed;
    cfg
}

fn trainer(cfg: &ExpConfig) -> Trainer {
    Trainer::new(TrainerConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        shuffle_seed: cfg.seed ^ 0x5F5F,
        ..Default::default()
    })
}

/// One unit: `build_network`, `Trainer::fit` without an eval set, then
/// `predict` on the held-out rows.
struct TrainUnit {
    fit_s: f64,
    step_secs: Vec<f64>,
    predict_s: f64,
    /// Whether `fit` returned without a `TrainError`.
    trained: bool,
    confusion: Confusion,
    digest: String,
}

fn train_unit(exp: &ExpConfig, net_cfg: &NetConfig, split: &EncodedSplit) -> TrainUnit {
    let mut net = StepClock::new(build_network(net_cfg));
    let t = Instant::now();
    let fit = trainer(exp).fit(
        &mut net,
        &SoftmaxCrossEntropy,
        &mut RmsProp::new(exp.learning_rate),
        &split.x_train,
        &split.y_train,
        None,
    );
    let end = Instant::now();
    let fit_s = (end - t).as_secs_f64();
    let step_secs = net.step_secs(end);
    let t = Instant::now();
    let preds = predict(&mut net, &split.x_test, exp.batch_size);
    let predict_s = t.elapsed().as_secs_f64();
    TrainUnit {
        fit_s,
        step_secs,
        predict_s,
        trained: fit.is_ok(),
        confusion: Confusion::from_predictions(&preds, &split.y_test, 0),
        digest: model_digest(&mut net, &preds),
    }
}

pub fn train(spec: RunSpec) -> Report {
    let seed = spec.seed;
    let exp = train_exp(seed);
    let ds = exp.dataset;
    let net_cfg = net_config(ds.encoded_width(), ds.classes(), TRAIN_BLOCKS, seed);
    let mut report = Report::default();
    if spec.traced {
        return train_traced(&exp, &net_cfg, report);
    }
    let split = timed_setup(&mut report, || {
        let split = prepare_split(&exp);
        let mut net = build_network(&net_cfg);
        warm_up(&mut net, &split.x_train, &split.y_train, exp.batch_size);
        split
    });
    let start = Instant::now();
    let (mut rows, mut fit_s, mut eval_rows, mut predict_s) = (0.0, 0.0, 0.0, 0.0);
    let mut steps = Vec::new();
    let mut confusion = Confusion::default();
    let mut last = 0.0;
    while report.attempted == 0 || time_left(start, spec.seconds, last) {
        let t = Instant::now();
        let unit = train_unit(&exp, &net_cfg, &split);
        last = t.elapsed().as_secs_f64();
        report.attempted += unit.step_secs.len() as u64;
        if !unit.trained {
            report.failed += unit.step_secs.len() as u64;
        }
        report.check_digest(&unit.digest);
        first_unit_rss(&mut report);
        rows += (split.y_train.len() * exp.epochs) as f64;
        fit_s += unit.fit_s;
        eval_rows += split.y_test.len() as f64;
        predict_s += unit.predict_s;
        steps.extend(unit.step_secs.iter().map(|s| s * 1e3));
        confusion = unit.confusion;
    }
    report.metrics.push(m("rows_per_s", rows / fit_s, "rows/s"));
    latency(&mut report, "optimizer steps of 4000 rows", &steps);
    report
        .detail
        .push(m("train_samples_per_s", rows / fit_s, "samples/s"));
    report
        .detail
        .push(m("eval_rows_per_s", eval_rows / predict_s, "rows/s"));
    quality(&mut report, &confusion);
    report
}

/// Encodes `raw` and standardises with training-row statistics, exactly
/// as `pelican_data::train_test_split` does, keeping the encoder and
/// scaler for serving.
fn encode_split(
    raw: &RawDataset,
    train_idx: &[usize],
    test_idx: &[usize],
) -> (EncodedSplit, OneHotEncoder, Standardizer) {
    let encoder = OneHotEncoder::from_schema(raw.schema());
    let x_all = encoder.encode(raw);
    let x_train_raw = x_all.gather_rows(train_idx);
    let scaler = Standardizer::fit(&x_train_raw);
    let split = EncodedSplit {
        x_train: scaler.transform(&x_train_raw),
        y_train: train_idx.iter().map(|&i| raw.labels()[i]).collect(),
        x_test: scaler.transform(&x_all.gather_rows(test_idx)),
        y_test: test_idx.iter().map(|&i| raw.labels()[i]).collect(),
    };
    (split, encoder, scaler)
}

/// Shared shape of the traced training phase of every workload.
struct TracedFit<'a> {
    net_cfg: NetConfig,
    split: &'a EncodedSplit,
    batch: usize,
    epochs: usize,
    shuffle_seed: u64,
    /// Kernel workers for the traced steps (`None`: the ambient count).
    workers: Option<usize>,
}

/// Trains the traced network and the untraced library network on the
/// same schedule, alternating one step of each, checks they end
/// byte-identical, and reports per-layer step metrics, coverage and the
/// paired tracing overhead. Returns the trained traced network and the
/// untraced step times.
fn traced_fit(tf: &TracedFit, report: &mut Report) -> (impl Layer, Vec<f64>) {
    let (x, y) = (&tf.split.x_train, &tf.split.y_train[..]);
    let batches = schedule(x.shape()[0], tf.batch, tf.shuffle_seed, tf.epochs);
    let mut plain = build_network(&tf.net_cfg);
    let mut traced = traced_network(&tf.net_cfg);
    let (mut opt_plain, mut opt_traced) =
        (RmsProp::new(LEARNING_RATE), RmsProp::new(LEARNING_RATE));
    let mut untraced_secs = Vec::new();
    let mut ratios = Vec::new();
    trace::install();
    let mut run = || {
        for (i, rows) in batches.iter().enumerate() {
            let mut untraced = || trace::suspended(|| step(&mut plain, &mut opt_plain, x, y, rows));
            let (u, t) = if i % 2 == 0 {
                let u = untraced();
                (u, step(&mut traced, &mut opt_traced, x, y, rows))
            } else {
                let t = step(&mut traced, &mut opt_traced, x, y, rows);
                (untraced(), t)
            };
            report.attempted += 1;
            report.failed += u64::from(!t.1);
            untraced_secs.push(u.0);
            ratios.push(t.0 / u.0);
        }
    };
    match tf.workers {
        Some(w) => with_workers(w, run),
        None => run(),
    }
    let spans = trace::take();
    if pelican_nn::io::params_to_bytes(&mut traced).to_vec()
        != pelican_nn::io::params_to_bytes(&mut plain).to_vec()
    {
        report
            .errors
            .push("traced and untraced training diverged (params_to_bytes differ)".into());
    }
    drop(plain);
    step_metrics(report, &spans, &tf.net_cfg, tf.batch);
    report.metrics.push(m(
        "trace.overhead_pct",
        100.0 * (median(&ratios) - 1.0),
        "%",
    ));
    report.spans.extend(spans);
    (traced, untraced_secs)
}

/// `runtime.speedup_2w` for training: the median of three traced steps
/// of a fresh network at one worker over the same at two.
fn step_speedup(tf: &TracedFit, report: &mut Report) {
    let (x, y) = (&tf.split.x_train, &tf.split.y_train[..]);
    let mut median_step = |workers: usize| {
        trace::install();
        with_workers(workers, || {
            train_steps(
                &mut traced_network(&tf.net_cfg),
                x,
                y,
                tf.batch,
                tf.shuffle_seed,
                1,
                3,
            )
        });
        let spans = trace::take();
        let step = median_ns(&trace::root_durations(&spans, "nn.step"));
        report.spans.extend(spans);
        step
    };
    let two = median_step(2);
    let one = median_step(1);
    report.metrics.push(m("runtime.speedup_2w", one / two, "x"));
}

fn median_ns(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Median over steps of per-name self-time sums, in ms.
fn median_ms(per_root: &[std::collections::BTreeMap<&'static str, u64>], name: &str) -> f64 {
    let v: Vec<f64> = per_root
        .iter()
        .map(|s| s.get(name).copied().unwrap_or(0) as f64 / 1e6)
        .collect();
    median(&v)
}

/// Per-layer step metrics: ms per step for every family, forward and
/// backward, and useful GFLOP/s for the GEMM-heavy ones.
fn step_metrics(report: &mut Report, spans: &[Span], cfg: &NetConfig, batch: usize) {
    let steps = trace::self_times_by_root(spans, "nn.step");
    let durations = trace::root_durations(spans, "nn.step");
    for kind in Kind::ALL {
        let fam = kind.family();
        for dir in ["fwd", "bwd"] {
            let v = median_ms(&steps, &format!("nn.{fam}.{dir}"));
            report
                .metrics
                .push(m(format!("nn.{fam}.{dir}_ms"), v, "ms"));
        }
    }
    for (kind, fwd_flops) in useful_fwd_flops(cfg, batch) {
        let fam = kind.family();
        let ms = median_ms(&steps, &format!("nn.{fam}.fwd"))
            + median_ms(&steps, &format!("nn.{fam}.bwd"));
        // Backward is twice the forward.
        let gflops = 3.0 * fwd_flops / (ms * 1e6);
        report
            .metrics
            .push(m(format!("nn.{fam}.gflops"), gflops, "GFLOP/s"));
    }
    report.metrics.push(m(
        "nn.optim.step_ms",
        median_ms(&steps, "nn.optim.step"),
        "ms",
    ));
    report.metrics.push(m(
        "nn.optim.zero_grad_ms",
        median_ms(&steps, "nn.optim.zero_grad"),
        "ms",
    ));
    report
        .metrics
        .push(m("nn.loss.ms", median_ms(&steps, "nn.loss"), "ms"));
    let step_ms = median_ns(&durations) / 1e6;
    report.metrics.push(m("nn.step_ms", step_ms, "ms"));
    let total: u64 = durations.iter().sum();
    let uncovered: u64 = steps
        .iter()
        .map(|s| s.get("nn.step").copied().unwrap_or(0))
        .sum();
    report.metrics.push(m(
        "trace.coverage",
        1.0 - uncovered as f64 / total.max(1) as f64,
        "ratio",
    ));
    report.notes.push(format!(
        "traced steps: {} (median {step_ms:.3} ms)",
        durations.len()
    ));
}

/// Median per-layer self time of one Eval forward, over roots named
/// `root` (a `predict` batch, or a served window).
fn eval_metrics(report: &mut Report, spans: &[Span], root: &str) {
    let per = trace::self_times_by_root(spans, root);
    for kind in Kind::ALL {
        let fam = kind.family();
        let v = median_ms(&per, &format!("nn.{fam}.eval_fwd"));
        report
            .metrics
            .push(m(format!("nn.{fam}.eval_fwd_ms"), v, "ms"));
    }
    report
        .notes
        .push(format!("eval forwards traced: {} ({root})", per.len()));
}

/// Slowest and fastest fold, from each fold's training seconds.
fn fold_metrics(report: &mut Report, folds: &[f64]) {
    let max = folds.iter().copied().fold(f64::NAN, f64::max);
    let min = folds.iter().copied().fold(f64::NAN, f64::min);
    report.metrics.push(m("core.kfold.fold_s_max", max, "s"));
    report.metrics.push(m("core.kfold.fold_s_min", min, "s"));
}

fn train_traced(exp: &ExpConfig, net_cfg: &NetConfig, mut report: Report) -> Report {
    let t = Instant::now();
    let raw = exp.dataset.generate(exp.samples, exp.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (train_idx, test_idx) = holdout_indices(raw.len(), exp.test_fraction, exp.seed ^ 0xF01D);
    let (split, encoder, scaler) = encode_split(&raw, &train_idx, &test_idx);
    let encode_s = t.elapsed().as_secs_f64();
    warm_up(
        &mut build_network(net_cfg),
        &split.x_train,
        &split.y_train,
        exp.batch_size,
    );
    let tf = TracedFit {
        net_cfg: *net_cfg,
        split: &split,
        batch: exp.batch_size,
        epochs: exp.epochs,
        shuffle_seed: exp.seed ^ 0x5F5F,
        workers: None,
    };
    let (mut net, untraced_secs) = traced_fit(&tf, &mut report);
    step_speedup(&tf, &mut report);
    trace::install();
    let preds = predict(&mut net, &split.x_test, exp.batch_size);
    let spans = trace::take();
    eval_metrics(&mut report, &spans, "nn.glue.eval_fwd");
    report.spans.extend(spans);
    report.digest = Some(model_digest(&mut net, &preds));
    fold_metrics(&mut report, &[untraced_secs.iter().sum()]);
    data_metrics(&mut report, generate_s, encode_s);
    serve_probe(&mut report, net, encoder, scaler, &raw, || {
        TrafficStream::unswnb15(SERVE_CAMPAIGN_RATE, exp.seed)
    });
    report
}

fn data_metrics(report: &mut Report, generate_s: f64, encode_s: f64) {
    report.metrics.push(m("data.generate_s", generate_s, "s"));
    report.metrics.push(m("data.encode_s", encode_s, "s"));
}

// ---------------------------------------------------------------------
// serving (shared by the serve workload and the probes of the others)
// ---------------------------------------------------------------------

type Pipeline<L> = StreamingPipeline<FaultyDetector<NidsDetector<L>>, AllNormalFallback>;

fn pipeline<L: Layer>(
    net: L,
    encoder: OneHotEncoder,
    scaler: Standardizer,
    raw: &RawDataset,
) -> (Pipeline<L>, Rc<RefCell<DetectorClock>>) {
    let clock = Rc::new(RefCell::new(DetectorClock::default()));
    let primary = NidsDetector {
        net,
        encoder,
        scaler,
        schema: raw.schema().clone(),
        clock: clock.clone(),
    };
    let faulty = FaultyDetector::new(primary, CHAOS_SEED, 0.0)
        .with_schedule(ChaosSchedule::new(chaos(), CHAOS_SEED));
    (
        StreamingPipeline::new(faulty, AllNormalFallback, PipelineConfig::default()),
        clock,
    )
}

fn serve_layer_metrics(report: &mut Report, out: &ServeOutcome, clock: &DetectorClock) {
    report
        .metrics
        .push(m("data.window_encode_ms", median(&clock.encode_ms), "ms"));
    report.metrics.push(m(
        "simulator.detector.classify_ms_p50",
        percentile(&clock.classify_ms, 0.5),
        "ms",
    ));
    report.metrics.push(m(
        "simulator.detector.classify_ms_p99",
        percentile(&clock.classify_ms, 0.99),
        "ms",
    ));
    report.metrics.push(m(
        "simulator.pipeline.self_us_p50",
        percentile(&out.self_us, 0.5),
        "us",
    ));
    let waits: Vec<f64> = out
        .queue_wait_ms
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    report.metrics.push(m(
        "simulator.pipeline.queue_wait_ms_p50",
        percentile(&waits, 0.5),
        "ms",
    ));
    report.metrics.push(m(
        "simulator.pipeline.primary_share",
        out.primary as f64 / out.windows.max(1) as f64,
        "ratio",
    ));
    report
        .metrics
        .push(m("loadgen.lag_ms_max", out.lag_ms_max, "ms"));
}

/// Deploys a trained traced network behind the pipeline for
/// [`PROBE_WINDOWS`] windows, for the serving-layer metrics.
fn serve_probe<L: Layer>(
    report: &mut Report,
    net: L,
    encoder: OneHotEncoder,
    scaler: Standardizer,
    raw: &RawDataset,
    stream: impl FnOnce() -> TrafficStream,
) {
    let (mut pipe, clock) = pipeline(net, encoder, scaler, raw);
    let mut stream = stream();
    let load = LoadShape {
        rate_hz: SERVE_RATE_HZ,
        windows: PROBE_WINDOWS,
        background: SERVE_BACKGROUND,
    };
    let out = with_workers(SERVE_WORKERS, || {
        run_open_loop(&mut pipe, &mut stream, load, &clock)
    });
    report.attempted += out.windows as u64;
    report.failed += out.failed as u64;
    report.degraded += out.degraded as u64;
    serve_layer_metrics(report, &out, &clock.borrow());
}

// ---------------------------------------------------------------------
// kfold-nsl-r21-b64
// ---------------------------------------------------------------------

const KFOLD_BLOCKS: usize = 5;
const KFOLD_K: usize = 10;
const KFOLD_SAMPLES: usize = 2000;
const KFOLD_EPOCHS: usize = 2;
const KFOLD_BATCH: usize = 64;

fn kfold_exp(seed: u64) -> ExpConfig {
    let mut cfg = ExpConfig::paper(DatasetKind::NslKdd);
    cfg.samples = KFOLD_SAMPLES;
    cfg.epochs = KFOLD_EPOCHS;
    cfg.batch_size = KFOLD_BATCH;
    cfg.seed = seed;
    cfg
}

/// Steps and training rows (times epochs) of one `run_kfold`, over every
/// fold.
fn kfold_work(exp: &ExpConfig, records: usize) -> (u64, usize) {
    KFold::new(KFOLD_K, exp.seed ^ 0xF01D)
        .splits(records)
        .iter()
        .map(|(train, _)| {
            let steps = train.len().div_ceil(exp.batch_size) * exp.epochs;
            (steps as u64, train.len() * exp.epochs)
        })
        .fold((0, 0), |(s, r), (ds, dr)| (s + ds, r + dr))
}

fn kfold_digest(r: &pelican_core::experiment::KFoldResult) -> String {
    let mut d = crate::util::Digest::new();
    for f in &r.folds {
        let c = f.confusion;
        d.usizes(&[c.tp, c.tn, c.fp, c.fn_]);
        d.f32(f.multiclass_acc);
        for e in &f.history.epochs {
            d.f32(e.train_loss);
            d.f32(e.train_acc);
            d.f32(e.test_loss.unwrap_or(f32::NAN));
            d.f32(e.test_acc.unwrap_or(f32::NAN));
        }
    }
    d.hex()
}

pub fn kfold(spec: RunSpec) -> Report {
    let seed = spec.seed;
    let exp = kfold_exp(seed);
    let ds = exp.dataset;
    let arch = Arch::Residual {
        blocks: KFOLD_BLOCKS,
    };
    let mut report = Report::default();
    if spec.traced {
        return kfold_traced(&exp, arch, report);
    }
    let raw_len = timed_setup(&mut report, || {
        let raw = ds.generate(exp.samples, exp.seed);
        let (train_idx, test_idx) = &KFold::new(KFOLD_K, exp.seed ^ 0xF01D).splits(raw.len())[0];
        let split = pelican_data::train_test_split(&raw, train_idx, test_idx);
        let mut net = build_network(&net_config(
            ds.encoded_width(),
            ds.classes(),
            KFOLD_BLOCKS,
            seed,
        ));
        pelican_runtime::Pool::current().map(pelican_runtime::current_workers(), |_| ());
        with_workers(1, || {
            warm_up(&mut net, &split.x_train, &split.y_train, exp.batch_size)
        });
        raw.len()
    });
    let (steps_per_unit, rows_per_unit) = kfold_work(&exp, raw_len);
    let start = Instant::now();
    let (mut rows, mut wall) = (0.0, 0.0);
    let mut epochs_ms = Vec::new();
    let mut total = Confusion::default();
    let mut last = 0.0;
    while report.attempted == 0 || time_left(start, spec.seconds, last) {
        let t = Instant::now();
        let run = std::panic::catch_unwind(|| run_kfold(arch, &exp, KFOLD_K));
        last = t.elapsed().as_secs_f64();
        report.attempted += steps_per_unit;
        match run {
            Ok(r) => {
                report.check_digest(&kfold_digest(&r));
                rows += rows_per_unit as f64;
                wall += last;
                for f in &r.folds {
                    epochs_ms.extend(f.history.epoch_secs.iter().map(|s| s * 1e3));
                }
                total = r.total;
            }
            Err(_) => {
                report.failed += steps_per_unit;
                report.errors.push("run_kfold panicked".into());
            }
        }
        first_unit_rss(&mut report);
    }
    report.metrics.push(m("rows_per_s", rows / wall, "rows/s"));
    latency(
        &mut report,
        "fold-epochs (one fold's pass over its training rows)",
        &epochs_ms,
    );
    report
        .detail
        .push(m("train_samples_per_s", rows / wall, "samples/s"));
    quality(&mut report, &total);
    report
}

fn kfold_traced(exp: &ExpConfig, arch: Arch, mut report: Report) -> Report {
    let ds = exp.dataset;
    let t = Instant::now();
    let raw = ds.generate(exp.samples, exp.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let splits = KFold::new(KFOLD_K, exp.seed ^ 0xF01D).splits(raw.len());
    let (split, encoder, scaler) = encode_split(&raw, &splits[0].0, &splits[0].1);
    let encode_s = t.elapsed().as_secs_f64();
    // Fold 0 as `run_kfold` trains it, on one worker.
    let net_cfg = net_config(
        ds.encoded_width(),
        ds.classes(),
        KFOLD_BLOCKS,
        pelican_runtime::stream_seed(exp.seed, 0),
    );
    with_workers(1, || {
        warm_up(
            &mut build_network(&net_cfg),
            &split.x_train,
            &split.y_train,
            exp.batch_size,
        )
    });
    let tf = TracedFit {
        net_cfg,
        split: &split,
        batch: exp.batch_size,
        epochs: exp.epochs,
        shuffle_seed: pelican_runtime::stream_seed(exp.seed ^ 0x5F5F, 0),
        workers: Some(1),
    };
    let (mut net, _) = traced_fit(&tf, &mut report);
    step_speedup(&tf, &mut report);
    trace::install();
    with_workers(1, || predict(&mut net, &split.x_test, exp.batch_size));
    let spans = trace::take();
    eval_metrics(&mut report, &spans, "nn.glue.eval_fwd");
    report.spans.extend(spans);
    let r = run_kfold(arch, exp, KFOLD_K);
    report.digest = Some(kfold_digest(&r));
    let folds: Vec<f64> = r
        .folds
        .iter()
        .map(|f| f.history.total_train_secs())
        .collect();
    fold_metrics(&mut report, &folds);
    data_metrics(&mut report, generate_s, encode_s);
    serve_probe(&mut report, net, encoder, scaler, &raw, || {
        TrafficStream::nslkdd(SERVE_CAMPAIGN_RATE, exp.seed)
    });
    report
}

// ---------------------------------------------------------------------
// serve-unsw-r41-stream
// ---------------------------------------------------------------------

const SERVE_BLOCKS: usize = 10;
/// The detector's one short training epoch.
const SERVE_TRAIN_ROWS: usize = 2000;
const SERVE_TRAIN_BATCH: usize = 250;

struct ServeSetup {
    raw: RawDataset,
    split: EncodedSplit,
    encoder: OneHotEncoder,
    scaler: Standardizer,
    net_cfg: NetConfig,
    history: History,
    generate_s: f64,
    encode_s: f64,
}

/// Generates and encodes the detector's training data and trains a
/// Residual-41 on it for one epoch with `Trainer::fit`.
fn serve_setup(seed: u64, report: &mut Report) -> (ServeSetup, pelican_nn::Sequential) {
    let ds = DatasetKind::UnswNb15;
    let t = Instant::now();
    let raw = ds.generate(SERVE_TRAIN_ROWS, seed);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let all: Vec<usize> = (0..raw.len()).collect();
    let (split, encoder, scaler) = encode_split(&raw, &all, &all[..0]);
    let encode_s = t.elapsed().as_secs_f64();
    let net_cfg = net_config(ds.encoded_width(), ds.classes(), SERVE_BLOCKS, seed);
    let mut net = build_network(&net_cfg);
    let history = Trainer::new(TrainerConfig {
        epochs: 1,
        batch_size: SERVE_TRAIN_BATCH,
        shuffle_seed: seed ^ 0x5F5F,
        ..Default::default()
    })
    .fit(
        &mut net,
        &SoftmaxCrossEntropy,
        &mut RmsProp::new(LEARNING_RATE),
        &split.x_train,
        &split.y_train,
        None,
    )
    .unwrap_or_else(|e| {
        report.errors.push(format!("detector training failed: {e}"));
        History::default()
    });
    let setup = ServeSetup {
        raw,
        split,
        encoder,
        scaler,
        net_cfg,
        history,
        generate_s,
        encode_s,
    };
    (setup, net)
}

/// The serving load: [`SERVE_RATE_HZ`] windows per second for `seconds`,
/// and never fewer than the [`DIGEST_WINDOWS`] the digest covers.
fn serve_load(spec: &RunSpec) -> LoadShape {
    LoadShape {
        rate_hz: SERVE_RATE_HZ,
        windows: ((SERVE_RATE_HZ * spec.seconds).round() as usize).max(DIGEST_WINDOWS),
        background: SERVE_BACKGROUND,
    }
}

pub fn serve(spec: RunSpec) -> Report {
    let seed = spec.seed;
    let mut report = Report::default();
    if spec.traced {
        return serve_traced(spec, report);
    }
    let mut errors = Vec::new();
    let (mut pipe, clock) = timed_setup(&mut report, || {
        let mut sub = Report::default();
        let (s, mut net) = serve_setup(seed, &mut sub);
        errors.extend(sub.errors);
        // Warm-up: Eval forwards at the serving batch size.
        let rows: Vec<usize> = (0..SERVE_BACKGROUND).collect();
        let x = s.split.x_train.gather_rows(&rows);
        with_workers(SERVE_WORKERS, || {
            for _ in 0..3 {
                predict(&mut net, &x, 256);
            }
        });
        pipeline(net, s.encoder, s.scaler, &s.raw)
    });
    report.errors.extend(errors);
    let mut stream = TrafficStream::unswnb15(SERVE_CAMPAIGN_RATE, seed);
    let out = with_workers(SERVE_WORKERS, || {
        run_open_loop(&mut pipe, &mut stream, serve_load(&spec), &clock)
    });
    first_unit_rss(&mut report);
    report.attempted = out.windows as u64;
    report.failed = out.failed as u64;
    report.degraded = out.degraded as u64;
    report.digest = Some(out.digest.clone());
    report
        .metrics
        .push(m("rows_per_s", median(&out.primary_rate), "rows/s"));
    let served = latency(&mut report, "windows, open loop", &out.latency_ms);
    report
        .detail
        .push(m("serve_flows_per_s", median(&out.primary_rate), "flows/s"));
    report
        .detail
        .push(m("window_latency_p50_ms", percentile(&served, 0.5), "ms"));
    report
        .detail
        .push(m("window_latency_p99_ms", percentile(&served, 0.99), "ms"));
    quality(&mut report, &out.confusion);
    report.notes.push(format!(
        "windows {} (primary {}, fallback {}, failed {}), flows {} (primary {}), offered {SERVE_RATE_HZ} windows/s, generator lag max {:.3} ms",
        out.windows,
        out.primary,
        out.degraded,
        out.failed,
        out.flows,
        out.primary_flows,
        out.lag_ms_max
    ));
    report
}

fn serve_traced(spec: RunSpec, mut report: Report) -> Report {
    let seed = spec.seed;
    let (s, _) = serve_setup(seed, &mut report);
    let (net, _) = traced_fit(
        &TracedFit {
            net_cfg: s.net_cfg,
            split: &s.split,
            batch: SERVE_TRAIN_BATCH,
            epochs: 1,
            shuffle_seed: seed ^ 0x5F5F,
            workers: None,
        },
        &mut report,
    );
    let (mut pipe, clock) = pipeline(net, s.encoder.clone(), s.scaler.clone(), &s.raw);
    let mut stream = TrafficStream::unswnb15(SERVE_CAMPAIGN_RATE, seed);
    trace::install();
    let out = with_workers(SERVE_WORKERS, || {
        run_open_loop(&mut pipe, &mut stream, serve_load(&spec), &clock)
    });
    let spans = trace::take();
    report.attempted += out.windows as u64;
    report.failed += out.failed as u64;
    report.degraded += out.degraded as u64;
    report.digest = Some(out.digest.clone());
    eval_metrics(&mut report, &spans, "serve.classify");
    report.spans.extend(spans);
    serve_layer_metrics(&mut report, &out, &clock.borrow());
    fold_metrics(&mut report, &[s.history.total_train_secs()]);
    data_metrics(&mut report, s.generate_s, s.encode_s);

    // `runtime.speedup_2w`: the serving unit of work is one window's
    // classify, at one worker against two.
    let mut det = NidsDetector {
        net: build_network(&s.net_cfg),
        encoder: s.encoder,
        scaler: s.scaler,
        schema: s.raw.schema().clone(),
        clock: Rc::new(RefCell::new(DetectorClock::default())),
    };
    let mut probe = TrafficStream::unswnb15(SERVE_CAMPAIGN_RATE, seed ^ 0xA11);
    let windows: Vec<_> = (0..60)
        .map(|_| probe.next_window(SERVE_BACKGROUND))
        .collect();
    let mut timed = |workers: usize| {
        with_workers(workers, || {
            let t: Vec<f64> = windows
                .iter()
                .map(|w| {
                    let t = Instant::now();
                    pelican_simulator::Detector::classify(&mut det, w);
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&t[10..])
        })
    };
    let w2 = timed(2);
    let w1 = timed(1);
    report.metrics.push(m("runtime.speedup_2w", w1 / w2, "x"));
    report
}

#[cfg(test)]
mod tests {
    use super::tail_quantile;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(1200), 0.99);
        assert_eq!(tail_quantile(160), 0.90);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(18), 0.5);
    }
}
