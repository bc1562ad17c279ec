//! The shared experiment harness behind every table and figure.
//!
//! A single entry point, [`run_network`], reproduces one cell of the
//! paper's evaluation: generate the dataset, preprocess it (one-hot +
//! standardise), train one architecture with the Table-I parameters, and
//! measure the Section V-B metrics on the held-out fold.
//!
//! Because pure-Rust CPU training cannot match the paper's absolute scale
//! (257k records × 100 epochs × 41 layers), configurations come in two
//! flavours: [`ExpConfig::paper`] carries the exact Table-I values, and
//! [`ExpConfig::scaled`] shrinks samples/epochs to laptop scale while
//! preserving the *comparative* experiment (same widths, same depths, same
//! optimizer). The scale can be raised with environment variables:
//!
//! | Variable | Effect |
//! |---|---|
//! | `PELICAN_SAMPLES` | records generated per dataset |
//! | `PELICAN_EPOCHS` | training epochs |
//! | `PELICAN_BATCH` | minibatch size |
//! | `PELICAN_SCALE` | multiplies samples *and* epochs |
//! | `PELICAN_NO_CACHE` | disable the on-disk run cache |
//!
//! Runs are cached under `target/pelican-cache/` keyed by the full
//! configuration, so the Table II/III/IV and Fig. 5 benches share one set
//! of training runs instead of retraining per table.

use crate::metrics::{Confusion, ConfusionMatrix};
use crate::models::{build_network, NetConfig};
use pelican_data::{holdout_indices, train_test_split, RawDataset};
use pelican_nn::loss::SoftmaxCrossEntropy;
use pelican_nn::optim::RmsProp;
use pelican_nn::{predict, History, Trainer, TrainerConfig};
use pelican_runtime::{stream_seed, tree_reduce, with_workers, Pool};
use std::fmt;
use std::path::PathBuf;

/// Which of the two evaluation datasets to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// NSL-KDD: 121 encoded features, 5 classes, the easy dataset.
    NslKdd,
    /// UNSW-NB15: 196 encoded features, 10 classes, the hard dataset.
    UnswNb15,
}

impl DatasetKind {
    /// Dataset display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::NslKdd => "NSL-KDD",
            DatasetKind::UnswNb15 => "UNSW-NB15",
        }
    }

    /// One-hot encoded feature width (paper Section V-C).
    pub fn encoded_width(self) -> usize {
        match self {
            DatasetKind::NslKdd => pelican_data::nslkdd::ENCODED_WIDTH,
            DatasetKind::UnswNb15 => pelican_data::unswnb15::ENCODED_WIDTH,
        }
    }

    /// Number of traffic classes.
    pub fn classes(self) -> usize {
        match self {
            DatasetKind::NslKdd => 5,
            DatasetKind::UnswNb15 => 10,
        }
    }

    /// Generates `n` synthetic records.
    pub fn generate(self, n: usize, seed: u64) -> RawDataset {
        match self {
            DatasetKind::NslKdd => pelican_data::nslkdd::generate(n, seed),
            DatasetKind::UnswNb15 => pelican_data::unswnb15::generate(n, seed),
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One of the four evaluated architectures (Section V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// A stack of plain blocks (Fig. 4a).
    Plain {
        /// Number of blocks (5 → Plain-21, 10 → Plain-41).
        blocks: usize,
    },
    /// A stack of residual blocks (Fig. 4b).
    Residual {
        /// Number of blocks (5 → Residual-21, 10 → Residual-41/Pelican).
        blocks: usize,
    },
}

impl Arch {
    /// The paper's name for this architecture.
    pub fn paper_name(self) -> String {
        match self {
            Arch::Plain { blocks } => format!("Plain-{}", blocks * 4 + 1),
            Arch::Residual { blocks: 10 } => "Residual-41 (Pelican)".to_string(),
            Arch::Residual { blocks } => format!("Residual-{}", blocks * 4 + 1),
        }
    }

    /// Parameter-layer count in the paper's counting.
    pub fn param_layers(self) -> usize {
        match self {
            Arch::Plain { blocks } | Arch::Residual { blocks } => blocks * 4 + 1,
        }
    }

    /// Number of blocks.
    pub fn blocks(self) -> usize {
        match self {
            Arch::Plain { blocks } | Arch::Residual { blocks } => blocks,
        }
    }

    /// Whether the blocks carry residual shortcuts.
    pub fn is_residual(self) -> bool {
        matches!(self, Arch::Residual { .. })
    }

    /// The four networks of Tables II–IV, in the paper's column order.
    pub fn paper_lineup() -> [Arch; 4] {
        [
            Arch::Plain { blocks: 5 },
            Arch::Residual { blocks: 5 },
            Arch::Plain { blocks: 10 },
            Arch::Residual { blocks: 10 },
        ]
    }
}

/// Full configuration of one experiment run (Table I plus scale knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpConfig {
    /// Dataset to generate and evaluate on.
    pub dataset: DatasetKind,
    /// Records to generate.
    pub samples: usize,
    /// Training epochs (Table I: 100 for UNSW-NB15, 50 for NSL-KDD).
    pub epochs: usize,
    /// Minibatch size (Table I: 4000).
    pub batch_size: usize,
    /// RMSprop learning rate (Table I: 0.01).
    pub learning_rate: f32,
    /// Convolution kernel size (Table I: 10).
    pub kernel: usize,
    /// Dropout rate (Table I: 0.6).
    pub dropout: f32,
    /// Held-out fraction; 0.1 matches one fold of the paper's 10-fold
    /// cross-validation.
    pub test_fraction: f32,
    /// Master seed (data, weights, shuffles).
    pub seed: u64,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn env_f32(name: &str) -> Option<f32> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

impl ExpConfig {
    /// The exact Table-I configuration (full paper scale — hours of CPU
    /// time per network in this implementation; use for fidelity checks).
    pub fn paper(dataset: DatasetKind) -> Self {
        let (samples, epochs) = match dataset {
            DatasetKind::NslKdd => (pelican_data::nslkdd::PAPER_RECORD_COUNT, 50),
            DatasetKind::UnswNb15 => (pelican_data::unswnb15::PAPER_RECORD_COUNT, 100),
        };
        Self {
            dataset,
            samples,
            epochs,
            batch_size: 4000,
            learning_rate: 0.01,
            kernel: 10,
            dropout: 0.6,
            test_fraction: 0.1,
            seed: 42,
        }
    }

    /// A laptop-scale configuration preserving the comparative structure,
    /// adjustable through the `PELICAN_*` environment variables.
    pub fn scaled(dataset: DatasetKind) -> Self {
        let scale = env_f32("PELICAN_SCALE").unwrap_or(1.0).max(0.01);
        let base_samples = 3000;
        let base_epochs = match dataset {
            DatasetKind::NslKdd => 8,
            DatasetKind::UnswNb15 => 20,
        };
        let samples = env_usize("PELICAN_SAMPLES")
            .unwrap_or_else(|| ((base_samples as f32) * scale).round() as usize)
            .max(50);
        let epochs = env_usize("PELICAN_EPOCHS")
            .unwrap_or_else(|| ((base_epochs as f32) * scale).ceil() as usize)
            .max(1);
        let batch_size = env_usize("PELICAN_BATCH").unwrap_or(250).max(1);
        Self {
            dataset,
            samples,
            epochs,
            batch_size,
            learning_rate: 0.01,
            kernel: 10,
            dropout: 0.6,
            test_fraction: 0.1,
            seed: 42,
        }
    }

    /// Stable cache key covering every field that affects the result.
    fn cache_key(&self, arch: Arch) -> String {
        format!(
            "{}-{}-s{}-e{}-b{}-lr{}-k{}-d{}-t{}-seed{}",
            self.dataset.name().replace('/', "_"),
            arch.paper_name().replace([' ', '(', ')'], ""),
            self.samples,
            self.epochs,
            self.batch_size,
            self.learning_rate,
            self.kernel,
            self.dropout,
            self.test_fraction,
            self.seed
        )
    }
}

/// Everything measured from one training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The architecture that was trained.
    pub arch_name: String,
    /// Per-epoch train/test loss and accuracy (Fig. 5 series).
    pub history: History,
    /// Binary attack-vs-normal confusion on the held-out fold
    /// (Tables II–IV).
    pub confusion: Confusion,
    /// Multi-class accuracy on the held-out fold.
    pub multiclass_acc: f32,
}

/// Generates the dataset of `cfg`, preprocesses it and returns the
/// train/test split (one 10%-held-out fold).
pub fn prepare_split(cfg: &ExpConfig) -> pelican_data::EncodedSplit {
    let raw = cfg.dataset.generate(cfg.samples, cfg.seed);
    let (train_idx, test_idx) = holdout_indices(raw.len(), cfg.test_fraction, cfg.seed ^ 0xF01D);
    train_test_split(&raw, &train_idx, &test_idx)
}

/// Trains `arch` under `cfg` and measures the paper's metrics.
///
/// This is the uncached worker; benches go through [`cached_run`].
pub fn run_network(arch: Arch, cfg: &ExpConfig) -> RunResult {
    let split = prepare_split(cfg);
    let verbose = std::env::var("PELICAN_VERBOSE").is_ok();
    let seeds = (cfg.seed, cfg.seed ^ 0x5F5F);
    train_and_score(arch, cfg, &split, seeds, verbose, &arch.paper_name())
}

/// Builds `arch` for `cfg` with weight seed `seeds.0`, trains it on
/// `split` with shuffle seed `seeds.1` (tracking the held-out rows each
/// epoch), and measures the paper's metrics on the held-out rows. A
/// training failure panics naming the run by `label`.
fn train_and_score(
    arch: Arch,
    cfg: &ExpConfig,
    split: &pelican_data::EncodedSplit,
    (seed, shuffle_seed): (u64, u64),
    verbose: bool,
    label: &str,
) -> RunResult {
    let mut net = build_network(&NetConfig {
        in_features: cfg.dataset.encoded_width(),
        classes: cfg.dataset.classes(),
        blocks: arch.blocks(),
        residual: arch.is_residual(),
        kernel: cfg.kernel,
        dropout: cfg.dropout,
        seed,
    });
    let trainer = Trainer::new(TrainerConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        shuffle_seed,
        verbose,
        ..Default::default()
    });
    let mut opt = RmsProp::new(cfg.learning_rate);
    let history = trainer
        .fit(
            &mut net,
            &SoftmaxCrossEntropy,
            &mut opt,
            &split.x_train,
            &split.y_train,
            Some((&split.x_test, &split.y_test)),
        )
        .unwrap_or_else(|e| panic!("training {label} failed: {e}"));
    let preds = predict(&mut net, &split.x_test, cfg.batch_size);
    let normal = 0; // class 0 is Normal in both schemas
    let confusion = Confusion::from_predictions(&preds, &split.y_test, normal);
    let matrix = ConfusionMatrix::from_predictions(&preds, &split.y_test, cfg.dataset.classes());
    RunResult {
        arch_name: arch.paper_name(),
        history,
        confusion,
        multiclass_acc: matrix.accuracy(),
    }
}

/// Aggregated result of a full k-fold cross-validation (the paper's
/// actual protocol, Section V-A step 3).
#[derive(Debug, Clone)]
pub struct KFoldResult {
    /// Per-fold results, in fold order.
    pub folds: Vec<RunResult>,
    /// Confusion counts summed over every fold (each record is tested
    /// exactly once, so this is the whole-dataset confusion).
    pub total: Confusion,
    /// Mean multi-class accuracy across folds.
    pub mean_multiclass_acc: f32,
}

/// Trains and evaluates one cross-validation fold. Every seed is derived
/// from the master seed and the fold id through [`stream_seed`], so each
/// fold owns a decorrelated RNG stream that is a pure function of
/// `(cfg.seed, fold_id)` — independent of which worker runs the fold, or
/// in what order.
fn run_fold(
    arch: Arch,
    cfg: &ExpConfig,
    raw: &RawDataset,
    fold_id: usize,
    train_idx: &[usize],
    test_idx: &[usize],
) -> RunResult {
    let split = train_test_split(raw, train_idx, test_idx);
    let seeds = (
        stream_seed(cfg.seed, fold_id as u64),
        stream_seed(cfg.seed ^ 0x5F5F, fold_id as u64),
    );
    let label = format!("{} fold {fold_id}", arch.paper_name());
    train_and_score(arch, cfg, &split, seeds, false, &label)
}

/// Runs the complete k-fold protocol: trains a fresh network per fold and
/// aggregates the confusion counts, exactly as the paper's Table II
/// (which reports *totals* over the cross-validation).
///
/// Folds are independent, so they run concurrently on the ambient
/// [`pelican_runtime`] worker pool (`PELICAN_THREADS` workers). Each fold
/// installs a serial execution scope for its own tensor kernels — the
/// parallelism budget goes to fold concurrency, the coarsest grain.
/// Results are aggregated in fold order with a fixed-order
/// [`tree_reduce`], so the outcome is bit-identical at every worker count.
///
/// `cfg.test_fraction` is ignored — the fold structure defines the splits.
///
/// # Panics
///
/// Panics if `k < 2`, the dataset has fewer than `k` records, or any
/// fold's training run fails.
pub fn run_kfold(arch: Arch, cfg: &ExpConfig, k: usize) -> KFoldResult {
    let raw = cfg.dataset.generate(cfg.samples, cfg.seed);
    let splits = pelican_data::KFold::new(k, cfg.seed ^ 0xF01D).splits(raw.len());
    // With observability live, each fold records into its own recorder;
    // the per-fold snapshots are folded in fold order by `tree_reduce`
    // and absorbed into the ambient recorder as one report, so the merged
    // result is independent of which worker ran which fold.
    let observing = pelican_observe::enabled();
    let outcomes = Pool::current().map(splits.len(), |fold_id| {
        let (train_idx, test_idx) = &splits[fold_id];
        // Worker threads carry no execution override; pin the fold's own
        // kernels to the serial path so k concurrent folds cannot
        // oversubscribe the machine.
        let run = || {
            with_workers(1, || {
                run_fold(arch, cfg, &raw, fold_id, train_idx, test_idx)
            })
        };
        if observing {
            let rec = std::sync::Arc::new(pelican_observe::InMemoryRecorder::new());
            let fold = pelican_observe::with_recorder(rec.clone(), run);
            (fold, pelican_observe::Recorder::snapshot(&*rec))
        } else {
            (run(), None)
        }
    });
    let (folds, snaps): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    if observing {
        let merged = tree_reduce(
            snaps.into_iter().flatten().collect(),
            pelican_observe::Snapshot::merged,
        );
        if let Some(merged) = merged {
            pelican_observe::current().absorb(merged);
        }
    }
    let total = tree_reduce(folds.iter().map(|f| f.confusion).collect(), |mut a, b| {
        a.merge(&b);
        a
    })
    .unwrap_or_default();
    let acc_sum: f32 = folds.iter().map(|f| f.multiclass_acc).sum();
    KFoldResult {
        total,
        mean_multiclass_acc: acc_sum / k as f32,
        folds,
    }
}

// ---------------------------------------------------------------------
// On-disk run cache (plain key=value text; no extra dependencies).
// ---------------------------------------------------------------------

fn cache_dir() -> PathBuf {
    // Anchor at the workspace target directory rather than the process'
    // working directory: cargo runs bench/test binaries from their own
    // package roots, and a relative "target" would scatter caches (and
    // worse, survive a `rm -rf target/pelican-cache` at the root).
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    PathBuf::from(target).join("pelican-cache")
}

fn serialize_result(r: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("arch {}\n", r.arch_name));
    out.push_str(&format!(
        "confusion {} {} {} {}\n",
        r.confusion.tp, r.confusion.tn, r.confusion.fp, r.confusion.fn_
    ));
    out.push_str(&format!("multiclass_acc {}\n", r.multiclass_acc));
    for e in &r.history.epochs {
        out.push_str(&format!(
            "epoch {} {} {} {} {} {}\n",
            e.epoch,
            e.train_loss,
            e.train_acc,
            e.test_loss.unwrap_or(f32::NAN),
            e.test_acc.unwrap_or(f32::NAN),
            e.recoveries,
        ));
    }
    if !r.history.epoch_secs.is_empty() {
        out.push_str("epoch_secs");
        for s in &r.history.epoch_secs {
            out.push_str(&format!(" {s}"));
        }
        out.push('\n');
    }
    out
}

fn deserialize_result(text: &str) -> Option<RunResult> {
    let mut arch_name = String::new();
    let mut confusion = Confusion::default();
    let mut multiclass_acc = 0.0f32;
    let mut history = History::default();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        match parts.next()? {
            "arch" => arch_name = line[5..].to_string(),
            "confusion" => {
                confusion.tp = parts.next()?.parse().ok()?;
                confusion.tn = parts.next()?.parse().ok()?;
                confusion.fp = parts.next()?.parse().ok()?;
                confusion.fn_ = parts.next()?.parse().ok()?;
            }
            "multiclass_acc" => multiclass_acc = parts.next()?.parse().ok()?,
            "epoch" => {
                let epoch: usize = parts.next()?.parse().ok()?;
                let train_loss: f32 = parts.next()?.parse().ok()?;
                let train_acc: f32 = parts.next()?.parse().ok()?;
                let tl: f32 = parts.next()?.parse().ok()?;
                let ta: f32 = parts.next()?.parse().ok()?;
                // Caches written before the recovery counters existed lack
                // the sixth field; treat those epochs as fault-free.
                let recoveries: usize = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                history.epochs.push(pelican_nn::EpochStats {
                    epoch,
                    train_loss,
                    train_acc,
                    test_loss: if tl.is_nan() { None } else { Some(tl) },
                    test_acc: if ta.is_nan() { None } else { Some(ta) },
                    recoveries,
                });
                history.total_recoveries += recoveries;
            }
            // Wall-clock seconds per epoch (caches written before the
            // field existed simply lack the line).
            "epoch_secs" => {
                for v in parts {
                    history.epoch_secs.push(v.parse().ok()?);
                }
            }
            _ => return None,
        }
    }
    if arch_name.is_empty() {
        return None;
    }
    Some(RunResult {
        arch_name,
        history,
        confusion,
        multiclass_acc,
    })
}

/// Like [`run_network`] but memoised on disk, so the Table II/III/IV and
/// Fig. 5 benches share one set of training runs. Set `PELICAN_NO_CACHE`
/// to force retraining.
pub fn cached_run(arch: Arch, cfg: &ExpConfig) -> RunResult {
    if std::env::var("PELICAN_NO_CACHE").is_ok() {
        return run_network(arch, cfg);
    }
    let dir = cache_dir();
    let path = dir.join(format!("{}.run", cfg.cache_key(arch)));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Some(result) = deserialize_result(&text) {
            return result;
        }
    }
    let result = run_network(arch, cfg);
    if std::fs::create_dir_all(&dir).is_ok() {
        // Cache write failures are non-fatal: the result is still returned.
        let _ = std::fs::write(&path, serialize_result(&result));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_names_match_paper() {
        assert_eq!(Arch::Plain { blocks: 5 }.paper_name(), "Plain-21");
        assert_eq!(Arch::Residual { blocks: 5 }.paper_name(), "Residual-21");
        assert_eq!(Arch::Plain { blocks: 10 }.paper_name(), "Plain-41");
        assert_eq!(
            Arch::Residual { blocks: 10 }.paper_name(),
            "Residual-41 (Pelican)"
        );
    }

    #[test]
    fn paper_config_matches_table_one() {
        let unsw = ExpConfig::paper(DatasetKind::UnswNb15);
        assert_eq!(unsw.epochs, 100);
        assert_eq!(unsw.batch_size, 4000);
        assert_eq!(unsw.learning_rate, 0.01);
        assert_eq!(unsw.dropout, 0.6);
        assert_eq!(unsw.kernel, 10);
        let nsl = ExpConfig::paper(DatasetKind::NslKdd);
        assert_eq!(nsl.epochs, 50);
        assert_eq!(nsl.samples, 148_516);
    }

    #[test]
    fn dataset_kind_metadata() {
        assert_eq!(DatasetKind::NslKdd.encoded_width(), 121);
        assert_eq!(DatasetKind::UnswNb15.encoded_width(), 196);
        assert_eq!(DatasetKind::NslKdd.classes(), 5);
        assert_eq!(DatasetKind::UnswNb15.classes(), 10);
        assert_eq!(DatasetKind::UnswNb15.to_string(), "UNSW-NB15");
    }

    #[test]
    fn lineup_is_the_four_networks() {
        let lineup = Arch::paper_lineup();
        assert_eq!(lineup.len(), 4);
        assert_eq!(lineup[0].param_layers(), 21);
        assert_eq!(lineup[3].param_layers(), 41);
        assert!(lineup[3].is_residual());
        assert!(!lineup[2].is_residual());
    }

    #[test]
    fn result_serialization_round_trips() {
        let result = RunResult {
            arch_name: "Residual-41 (Pelican)".into(),
            history: History {
                epochs: vec![pelican_nn::EpochStats {
                    epoch: 1,
                    train_loss: 0.5,
                    train_acc: 0.8,
                    test_loss: Some(0.6),
                    test_acc: Some(0.75),
                    recoveries: 2,
                }],
                epoch_secs: vec![1.25],
                total_recoveries: 2,
                resumed_from_epoch: None,
            },
            confusion: Confusion {
                tp: 10,
                tn: 20,
                fp: 3,
                fn_: 2,
            },
            multiclass_acc: 0.77,
        };
        let text = serialize_result(&result);
        let back = deserialize_result(&text).expect("round trip");
        assert_eq!(back.arch_name, result.arch_name);
        assert_eq!(back.confusion, result.confusion);
        assert_eq!(back.history.epochs.len(), 1);
        assert_eq!(back.history.epochs[0].test_acc, Some(0.75));
        assert_eq!(back.history.epoch_secs, vec![1.25]);
        assert!((back.multiclass_acc - 0.77).abs() < 1e-6);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(deserialize_result("not a run file").is_none());
        assert!(deserialize_result("").is_none());
    }

    #[test]
    fn cache_dir_is_workspace_anchored() {
        // Regression test: cargo runs bench/test binaries from their own
        // package roots; the cache must not depend on the process CWD.
        if std::env::var("CARGO_TARGET_DIR").is_err() {
            let dir = cache_dir();
            assert!(dir.is_absolute(), "cache dir must be absolute: {dir:?}");
            assert!(dir.ends_with("target/pelican-cache"));
        }
    }

    #[test]
    fn cache_keys_distinguish_configs() {
        let a = ExpConfig::scaled(DatasetKind::NslKdd);
        let mut b = a.clone();
        b.epochs += 1;
        let arch = Arch::Residual { blocks: 5 };
        assert_ne!(a.cache_key(arch), b.cache_key(arch));
        assert_ne!(
            a.cache_key(Arch::Plain { blocks: 5 }),
            a.cache_key(Arch::Residual { blocks: 5 })
        );
    }

    #[test]
    fn kfold_totals_cover_every_record() {
        let cfg = ExpConfig {
            dataset: DatasetKind::NslKdd,
            samples: 60,
            epochs: 1,
            batch_size: 16,
            learning_rate: 0.01,
            kernel: 10,
            dropout: 0.0,
            test_fraction: 0.1, // ignored by run_kfold
            seed: 5,
        };
        let result = run_kfold(Arch::Residual { blocks: 1 }, &cfg, 3);
        assert_eq!(result.folds.len(), 3);
        // Every record tested exactly once → totals cover the dataset.
        assert_eq!(result.total.total(), 60);
        assert!((0.0..=1.0).contains(&result.mean_multiclass_acc));
        let fold_sum: usize = result.folds.iter().map(|f| f.confusion.total()).sum();
        assert_eq!(fold_sum, 60);
    }

    #[test]
    fn kfold_merges_per_fold_recorders_into_ambient() {
        use pelican_observe::Recorder as _;
        let cfg = ExpConfig {
            dataset: DatasetKind::NslKdd,
            samples: 60,
            epochs: 1,
            batch_size: 16,
            learning_rate: 0.01,
            kernel: 10,
            dropout: 0.0,
            test_fraction: 0.1,
            seed: 5,
        };
        let rec = std::sync::Arc::new(pelican_observe::InMemoryRecorder::new());
        let result = pelican_observe::with_recorder(rec.clone(), || {
            run_kfold(Arch::Residual { blocks: 1 }, &cfg, 3)
        });
        assert_eq!(result.folds.len(), 3);
        let snap = rec.snapshot().unwrap();
        // One `fit` span per fold survived the merge.
        assert_eq!(snap.spans["fit"].count, 3);
        assert_eq!(snap.spans["fit/epoch"].count, 3);
        // Kernel FLOP counters accumulated across folds.
        assert!(snap.counters["tensor.matmul_flops"] > 0);
        // Training gauges exist post-merge.
        assert!(snap.gauges.contains_key("train.loss"));
    }

    #[test]
    fn tiny_end_to_end_run_produces_metrics() {
        // Smallest meaningful run: 1 block, 60 records, 1 epoch.
        let cfg = ExpConfig {
            dataset: DatasetKind::NslKdd,
            samples: 60,
            epochs: 1,
            batch_size: 16,
            learning_rate: 0.01,
            kernel: 10,
            dropout: 0.0,
            test_fraction: 0.2,
            seed: 7,
        };
        let result = run_network(Arch::Residual { blocks: 1 }, &cfg);
        assert_eq!(result.confusion.total(), 12);
        assert_eq!(result.history.epochs.len(), 1);
        assert!((0.0..=1.0).contains(&result.multiclass_acc));
    }
}
