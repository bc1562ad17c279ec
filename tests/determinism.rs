//! Reproducibility: every stochastic component is seeded, so identical
//! configurations give identical results — the property that makes the
//! benchmark tables stable.
//!
//! The parallel execution engine extends the property across thread
//! counts: kernels partition *outputs* (never floating-point reduction
//! order), so training histories, k-fold metrics and checkpoints are
//! bit-identical at 1 and N workers — including a kill-and-resume where
//! the thread count changes across the restart.

use pelican::prelude::*;

#[test]
fn identical_configs_give_identical_runs() {
    let cfg = ExpConfig {
        dataset: DatasetKind::NslKdd,
        samples: 150,
        epochs: 2,
        batch_size: 50,
        learning_rate: 0.01,
        kernel: 10,
        dropout: 0.5,
        test_fraction: 0.2,
        seed: 99,
    };
    let a = run_network(Arch::Residual { blocks: 1 }, &cfg);
    let b = run_network(Arch::Residual { blocks: 1 }, &cfg);
    assert_eq!(a.confusion, b.confusion);
    assert_eq!(a.history.final_train_loss(), b.history.final_train_loss());
    assert_eq!(a.multiclass_acc, b.multiclass_acc);
}

#[test]
fn different_seed_changes_the_run() {
    let mut cfg = ExpConfig {
        dataset: DatasetKind::NslKdd,
        samples: 150,
        epochs: 2,
        batch_size: 50,
        learning_rate: 0.01,
        kernel: 10,
        dropout: 0.5,
        test_fraction: 0.2,
        seed: 99,
    };
    let a = run_network(Arch::Residual { blocks: 1 }, &cfg);
    cfg.seed = 100;
    let b = run_network(Arch::Residual { blocks: 1 }, &cfg);
    assert_ne!(
        a.history.final_train_loss(),
        b.history.final_train_loss(),
        "seed change had no effect"
    );
}

#[test]
fn dataset_generation_is_stable_across_processes() {
    // Golden values: if the generator's stream ever changes, every
    // recorded experiment silently shifts — fail loudly instead.
    let raw = pelican::data::nslkdd::generate(3, 42);
    let labels: Vec<usize> = raw.labels().to_vec();
    let again = pelican::data::nslkdd::generate(3, 42);
    assert_eq!(labels, again.labels());
    assert_eq!(raw.records(), again.records());
}

/// A short real training run (synthetic NSL-KDD, one residual block)
/// driven at an explicit thread count via `TrainerConfig::threads`.
fn short_training_run(threads: usize) -> (Vec<pelican::nn::EpochStats>, Vec<u8>) {
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
    let trainer = Trainer::new(TrainerConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        shuffle_seed: 17,
        threads: Some(threads),
        ..Default::default()
    });
    let history = trainer
        .fit(
            &mut net,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(cfg.learning_rate),
            &split.x_train,
            &split.y_train,
            Some((&split.x_test, &split.y_test)),
        )
        .expect("training");
    (history.epochs, params_to_bytes(&mut net))
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    let (epochs_1, params_1) = short_training_run(1);
    for threads in [2usize, 4] {
        let (epochs_n, params_n) = short_training_run(threads);
        assert_eq!(epochs_n, epochs_1, "history diverged at {threads} threads");
        assert_eq!(
            params_n, params_1,
            "trained parameters diverged at {threads} threads"
        );
    }
}

#[test]
fn kfold_cv_is_identical_across_thread_counts() {
    let cfg = ExpConfig {
        dataset: DatasetKind::NslKdd,
        samples: 100,
        epochs: 1,
        batch_size: 25,
        learning_rate: 0.01,
        kernel: 10,
        dropout: 0.4,
        test_fraction: 0.1, // ignored by run_kfold
        seed: 31,
    };
    let arch = Arch::Residual { blocks: 1 };
    let serial = with_workers(1, || run_kfold(arch, &cfg, 10));
    for threads in [2usize, 4] {
        let par = with_workers(threads, || run_kfold(arch, &cfg, 10));
        assert_eq!(par.folds.len(), serial.folds.len());
        assert_eq!(
            par.total, serial.total,
            "total confusion @ {threads} threads"
        );
        assert_eq!(
            par.mean_multiclass_acc, serial.mean_multiclass_acc,
            "mean accuracy @ {threads} threads"
        );
        for (fold, (p, s)) in par.folds.iter().zip(&serial.folds).enumerate() {
            assert_eq!(
                p.confusion, s.confusion,
                "fold {fold} confusion @ {threads} threads"
            );
            assert_eq!(
                p.history.epochs, s.history.epochs,
                "fold {fold} history @ {threads} threads"
            );
            assert_eq!(
                p.multiclass_acc, s.multiclass_acc,
                "fold {fold} accuracy @ {threads} threads"
            );
        }
    }
}

#[test]
fn kill_and_resume_is_bit_exact_across_thread_count_change() {
    use pelican::nn::io::params_to_bytes;
    use pelican::nn::loss::SoftmaxCrossEntropy;
    use pelican::nn::optim::RmsProp;
    use pelican::nn::{Activation, ActivationKind, Dense};

    // Two-feature blobs, as in the trainer's own resume test.
    let mut rng = SeededRng::new(40);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..40 {
        let class = i % 2;
        let centre = if class == 0 { -2.0 } else { 2.0 };
        rows.push(vec![
            rng.normal_with(centre, 0.5),
            rng.normal_with(-centre, 0.5),
        ]);
        labels.push(class);
    }
    let x = Tensor::from_rows(&rows).unwrap();

    let fresh_net = || {
        let mut rng = SeededRng::new(9);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 4, &mut rng));
        net.push(Activation::new(ActivationKind::Relu));
        net.push(Dense::new(4, 2, &mut rng));
        net
    };
    let config = |epochs: usize, threads: usize, dir: &std::path::Path| TrainerConfig {
        epochs,
        batch_size: 8,
        shuffle_seed: 5,
        threads: Some(threads),
        checkpoint_dir: Some(dir.to_path_buf()),
        ..Default::default()
    };
    let dir_a = std::env::temp_dir().join("pelican-par-resume-a");
    let dir_b = std::env::temp_dir().join("pelican-par-resume-b");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();

    // Uninterrupted serial 6-epoch run.
    let mut a = fresh_net();
    Trainer::new(config(6, 1, &dir_a))
        .fit(
            &mut a,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(0.01),
            &x,
            &labels,
            None,
        )
        .expect("run A");

    // Killed after 3 epochs at 4 threads; resumed to 6 at 1 thread —
    // the v2 checkpoint carries no trace of the worker count, and the
    // kernels are bit-stable across it, so the restart must land on the
    // exact same parameters.
    let mut b = fresh_net();
    Trainer::new(config(3, 4, &dir_b))
        .fit(
            &mut b,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(0.01),
            &x,
            &labels,
            None,
        )
        .expect("run B part 1");
    let mut b2 = fresh_net();
    let hist = Trainer::new(config(6, 1, &dir_b))
        .fit(
            &mut b2,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(0.01),
            &x,
            &labels,
            None,
        )
        .expect("run B part 2");
    assert_eq!(hist.resumed_from_epoch, Some(3));
    assert_eq!(
        params_to_bytes(&mut a),
        params_to_bytes(&mut b2),
        "thread-count change across restart broke bit-exactness"
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

mod recorder_merge {
    //! Satellite property: the observability subsystem's merge is
    //! order-independent — folding N per-thread recorders together in
    //! any order produces the same deterministic export as recording
    //! every operation into a single recorder.

    use pelican::observe::{InMemoryRecorder, Recorder, Snapshot};
    use proptest::prelude::*;

    const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

    /// Applies one primitive recording op. `tick` is the op's global
    /// sequence number, so gauge last-write and event order are defined
    /// by the operation stream, not by which recorder saw the op.
    fn apply(rec: &InMemoryRecorder, kind: u8, which: usize, value: u64, tick: u64) {
        rec.set_tick(tick);
        let name = NAMES[which % NAMES.len()];
        match kind % 5 {
            0 => rec.counter_add(name, value),
            1 => rec.gauge_set(name, value as f64),
            2 => rec.histogram_record(name, value),
            3 => rec.span_record(name, value),
            _ => rec.event(name, &[("v", value.into())]),
        }
    }

    fn fold(snaps: impl Iterator<Item = Snapshot>) -> String {
        snaps
            .reduce(Snapshot::merged)
            .map(|s| s.to_jsonl())
            .unwrap_or_default()
    }

    proptest! {
        #[test]
        fn merging_recorders_is_order_independent(
            ops in prop::collection::vec((0u8..5, 0usize..3, 1u64..1000), 1..40),
            parts in 1usize..5,
        ) {
            // Single recorder sees the whole operation stream in order.
            let single = InMemoryRecorder::new();
            for (i, &(kind, which, value)) in ops.iter().enumerate() {
                apply(&single, kind, which, value, i as u64);
            }
            let baseline = single.snapshot().unwrap().to_jsonl();

            // The same stream split round-robin across N recorders, as
            // the worker pool splits work across threads.
            let recs: Vec<InMemoryRecorder> =
                (0..parts).map(|_| InMemoryRecorder::new()).collect();
            for (i, &(kind, which, value)) in ops.iter().enumerate() {
                apply(&recs[i % parts], kind, which, value, i as u64);
            }
            let snaps: Vec<Snapshot> =
                recs.iter().map(|r| r.snapshot().unwrap()).collect();

            let forward = fold(snaps.clone().into_iter());
            let reverse = fold(snaps.clone().into_iter().rev());
            // An uneven rotation, to catch non-associativity that a
            // simple reversal would miss.
            let rot = ops.len() % parts;
            let rotated = fold(
                snaps.iter().cycle().skip(rot).take(parts).cloned(),
            );

            prop_assert_eq!(&forward, &baseline, "forward merge != single recorder");
            prop_assert_eq!(&reverse, &baseline, "merge order changed the export");
            prop_assert_eq!(&rotated, &baseline, "rotated merge changed the export");
        }
    }
}

#[test]
fn classical_models_are_deterministic_given_seeds() {
    use pelican::ml::{AdaBoost, AdaBoostConfig, Classifier, Svm, SvmConfig};
    let raw = pelican::data::nslkdd::generate(120, 8);
    let (train_idx, test_idx) = pelican::data::holdout_indices(raw.len(), 0.25, 4);
    let split = pelican::data::train_test_split(&raw, &train_idx, &test_idx);

    let mut a = AdaBoost::new(AdaBoostConfig::default());
    let mut b = AdaBoost::new(AdaBoostConfig::default());
    a.fit(&split.x_train, &split.y_train);
    b.fit(&split.x_train, &split.y_train);
    assert_eq!(a.predict(&split.x_test), b.predict(&split.x_test));

    let mut s1 = Svm::new(SvmConfig::default());
    let mut s2 = Svm::new(SvmConfig::default());
    s1.fit(&split.x_train, &split.y_train);
    s2.fit(&split.x_train, &split.y_train);
    assert_eq!(s1.predict(&split.x_test), s2.predict(&split.x_test));
}
