//! Fault-tolerance integration: injected faults during training, durable
//! checkpoint resume, lenient CSV parsing and checkpoint corruption, all
//! exercised through the public facade.

use pelican::core::models::{build_network, NetConfig};
use pelican::data::csv::{from_csv_lenient, to_csv};
use pelican::data::nslkdd;
use pelican::nn::fault::{FaultInjector, FaultyLayer};
use pelican::nn::io::{self, CheckpointMeta};
use pelican::nn::loss::SoftmaxCrossEntropy;
use pelican::nn::optim::RmsProp;
use pelican::nn::{evaluate, Activation, ActivationKind, Dense, RecoveryPolicy};
use pelican::prelude::*;
use proptest::prelude::*;

fn nslkdd_resolver(name: &str) -> Option<usize> {
    nslkdd::CLASSES
        .iter()
        .position(|c| c.eq_ignore_ascii_case(name))
}

/// The headline acceptance test: a residual Pelican trained while a fault
/// injector corrupts activations mid-epoch must finish all epochs via
/// rollback recovery and land within 5 accuracy points of the clean run.
#[test]
fn injected_faults_recover_to_comparable_accuracy() {
    let cfg = ExpConfig {
        dataset: DatasetKind::NslKdd,
        samples: 160,
        epochs: 4,
        batch_size: 32,
        learning_rate: 0.01,
        kernel: 10,
        dropout: 0.6,
        test_fraction: 0.2,
        seed: 3,
    };
    let split = prepare_split(&cfg);
    let net_cfg = NetConfig {
        in_features: cfg.dataset.encoded_width(),
        classes: cfg.dataset.classes(),
        blocks: 1,
        residual: true,
        kernel: cfg.kernel,
        dropout: cfg.dropout,
        seed: 5,
    };

    // Reference: the same model and schedule with no faults.
    let mut clean = build_network(&net_cfg);
    Trainer::new(TrainerConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        shuffle_seed: 1,
        verbose: false,
        ..Default::default()
    })
    .fit(
        &mut clean,
        &SoftmaxCrossEntropy,
        &mut RmsProp::new(cfg.learning_rate),
        &split.x_train,
        &split.y_train,
        None,
    )
    .expect("clean training");
    let (_, clean_acc) = evaluate(
        &mut clean,
        &SoftmaxCrossEntropy,
        &split.x_train,
        &split.y_train,
        64,
    );

    // Same model behind a fault injector corrupting forward activations.
    let mut faulty = FaultyLayer::new(build_network(&net_cfg), 41, 0.15, 0.25);
    let history = Trainer::new(TrainerConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        shuffle_seed: 1,
        verbose: false,
        recovery: Some(RecoveryPolicy {
            max_retries_per_epoch: 12,
        }),
        ..Default::default()
    })
    .fit(
        &mut faulty,
        &SoftmaxCrossEntropy,
        &mut RmsProp::new(cfg.learning_rate),
        &split.x_train,
        &split.y_train,
        None,
    )
    .expect("training must recover, not abort");

    assert_eq!(history.epochs.len(), cfg.epochs, "all epochs completed");
    assert!(faulty.injections() > 0, "the injector never fired");
    assert!(
        history.total_recoveries > 0,
        "faults were injected but never recovered from"
    );
    assert_eq!(
        history.total_recoveries,
        history.epochs.iter().map(|e| e.recoveries).sum::<usize>(),
        "per-epoch recovery counts must sum to the total"
    );

    let (_, faulty_acc) = evaluate(
        &mut faulty,
        &SoftmaxCrossEntropy,
        &split.x_train,
        &split.y_train,
        64,
    );
    assert!(
        (clean_acc - faulty_acc).abs() <= 0.05,
        "faulted run must stay within 5 points: clean {clean_acc:.4} vs faulted {faulty_acc:.4}"
    );
}

fn mlp(seed: u64) -> Sequential {
    let mut rng = SeededRng::new(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(121, 16, &mut rng));
    net.push(Activation::new(ActivationKind::Relu));
    net.push(Dense::new(16, 5, &mut rng));
    net
}

/// Killing a run after 3 of 6 epochs and resuming from the durable
/// checkpoint must reproduce the uninterrupted run's parameters exactly.
#[test]
fn kill_and_resume_reproduces_uninterrupted_parameters() {
    let raw = nslkdd::generate(120, 8);
    let enc = OneHotEncoder::from_schema(raw.schema());
    let x = Standardizer::fit(&enc.encode(&raw)).transform(&enc.encode(&raw));
    let y = raw.labels().to_vec();

    let dir = std::env::temp_dir().join("pelican-robustness-resume");
    std::fs::remove_dir_all(&dir).ok();
    let config = |epochs: usize, checkpoints: bool| TrainerConfig {
        epochs,
        batch_size: 16,
        shuffle_seed: 5,
        verbose: false,
        lr_decay: Some(0.9),
        checkpoint_dir: checkpoints.then(|| dir.clone()),
        ..Default::default()
    };

    // Uninterrupted: 6 epochs straight through.
    let mut full = mlp(9);
    Trainer::new(config(6, false))
        .fit(
            &mut full,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(0.05),
            &x,
            &y,
            None,
        )
        .expect("full run");

    // Interrupted: 3 epochs with checkpoints, then a *fresh* process
    // (fresh model, fresh optimizer) resumes to epoch 6 from disk.
    let mut killed = mlp(9);
    Trainer::new(config(3, true))
        .fit(
            &mut killed,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(0.05),
            &x,
            &y,
            None,
        )
        .expect("pre-kill run");
    let mut resumed = mlp(9);
    let history = Trainer::new(config(6, true))
        .fit(
            &mut resumed,
            &SoftmaxCrossEntropy,
            &mut RmsProp::new(0.05),
            &x,
            &y,
            None,
        )
        .expect("resumed run");

    assert_eq!(history.resumed_from_epoch, Some(3));
    assert_eq!(history.epochs.len(), 3, "only epochs 4..=6 re-ran");
    assert_eq!(
        io::params_to_bytes(&mut full),
        io::params_to_bytes(&mut resumed),
        "resumed parameters must match the uninterrupted run bit-for-bit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Garbling a valid CSV with the seeded injector never panics the
    /// lenient parser, and the quarantine accounting is exact: every
    /// surviving damaged line is quarantined, every untouched line parses.
    #[test]
    fn lenient_csv_quarantine_accounting_is_exact(
        n in 1usize..40,
        seed in 0u64..200,
        rate in 0.0f32..1.0,
    ) {
        let ds = nslkdd::generate(n, seed);
        let text = to_csv(&ds);
        let original_lines = text.lines().count();
        let mut injector = FaultInjector::new(seed ^ 0xA5A5, rate);
        let (garbled, damaged) = injector.garble_csv(&text);
        let surviving = garbled.lines().filter(|l| !l.trim().is_empty()).count();
        let dropped = original_lines - surviving;

        let (parsed, report) = from_csv_lenient(ds.schema(), &garbled, nslkdd_resolver);
        prop_assert_eq!(parsed.len(), report.parsed);
        prop_assert_eq!(report.parsed, original_lines - damaged);
        prop_assert_eq!(report.quarantined, damaged - dropped);
        prop_assert!(report.samples.len() <= pelican::data::csv::QUARANTINE_SAMPLE_CAP);
    }

    /// Pure line noise (random ASCII, too few fields to ever satisfy the
    /// schema) never panics and is quarantined in full.
    #[test]
    fn lenient_csv_survives_arbitrary_garbage(seed in 0u64..300, lines in 1usize..30) {
        let mut rng = SeededRng::new(seed);
        const ALPHABET: &[u8] = b"abc019,,.<>-+e \t";
        let mut text = String::new();
        let mut nonempty = 0usize;
        for _ in 0..lines {
            let len = rng.index(30);
            let line: String = (0..len)
                .map(|_| ALPHABET[rng.index(ALPHABET.len())] as char)
                .collect();
            nonempty += usize::from(!line.trim().is_empty());
            text.push_str(&line);
            text.push('\n');
        }
        let schema = nslkdd::schema();
        let (parsed, report) = from_csv_lenient(&schema, &text, nslkdd_resolver);
        prop_assert_eq!(parsed.len(), 0, "30-char lines cannot carry 42 fields");
        prop_assert_eq!(report.quarantined, nonempty);
    }

    /// Any truncation or single bit flip of a v2 checkpoint fails the
    /// load cleanly — an error, and the receiving model left untouched.
    #[test]
    fn corrupted_checkpoints_fail_without_side_effects(
        seed in 0u64..60,
        cut_frac in 0.0f32..1.0,
        flip_frac in 0.0f32..1.0,
        bit in 0u32..8,
    ) {
        let mut src = mlp(seed);
        let bytes = io::checkpoint_to_bytes(
            &mut src,
            CheckpointMeta { epoch: 7, learning_rate: 0.5 },
        );

        let mut target = mlp(seed.wrapping_add(1));
        let baseline = io::params_to_bytes(&mut target);

        let cut = ((bytes.len() as f32 * cut_frac) as usize).min(bytes.len() - 1);
        prop_assert!(
            io::checkpoint_from_bytes(&mut target, &bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must fail", bytes.len()
        );

        let mut flipped = bytes.clone();
        let pos = ((bytes.len() as f32 * flip_frac) as usize).min(bytes.len() - 1);
        flipped[pos] ^= 1 << bit;
        prop_assert!(
            io::checkpoint_from_bytes(&mut target, &flipped).is_err(),
            "bit flip at byte {pos} must fail the CRC"
        );

        let after = io::params_to_bytes(&mut target);
        prop_assert_eq!(
            after,
            baseline,
            "failed loads must not half-write the model"
        );
    }
}
