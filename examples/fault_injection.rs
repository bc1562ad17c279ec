//! The fault-tolerance subsystem, end to end: a garbled corpus survives
//! ingestion via quarantine, a fault-injected training run survives via
//! rollback recovery, a corrupted checkpoint is rejected cleanly, and a
//! faulting detector degrades gracefully inside the deployment simulator.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use pelican::core::models::{build_network, NetConfig};
use pelican::data::csv::{from_csv_lenient, to_csv};
use pelican::data::nslkdd;
use pelican::nn::fault::{FaultInjector, FaultyLayer};
use pelican::nn::io::{self, CheckpointMeta};
use pelican::nn::loss::SoftmaxCrossEntropy;
use pelican::nn::optim::RmsProp;
use pelican::nn::RecoveryPolicy;
use pelican::prelude::*;
use pelican_simulator::{
    AllNormalFallback, Analyst, FaultyDetector, OracleDetector, ResilienceConfig,
    ResilientDetector, SimConfig, Simulation, TrafficStream,
};

fn main() {
    // ---- 1. Damaged corpus → lenient ingestion with quarantine. -------
    println!("1) lenient CSV ingestion");
    let clean = nslkdd::generate(400, 3);
    let text = to_csv(&clean);
    let mut injector = FaultInjector::new(99, 0.15);
    let (garbled, damaged) = injector.garble_csv(&text);
    println!("   injector damaged {damaged} of 400 rows (drop/truncate/garble)");
    let (dataset, report) = from_csv_lenient(clean.schema(), &garbled, |name| {
        nslkdd::CLASSES
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    });
    println!("   quarantine: {report}\n");

    // ---- 2. Fault-injected training → rollback recovery. --------------
    println!("2) training through injected activation faults");
    let enc = OneHotEncoder::from_schema(dataset.schema());
    let x = Standardizer::fit(&enc.encode(&dataset)).transform(&enc.encode(&dataset));
    let y = dataset.labels().to_vec();
    let mut net = FaultyLayer::new(
        build_network(&NetConfig {
            in_features: x.shape()[1],
            classes: dataset.schema().class_count(),
            blocks: 1,
            residual: true,
            kernel: 10,
            dropout: 0.6,
            seed: 5,
        }),
        41,
        0.15, // ~15% of forward passes corrupt an activation tensor
        0.25,
    );
    let history = Trainer::new(TrainerConfig {
        epochs: 4,
        batch_size: 64,
        verbose: true,
        recovery: Some(RecoveryPolicy {
            max_retries_per_epoch: 12,
        }),
        ..Default::default()
    })
    .fit(
        &mut net,
        &SoftmaxCrossEntropy,
        &mut RmsProp::new(0.01),
        &x,
        &y,
        None,
    )
    .expect("recovery policy must absorb the injected faults");
    println!(
        "   {} corrupted forward passes, {} rollback recoveries, {} epochs completed\n",
        net.injections(),
        history.total_recoveries,
        history.epochs.len()
    );

    // ---- 3. Corrupted checkpoint → clean rejection. -------------------
    println!("3) checkpoint corruption");
    let mut bytes = io::checkpoint_to_bytes(
        &mut net,
        CheckpointMeta {
            epoch: 4,
            learning_rate: 0.01,
        },
    );
    println!(
        "   v2 checkpoint: {} bytes (params + optimizer state + CRC-32)",
        bytes.len()
    );
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    match io::checkpoint_from_bytes(&mut net, &bytes) {
        Err(e) => println!("   single flipped bit rejected: {e}\n"),
        Ok(_) => unreachable!("corruption must not load"),
    }

    // ---- 4. Faulting detector → graceful degradation. -----------------
    println!("4) resilient detection in the deployment simulator");
    let faulty = FaultyDetector::new(OracleDetector::new(0.95, 0.02, 7), 21, 0.3);
    let detector = ResilientDetector::new(faulty, AllNormalFallback, ResilienceConfig::default());
    let report = Simulation::new(SimConfig {
        windows: 30,
        flows_per_window: 50,
    })
    .run(
        TrafficStream::nslkdd(0.3, 13),
        detector,
        Analyst::new(2, 120.0),
    );
    println!(
        "   [{}] {} flows | DR {:.1}% FAR {:.2}% | {} of 30 windows degraded to fallback",
        report.detector,
        report.flows,
        100.0 * report.detection_rate,
        100.0 * report.false_alarm_rate,
        report.degraded_windows
    );
}
