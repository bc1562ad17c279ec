//! End-to-end and per-layer benchmark of the Pelican workspace.
//!
//! ```sh
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-unsw-r41-b4000 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the host record, every metric with its unit and human-readable
//! notes, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones from a separate
//! traced run, whose spans go to `.bench_out/`. See
//! `perfbench/README.md`.

mod model;
mod serve;
mod trace;
mod util;
mod workloads;

use std::process::ExitCode;
use util::{json_num, json_str};
use workloads::{Report, RunSpec, WORKLOADS};

/// Reference digests: `workload input-set digest` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Kernel workers used unless `PELICAN_THREADS` is already set.
const DEFAULT_THREADS: &str = "2";

/// Input sets with a recorded digest: `--seed n` runs input set
/// `n % INPUT_SETS`, so every seed's output is checked.
const INPUT_SETS: u64 = 100;

struct Args {
    workload: String,
    /// The `--seed` as given; `spec.seed` is the input set it selects.
    seed: u64,
    spec: RunSpec,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} must be in (0, 600]"));
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        spec: RunSpec {
            seed: seed % INPUT_SETS,
            seconds,
            traced: match trace.unwrap_or(0) {
                0 => false,
                1 => true,
                t => return Err(format!("--trace {t} must be 0 or 1")),
            },
        },
    })
}

/// The recorded digest for this run, if `digests.txt` has one.
fn reference_digest(workload: &str, spec: &RunSpec) -> Option<&'static str> {
    DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 3).then_some(f)
        })
        .find(|f| f[0] == workload && f[1].parse() == Ok(spec.seed))
        .map(|f| f[2])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("PELICAN_THREADS").is_none() {
        // Read once, on the first parallel call below.
        std::env::set_var("PELICAN_THREADS", DEFAULT_THREADS);
    }
    let (workload, spec) = (args.workload.as_str(), args.spec);
    let mut report: Report = match workload {
        "train-unsw-r41-b4000" => workloads::train(spec),
        "kfold-nsl-r21-b64" => workloads::kfold(spec),
        _ => workloads::serve(spec),
    };
    let digest = report.digest.clone().unwrap_or_default();
    let reference = reference_digest(workload, &spec);
    match reference {
        Some(want) if want != digest => report.errors.push(format!(
            "output digest {digest} differs from the recorded {want}"
        )),
        Some(_) => {}
        // A check that did not run must not read as a pass.
        None => report.errors.push(format!(
            "perfbench/digests.txt records no digest for {workload} input set {}",
            spec.seed
        )),
    }
    let correct = report.errors.is_empty();
    if !correct {
        // A wrong output fails every operation of the run.
        report.failed = report.attempted;
    }
    if !spec.traced {
        report.notes.push(format!(
            "VmHWM at the end of the run: {:.1} MiB",
            util::peak_rss_mb()
        ));
        // Fallback-served windows count as errors here, not in `failed`.
        let share = (report.failed + report.degraded) as f64 / report.attempted.max(1) as f64;
        report
            .detail
            .push(workloads::m("error_share", share, "ratio"));
    }

    let threads = std::env::var("PELICAN_THREADS").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"input_set\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":{},\"pelican_threads\":{},\"attempted\":{},\"succeeded\":{},\"failed\":{},\"degraded\":{},\"digest\":{},\"reference_digest\":{}}}}}",
        json_str(workload),
        args.seed,
        spec.seed,
        spec.seconds,
        u8::from(spec.traced),
        json_str(&util::cpu_model()),
        json_str(&threads),
        report.attempted,
        report.attempted - report.failed,
        report.failed,
        report.degraded,
        json_str(&digest),
        reference.map_or("null".to_string(), json_str),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for e in &report.errors {
        println!("# ERROR {e}");
    }
    for m in &report.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !report.detail.is_empty() {
        println!("# workload-specific figures (printed only, not in the metric set):");
    }
    for m in &report.detail {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if spec.traced {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{workload}-seed{}.jsonl", args.seed));
        match trace::write_jsonl(&report.spans, &path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
