//! Overhead budget of the `pelican-observe` subsystem.
//!
//! Three timings of the same end-to-end training workload (one residual
//! block on synthetic NSL-KDD, one worker so scheduler noise stays out of
//! the numbers):
//!
//! * **disabled** — no recorder installed: every instrument is a single
//!   relaxed atomic load that reads zero;
//! * **noop** — a [`NoopRecorder`] explicitly installed: must cost the
//!   same as disabled (it never flips the enabled count);
//! * **inmemory** — a live [`InMemoryRecorder`]: spans, counters, gauges
//!   and events all hit the mutex-guarded snapshot.
//!
//! Each mode runs `REPS` times, interleaved, and overhead is estimated
//! from the median of the paired per-repetition differences — the paired
//! design cancels machine-load drift that swamps ratios of independent
//! aggregates. Each run is timed in process CPU time
//! (`CLOCK_PROCESS_CPUTIME_ID`), not wall time, so time the scheduler
//! gives other processes stays out of it. The budget is <2% for the
//! in-memory recorder; the result is written to `BENCH_observe.json` at
//! the workspace root, which `scripts/check.sh` asserts is well-formed.
//! Two instrument micro-costs are included so regressions in the fast
//! path show up directly, not just through the end-to-end noise.

use pelican_core::experiment::{run_network, Arch, DatasetKind, ExpConfig};
use pelican_observe::{with_recorder, InMemoryRecorder, NoopRecorder, Recorder};
use pelican_runtime::with_workers;
use std::ffi::{c_int, c_long};
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 15;

fn workload_config() -> ExpConfig {
    ExpConfig {
        dataset: DatasetKind::NslKdd,
        samples: 1000,
        epochs: 28,
        batch_size: 64,
        learning_rate: 0.01,
        kernel: 10,
        dropout: 0.5,
        test_fraction: 0.2,
        seed: 11,
    }
}

/// `struct timespec` where `time_t` is a C `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[cfg(target_os = "macos")]
const CLOCK_PROCESS_CPUTIME_ID: c_int = 12;
#[cfg(not(target_os = "macos"))]
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

// SAFETY: this is POSIX `int clock_gettime(clockid_t, struct timespec *)`
// with `clockid_t` an `int` and both `timespec` fields C `long`s, as on
// Linux and macOS. It only writes through its pointer, and a `&mut
// Timespec` is always a valid, aligned, writable one, so every call is
// sound and the function can be declared `safe`.
unsafe extern "C" {
    safe fn clock_gettime(clock: c_int, now: &mut Timespec) -> c_int;
}

/// CPU seconds used so far by every thread of this process.
fn process_cpu_seconds() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    assert_eq!(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now), 0);
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// Runs the training workload once and returns the CPU seconds it used.
fn one_run(cfg: &ExpConfig) -> f64 {
    let start = process_cpu_seconds();
    let result = with_workers(1, || run_network(Arch::Residual { blocks: 1 }, cfg));
    assert!(result.confusion.total() > 0);
    process_cpu_seconds() - start
}

/// `REPS` timings per mode, the three modes interleaved inside every
/// repetition so slow drift (thermal, background load) lands on all of
/// them equally instead of biasing whichever mode ran last.
fn measure(cfg: &ExpConfig) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut disabled, mut noop, mut mem) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        disabled.push(one_run(cfg));
        noop.push(with_recorder(Arc::new(NoopRecorder), || one_run(cfg)));
        mem.push(with_recorder(Arc::new(InMemoryRecorder::new()), || {
            one_run(cfg)
        }));
    }
    (disabled, noop, mem)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Overhead of `mode` over `base` as a percentage, estimated from the
/// *paired* per-repetition differences: each repetition ran both modes
/// back to back, so taking the median of the differences cancels the
/// run-to-run load noise that would swamp a ratio of independent
/// minimums.
fn paired_overhead_pct(base: &[f64], mode: &[f64]) -> f64 {
    let diffs: Vec<f64> = base.iter().zip(mode).map(|(b, m)| m - b).collect();
    median(&diffs) / median(base) * 100.0
}

fn instrument_micro_costs() -> (f64, f64) {
    // Fast path: the disabled check, one relaxed load per call site.
    let n = 10_000_000u64;
    let start = Instant::now();
    for i in 0..n {
        pelican_observe::counter_add("bench.disabled", i);
    }
    let disabled_ns = start.elapsed().as_nanos() as f64 / n as f64;

    // Slow path: a live counter increment through the mutex.
    let rec = Arc::new(InMemoryRecorder::new());
    let m = 1_000_000u64;
    let live_ns = with_recorder(rec.clone(), || {
        let start = Instant::now();
        for i in 0..m {
            pelican_observe::counter_add("bench.live", i);
        }
        start.elapsed().as_nanos() as f64 / m as f64
    });
    assert!(rec.snapshot().unwrap().counters["bench.live"] > 0);
    (disabled_ns, live_ns)
}

fn main() {
    let cfg = workload_config();
    one_run(&cfg); // warm-up: page in the data generator and allocator

    eprintln!("[observe] timing {REPS} interleaved runs per mode …");
    let (disabled, noop, mem) = measure(&cfg);
    let (t_disabled, t_noop, t_mem) = (median(&disabled), median(&noop), median(&mem));
    let noop_pct = paired_overhead_pct(&disabled, &noop);
    let mem_pct = paired_overhead_pct(&disabled, &mem);
    let (disabled_ns, live_ns) = instrument_micro_costs();
    eprintln!(
        "[observe] disabled {t_disabled:.3}s, noop {t_noop:.3}s ({noop_pct:+.2}%), \
         inmemory {t_mem:.3}s ({mem_pct:+.2}%)"
    );
    eprintln!(
        "[observe] disabled check {disabled_ns:.2} ns/call, live counter {live_ns:.2} ns/call"
    );
    assert!(
        mem_pct < 2.0,
        "in-memory recorder overhead {mem_pct:.2}% blows the 2% budget"
    );

    let json = format!(
        "{{\n  \"bench\": \"bench_observe\",\n  \"workload\": \"run_network Residual-5 (1 block), synthetic NSL-KDD, {} samples, {} epochs, 1 worker\",\n  \"reps\": {REPS},\n  \"seconds_disabled\": {t_disabled:.3},\n  \"seconds_noop\": {t_noop:.3},\n  \"seconds_inmemory\": {t_mem:.3},\n  \"overhead_noop_pct\": {noop_pct:.2},\n  \"overhead_inmemory_pct\": {mem_pct:.2},\n  \"overhead_budget_pct\": 2.0,\n  \"within_budget\": {},\n  \"disabled_check_ns_per_call\": {disabled_ns:.2},\n  \"live_counter_ns_per_call\": {live_ns:.2},\n  \"note\": \"median process CPU seconds per mode (clock_gettime CLOCK_PROCESS_CPUTIME_ID, so other processes' load stays out), overhead from median paired per-rep differences; see tests/observability.rs for the bit-identity and no-perturbation guarantees\"\n}}\n",
        cfg.samples,
        cfg.epochs,
        mem_pct < 2.0,
    );
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_observe.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[observe] wrote {}", path.display()),
        Err(e) => eprintln!("[observe] could not write {}: {e}", path.display()),
    }
}
