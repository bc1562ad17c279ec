//! Deterministic data-parallel execution engine for the Pelican workspace.
//!
//! Every parallel path in this workspace goes through this crate, and every
//! one of them obeys a single contract: **the result is a pure function of
//! the inputs, never of the worker count**. Two mechanisms make that hold:
//!
//! * **Output partitioning** — kernels (matmul, conv taps, GRU gates,
//!   column sums) are split so each output element is produced by exactly
//!   one worker running the identical scalar loop the serial kernel runs.
//!   Floating-point accumulation order per element is unchanged, so the
//!   bits are unchanged.
//! * **Fixed-order tree reduction** — where per-task partial results must
//!   be combined (per-fold confusions, per-window degradation counts), the
//!   task layout is a pure function of the problem size and the partials
//!   are folded by [`tree_reduce`] in task order, independent of which
//!   worker finished first.
//!
//! The same determinism discipline extends to *serving*: [`VirtualClock`]
//! and [`Deadline`] measure latency in cost-model ticks rather than wall
//! time, and [`BoundedQueue`] resolves overflow through explicit
//! [`OverflowPolicy`] outcomes — the primitives under the simulator's
//! streaming pipeline, where a run's shed/degrade/deadline decisions must
//! be a pure function of its inputs.
//!
//! The worker count comes from, in priority order: the innermost
//! [`with_exec`]/[`with_workers`] scope on the current thread, the
//! `PELICAN_THREADS` environment variable (read once per process), or
//! [`std::thread::available_parallelism`] capped at 8. A worker count of 1
//! runs every task inline on the calling thread — the serial path, with no
//! thread machinery at all.
//!
//! ```
//! use pelican_runtime::{tree_reduce, with_workers, Pool};
//!
//! let squares = with_workers(3, || Pool::current().map(5, |i| i * i));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! assert_eq!(tree_reduce(squares, |a, b| a + b), Some(30));
//! ```

mod clock;
mod queue;
mod shared;

pub use clock::{Deadline, VirtualClock};
pub use queue::{BoundedQueue, OverflowPolicy, PushOutcome};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use pelican_observe as observe;

/// Hard cap on the worker count, matching the pre-existing matmul limit:
/// beyond this, scoped-thread spawn overhead outweighs the win on the
/// tensor sizes this workspace handles.
pub const MAX_WORKERS: usize = 8;

/// Execution configuration consulted by every parallel kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of workers tasks may be spread over (≥ 1; 1 = serial).
    pub workers: usize,
    /// Ignore size thresholds and engage the parallel path even for tiny
    /// problems. Only the equivalence tests set this: it lets adversarial
    /// shapes (batch 1, odd remainders) exercise the worker machinery that
    /// thresholds would otherwise bypass.
    pub force_parallel: bool,
}

impl ExecConfig {
    /// A serial configuration (one worker, thresholds respected).
    pub fn serial() -> Self {
        Self {
            workers: 1,
            force_parallel: false,
        }
    }
}

thread_local! {
    static EXEC_OVERRIDE: Cell<Option<ExecConfig>> = const { Cell::new(None) };
}

fn default_workers() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("PELICAN_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, MAX_WORKERS);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get().min(MAX_WORKERS))
            .unwrap_or(1)
    })
}

/// The execution configuration in effect on the current thread.
pub fn current_exec() -> ExecConfig {
    EXEC_OVERRIDE.with(|c| c.get()).unwrap_or(ExecConfig {
        workers: default_workers(),
        force_parallel: false,
    })
}

/// The worker count in effect on the current thread.
pub fn current_workers() -> usize {
    current_exec().workers
}

/// Runs `f` with `cfg` installed as the current thread's execution
/// configuration, restoring the previous configuration afterwards (also on
/// panic). Worker threads spawned inside do **not** inherit the override —
/// nested parallel sections must install their own (see
/// [`Pool::map`]'s docs).
pub fn with_exec<R>(cfg: ExecConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ExecConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            EXEC_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = EXEC_OVERRIDE.with(|c| c.replace(Some(sanitize(cfg))));
    let _restore = Restore(prev);
    f()
}

fn sanitize(cfg: ExecConfig) -> ExecConfig {
    ExecConfig {
        workers: cfg.workers.clamp(1, MAX_WORKERS),
        force_parallel: cfg.force_parallel,
    }
}

/// Runs `f` with the worker count overridden to `workers` (thresholds
/// still respected).
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    with_exec(
        ExecConfig {
            workers,
            force_parallel: false,
        },
        f,
    )
}

/// A handle onto the process-wide worker pool.
///
/// The handle itself owns nothing but a worker count; the threads behind
/// it are [`MAX_WORKERS`] persistent workers, lazily spawned once per
/// process and fed through an injector queue (see the `shared` module).
/// Each [`map`](Pool::map) / [`scope_chunks`](Pool::scope_chunks) call
/// submits jobs and blocks on a completion latch, so borrowed data still
/// flows in and out without `'static` bounds — but without the per-call
/// thread-spawn cost the previous scoped implementation paid. Tasks are
/// claimed dynamically (atomic counter) for load balancing; determinism is
/// preserved because every task writes only its own output slot and
/// results are reassembled in task order.
///
/// Calls made *from* a pool worker run inline on that worker: nested
/// parallel sections produce identical bits either way, and routing them
/// into the queue could deadlock once every worker blocks on jobs that no
/// free worker remains to claim.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` workers (clamped to `1..=MAX_WORKERS`).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.clamp(1, MAX_WORKERS),
        }
    }

    /// Like [`Pool::new`], but also warms the process-wide worker set, so
    /// hot paths (the tensor kernels' `plan()`) never pay first-use spawn
    /// cost inside a product.
    pub fn cached(workers: usize) -> Self {
        shared::warm();
        Self::new(workers)
    }

    /// A pool sized by the current thread's execution configuration.
    pub fn current() -> Self {
        Self::new(current_workers())
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)` across the pool and returns the
    /// results **in task order**. With one worker (or fewer than two
    /// tasks) everything runs inline on the calling thread, in order —
    /// the exact serial path.
    ///
    /// Tasks run on worker threads, which carry no thread-local
    /// [`ExecConfig`]: code inside `f` that should itself be serial (e.g.
    /// per-fold training under fold-level parallelism) must install its
    /// own scope via [`with_exec`]. The ambient `pelican-observe`
    /// recorder, by contrast, **is** re-installed inside each worker, so
    /// instrumentation emitted by tasks lands in the caller's recorder.
    ///
    /// Observability: each call bumps `pool.map_calls` / `pool.map_tasks`
    /// and sets `pool.utilization` (mean over max per-worker load — 1.0
    /// when tasks divide evenly; a pure function of `tasks` and the
    /// worker count). The `pool.worker_tasks` histogram records how many
    /// tasks each worker actually claimed — a load-balance diagnostic
    /// that, unlike everything else here, depends on scheduling and is
    /// *not* stable run to run.
    pub fn map<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers.min(tasks);
        observe::counter_add("pool.map_calls", 1);
        observe::counter_add("pool.map_tasks", tasks as u64);
        if workers <= 1 || shared::on_pool_worker() {
            return (0..tasks).map(f).collect();
        }
        observe::gauge(
            "pool.utilization",
            (tasks as f64 / workers as f64) / tasks.div_ceil(workers) as f64,
        );
        let recorder = observe::current_override();
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(tasks));
        let work = |_job: usize| {
            let _obs = recorder.clone().map(observe::ScopedRecorder::install);
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                local.push((i, f(i)));
            }
            observe::histogram("pool.worker_tasks", local.len() as u64);
            done.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(&mut local);
        };
        shared::run_jobs(workers, &work, "pool worker panicked");
        let mut pairs = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        pairs.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(pairs.len(), tasks);
        pairs.into_iter().map(|(_, v)| v).collect()
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and runs `f(chunk_index, chunk)` for each, in
    /// parallel. Chunk boundaries depend only on `data.len()` and
    /// `chunk_len`, never on the worker count. With one worker the chunks
    /// run inline, in order.
    pub fn scope_chunks<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk_len = chunk_len.max(1);
        observe::counter_add("pool.chunk_calls", 1);
        if self.workers <= 1 || data.len() <= chunk_len || shared::on_pool_worker() {
            for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(idx, chunk);
            }
            return;
        }
        let recorder = observe::current_override();
        // Hand each chunk to exactly one claimer; chunk layout depends only
        // on the data length and chunk size, never on the worker count.
        let chunks: Vec<Mutex<Option<&mut [T]>>> = data
            .chunks_mut(chunk_len)
            .map(|c| Mutex::new(Some(c)))
            .collect();
        let nchunks = chunks.len();
        let next = AtomicUsize::new(0);
        let work = |_job: usize| {
            let _obs = recorder.clone().map(observe::ScopedRecorder::install);
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= nchunks {
                    break;
                }
                let chunk = chunks[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("chunk claimed twice");
                f(i, chunk);
            }
        };
        shared::run_jobs(
            self.workers.min(nchunks),
            &work,
            "pool chunk worker panicked",
        );
    }
}

/// Folds `items` with a fixed-order binary tree: adjacent pairs are
/// combined repeatedly (`((a₀⊕a₁) ⊕ (a₂⊕a₃)) ⊕ …`) until one value
/// remains. The association pattern depends only on `items.len()`, so for
/// non-associative operations (floating-point sums) the result is
/// bit-stable for a given input order — regardless of how many workers
/// produced the inputs. Returns `None` for an empty input.
pub fn tree_reduce<T>(mut items: Vec<T>, mut combine: impl FnMut(T, T) -> T) -> Option<T> {
    while items.len() > 1 {
        let mut level = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            level.push(match it.next() {
                Some(b) => combine(a, b),
                None => a,
            });
        }
        items = level;
    }
    items.pop()
}

/// Derives the seed for parallel stream `stream` from `base` via a
/// SplitMix64 finalisation, so sibling streams (k-fold folds, simulator
/// windows) are decorrelated while the whole schedule stays a pure
/// function of the base seed.
pub fn stream_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_task_order_at_any_worker_count() {
        let expect: Vec<usize> = (0..23).map(|i| i * 3).collect();
        for workers in [1, 2, 3, 7, 8] {
            let got = Pool::new(workers).map(23, |i| i * 3);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn map_handles_edge_task_counts() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 10), vec![10]);
        // Fewer tasks than workers.
        assert_eq!(pool.map(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn scope_chunks_layout_is_worker_independent() {
        // Each chunk writes its chunk index; layout must only depend on
        // the data length and chunk size.
        let run = |workers: usize| {
            let mut data = vec![0usize; 10];
            Pool::new(workers).scope_chunks(&mut data, 3, |idx, chunk| {
                for v in chunk {
                    *v = idx + 1;
                }
            });
            data
        };
        let expect = vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4];
        for workers in [1, 2, 3, 8] {
            assert_eq!(run(workers), expect, "workers={workers}");
        }
    }

    #[test]
    fn tree_reduce_is_fixed_order() {
        assert_eq!(tree_reduce(Vec::<i32>::new(), |a, b| a + b), None);
        assert_eq!(tree_reduce(vec![7], |a, b| a + b), Some(7));
        // Non-commutative combine exposes the association pattern:
        // ((a·b)·(c·d))·e for five items.
        let order = tree_reduce(
            vec![
                "a".to_string(),
                "b".into(),
                "c".into(),
                "d".into(),
                "e".into(),
            ],
            |a, b| format!("({a}{b})"),
        )
        .unwrap();
        assert_eq!(order, "(((ab)(cd))e)");
    }

    #[test]
    fn tree_reduce_float_sum_is_bit_stable() {
        // The same partials in the same order give the same bits, however
        // many times we fold them.
        let parts: Vec<f32> = (0..13).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let a = tree_reduce(parts.clone(), |x, y| x + y).unwrap();
        let b = tree_reduce(parts, |x, y| x + y).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn exec_override_scopes_and_restores() {
        let ambient = current_workers();
        let inner = with_workers(3, || {
            assert!(!current_exec().force_parallel);
            current_workers()
        });
        assert_eq!(inner, 3);
        assert_eq!(current_workers(), ambient, "override must not leak");
        // Nested overrides: innermost wins, outer restored.
        with_workers(2, || {
            assert_eq!(current_workers(), 2);
            with_exec(
                ExecConfig {
                    workers: 5,
                    force_parallel: true,
                },
                || {
                    assert_eq!(current_workers(), 5);
                    assert!(current_exec().force_parallel);
                },
            );
            assert_eq!(current_workers(), 2);
        });
    }

    #[test]
    fn exec_override_restored_on_panic() {
        let before = current_exec();
        let result = std::panic::catch_unwind(|| {
            with_workers(4, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(current_exec(), before);
    }

    #[test]
    fn exec_config_is_sanitized() {
        with_workers(0, || assert_eq!(current_workers(), 1));
        with_workers(usize::MAX, || assert_eq!(current_workers(), MAX_WORKERS));
    }

    #[test]
    fn workers_do_not_inherit_override() {
        // Documented contract: tasks on worker threads see the process
        // default, not the caller's scope — nested sections opt in
        // explicitly.
        let counts = with_workers(3, || Pool::current().map(3, |_| current_workers()));
        let ambient = default_workers();
        // Worker threads (2 of 3 tasks at least) report the ambient count;
        // with dynamic claiming the calling thread is not involved, so all
        // tasks report it.
        assert!(counts.iter().all(|&c| c == ambient), "{counts:?}");
    }

    #[test]
    fn stream_seeds_are_decorrelated() {
        let s0 = stream_seed(42, 0);
        let s1 = stream_seed(42, 1);
        let t0 = stream_seed(43, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, t0);
        // Pure function: same inputs, same seed.
        assert_eq!(s0, stream_seed(42, 0));
    }

    #[test]
    fn pool_propagates_ambient_recorder_to_workers() {
        use std::sync::Arc;
        let rec = Arc::new(pelican_observe::InMemoryRecorder::new());
        pelican_observe::with_recorder(rec.clone(), || {
            Pool::new(4).map(16, |_| pelican_observe::counter_add("task", 1));
            let mut data = vec![0u8; 12];
            Pool::new(4).scope_chunks(&mut data, 3, |_, _| {
                pelican_observe::counter_add("chunk", 1)
            });
        });
        assert_eq!(rec.counter("task"), 16, "worker recordings lost");
        assert_eq!(rec.counter("chunk"), 4);
        assert_eq!(rec.counter("pool.map_calls"), 1);
        assert_eq!(rec.counter("pool.map_tasks"), 16);
        assert_eq!(rec.counter("pool.chunk_calls"), 1);
    }

    #[test]
    fn map_with_borrowed_data() {
        let data: Vec<u64> = (0..40).collect();
        let sums = Pool::new(4).map(4, |i| data[i * 10..(i + 1) * 10].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), (0..40).sum::<u64>());
    }
}
