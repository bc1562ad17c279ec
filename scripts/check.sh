#!/usr/bin/env bash
# Full local gate: release build, the complete test suite at both ends of
# the worker-count range, and clippy with warnings promoted to errors.
# Run from anywhere inside the repo.
#
# The suite runs twice — PELICAN_THREADS=1 (pure serial paths) and
# PELICAN_THREADS=4 (pooled kernels, concurrent folds) — because the
# engine's contract is that both produce identical results. Each run is the whole workspace (the root's `default-members`
# includes the facade package, so the pipeline chaos, observability and
# kernel-equivalence integration tests run at both counts). The ignored
# exhaustive `tanh` sweep (all 2^32 inputs, both engines against the
# host's libm, ~30 s) runs once in release. The fault-injection example
# then runs in release at the default thread count and must report its
# two rollback recoveries and a rejected bit-flipped checkpoint: it drives
# the two writers of optimizer state outside an optimizer step, snapshot
# rollback and checkpoint load, through the release binary. Formatting
# and rustdoc are gated alongside clippy. Set PELICAN_BENCH=1 to also run
# the observability-overhead and kernel benches (write BENCH_observe.json
# and BENCH_kernels.json at the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo fmt --check
echo "== tests @ PELICAN_THREADS=1 =="
PELICAN_THREADS=1 cargo test -q
echo "== tests @ PELICAN_THREADS=4 =="
PELICAN_THREADS=4 cargo test -q
echo "== exhaustive tanh sweep (release) =="
cargo test --release -q -p pelican-tensor -- --ignored
echo "== fault-injection example (release) =="
fault_report=$(cargo run --release -q --example fault_injection)
grep -q '2 rollback recoveries' <<<"$fault_report"
grep -q 'single flipped bit rejected' <<<"$fault_report"
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
if [[ "${PELICAN_BENCH:-0}" == "1" ]]; then
    cargo bench -p pelican-bench --bench bench_observe
    cargo bench -p pelican-bench --bench bench_kernels
fi
echo "== BENCH_observe.json well-formed =="
test -s BENCH_observe.json
grep -q '"bench": "bench_observe"' BENCH_observe.json
grep -q '"overhead_inmemory_pct"' BENCH_observe.json
grep -q '"within_budget": true' BENCH_observe.json
echo "== BENCH_kernels.json well-formed =="
test -s BENCH_kernels.json
grep -q '"bench": "bench_kernels"' BENCH_kernels.json
grep -q '"engine"' BENCH_kernels.json
grep -q '"gemm_min_speedup"' BENCH_kernels.json
grep -q '"gru_seq1_step_speedup"' BENCH_kernels.json
grep -q '"matmul_at_train"' BENCH_kernels.json
grep -q '"tanh"' BENCH_kernels.json
grep -q '"bit_identical_to_seed": true' BENCH_kernels.json
echo "all checks passed"
