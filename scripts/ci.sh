#!/usr/bin/env bash
# Local CI gate: exactly what a reviewer runs before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# Every crate's tests, the root package's included: the kemf-fl units
# (cohort-batch bit-identity, corrupt-checkpoint errors), the
# zero-allocation test and the SIMD-tier proptests live in member crates.
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# Kernel smoke: run every GEMM/int8 bench code path with a tiny time
# budget (no JSON write). Catches dispatch-tier crashes — e.g. an AVX-512
# path that faults on the CI host — that unit tests under a forced tier
# would miss.
cargo run --release -p kemf-bench --bin bench_kernels -- --smoke

# Population smoke: equal 1000-client cohorts sampled from 100k- and
# 50k-client populations must peak at the same RSS (memory is O(cohort),
# not O(population)), streaming that cohort in batches of 128 must peak
# at most half as high as holding it whole (same history), and FedKEMF
# with client models spilled to disk must be bit-identical to the eager
# in-memory run. Asserts internally.
cargo run --release -p kemf-bench --bin bench_population -- --smoke

# Async smoke: the buffered-round equivalence anchor (buffer == cohort +
# zero delay reproduces the synchronous history bit-for-bit) plus one
# genuinely buffered straggler run that must advance the virtual clock.
# Asserts internally.
cargo run --release -p kemf-bench --bin bench_async -- --smoke

# Native-tuned build: the runtime SIMD dispatch must not conflict with
# target-cpu=native codegen (the autovectorizer emitting wider ops around
# the explicit kernels). Build and run the whole test suite in a
# separate target dir so the default cache stays warm.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo test --workspace -q --release

# Smoke-run the fault-injection example: exercises the client lifecycle
# (drops, stragglers, upload retries, quorum aborts) end to end.
cargo run --release --example unreliable_clients

# Socket-transport smoke: a small federation over real localhost TCP
# with two spawned worker processes and the fault storm on — broadcasts
# carry the actual quantized model, drops arrive as corrupted/truncated
# frames, and the example asserts the wire accounting matches the
# simulator. bench_transport additionally pins faults-off byte-identity
# between the socket and in-process runs.
cargo run --release --example socket_federation
cargo run --release -p kemf-bench --bin bench_transport -- --smoke

# Server-larger-than-client smoke: FedRolex's windowed per-client
# downlink must be well under the full wide-MLP model at nonzero
# accuracy, one FedRolex federation must run over real localhost TCP
# byte-identically to the simulator, and FedGEMS must learn through a
# ≥2× server while billing logit-sized payloads. Asserts internally.
cargo run --release -p kemf-bench --bin bench_rolex -- --smoke

# Trace smoke: a recorded run must export round-lifecycle JSONL. The
# example itself asserts the export round-trips and every round carries
# exactly the spans `Phase::expected` calls for (no `buffer` in sync
# rounds); here we check the artifact landed.
trace_file=target/trace_smoke.jsonl
rm -f "$trace_file"
KEMF_TRACE="$trace_file" cargo run --release --example quickstart
test -s "$trace_file" || { echo "trace smoke: $trace_file empty or missing"; exit 1; }
for phase in sample broadcast local_update fusion upload eval round; do
    grep -q "\"phase\":\"$phase\"" "$trace_file" \
        || { echo "trace smoke: missing $phase spans"; exit 1; }
done
echo "trace smoke: $(wc -l < "$trace_file") spans in $trace_file"

# Resume smoke: a run checkpointed, killed at round 3 of 6, and resumed
# must produce a history byte-identical to an uninterrupted 6-round run.
ckpt_dir=target/resume_smoke_ckpts
hist_straight=target/resume_smoke_straight.json
hist_resumed=target/resume_smoke_resumed.json
rm -rf "$ckpt_dir" "$hist_straight" "$hist_resumed"
KEMF_ROUNDS=6 KEMF_HISTORY="$hist_straight" cargo run --release --example quickstart
KEMF_ROUNDS=3 KEMF_CHECKPOINT="$ckpt_dir" cargo run --release --example quickstart
KEMF_ROUNDS=6 KEMF_CHECKPOINT="$ckpt_dir" KEMF_HISTORY="$hist_resumed" \
    cargo run --release --example quickstart
cmp "$hist_straight" "$hist_resumed" \
    || { echo "resume smoke: resumed history differs from straight run"; exit 1; }
echo "resume smoke: straight and resumed histories are byte-identical"
