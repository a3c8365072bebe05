//! Quickstart: train FedKEMF on a synthetic CIFAR-10-like task and watch
//! the global knowledge network's accuracy climb.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Environment knobs:
//!
//! * `KEMF_TRACE=/path/to/trace.jsonl` — record the run through a
//!   [`TraceSink`]: one JSON object per round-lifecycle span plus the
//!   per-phase summary table (see the Observability section of
//!   EXPERIMENTS.md).
//! * `KEMF_ROUNDS=n` — override the round horizon (default 10).
//! * `KEMF_CHECKPOINT=/path/to/dir` — resumable run: checkpoint every
//!   2 rounds into the directory and, when it already holds a
//!   checkpoint, resume from the newest one. Kill the process mid-run,
//!   rerun with the same directory, and the final history is
//!   bit-identical to an uninterrupted run (see "Resumable runs" in
//!   EXPERIMENTS.md).
//! * `KEMF_HISTORY=/path/to/history.json` — write the run's history JSON
//!   to that path (what the CI resume smoke diffs).

use fedkemf::prelude::*;
use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};

fn main() {
    // 1. A synthetic vision task (stands in for CIFAR-10; see DESIGN.md).
    let task = SynthTask::new(SynthConfig::cifar_like(42));
    let train = task.generate(480, 0);
    let test = task.generate(160, 1);

    // 2. Federated world: 8 clients, Dirichlet(0.1) non-IID shards,
    //    half the clients sampled each round.
    let rounds = std::env::var("KEMF_ROUNDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&r| r > 0)
        .unwrap_or(10);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.5,
        rounds,
        alpha: 0.1,
        min_per_client: 10,
        seed: 42,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    println!(
        "partitioned {} samples over {} clients (heterogeneity {:.2})",
        ctx.total_train_samples(),
        cfg.n_clients,
        ctx.heterogeneity
    );

    // 3. FedKEMF: VGG-11 local models, a tiny ResNet-20 knowledge network
    //    on the wire, ensemble distillation on an unlabeled server pool.
    let knowledge = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 999);
    let clients = uniform_specs(Arch::Vgg11, cfg.n_clients, 3, 16, 10, 7);
    let pool = task.generate_unlabeled(160, 3);
    let mut algo = FedKemf::new(FedKemfConfig::uniform(knowledge, clients, pool));
    println!(
        "knowledge network on the wire: {} bytes/round/client/direction",
        algo.payload_bytes()
    );

    // 4. Train and report. With KEMF_TRACE set, record every
    //    round-lifecycle span; tracing draws no randomness, so the
    //    history is bit-identical either way. With KEMF_CHECKPOINT set,
    //    checkpoint every 2 rounds and resume from the newest checkpoint
    //    in the directory when one exists. Note: the run fingerprint
    //    deliberately ignores the round horizon, so a checkpoint written
    //    at KEMF_ROUNDS=3 resumes cleanly toward KEMF_ROUNDS=10.
    let trace_path = std::env::var("KEMF_TRACE").ok();
    let mut opts = RunOptions::new();
    if trace_path.is_some() {
        opts = opts.record_trace();
    }
    if let Some(dir) = std::env::var("KEMF_CHECKPOINT").ok().filter(|d| !d.is_empty()) {
        let dir = std::path::PathBuf::from(dir);
        opts = opts.checkpoint(CheckpointPolicy::new(&dir, 2));
        if matches!(fedkemf::fl::checkpoint::latest_checkpoint(&dir), Ok(Some(_))) {
            opts = opts.resume_from(&dir);
        }
    }
    let report = Engine::run(&mut algo, &ctx, opts).expect("run failed");
    if let Some(done) = report.resumed_from {
        println!("resumed from checkpoint: {done} rounds already complete");
    }
    let history = report.history;
    for r in &history.records {
        println!(
            "round {:>2}: test accuracy {:>5.1}%  (train loss {:.3}, {:.1} MB total)",
            r.round + 1,
            r.test_acc * 100.0,
            r.train_loss,
            r.cum_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    println!(
        "\nbest {:.1}% | converged {:.1}% | total communication {:.1} MB",
        history.best_accuracy() * 100.0,
        history.converged_accuracy(3) * 100.0,
        history.total_bytes() as f64 / (1024.0 * 1024.0)
    );

    // 5. Export the history, when asked (the CI resume smoke compares
    //    these files byte for byte across straight and resumed runs).
    if let Some(path) = std::env::var("KEMF_HISTORY").ok().filter(|p| !p.is_empty()) {
        std::fs::write(&path, history.to_json()).expect("history written");
        println!("history -> {path}");
    }

    // 6. Export the trace, when one was recorded.
    if let Some(path) = trace_path {
        let trace = history.trace.as_ref().expect("recorded run attaches a trace");
        std::fs::write(&path, trace.to_jsonl()).expect("trace written");
        // Sanity: the export round-trips and every synchronous round
        // carries exactly the spans its quorum outcome calls for.
        let parsed = RunTrace::from_jsonl(&std::fs::read_to_string(&path).unwrap())
            .expect("trace parses back");
        assert_eq!(&parsed, trace);
        if let Err(violation) = parsed.check_phases(false) {
            panic!("incomplete trace: {violation}");
        }
        println!("\n{} spans -> {path}\n\n{}", parsed.spans.len(), parsed.summary_table());
    }
}
