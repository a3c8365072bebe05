//! Integration: the round-lifecycle observability layer end to end.
//! Covers the PR's acceptance criteria: a traced run emits one span per
//! phase per round with real timings and FLOP counts on the compute
//! phases; an untraced run's serialized history is bit-identical to a
//! [`NoopSink`] run and carries no trace key at all; the canonical JSONL
//! form is deterministic per seed; and quorum-aborted rounds omit
//! exactly the algorithm-interior phases.

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::core::resource::uniform_specs;
use fedkemf::fl::engine::{train_cohort_in_batches, Engine};
use fedkemf::fl::fedavg::FedAvg;
use fedkemf::fl::lifecycle::RoundPlan;
use fedkemf::nn::models::Arch;
use fedkemf::prelude::*;

fn run_recorded(
    algo: &mut dyn FedAlgorithm,
    ctx: &FlContext,
    faults: &FaultConfig,
) -> (History, Vec<RoundPlan>) {
    let report = Engine::run(
        algo,
        ctx,
        RunOptions::new().faults(*faults).record_trace(),
    )
    .unwrap();
    (report.history, report.plans)
}

/// Tiny FedKEMF world: real DML + ensemble distillation, small enough
/// for a fast integration test.
fn kemf_world(seed: u64) -> (FlContext, FedKemf) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(180, 0);
    let test = task.generate(60, 1);
    let cfg = FlConfig {
        n_clients: 3,
        sample_ratio: 1.0,
        rounds: 3,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1000);
    let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
    let pool = task.generate_unlabeled(60, 5);
    let algo = FedKemf::new(FedKemfConfig::uniform(knowledge, specs, pool));
    (ctx, algo)
}

fn fedavg_world(seed: u64) -> (FlContext, FedAvg) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(120, 0);
    let test = task.generate(40, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 0.5,
        rounds: 3,
        local_epochs: 1,
        batch_size: 16,
        min_per_client: 5,
        seed,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3));
    (ctx, algo)
}

/// The phases of one quorum-met round, in emission order.
const FULL_ROUND: [Phase; 7] = [
    Phase::Sample,
    Phase::Broadcast,
    Phase::LocalUpdate,
    Phase::Fusion,
    Phase::Upload,
    Phase::Eval,
    Phase::Round,
];

#[test]
fn traced_fedkemf_run_emits_full_round_structure() {
    let (ctx, mut algo) = kemf_world(71);
    let (history, _plans) = run_recorded(&mut algo, &ctx, &FaultConfig::reliable());
    let trace = history.trace.as_ref().expect("recorded run attaches a trace");
    assert_eq!(trace.rounds(), ctx.cfg.rounds);
    for round in 0..ctx.cfg.rounds {
        let spans = trace.round_spans(round);
        let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
        assert_eq!(phases, FULL_ROUND, "round {round} span structure");

        let by = |p: Phase| *spans.iter().find(|s| s.phase == p).unwrap();
        let local = by(Phase::LocalUpdate);
        assert_eq!(local.counters.clients, 3);
        assert!(local.counters.steps > 0, "DML took optimizer steps");
        assert_eq!(local.counters.batches, local.counters.steps);
        assert!(local.wall_s > 0.0, "local update burned wall clock");
        assert!(local.counters.flops > 0, "DML burned GEMM FLOPs");

        let fusion = by(Phase::Fusion);
        assert!(fusion.counters.steps > 0, "ensemble distillation took steps");
        assert!(fusion.wall_s > 0.0 && fusion.counters.flops > 0);

        assert!(by(Phase::Broadcast).counters.down_bytes > 0);
        assert!(by(Phase::Upload).counters.up_bytes > 0);

        // The enclosing round span bounds its interior phases.
        let round_span = by(Phase::Round);
        assert!(round_span.counters.quorum_met);
        let interior: f64 = spans
            .iter()
            .filter(|s| s.phase != Phase::Round)
            .map(|s| s.wall_s)
            .sum();
        assert!(
            interior <= round_span.wall_s + 1e-9,
            "round {round}: phases sum to {interior}s > round span {}s",
            round_span.wall_s
        );
    }
    // The summary table reflects the real run.
    let table = trace.summary_table();
    for name in ["local_update", "fusion", "eval", "round"] {
        assert!(table.contains(name), "summary table missing {name}:\n{table}");
    }
}

#[test]
fn noop_sink_history_is_bit_identical_to_untraced() {
    let (ctx, mut a) = fedavg_world(72);
    let ha = Engine::run(&mut a, &ctx, RunOptions::new()).unwrap().history;
    assert!(!ha.to_json().contains("trace"), "untraced JSON carries no trace key");

    let (_, mut b) = fedavg_world(72);
    let mut noop = NoopSink;
    let hb = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().faults(FaultConfig::reliable()).sink(&mut noop),
    )
    .unwrap()
    .history;
    assert_eq!(ha.to_json(), hb.to_json(), "NoopSink run serializes identically");

    // A recorded run differs only by its trace: strip it and the JSON
    // matches bit for bit (tracing draws no randomness).
    let (_, mut c) = fedavg_world(72);
    let (mut hc, _) = run_recorded(&mut c, &ctx, &FaultConfig::reliable());
    assert!(hc.trace.is_some());
    hc.trace = None;
    assert_eq!(ha.to_json(), hc.to_json(), "tracing perturbed the round records");
}

#[test]
fn canonical_jsonl_is_deterministic_and_round_trips() {
    let (ctx, mut a) = fedavg_world(73);
    let (ha, _) = run_recorded(&mut a, &ctx, &FaultConfig::reliable());
    let (_, mut b) = fedavg_world(73);
    let (hb, _) = run_recorded(&mut b, &ctx, &FaultConfig::reliable());
    let ta = ha.trace.unwrap();
    let tb = hb.trace.unwrap();
    // Golden determinism: wall clock and the process-global FLOP counter
    // vary, everything else is bit-reproducible per seed.
    assert_eq!(ta.canonical_jsonl(), tb.canonical_jsonl());
    // Full-fidelity round trip through the JSONL export.
    let parsed = RunTrace::from_jsonl(&ta.to_jsonl()).unwrap();
    assert_eq!(parsed, ta);
    assert_eq!(parsed.canonical_jsonl(), tb.canonical_jsonl());
}

/// A free algorithm so the fault sweep doesn't pay for training.
struct Probe;

impl FedAlgorithm for Probe {
    fn name(&self) -> String {
        "probe".into()
    }
    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        ClientPlan::uniform(
            sampled,
            ModelView::Full,
            WirePayload { down_bytes: 1000, up_bytes: 100 },
        )
    }
    fn train_cohort(
        &mut self,
        _wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        train_cohort_in_batches(self, sampled, ctx, scope, |_, batch| {
            Ok(batch
                .iter()
                .map(|&client| PreparedUpdate {
                    client,
                    n_samples: 1,
                    steps: 0,
                    loss: 1.0,
                    payload: UpdatePayload::Empty,
                    commit: None,
                })
                .collect())
        })
    }
    fn fuse(
        &mut self,
        _round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        scope.phase(Phase::Fusion, |c| c.clients = updates.len());
        Ok(RoundOutcome { train_loss: 1.0 })
    }
    fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
        0.5
    }
}

#[test]
fn quorum_aborted_rounds_skip_algorithm_phases() {
    let task = SynthTask::new(SynthConfig::mnist_like(74));
    let train = task.generate(120, 0);
    let test = task.generate(40, 1);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.75,
        rounds: 8,
        min_per_client: 2,
        seed: 74,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let faults = FaultConfig { drop_before_download: 0.8, min_quorum: 4, ..Default::default() };
    let mut algo = Probe;
    let (history, _) = run_recorded(&mut algo, &ctx, &faults);
    let trace = history.trace.as_ref().unwrap();
    let mut aborted = 0;
    for r in &history.records {
        let spans = trace.round_spans(r.round);
        let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
        let round_span = spans.iter().find(|s| s.phase == Phase::Round).unwrap();
        assert_eq!(round_span.counters.quorum_met, r.quorum_met);
        if r.quorum_met {
            assert_eq!(phases, FULL_ROUND, "round {}", r.round);
        } else {
            aborted += 1;
            assert!(r.train_loss.is_nan(), "aborted round has no loss");
            // The algorithm never ran: its interior phases are absent,
            // the engine-owned phases still bracket the round.
            assert_eq!(
                phases,
                [Phase::Sample, Phase::Broadcast, Phase::Upload, Phase::Eval, Phase::Round],
                "round {}",
                r.round
            );
        }
    }
    assert!(aborted > 0, "80% pre-download dropout must abort some 4-quorum round");
}

/// Every round of a synchronous and of a buffered-asynchronous run
/// carries exactly the spans [`Phase::expected`] calls for: one
/// `local_update` however many cohort batches the round streams
/// through, and one `fusion` per quorum-met round.
#[test]
fn sync_and_async_runs_emit_the_expected_phases() {
    let faults = FaultConfig { drop_before_download: 0.4, min_quorum: 2, ..Default::default() };
    let traced = |round_mode: RoundMode| {
        let (mut ctx, mut algo) = fedavg_world(75);
        ctx.cfg.rounds = 6;
        ctx.cfg.cohort_batch = Some(1);
        let opts = RunOptions::new().faults(faults).round_mode(round_mode).record_trace();
        let history = Engine::run(&mut algo, &ctx, opts).unwrap().history;
        let quorum: Vec<bool> = history.records.iter().map(|r| r.quorum_met).collect();
        assert!(quorum.contains(&true) && quorum.contains(&false), "{quorum:?}");
        history.trace.unwrap()
    };

    let sync = traced(RoundMode::Sync);
    sync.check_phases(false).unwrap();
    assert!(sync.check_phases(true).is_err(), "sync rounds emit no buffer span");
    for span in sync.spans.iter().filter(|s| s.phase == Phase::LocalUpdate) {
        // Two reporters streamed one at a time, counted in one span.
        assert_eq!(span.counters.clients, 2);
        assert_eq!(span.counters.batches, span.counters.steps);
    }

    let buffered = traced(RoundMode::Async(AsyncConfig::new(2)));
    buffered.check_phases(true).unwrap();
    assert!(buffered.check_phases(false).is_err(), "async cycles emit a buffer span");
}
