//! Integration: the real-socket federation transport. The engine's
//! byte accounting is no longer hypothetical — in `TransportMode::Socket`
//! every round's plan is enacted as framed bytes over localhost TCP to a
//! worker pool, and `CommTracker` is fed from what actually crossed the
//! wire. Covers: faults-off byte-identity with the in-process simulator,
//! the fault matrix over real frames (drop, straggler delay, corruption,
//! truncation, upload retries), server kill-and-resume over sockets,
//! quorum fallback, and the spawned-worker-process mode speaking the
//! same protocol as in-process threads.

use fedkemf::fl::checkpoint::CheckpointPolicy;
use fedkemf::fl::engine::{Engine, FedAlgorithm, RoundOutcome, RunOptions};
use fedkemf::fl::metrics::History;
use fedkemf::fl::trace::RoundScope;
use fedkemf::fl::transport::TransportStats;
use fedkemf::prelude::*;
use std::path::PathBuf;

fn world(seed: u64, rounds: usize) -> (FlContext, SynthTask) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(240, 0);
    let test = task.generate(80, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 0.75,
        rounds,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    (FlContext::new(cfg, &train, test), task)
}

fn fedavg() -> FedAvg {
    FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3))
}

/// A fresh per-test checkpoint directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_transport_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Training-free probe with an asymmetric payload, so fault sweeps over
/// the wire cost sockets, not gradient descent.
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
        _ctx: &FlContext,
        _scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        Ok(sampled
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
    }
    fn fuse(
        &mut self,
        _round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        _scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        let loss = if updates.is_empty() { f32::NAN } else { 1.0 };
        Ok(RoundOutcome { train_loss: loss })
    }
    fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
        0.5
    }
}

/// A fault storm that exercises every enacted failure mode: pre-download
/// drops (silence), post-download drops (corrupted/truncated broadcasts),
/// stragglers cut by a deadline, and upload retries.
fn storm() -> FaultConfig {
    FaultConfig {
        drop_before_download: 0.15,
        drop_after_download: 0.2,
        straggler_prob: 0.3,
        straggler_delay_s: 40.0,
        round_deadline_s: Some(30.0),
        upload_failure_prob: 0.3,
        upload_retries: 2,
        ..Default::default()
    }
}

/// The transport's own counters must agree with what the engine
/// recorded: in socket mode the history *is* the wire measurement.
fn assert_stats_match_history(stats: &TransportStats, history: &History) {
    let down: u64 = history.records.iter().map(|r| r.down_bytes).sum();
    let up: u64 = history.records.iter().map(|r| r.up_bytes).sum();
    let wasted: u64 = history.records.iter().map(|r| r.wasted_up_bytes).sum();
    assert_eq!(stats.payload_down_bytes, down, "downlink: wire vs recorded");
    assert_eq!(stats.payload_up_bytes, up, "uplink: wire vs recorded");
    assert_eq!(stats.payload_wasted_bytes, wasted, "wasted uplink: wire vs recorded");
    assert_eq!(stats.rounds, history.rounds());
    assert!(
        stats.wire_bytes >= stats.payload_total(),
        "framing overhead cannot be negative"
    );
}

#[test]
fn faults_off_socket_run_is_byte_identical_to_in_process() {
    let (ctx, _) = world(21, 4);
    let mut a = fedavg();
    let inproc = Engine::run(&mut a, &ctx, RunOptions::new()).unwrap();
    assert!(inproc.transport.is_none(), "in-process runs report no wire stats");

    // carry_model stays on: every broadcast embeds the actual quantized
    // global model, so the compress wire codec runs end to end.
    let mut b = fedavg();
    let socket = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().socket_transport(SocketConfig::threads(2)),
    )
    .unwrap();

    assert_eq!(
        inproc.history.to_json(),
        socket.history.to_json(),
        "with faults off, real traffic must not perturb a single recorded byte"
    );
    let stats = socket.transport.expect("socket run must report wire stats");
    assert_stats_match_history(&stats, &socket.history);
    assert!(stats.framing_overhead_bytes() > 0);
}

#[test]
fn fault_storm_over_sockets_keeps_the_accounting_honest() {
    let (ctx, _) = world(22, 6);
    let faults = storm();
    let mut a = Probe;
    let inproc = Engine::run(&mut a, &ctx, RunOptions::new().faults(faults)).unwrap();
    let mut b = Probe;
    let socket = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().faults(faults).socket_transport(SocketConfig::threads(2)),
    )
    .unwrap();

    // The lifecycle draw is transport-independent: identical plans,
    // identical reporters, identical quorum decisions.
    assert_eq!(inproc.plans.len(), socket.plans.len());
    for (p, q) in inproc.plans.iter().zip(&socket.plans) {
        assert_eq!(format!("{p:?}"), format!("{q:?}"), "plans must not depend on transport");
    }
    let mut saw_fault = false;
    for (r, s) in inproc.history.records.iter().zip(&socket.history.records) {
        // Every outcome surfaces identically: same clients reached, same
        // uploads accepted, same retries wasted, same quorum verdicts.
        assert_eq!(r.down_clients, s.down_clients);
        assert_eq!(r.up_clients, s.up_clients);
        assert_eq!(r.up_bytes, s.up_bytes);
        assert_eq!(r.wasted_up_bytes, s.wasted_up_bytes);
        assert_eq!(r.quorum_met, s.quorum_met);
        // Honesty beats symmetry on the downlink: a truncated broadcast
        // really sends fewer bytes than the simulator charges.
        assert!(s.down_bytes <= r.down_bytes, "the wire cannot carry more than was sent");
        saw_fault |= r.up_clients < r.down_clients || r.wasted_up_bytes > 0;
    }
    assert!(saw_fault, "storm config produced no faults — weak test");
    let stats = socket.transport.expect("socket run must report wire stats");
    assert_stats_match_history(&stats, &socket.history);
}

#[test]
fn server_killed_mid_federation_resumes_byte_identically_over_sockets() {
    let scfg = || SocketConfig::threads(2);
    // Uninterrupted socket reference: 8 rounds straight through.
    let (ctx8, _) = world(23, 8);
    let mut straight = fedavg();
    let reference =
        Engine::run(&mut straight, &ctx8, RunOptions::new().socket_transport(scfg()))
            .unwrap()
            .history;

    // "Server killed" run: 4 rounds, checkpoints on disk, then the
    // process — worker pool, sockets, and all — goes away.
    let dir = temp_dir("kill");
    let (ctx4, _) = world(23, 4);
    let mut partial = fedavg();
    let report = Engine::run(
        &mut partial,
        &ctx4,
        RunOptions::new()
            .socket_transport(scfg())
            .checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();
    assert!(!report.checkpoints.is_empty(), "no checkpoints written before the kill");

    // Restarted server: fresh transport, fresh worker pool, resumed run.
    let mut resumed = fedavg();
    let report = Engine::run(
        &mut resumed,
        &ctx8,
        RunOptions::new().socket_transport(scfg()).resume_from(&dir),
    )
    .unwrap();
    assert_eq!(report.resumed_from, Some(4));
    assert_eq!(
        report.history.to_json(),
        reference.to_json(),
        "a restarted server must replay into the exact same federation"
    );
    // The resumed transport only carried rounds 4..8; its wire stats
    // cover its own traffic, not the pre-kill rounds.
    let stats = report.transport.expect("socket resume must report wire stats");
    assert_eq!(stats.rounds, 4);

    // Transport choice is not part of the run identity: the same
    // checkpoint resumes in-process to the same bytes.
    let mut inproc = fedavg();
    let report = Engine::run(&mut inproc, &ctx8, RunOptions::new().resume_from(&dir)).unwrap();
    assert_eq!(report.history.to_json(), reference.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quorum_fallback_survives_the_socket_transport() {
    let (ctx, _) = world(24, 6);
    let faults = FaultConfig { drop_before_download: 0.9, min_quorum: 3, ..Default::default() };
    let mut a = Probe;
    let inproc = Engine::run(&mut a, &ctx, RunOptions::new().faults(faults)).unwrap();
    let mut b = Probe;
    let socket = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().faults(faults).socket_transport(SocketConfig::threads(2)),
    )
    .unwrap();
    // Pre-download drops put nothing on the wire, so even this storm is
    // byte-identical; discarded rounds (NaN loss, carried-over global)
    // must survive the transport unchanged.
    assert_eq!(inproc.history.to_json(), socket.history.to_json());
    assert!(
        socket.history.records.iter().any(|r| !r.quorum_met),
        "a 90% pre-download drop against quorum 3 must discard some round"
    );
    let stats = socket.transport.expect("socket run must report wire stats");
    assert_stats_match_history(&stats, &socket.history);
}

#[test]
fn worker_processes_speak_the_same_protocol_as_threads() {
    let (ctx, _) = world(25, 3);
    let faults = storm();
    let mut a = Probe;
    let threads = Engine::run(
        &mut a,
        &ctx,
        RunOptions::new().faults(faults).socket_transport(SocketConfig::threads(2)),
    )
    .unwrap();

    // Real OS processes: the dedicated worker binary connects back over
    // TCP and serves the same federation.
    let exe = env!("CARGO_BIN_EXE_kemf_worker");
    let mut b = Probe;
    let procs = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().faults(faults).socket_transport(SocketConfig::process(2, exe)),
    )
    .unwrap();

    assert_eq!(
        threads.history.to_json(),
        procs.history.to_json(),
        "thread and process workers must enact identical traffic"
    );
    let t = threads.transport.unwrap();
    let p = procs.transport.unwrap();
    assert_eq!(t.wire_bytes, p.wire_bytes, "same frames, same bytes, either side of exec");
    assert_eq!(t.frames_sent, p.frames_sent);
    assert_eq!(t.frames_received, p.frames_received);
}
