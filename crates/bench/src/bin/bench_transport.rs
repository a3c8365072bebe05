//! In-process simulation vs real socket transport: what honesty costs.
//!
//! The socket transport enacts every round as framed bytes over
//! localhost TCP, so its byte accounting is a measurement instead of a
//! formula. This binary prices that: wall-clock rounds/sec for the
//! closed-form simulator vs thread workers across payload sizes, plus
//! the framing-overhead fraction at each size (the honest extra bytes
//! the protocol itself costs).
//!
//! Usage:
//!   bench_transport --smoke     # CI: byte-identity + one wired sweep point
//!   bench_transport             # full sweep, writes BENCH_transport.json
//!
//! Training is deliberately excluded: a zero-cost probe algorithm with a
//! synthetic payload isolates the transport, so the numbers compare
//! traffic machinery, not gradient descent.

use kemf_bench::Args;
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::config::FlConfig;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{Engine, EngineError, FedAlgorithm, RoundOutcome, RunOptions};
use kemf_fl::lifecycle::{ClientPlan, FaultConfig, ModelView, WirePayload};
use kemf_fl::scheduler::{PreparedUpdate, UpdatePayload};
use kemf_fl::trace::RoundScope;
use kemf_fl::transport::SocketConfig;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One (transport × payload) measurement, as written to
/// BENCH_transport.json.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct TransportRecord {
    transport: String,
    payload_down_bytes: u64,
    payload_up_bytes: u64,
    rounds: usize,
    wall_rounds_per_sec: f64,
    /// Payload bytes that actually crossed the wire (socket modes only).
    wire_payload_bytes: Option<u64>,
    /// Protocol framing on top of the payload (socket modes only).
    wire_framing_bytes: Option<u64>,
}

/// Zero-cost probe: constant loss, fixed payload, no training.
struct Probe {
    payload: WirePayload,
}

impl FedAlgorithm for Probe {
    fn name(&self) -> String {
        "probe".into()
    }
    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        ClientPlan::uniform(sampled, ModelView::Full, self.payload)
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

fn world(seed: u64, rounds: usize) -> FlContext {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(120, 0);
    let test = task.generate(40, 1);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.5,
        rounds,
        min_per_client: 2,
        seed,
        ..Default::default()
    };
    FlContext::new(cfg, &train, test)
}

fn faults() -> FaultConfig {
    FaultConfig {
        drop_before_download: 0.1,
        drop_after_download: 0.1,
        upload_failure_prob: 0.2,
        upload_retries: 2,
        ..Default::default()
    }
}

fn run_point(transport: &str, payload: WirePayload, rounds: usize, seed: u64) -> TransportRecord {
    let ctx = world(seed, rounds);
    let mut probe = Probe { payload };
    let opts = RunOptions::new().faults(faults());
    let opts = match transport {
        "inproc" => opts,
        "socket" => opts.socket_transport(SocketConfig::threads(2).filler_only()),
        other => panic!("unknown transport {other}"),
    };
    let t0 = Instant::now();
    let report = Engine::run(&mut probe, &ctx, opts).expect("run failed");
    let wall = t0.elapsed().as_secs_f64();
    TransportRecord {
        transport: transport.into(),
        payload_down_bytes: payload.down_bytes,
        payload_up_bytes: payload.up_bytes,
        rounds,
        wall_rounds_per_sec: rounds as f64 / wall.max(1e-9),
        wire_payload_bytes: report.transport.as_ref().map(|s| s.payload_total()),
        wire_framing_bytes: report.transport.as_ref().map(|s| s.framing_overhead_bytes()),
    }
}

fn smoke() {
    // Anchor: faults off, same seed — the wired history is bit-identical
    // to the simulated one and the wire counters match the records.
    let ctx = world(5, 3);
    let payload = WirePayload { down_bytes: 4096, up_bytes: 1024 };
    let mut a = Probe { payload };
    let sim = Engine::run(&mut a, &ctx, RunOptions::new()).expect("inproc");
    let mut b = Probe { payload };
    let wired = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().socket_transport(SocketConfig::threads(2)),
    )
    .expect("socket");
    assert_eq!(
        sim.history.to_json(),
        wired.history.to_json(),
        "faults-off socket history must be bit-identical to in-process"
    );
    let stats = wired.transport.expect("socket stats");
    let recorded: u64 = wired.history.records.iter().map(|r| r.down_bytes + r.up_bytes).sum();
    assert_eq!(stats.payload_total(), recorded, "wire bytes must equal recorded bytes");

    // One wired point under faults finishes and reports overhead.
    let rec = run_point("socket", payload, 3, 5);
    assert!(rec.wire_framing_bytes.unwrap() > 0, "framing overhead must be measured");
    println!(
        "smoke ok: byte-identity holds; wired point at {:.0} rounds/s, {} framing bytes",
        rec.wall_rounds_per_sec,
        rec.wire_framing_bytes.unwrap()
    );
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let is_smoke = raw.iter().any(|a| a == "--smoke");
    raw.retain(|a| a != "--smoke");
    let args = Args::from_iter(raw);

    if is_smoke {
        smoke();
        return;
    }

    let rounds = args.get("rounds", 20usize);
    let seed = args.get("seed", 5u64);
    let payloads = [
        WirePayload { down_bytes: 1 << 10, up_bytes: 1 << 10 },
        WirePayload { down_bytes: 1 << 14, up_bytes: 1 << 14 },
        WirePayload { down_bytes: 1 << 18, up_bytes: 1 << 18 },
        WirePayload { down_bytes: 1 << 22, up_bytes: 1 << 20 },
    ];
    let mut records = Vec::new();
    for payload in payloads {
        for transport in ["inproc", "socket"] {
            let rec = run_point(transport, payload, rounds, seed);
            println!(
                "{:7} down {:>8} up {:>8}: {:>9.1} rounds/s{}",
                rec.transport,
                rec.payload_down_bytes,
                rec.payload_up_bytes,
                rec.wall_rounds_per_sec,
                match (rec.wire_payload_bytes, rec.wire_framing_bytes) {
                    (Some(p), Some(f)) =>
                        format!(", wire {p} payload + {f} framing"),
                    _ => String::new(),
                },
            );
            records.push(rec);
        }
    }
    let json = serde_json::to_string_pretty(&records).expect("records serialize");
    let _ = std::fs::create_dir_all("bench_results");
    let path = "bench_results/BENCH_transport.json";
    std::fs::write(path, json).expect("write benchmark json");
    println!("wrote {path}");
}
