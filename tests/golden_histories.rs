//! Golden histories: the FNV-1a of every algorithm's serialized history
//! on a tiny fixed configuration, pinned across commits. The other
//! bit-identity tests compare two runs of the same build (sharded against
//! eager, sync against async, resumed against straight); these constants
//! catch a refactor that moves a bit in *both* runs at once.
//!
//! Everything runs under [`ScalarGuard`], so the pinned bits do not
//! depend on the host's SIMD tier. A deliberate numerical change updates
//! the constants and says why; the failure message prints every current
//! fingerprint to paste back in.

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::core::fusion::FusionMode;
use fedkemf::fl::client_store::SpillConfig;
use fedkemf::fl::engine::{Engine, FedAlgorithm, RunOptions};
use fedkemf::fl::trace::{Phase, TraceSink};
use fedkemf::nn::codec::Fnv1a;
use fedkemf::prelude::*;
use fedkemf::tensor::simd::ScalarGuard;
use std::path::PathBuf;

fn world(seed: u64, sample_ratio: f32) -> (FlContext, SynthTask) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(160, 0);
    let test = task.generate(60, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio,
        rounds: 3,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    (FlContext::new(cfg, &train, test), task)
}

fn knowledge() -> ModelSpec {
    ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99)
}

fn kemf_config(ctx: &FlContext, task: &SynthTask) -> FedKemfConfig {
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    FedKemfConfig::uniform(knowledge(), clients, task.generate_unlabeled(40, 2))
}

/// The nine algorithms plus FedKEMF's weight-average fusion mode.
fn all_algorithms(ctx: &FlContext, task: &SynthTask) -> Vec<Box<dyn FedAlgorithm>> {
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(40, 2);
    let wide_mlp = ModelSpec { width: 32, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) };
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    let mut wa = kemf_config(ctx, task);
    wa.fusion = FusionMode::WeightAverage;
    vec![
        Box::new(FedAvg::new(spec)),
        Box::new(FedProx::new(spec, 0.01)),
        Box::new(FedNova::new(spec)),
        Box::new(Scaffold::new(spec)),
        Box::new(FedDf::new(spec, pool.clone())),
        Box::new(FedMd::new(clients.clone(), pool.clone(), 10)),
        Box::new(FedKemf::new(kemf_config(ctx, task))),
        Box::new(FedKemf::new(wa)),
        Box::new(FedRolex::new(FedRolexConfig { server_spec: wide_mlp, client_width: 8 })),
        Box::new(FedGems::new(clients, big_server, pool, 10, FedGemsConfig::default())),
    ]
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fingerprint(algo: &mut dyn FedAlgorithm, ctx: &FlContext, opts: RunOptions<'_>) -> u64 {
    let history = Engine::run(algo, ctx, opts).unwrap().history;
    Fnv1a::default().bytes(history.to_json().as_bytes()).finish()
}

/// Compare `(label, fingerprint)` pairs against the pinned table,
/// reporting every mismatch at once.
fn check(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let labels: Vec<&str> = got.iter().map(|(l, _)| l.as_str()).collect();
    let expected: Vec<&str> = pinned.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, expected, "golden table covers a different run set");
    let wrong: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, g), (_, p))| g != p)
        .map(|((l, g), (_, p))| format!("{l}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "histories moved:\n{}", wrong.join("\n"));
}

#[test]
fn sync_histories_match_the_golden_fingerprints() {
    let _scalar = ScalarGuard::new();
    let (ctx, task) = world(211, 1.0);
    let got: Vec<(String, u64)> = all_algorithms(&ctx, &task)
        .iter_mut()
        .map(|a| (a.name(), fingerprint(a.as_mut(), &ctx, RunOptions::new())))
        .collect();
    check(
        &got,
        &[
            ("FedAvg", 0xe4c89a8d55a356c6),
            ("FedProx", 0xc119e88b1bd9cf14),
            ("FedNova", 0xe6412ec9e3382289),
            ("SCAFFOLD", 0x230677c4f42ec65c),
            ("FedDF", 0xfe81526d3df8acf3),
            ("FedMD", 0xf6cca7150f963b29),
            ("FedKEMF", 0xc918b329c4bba5b3),
            ("FedKEMF-WA", 0x3940f5b7e6e8523c),
            ("FedRolex", 0xc24757548a75e0ed),
            ("FedGEMS", 0xb95c8d9d87d4667d),
        ],
    );
}

/// Half the population per round, so spilled clients skip rounds and
/// every fetch must find the newest pre-round stamp across the gaps.
#[test]
fn spilled_histories_match_the_golden_fingerprints() {
    let _scalar = ScalarGuard::new();
    let (ctx, task) = world(212, 0.5);
    let kemf_dir = spill_dir("kemf");
    let scaffold_dir = spill_dir("scaffold");
    let fedmd_dir = spill_dir("fedmd");
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let mut kemf = FedKemf::new(kemf_config(&ctx, &task).with_spill(SpillConfig::new(&kemf_dir)));
    let mut scaffold = Scaffold::new(spec).with_spill(SpillConfig::new(&scaffold_dir));
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(40, 2);
    let mut fedmd = FedMd::new(clients, pool, 10)
        .with_spill(SpillConfig::new(&fedmd_dir));
    let got = vec![
        ("FedKEMF".to_string(), fingerprint(&mut kemf, &ctx, RunOptions::new())),
        ("SCAFFOLD".to_string(), fingerprint(&mut scaffold, &ctx, RunOptions::new())),
        ("FedMD".to_string(), fingerprint(&mut fedmd, &ctx, RunOptions::new())),
    ];
    for dir in [kemf_dir, scaffold_dir, fedmd_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    check(
        &got,
        &[
            ("FedKEMF", 0x69e6ea245c2f9d97),
            ("SCAFFOLD", 0x6d6f97e8a82e2fb2),
            ("FedMD", 0x8bb14e6cd75c914b),
        ],
    );
}

/// A two-slot buffer under a network model: stale updates fold at
/// weights below 1.0, which the warm-start average must honour.
#[test]
fn buffered_async_history_matches_the_golden_fingerprint() {
    let _scalar = ScalarGuard::new();
    let (ctx, task) = world(213, 1.0);
    let net = NetworkModel { bandwidth_bps: 5e5, latency_s: 0.1 };
    let mode = AsyncConfig::new(2).max_staleness(3).staleness_decay(0.7).network(net);
    let mut kemf = FedKemf::new(kemf_config(&ctx, &task));
    let mut sink = TraceSink::new();
    let opts = RunOptions::new().async_rounds(mode).sink(&mut sink);
    let got = vec![("FedKEMF".to_string(), fingerprint(&mut kemf, &ctx, opts))];
    let stale: u64 = sink
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::Buffer)
        .map(|s| s.counters.stale_updates)
        .sum();
    assert!(stale > 0, "the run must fold stale updates");
    check(&got, &[("FedKEMF", 0x5f9556a88b950428)]);
}
