//! Per-layer probes for the traced run: timed calls into the public API
//! of each crate, on the shapes and data of the workloads.
//!
//! Every probe returns `(name, value)` pairs whose names are listed in
//! [`crate::metrics::PER_LAYER`].

use crate::run::Federation;
use crate::sink::SpanSink;
use crate::workload::{fleet, kemf, vgg, Workload, World};
use kemf_core::distill::{distill_ensemble, DistillConfig};
use kemf_core::dml::{dml_local_update, DmlConfig};
use kemf_core::ensemble::{ensemble_forward, EnsembleStrategy};
use kemf_fl::checkpoint::load_run;
use kemf_fl::client_store::{ClientBlob, ClientStateStore, SpillConfig};
use kemf_fl::compress::{dequantize, quantize, QuantizedWeights, DEFAULT_CHUNK};
use kemf_fl::trace::Phase;
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_tensor::matmul::matmul_into;
use kemf_tensor::rng::{child_seed, seeded_rng};
use kemf_tensor::Tensor;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub type Metrics = Vec<(String, f64)>;

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median wall seconds of `f` over at least `min_reps` calls and at
/// least `min_secs` of total time.
fn time_median(min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Median GFLOP/s of `f`, with FLOPs read from the GEMM counter.
fn gflops_median(min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        let f0 = kemf_tensor::flops::total();
        let t0 = Instant::now();
        f();
        let secs = t0.elapsed().as_secs_f64();
        let flops = kemf_tensor::flops::total() - f0;
        rates.push(flops as f64 / secs / 1e9);
    }
    median(&rates)
}

fn put(out: &mut Metrics, name: impl Into<String>, value: f64) {
    out.push((name.into(), value));
}

/// `engine.*` from the traced run's spans and `algo.*` from the
/// decorator.
pub fn engine_and_algo(fed: &Federation, sink: &SpanSink) -> Metrics {
    let mut out = Metrics::new();
    for phase in [
        Phase::Sample,
        Phase::Broadcast,
        Phase::LocalUpdate,
        Phase::Buffer,
        Phase::Fusion,
        Phase::Eval,
    ] {
        put(
            &mut out,
            format!("engine.{}_s", phase.name()),
            sink.secs(phase),
        );
    }
    for phase in [Phase::LocalUpdate, Phase::Fusion, Phase::Eval] {
        let secs = sink.secs(phase);
        let rate = if secs > 0.0 {
            sink.flops(phase) as f64 / secs / 1e9
        } else {
            0.0
        };
        put(&mut out, format!("engine.{}_gflops", phase.name()), rate);
    }
    put(
        &mut out,
        "engine.outside_rounds_s",
        fed.wall_s - sink.secs(Phase::Round),
    );
    put(
        &mut out,
        "engine.stale_updates",
        sink.stale_updates() as f64,
    );
    put(
        &mut out,
        "engine.evicted_updates",
        sink.evicted_updates() as f64,
    );

    let s = &fed.stats;
    for (name, stat) in [
        ("round", s.round),
        ("train_cohort", s.train_cohort),
        ("fuse", s.fuse),
        ("evaluate", s.evaluate),
        ("client_plans", s.client_plans),
        ("state", s.state),
    ] {
        put(&mut out, format!("algo.{name}_s"), stat.secs);
        put(&mut out, format!("algo.{name}_calls"), stat.calls as f64);
    }
    out
}

/// One training batch of each architecture the workloads train, at the
/// shape of the workload that trains it.
pub fn arch_shapes() -> [(Arch, &'static str, usize, usize, usize); 5] {
    [
        (Arch::ResNet20, "resnet20", 3, kemf::HW, kemf::BATCH),
        (Arch::ResNet32, "resnet32", 3, kemf::HW, kemf::BATCH),
        (Arch::ResNet44, "resnet44", 3, kemf::HW, kemf::BATCH),
        (Arch::Vgg11, "vgg11", 3, vgg::HW, vgg::BATCH),
        (Arch::Cnn2, "cnn2", 1, fleet::HW, fleet::BATCH),
    ]
}

/// `nn.train_gflops.<arch>` (`Model::forward` + `backward`) and
/// `nn.infer_gflops.<arch>` (`Model::predict`) on one batch.
pub fn nn(seed: u64) -> Metrics {
    let mut out = Metrics::new();
    for (arch, name, ch, hw, batch) in arch_shapes() {
        let spec = ModelSpec::scaled(arch, ch, hw, 10, child_seed(seed, 0x4E4E));
        let mut model = Model::new(spec);
        let mut rng = seeded_rng(child_seed(seed, 0xBA7C));
        let x = Tensor::randn(&[batch, ch, hw, hw], 1.0, &mut rng);
        let grad = Tensor::randn(&[batch, 10], 0.1, &mut rng);
        let train = gflops_median(5, 0.15, || {
            model.zero_grad();
            let y = model.forward(&x, true);
            black_box(&y);
            let gx = model.backward(&grad);
            black_box(&gx);
        });
        let infer = gflops_median(5, 0.1, || {
            black_box(model.predict(&x));
        });
        put(&mut out, format!("nn.train_gflops.{name}"), train);
        put(&mut out, format!("nn.infer_gflops.{name}"), infer);
    }
    out
}

/// im2col GEMM shapes `(m, k, n)` of every convolution of a scaled
/// model's forward pass at batch `batch`, mirroring the topologies that
/// `ModelSpec::build` constructs: `m` = output channels, `k` =
/// in-channels × kernel area, `n` = batch × output plane.
pub fn conv_gemm_shapes(
    arch: Arch,
    ch: usize,
    hw: usize,
    batch: usize,
) -> Vec<(usize, usize, usize)> {
    let spec = ModelSpec::scaled(arch, ch, hw, 10, 0);
    let w = spec.width;
    let mut shapes = Vec::new();
    match arch {
        Arch::ResNet20 | Arch::ResNet32 | Arch::ResNet44 => {
            let blocks = arch.resnet_blocks().expect("resnet arch");
            shapes.push((w, ch * 9, batch * hw * hw));
            let (mut in_ch, mut size) = (w, hw);
            for (out_ch, stride) in [(w, 1), (2 * w, 2), (4 * w, 2)] {
                for b in 0..blocks {
                    let s = if b == 0 { stride } else { 1 };
                    let out_size = (size - 1) / s + 1;
                    let plane = batch * out_size * out_size;
                    shapes.push((out_ch, in_ch * 9, plane));
                    shapes.push((out_ch, out_ch * 9, plane));
                    if s != 1 || in_ch != out_ch {
                        shapes.push((out_ch, in_ch, plane));
                    }
                    in_ch = out_ch;
                    size = out_size;
                }
            }
        }
        Arch::Vgg11 => {
            let widths = [w, 2 * w, 4 * w, 4 * w, 8 * w, 8 * w, 8 * w, 8 * w];
            let (mut in_ch, mut size) = (ch, hw);
            for (i, out_ch) in widths.into_iter().enumerate() {
                shapes.push((out_ch, in_ch * 9, batch * size * size));
                in_ch = out_ch;
                if [0, 1, 3, 5, 7].contains(&i) && size >= 2 {
                    size /= 2;
                }
            }
        }
        Arch::Cnn2 => {
            shapes.push((2 * w, ch * 25, batch * hw * hw));
            shapes.push((4 * w, 2 * w * 25, batch * (hw / 2) * (hw / 2)));
        }
        Arch::Mlp1 => {}
    }
    shapes
}

/// `tensor.gemm_gflops.<arch>`: `matmul_into` at the GEMM shape of the
/// architecture's largest-FLOP convolution (the first, on ties).
pub fn tensor(seed: u64) -> Metrics {
    let mut out = Metrics::new();
    for (arch, name, ch, hw, batch) in arch_shapes() {
        let shapes = conv_gemm_shapes(arch, ch, hw, batch);
        let (m, k, n) = shapes.iter().copied().fold((0, 0, 0), |best, s| {
            if s.0 * s.1 * s.2 > best.0 * best.1 * best.2 {
                s
            } else {
                best
            }
        });
        let mut rng = seeded_rng(child_seed(seed, 0x6E33));
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut c = vec![0.0f32; m * n];
        let rate = gflops_median(10, 0.15, || {
            matmul_into(a.data(), b.data(), &mut c, m, k, n);
            black_box(&c);
        });
        put(&mut out, format!("tensor.gemm_gflops.{name}"), rate);
    }
    out
}

/// `data.shard_gen_s`: generating one client's shard.
pub fn data(world: &World) -> Metrics {
    let n = world.shard_samples();
    let mut stream = 1_000_000u64;
    let secs = time_median(20, 0.1, || {
        stream += 1;
        black_box(world.task.generate(n, stream));
    });
    vec![("data.shard_gen_s".into(), secs)]
}

/// `store.fetch_s` / `store.commit_s`: one client's SCAFFOLD control
/// variate (the size of the workload's global model) through a sharded
/// store in `dir`, per client.
pub fn store(world: &World, dir: &Path) -> Metrics {
    let dim = world
        .algo
        .global_model()
        .map(|(_, state)| state.params.numel())
        .expect("every benchmark algorithm has a global model");
    let clients = 64;
    let mut store =
        ClientStateStore::sharded(clients, SpillConfig::new(dir)).expect("open the probe store");
    let values: Vec<f32> = (0..dim).map(|i| (i % 97) as f32 * 1e-3).collect();
    let mut commits = Vec::with_capacity(clients);
    store.begin_round(0);
    for k in 0..clients {
        let blob = ClientBlob::new().with_tensor("c", vec![dim], values.clone());
        let t0 = Instant::now();
        store.commit(k, blob).expect("commit a probe blob");
        commits.push(t0.elapsed().as_secs_f64());
    }
    store.begin_round(1);
    let mut fetches = Vec::with_capacity(clients);
    for k in 0..clients {
        let t0 = Instant::now();
        let blob = store
            .fetch(k, |_| ClientBlob::new())
            .expect("fetch a probe blob");
        fetches.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            blob.tensor("c").map(|t| t.values.len()),
            Some(dim),
            "probe blob round-trips"
        );
    }
    vec![
        ("store.fetch_s".into(), median(&fetches)),
        ("store.commit_s".into(), median(&commits)),
    ]
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// `store.spill_mb` and `ckpt.*` from the traced run's own files.
pub fn spill_and_checkpoints(world: &World, fed: &Federation) -> Metrics {
    let mut out = Metrics::new();
    put(
        &mut out,
        "store.spill_mb",
        dir_bytes(&world.spill_dir()) as f64 / 1e6,
    );
    let newest = fed
        .report
        .as_ref()
        .ok()
        .and_then(|r| r.checkpoints.iter().rev().find(|p| p.exists()).cloned());
    match newest {
        Some(path) => {
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            put(&mut out, "ckpt.mb", bytes as f64 / 1e6);
            let secs = time_median(3, 0.0, || {
                black_box(load_run(&path).expect("the run's own checkpoint loads"));
            });
            put(&mut out, "ckpt.load_s", secs);
        }
        None => {
            put(&mut out, "ckpt.mb", 0.0);
            put(&mut out, "ckpt.load_s", 0.0);
        }
    }
    out
}

/// `compress.*`: the int8 wire codec on the workload's trained global
/// model.
pub fn compress(world: &World) -> Metrics {
    let (_, state) = world
        .algo
        .global_model()
        .expect("every benchmark algorithm has a global model");
    let w = &state.params;
    let mut q: Option<QuantizedWeights> = None;
    let quantize_s = time_median(10, 0.05, || {
        q = Some(quantize(w, DEFAULT_CHUNK).expect("finite weights quantize"));
    });
    let q = q.expect("quantized at least once");
    let mut wire = Vec::new();
    let to_wire_s = time_median(10, 0.05, || wire = q.to_wire());
    let from_wire_s = time_median(10, 0.05, || {
        black_box(QuantizedWeights::from_wire(&wire).expect("own wire bytes decode"));
    });
    let dequantize_s = time_median(10, 0.05, || {
        black_box(dequantize(&q).expect("valid payload dequantizes"));
    });
    vec![
        ("compress.quantize_s".into(), quantize_s),
        ("compress.to_wire_s".into(), to_wire_s),
        ("compress.from_wire_s".into(), from_wire_s),
        ("compress.dequantize_s".into(), dequantize_s),
        ("compress.ratio".into(), q.ratio()),
    ]
}

/// `core.*`: FedKEMF's client and server kernels on the multi-model
/// workload: DML local updates of a cohort covering ResNet-20/32/44
/// against the trained knowledge network, then the ensemble teacher
/// pass and one server distillation over the public pool with the
/// cohort's knowledge networks as teachers.
pub fn core(world: &World) -> Metrics {
    assert_eq!(
        world.workload,
        Workload::KemfMultimodel,
        "core probes need the FedKEMF world"
    );
    let (knowledge_spec, global) = world
        .algo
        .global_model()
        .expect("FedKEMF exposes its knowledge network");
    let pool = world
        .pool
        .as_ref()
        .expect("FedKEMF world has a public pool");
    let cfg = &world.ctx.cfg;
    let mut dml = DmlConfig::new(cfg.local_epochs, cfg.batch_size, cfg.sgd_at(0));
    // The mutual-KL weight `FedKemfConfig::uniform` trains with.
    dml.kl_weight = 0.3;

    // A cohort the size of one round's sample, leading with one client
    // of each architecture.
    let cohort = cfg.sampled_per_round();
    let mut order: Vec<usize> = Vec::new();
    for arch in [Arch::ResNet20, Arch::ResNet32, Arch::ResNet44] {
        if let Some(k) = (0..cfg.n_clients).find(|&k| world.client_specs[k].arch == arch) {
            order.push(k);
        }
    }
    let rest: Vec<usize> = (0..cfg.n_clients).filter(|k| !order.contains(k)).collect();
    order.extend(rest);
    order.truncate(cohort);

    let mut out = Metrics::new();
    let mut per_sample: Vec<(Arch, f64)> = Vec::new();
    let mut teachers = Vec::with_capacity(order.len());
    for &k in &order {
        let shard = world.ctx.client_shard(k);
        let mut local = Model::new(world.client_specs[k]);
        let mut knowledge = Model::new(knowledge_spec);
        knowledge.set_state(&global);
        let t0 = Instant::now();
        black_box(dml_local_update(
            &mut local,
            &mut knowledge,
            &shard,
            &dml,
            child_seed(world.seed, k as u64),
        ));
        let samples = (shard.len() * cfg.local_epochs).max(1);
        per_sample.push((
            world.client_specs[k].arch,
            t0.elapsed().as_secs_f64() / samples as f64,
        ));
        teachers.push(knowledge);
    }
    for (arch, name) in [
        (Arch::ResNet20, "resnet20"),
        (Arch::ResNet32, "resnet32"),
        (Arch::ResNet44, "resnet44"),
    ] {
        let xs: Vec<f64> = per_sample
            .iter()
            .filter(|(a, _)| *a == arch)
            .map(|(_, s)| *s)
            .collect();
        put(
            &mut out,
            format!("core.dml_s.{name}"),
            if xs.is_empty() { 0.0 } else { median(&xs) },
        );
    }

    let teacher_s = time_median(3, 0.0, || {
        black_box(ensemble_forward(
            &mut teachers,
            pool,
            EnsembleStrategy::MaxLogits,
        ));
    });
    let distill_cfg = DistillConfig::default();
    let distill_s = time_median(3, 0.0, || {
        let mut student = Model::new(knowledge_spec);
        student.set_state(&global);
        black_box(distill_ensemble(
            &mut student,
            &mut teachers,
            pool,
            &distill_cfg,
            world.seed,
        ));
    });
    put(&mut out, "core.teacher_forward_s", teacher_s);
    put(&mut out, "core.distill_s", distill_s);
    put(&mut out, "core.distill_student_s", distill_s - teacher_s);
    out
}
