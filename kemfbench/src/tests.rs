//! Run with `cargo test --release --manifest-path kemfbench/Cargo.toml`.

use crate::layers::conv_gemm_shapes;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::Federation;
use crate::workload::{Workload, World};
use kemf_fl::engine::Engine;
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_tensor::Tensor;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests: the FLOP counter is process-wide, and each
/// federation already keeps the machine busy.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../.kemfbench_work")
        .join(format!("test-{name}-{}", std::process::id()))
}

/// The decorated run's history is byte-identical to an undecorated
/// `Engine::run` of the same world, and so are the checkpoints it
/// writes: the decorator forwards every trait method.
fn decorator_is_transparent(workload: Workload) {
    let _serial = serial();
    let dir = scratch(workload.name());
    let mut plain_world = World::build(workload, 7, &dir.join("plain"));
    let opts = plain_world.options(true);
    let plain =
        Engine::run(plain_world.algo.as_mut(), &plain_world.ctx, opts).expect("undecorated run");
    let mut timed_world = World::build(workload, 7, &dir.join("timed"));
    let timed = Federation::run(&mut timed_world, None, true);
    let timed_report = timed.report.as_ref().expect("decorated run");
    assert_eq!(plain.history.to_json(), timed_report.history.to_json());

    let names = |paths: &[PathBuf]| -> Vec<String> {
        paths
            .iter()
            .filter(|p| p.exists())
            .map(|p| {
                p.file_name()
                    .expect("checkpoint file name")
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
    };
    assert_eq!(names(&plain.checkpoints), names(&timed_report.checkpoints));
    assert_eq!(
        workload.checkpoint_every().is_some(),
        !names(&plain.checkpoints).is_empty()
    );
    for name in names(&plain.checkpoints) {
        let a = std::fs::read(plain_world.checkpoint_dir().join(&name)).expect("plain checkpoint");
        let b = std::fs::read(timed_world.checkpoint_dir().join(&name)).expect("timed checkpoint");
        assert!(
            a == b,
            "checkpoint {name} differs between decorated and undecorated runs"
        );
    }
    assert!(
        timed.failures.is_empty(),
        "correctness checks failed: {:?}",
        timed.failures
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decorator_is_transparent_on_kemf_multimodel() {
    decorator_is_transparent(Workload::KemfMultimodel);
}

#[test]
fn decorator_is_transparent_on_fleet_async() {
    decorator_is_transparent(Workload::FleetAsync);
}

#[test]
fn decorator_is_transparent_on_fedavg_vgg_socket() {
    decorator_is_transparent(Workload::FedavgVggSocket);
}

/// `BENCHMARK.json` names exactly the metrics the benchmark prints, with
/// the same units, and every workload.
#[test]
fn benchmark_json_matches_the_metric_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entries = END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len();
    assert_eq!(text.matches("\"name\": ").count(), entries);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
}

/// The GEMM shapes the tensor probe derives from each architecture
/// account for every FLOP of a forward pass, classifier included.
#[test]
fn conv_gemm_shapes_cover_the_forward_pass() {
    let _serial = serial();
    for (arch, ch, hw, batch) in [
        (Arch::ResNet20, 3, 16, 4),
        (Arch::ResNet44, 3, 16, 2),
        (Arch::Vgg11, 3, 16, 2),
        (Arch::Cnn2, 1, 12, 3),
    ] {
        let spec = ModelSpec::scaled(arch, ch, hw, 10, 0);
        let w = spec.width;
        let head: usize = match arch {
            Arch::Vgg11 => 8 * w * 8 * w + 8 * w * 10,
            Arch::Cnn2 => 4 * w * (hw / 4) * (hw / 4) * 10,
            _ => 4 * w * 10,
        };
        let convs: usize = conv_gemm_shapes(arch, ch, hw, batch)
            .iter()
            .map(|(m, k, n)| m * k * n)
            .sum();
        let mut model = Model::new(spec);
        let x = Tensor::zeros(&[batch, ch, hw, hw]);
        let before = kemf_tensor::flops::total();
        model.predict(&x);
        let measured = kemf_tensor::flops::total() - before;
        assert_eq!(measured, 2 * (convs + batch * head) as u64, "{arch:?}");
    }
}
