//! Experiment setup shared by every table/figure harness: workload
//! construction, algorithm instantiation, and the paper-scale
//! communication cost model.

use kemf_core::prelude::*;
use kemf_data::prelude::*;
use kemf_fl::prelude::*;
use kemf_nn::prelude::*;
use kemf_tensor::rng::child_seed;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Which synthetic task an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// CIFAR-10-like (3×16×16, 10 classes).
    CifarLike,
    /// MNIST-like (1×12×12, 10 classes).
    MnistLike,
}

impl Workload {
    /// The task generator (seeded).
    pub fn task(self, seed: u64) -> SynthTask {
        match self {
            Workload::CifarLike => SynthTask::new(SynthConfig::cifar_like(seed)),
            Workload::MnistLike => SynthTask::new(SynthConfig::mnist_like(seed)),
        }
    }

    /// (channels, resolution) of the task.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Workload::CifarLike => (3, 16),
            Workload::MnistLike => (1, 12),
        }
    }

    /// The paper's knowledge-network architecture for this task:
    /// ResNet-20 for CIFAR, a second 2-layer CNN for MNIST.
    pub fn knowledge_arch(self) -> Arch {
        match self {
            Workload::CifarLike => Arch::ResNet20,
            Workload::MnistLike => Arch::Cnn2,
        }
    }

    /// Display name.
    pub fn display(self) -> &'static str {
        match self {
            Workload::CifarLike => "CIFAR-10 (synthetic)",
            Workload::MnistLike => "MNIST (synthetic)",
        }
    }
}

/// One experiment's shape: everything a harness varies.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Task.
    pub workload: Workload,
    /// Client-side architecture (ignored for FedKEMF multi-model runs).
    pub arch: Arch,
    /// Number of clients.
    pub clients: usize,
    /// Per-round sample ratio.
    pub sample_ratio: f32,
    /// Communication rounds.
    pub rounds: usize,
    /// Training samples per client (average).
    pub samples_per_client: usize,
    /// Dirichlet α.
    pub alpha: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// Quick defaults sized for a single CPU core; every harness lets the
    /// CLI override each field.
    pub fn quick(workload: Workload, arch: Arch) -> Self {
        ExperimentSpec {
            workload,
            arch,
            clients: 8,
            sample_ratio: 0.5,
            rounds: 15,
            samples_per_client: 80,
            alpha: 0.1,
            seed: 42,
        }
    }

    /// Test-set size (¼ of the training set, at least 200).
    pub fn test_samples(&self) -> usize {
        (self.clients * self.samples_per_client / 4).max(200)
    }

    /// Server public-pool size for distillation.
    pub fn pool_samples(&self) -> usize {
        (self.clients * self.samples_per_client / 3).clamp(100, 400)
    }

    /// Build the federated context (data generated + partitioned).
    pub fn build_ctx(&self) -> (FlContext, SynthTask) {
        let task = self.workload.task(child_seed(self.seed, 0xDA7A));
        let train = task.generate(self.clients * self.samples_per_client, 0);
        let test = task.generate(self.test_samples(), 1);
        let cfg = FlConfig {
            n_clients: self.clients,
            sample_ratio: self.sample_ratio,
            rounds: self.rounds,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.08,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_schedule: LrSchedule::Constant,
            alpha: self.alpha,
            min_per_client: (self.samples_per_client / 5).max(4),
            eval_batch: 64,
            faults: FaultConfig::default(),
            cohort_batch: None,
            seed: self.seed,
        };
        (FlContext::new(cfg, &train, test), task)
    }
}

/// The five algorithms of the paper's comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgoKind {
    /// FedAvg baseline.
    FedAvg,
    /// FedProx baseline (μ = 0.01).
    FedProx,
    /// FedNova baseline.
    FedNova,
    /// SCAFFOLD baseline.
    Scaffold,
    /// FedKEMF (the paper's method).
    FedKemf,
}

/// All five, in the paper's presentation order.
pub const ALL_ALGOS: [AlgoKind; 5] =
    [AlgoKind::FedAvg, AlgoKind::FedNova, AlgoKind::FedProx, AlgoKind::Scaffold, AlgoKind::FedKemf];

impl AlgoKind {
    /// Display name matching the paper.
    pub fn display(self) -> &'static str {
        match self {
            AlgoKind::FedAvg => "FedAvg",
            AlgoKind::FedProx => "FedProx",
            AlgoKind::FedNova => "FedNova",
            AlgoKind::Scaffold => "SCAFFOLD",
            AlgoKind::FedKemf => "FedKEMF",
        }
    }

    /// Auxiliary-payload multiplier of the paper's cost accounting.
    pub fn aux_multiplier(self) -> u64 {
        match self {
            AlgoKind::FedNova | AlgoKind::Scaffold => 2,
            _ => 1,
        }
    }

    /// Instantiate the algorithm for an experiment. For FedKEMF the
    /// transmitted model is the knowledge network; for baselines it is
    /// `spec.arch` itself.
    pub fn build(
        self,
        spec: &ExperimentSpec,
        ctx: &FlContext,
        task: &SynthTask,
    ) -> Box<dyn FedAlgorithm> {
        let (ch, hw) = spec.workload.shape();
        let model = ModelSpec::scaled(spec.arch, ch, hw, 10, child_seed(spec.seed, 0x90D));
        match self {
            AlgoKind::FedAvg => Box::new(FedAvg::new(model)),
            AlgoKind::FedProx => Box::new(FedProx::new(model, 0.01)),
            AlgoKind::FedNova => Box::new(FedNova::new(model)),
            AlgoKind::Scaffold => Box::new(Scaffold::new(model)),
            AlgoKind::FedKemf => {
                let knowledge = ModelSpec::scaled(
                    spec.workload.knowledge_arch(),
                    ch,
                    hw,
                    10,
                    child_seed(spec.seed, 0x6B0),
                );
                let clients =
                    uniform_specs(spec.arch, ctx.cfg.n_clients, ch, hw, 10, child_seed(spec.seed, 0xC7));
                let pool = task.generate_unlabeled(spec.pool_samples(), 2);
                Box::new(FedKemf::new(FedKemfConfig::uniform(knowledge, clients, pool)))
            }
        }
    }

    /// The architecture whose bytes this algorithm actually transmits.
    pub fn wire_arch(self, spec: &ExperimentSpec) -> Arch {
        match self {
            AlgoKind::FedKemf => spec.workload.knowledge_arch(),
            _ => spec.arch,
        }
    }

    /// Paper-scale cost model for this algorithm on an experiment: the
    /// per-direction payload is the **full-scale** model's bytes, so cost
    /// ratios match the paper's tables even though training runs scaled
    /// models (see DESIGN.md "Substitutions").
    pub fn cost_model(self, spec: &ExperimentSpec) -> CostModel {
        CostModel::symmetric(full_scale_bytes(self.wire_arch(spec)), self.aux_multiplier())
    }
}

/// Bytes of the paper-scale (full-width) variant of an architecture,
/// cached per architecture.
pub fn full_scale_bytes(arch: Arch) -> u64 {
    static CACHE: OnceLock<parking_lot_free::Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    cache.get(arch)
}

/// Tiny lock-free-ish cache: five architectures, computed at most once
/// each behind a mutex (construction costs ~100 ms for VGG-11).
mod parking_lot_free {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    #[derive(Default)]
    pub struct Cache {
        map: Mutex<HashMap<Arch, u64>>,
    }

    impl Cache {
        pub fn get(&self, arch: Arch) -> u64 {
            let mut map = self.map.lock().expect("cache poisoned");
            *map.entry(arch).or_insert_with(|| {
                let m = Model::new(ModelSpec::paper_scale(arch));
                m.state_bytes() as u64
            })
        }
    }
}

/// Run one (algorithm, experiment) pair end to end.
pub fn run_experiment(kind: AlgoKind, spec: &ExperimentSpec) -> History {
    let (ctx, task) = spec.build_ctx();
    let mut algo = kind.build(spec, &ctx, &task);
    Engine::run(algo.as_mut(), &ctx, RunOptions::new())
        .expect("experiment run failed")
        .history
}

/// Like [`run_experiment`], but record the run through a
/// [`kemf_fl::trace::TraceSink`]: the returned history carries the full
/// round-lifecycle trace ([`History::trace`]). Tracing draws no
/// randomness, so the per-round records match [`run_experiment`] bit for
/// bit at the same spec.
pub fn run_experiment_recorded(kind: AlgoKind, spec: &ExperimentSpec) -> History {
    let (ctx, task) = spec.build_ctx();
    let mut algo = kind.build(spec, &ctx, &task);
    let faults = ctx.cfg.faults;
    Engine::run(
        algo.as_mut(),
        &ctx,
        RunOptions::new().faults(faults).record_trace(),
    )
    .expect("experiment run failed")
    .history
}

/// Like [`run_experiment`], but resumable: checkpoint into
/// `<checkpoint_dir>/<algorithm>/` every `every` rounds and, when
/// `resume` is set, continue from the newest checkpoint there (a fresh
/// run when the directory is still empty). A resumed experiment's
/// history is bit-identical to an uninterrupted one.
pub fn run_experiment_resumable(
    kind: AlgoKind,
    spec: &ExperimentSpec,
    checkpoint_dir: &std::path::Path,
    every: usize,
    resume: bool,
) -> History {
    let (ctx, task) = spec.build_ctx();
    let mut algo = kind.build(spec, &ctx, &task);
    // Per-algorithm subdirectory so one sweep can share a checkpoint root.
    let dir = checkpoint_dir.join(algo.name());
    let mut opts = RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, every.max(1)));
    if resume && matches!(kemf_fl::checkpoint::latest_checkpoint(&dir), Ok(Some(_))) {
        opts = opts.resume_from(&dir);
    }
    Engine::run(algo.as_mut(), &ctx, opts)
        .expect("experiment run failed")
        .history
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_bytes_ordering_matches_paper() {
        let r20 = full_scale_bytes(Arch::ResNet20);
        let r32 = full_scale_bytes(Arch::ResNet32);
        let vgg = full_scale_bytes(Arch::Vgg11);
        // Paper: ResNet-20 ≈ 1.05 MB one-way, VGG ≫ ResNet-32 > ResNet-20.
        assert!(r20 > 900_000 && r20 < 1_400_000, "ResNet-20 bytes {r20}");
        assert!(r32 > r20);
        assert!(vgg > 8 * r32, "VGG {vgg} vs ResNet-32 {r32}");
        // Cached path returns identical values.
        assert_eq!(r20, full_scale_bytes(Arch::ResNet20));
    }

    #[test]
    fn cost_models_reproduce_paper_ratios() {
        let spec = ExperimentSpec::quick(Workload::CifarLike, Arch::Vgg11);
        let fedavg = AlgoKind::FedAvg.cost_model(&spec);
        let fednova = AlgoKind::FedNova.cost_model(&spec);
        let kemf = AlgoKind::FedKemf.cost_model(&spec);
        // FedNova pays 2× FedAvg at equal rounds.
        assert_eq!(
            fednova.round_cost_per_client().unwrap(),
            2 * fedavg.round_cost_per_client().unwrap()
        );
        // FedKEMF ships a ResNet-20 knowledge net instead of VGG-11: the
        // per-round ratio is the headline ~19× (paper: 42 MB vs 2.1 MB).
        let ratio = fedavg.round_cost_per_client().unwrap() as f64
            / kemf.round_cost_per_client().unwrap() as f64;
        assert!(ratio > 8.0, "VGG/knowledge-net payload ratio {ratio}");
    }

    #[test]
    fn recorded_experiment_matches_untraced_records() {
        let mut spec = ExperimentSpec::quick(Workload::MnistLike, Arch::Cnn2);
        spec.rounds = 2;
        spec.clients = 4;
        spec.samples_per_client = 30;
        let plain = run_experiment(AlgoKind::FedAvg, &spec);
        let mut traced = run_experiment_recorded(AlgoKind::FedAvg, &spec);
        let trace = traced.trace.take().expect("trace attached");
        assert_eq!(trace.rounds(), 2);
        assert_eq!(plain.to_json(), traced.to_json(), "tracing perturbed the records");
    }

    #[test]
    fn quick_experiment_runs_end_to_end() {
        let mut spec = ExperimentSpec::quick(Workload::MnistLike, Arch::Cnn2);
        spec.rounds = 2;
        spec.clients = 4;
        spec.samples_per_client = 30;
        for kind in [AlgoKind::FedAvg, AlgoKind::FedKemf] {
            let h = run_experiment(kind, &spec);
            assert_eq!(h.rounds(), 2);
            assert!(h.accuracies().iter().all(|a| a.is_finite()));
        }
    }
}
