//! The three benchmark federations: their data, algorithm and run
//! options. Each trains a fixed instance and evaluates on a held-out set
//! drawn from the workload seed (see [`TRAIN_SEED`]). Each loads a
//! different layer, so an optimisation of one layer shows on one
//! workload and leaves another unchanged.

use kemf_core::fedkemf::{FedKemf, FedKemfConfig};
use kemf_core::resource::{assign_tiers, heterogeneous_specs, ResourceTier};
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::checkpoint::CheckpointPolicy;
use kemf_fl::client_store::SpillConfig;
use kemf_fl::config::FlConfig;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{FedAlgorithm, RunOptions};
use kemf_fl::fedavg::FedAvg;
use kemf_fl::lifecycle::FaultConfig;
use kemf_fl::network::NetworkProfiles;
use kemf_fl::scaffold::Scaffold;
use kemf_fl::scheduler::AsyncConfig;
use kemf_fl::transport::SocketConfig;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_tensor::rng::child_seed;
use kemf_tensor::Tensor;
use std::path::{Path, PathBuf};

/// One named benchmark federation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// FedKEMF in the paper's Table 3 setting: nine clients deploying
    /// ResNet-20/32/44 by device tier around a ResNet-20 knowledge
    /// network; synchronous, in-process, no faults. Server distillation
    /// and DML local updates on conv-net GEMM shapes do nearly all the
    /// work; engine, transport, store and checkpoints nearly none.
    KemfMultimodel,
    /// SCAFFOLD on a 2-layer CNN over 100 000 on-demand synthetic
    /// clients, a 200-client cohort per cycle, control variates spilled
    /// to disk, buffered-async cycles over wifi/4G/3G links with drops,
    /// stragglers and upload retries, and a checkpoint every 5 cycles.
    /// The per-client machinery (shard synthesis, spill reads and
    /// writes, scheduler, checkpoints) runs 200 times a cycle on tiny
    /// GEMMs; there is no distillation.
    FleetAsync,
    /// FedAvg on VGG-11 (a 603 kB state) over loopback TCP to two worker
    /// threads, with the quantized model carried in every broadcast and
    /// faults that corrupt and truncate frames. The wire path (quantize,
    /// framing, sockets, validation) dominates and compute is light; the
    /// only workload where compression and transport matter.
    FedavgVggSocket,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::KemfMultimodel,
        Workload::FleetAsync,
        Workload::FedavgVggSocket,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KemfMultimodel => "kemf_multimodel",
            Workload::FleetAsync => "fleet_async",
            Workload::FedavgVggSocket => "fedavg_vgg_socket",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds (synchronous) or aggregation cycles (async) per run.
    pub fn rounds(self) -> usize {
        match self {
            Workload::KemfMultimodel => 5,
            Workload::FleetAsync => 20,
            Workload::FedavgVggSocket => 12,
        }
    }

    /// The fixed test accuracy `time_to_target_s` and
    /// `comm_mb_to_target` are measured to. A run that never reaches it
    /// counts as failed. Each sits where the training trajectory jumps
    /// between two rounds, so the held-out set drawn from the workload
    /// seed does not move the round that first reaches it.
    pub fn target_acc(self) -> f32 {
        match self {
            Workload::KemfMultimodel => 0.2,
            Workload::FleetAsync => 0.8,
            Workload::FedavgVggSocket => 0.8,
        }
    }

    /// Correctness floor on `best_acc`: below it the federation did not
    /// learn, whatever the clock says.
    pub fn acc_floor(self) -> f32 {
        match self {
            Workload::KemfMultimodel => 0.3,
            Workload::FleetAsync => 0.8,
            Workload::FedavgVggSocket => 0.9,
        }
    }

    /// Whether the workload runs buffered-asynchronous cycles.
    pub fn is_async(self) -> bool {
        self == Workload::FleetAsync
    }

    /// Checkpoint cadence in completed rounds, if the workload
    /// checkpoints.
    pub fn checkpoint_every(self) -> Option<usize> {
        match self {
            Workload::FleetAsync => Some(5),
            _ => None,
        }
    }
}

/// Settings of the FedKEMF multi-model federation (the paper's Table 3).
pub mod kemf {
    pub const CLIENTS: usize = 9;
    pub const SAMPLE_RATIO: f32 = 0.5;
    pub const PER_CLIENT: usize = 80;
    pub const POOL: usize = 240;
    pub const TEST: usize = 500;
    pub const ALPHA: f64 = 0.5;
    pub const BATCH: usize = 16;
    pub const HW: usize = 16;
}

/// Settings of the population-scale asynchronous SCAFFOLD fleet.
pub mod fleet {
    pub const CLIENTS: usize = 100_000;
    pub const COHORT: usize = 200;
    pub const PER_CLIENT: usize = 16;
    pub const TEST: usize = 1000;
    pub const BATCH: usize = 8;
    pub const HW: usize = 12;
}

/// Settings of the FedAvg VGG-11 socket federation.
pub mod vgg {
    pub const CLIENTS: usize = 16;
    pub const SAMPLE_RATIO: f32 = 0.5;
    pub const PER_CLIENT: usize = 48;
    pub const TEST: usize = 500;
    pub const ALPHA: f64 = 0.5;
    pub const BATCH: usize = 16;
    pub const LR: f32 = 0.05;
    pub const HW: usize = 16;
    pub const WORKERS: usize = 2;
}

/// Seed of the synthetic tasks' class prototypes.
const TASK_SEED: u64 = 0xDA7A;

/// Seed of each workload's training instance: the training samples,
/// Dirichlet partition, device tiers, model initialisation, the
/// algorithm's own randomness, client sampling and the injected-fault
/// schedule. It is fixed, as a benchmark's dataset and reference
/// initialisation are: every one of these moves the learning trajectory,
/// and with a few rounds of a few clients the round at which a fixed
/// target accuracy is first reached swings by a third or more from one
/// training seed to the next, which no bound on `time_to_target_s` can
/// absorb. The workload seed draws the held-out evaluation set.
const TRAIN_SEED: u64 = 1;

/// A sample stream of the task. It stays below 2^32, where the
/// on-demand client shards' streams begin.
fn stream(seed: u64, which: u64) -> u64 {
    child_seed(seed, which) >> 32
}

/// Everything a run needs, built from the seed: the measured set-up.
pub struct World {
    pub workload: Workload,
    pub seed: u64,
    pub task: SynthTask,
    pub ctx: FlContext,
    pub algo: Box<dyn FedAlgorithm>,
    /// FedKEMF only: the per-client local-model specs and public pool.
    pub client_specs: Vec<ModelSpec>,
    pub pool: Option<Tensor>,
    /// Scratch directory for the spill store and checkpoints.
    pub work_dir: PathBuf,
}

impl World {
    /// Generate the workload's inputs from `seed` and construct the
    /// algorithm. `work_dir` receives spill files and checkpoints.
    pub fn build(workload: Workload, seed: u64, work_dir: &Path) -> World {
        match workload {
            Workload::KemfMultimodel => build_kemf(seed, work_dir),
            Workload::FleetAsync => build_fleet(seed, work_dir),
            Workload::FedavgVggSocket => build_vgg(seed, work_dir),
        }
    }

    pub fn spill_dir(&self) -> PathBuf {
        self.work_dir.join("spill")
    }

    pub fn checkpoint_dir(&self) -> PathBuf {
        self.work_dir.join("ckpt")
    }

    /// The run options of the workload (everything but the sink). With
    /// `socket == false` the socket workload runs in-process instead,
    /// the baseline `transport.inproc_round_s_p50` is measured on.
    pub fn options<'a>(&self, socket: bool) -> RunOptions<'a> {
        let mut opts = RunOptions::new();
        match self.workload {
            Workload::KemfMultimodel => {}
            Workload::FleetAsync => {
                opts = opts
                    .faults(FaultConfig {
                        drop_before_download: 0.05,
                        drop_after_download: 0.05,
                        straggler_prob: 0.3,
                        straggler_delay_s: 240.0,
                        upload_failure_prob: 0.2,
                        upload_retries: 2,
                        ..FaultConfig::default()
                    })
                    .async_rounds(
                        AsyncConfig::new(fleet::COHORT / 2)
                            .max_staleness(2)
                            .profiles(NetworkProfiles::wifi_4g_3g()),
                    );
            }
            Workload::FedavgVggSocket => {
                opts = opts.faults(FaultConfig {
                    drop_after_download: 0.15,
                    upload_failure_prob: 0.25,
                    upload_retries: 1,
                    ..FaultConfig::default()
                });
                if socket {
                    opts = opts.socket_transport(SocketConfig::threads(vgg::WORKERS));
                }
            }
        }
        if let Some(every) = self.workload.checkpoint_every() {
            opts = opts.checkpoint(CheckpointPolicy::new(self.checkpoint_dir(), every));
        }
        opts
    }

    /// Samples in one client's training shard (the on-demand shard size
    /// for the synthetic fleet).
    pub fn shard_samples(&self) -> usize {
        match self.workload {
            Workload::KemfMultimodel => kemf::PER_CLIENT,
            Workload::FleetAsync => fleet::PER_CLIENT,
            Workload::FedavgVggSocket => vgg::PER_CLIENT,
        }
    }
}

fn build_kemf(seed: u64, work_dir: &Path) -> World {
    use kemf::*;
    let task = SynthTask::new(SynthConfig::cifar_like(TASK_SEED));
    let train = task.generate(CLIENTS * PER_CLIENT, stream(TRAIN_SEED, 0));
    let test = task.generate(TEST, stream(seed, 1));
    let pool = task.generate_unlabeled(POOL, stream(TRAIN_SEED, 2));
    let cfg = FlConfig {
        n_clients: CLIENTS,
        sample_ratio: SAMPLE_RATIO,
        rounds: Workload::KemfMultimodel.rounds(),
        batch_size: BATCH,
        alpha: ALPHA,
        min_per_client: PER_CLIENT / 5,
        seed: TRAIN_SEED,
        ..FlConfig::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let tiers = kemf_tiers(TRAIN_SEED);
    let client_specs = heterogeneous_specs(&tiers, 3, HW, 10, child_seed(TRAIN_SEED, 0xC7));
    let knowledge = ModelSpec::scaled(Arch::ResNet20, 3, HW, 10, child_seed(TRAIN_SEED, 0x6B0));
    let algo = FedKemf::new(FedKemfConfig::uniform(
        knowledge,
        client_specs.clone(),
        pool.clone(),
    ));
    World {
        workload: Workload::KemfMultimodel,
        seed,
        task,
        ctx,
        algo: Box::new(algo),
        client_specs,
        pool: Some(pool),
        work_dir: work_dir.to_path_buf(),
    }
}

/// Device tiers of the nine FedKEMF clients: `assign_tiers` with every
/// tier present, so each of ResNet-20/32/44 trains in every run.
fn kemf_tiers(seed: u64) -> Vec<ResourceTier> {
    let mut tiers = assign_tiers(kemf::CLIENTS, child_seed(seed, 0x7153));
    let all = [ResourceTier::Low, ResourceTier::Mid, ResourceTier::High];
    for (slot, tier) in all.into_iter().enumerate() {
        if !tiers.contains(&tier) {
            tiers[slot] = tier;
        }
    }
    tiers
}

fn build_fleet(seed: u64, work_dir: &Path) -> World {
    use fleet::*;
    let task = SynthTask::new(SynthConfig::mnist_like(TASK_SEED));
    let test = task.generate(TEST, stream(seed, 1));
    let cfg = FlConfig {
        n_clients: CLIENTS,
        sample_ratio: COHORT as f32 / CLIENTS as f32,
        rounds: Workload::FleetAsync.rounds(),
        batch_size: BATCH,
        lr: 0.05,
        momentum: 0.0,
        min_per_client: 1,
        seed: TRAIN_SEED,
        ..FlConfig::default()
    };
    let ctx = FlContext::synthetic(cfg, task.clone(), PER_CLIENT, test);
    assert_eq!(ctx.cfg.sampled_per_round(), COHORT, "fleet cohort size");
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, HW, 10, child_seed(TRAIN_SEED, 0x90D));
    let algo = Scaffold::new(spec).with_spill(SpillConfig::new(work_dir.join("spill")));
    World {
        workload: Workload::FleetAsync,
        seed,
        task,
        ctx,
        algo: Box::new(algo),
        client_specs: Vec::new(),
        pool: None,
        work_dir: work_dir.to_path_buf(),
    }
}

fn build_vgg(seed: u64, work_dir: &Path) -> World {
    use vgg::*;
    let task = SynthTask::new(SynthConfig::cifar_like(TASK_SEED));
    let train = task.generate(CLIENTS * PER_CLIENT, stream(TRAIN_SEED, 0));
    let test = task.generate(TEST, stream(seed, 1));
    let cfg = FlConfig {
        n_clients: CLIENTS,
        sample_ratio: SAMPLE_RATIO,
        rounds: Workload::FedavgVggSocket.rounds(),
        batch_size: BATCH,
        lr: LR,
        alpha: ALPHA,
        min_per_client: PER_CLIENT / 4,
        seed: TRAIN_SEED,
        ..FlConfig::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let spec = ModelSpec::scaled(Arch::Vgg11, 3, HW, 10, child_seed(TRAIN_SEED, 0x90D));
    World {
        workload: Workload::FedavgVggSocket,
        seed,
        task,
        ctx,
        algo: Box::new(FedAvg::new(spec)),
        client_specs: Vec::new(),
        pool: None,
        work_dir: work_dir.to_path_buf(),
    }
}
