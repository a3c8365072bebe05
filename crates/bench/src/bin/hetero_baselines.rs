//! Extension experiment: FedKEMF against the *heterogeneity-capable*
//! distillation family — FedMD (logit sharing), FedDF (ensemble
//! distillation of full models), and FedGEMS (selective logit fusion
//! into a server larger than any client) — on the same non-IID task,
//! reporting accuracy, payload per round, and simulated
//! time-to-accuracy on a 4G-class link. Complements the paper's
//! weight-averaging baselines.

use kemf_bench::*;
use kemf_core::prelude::*;
use kemf_fl::network::NetworkModel;
use kemf_fl::prelude::*;
use kemf_nn::prelude::*;
use kemf_tensor::rng::child_seed;

fn main() {
    let args = Args::parse();
    let mut spec = ExperimentSpec::quick(Workload::CifarLike, Arch::ResNet20);
    apply_overrides(&mut spec, &args);
    let (ch, hw) = spec.workload.shape();
    let (ctx, task) = spec.build_ctx();
    let net = NetworkModel::cellular_4g();

    let knowledge =
        ModelSpec::scaled(spec.workload.knowledge_arch(), ch, hw, 10, child_seed(spec.seed, 0x6B0));
    let clients = uniform_specs(spec.arch, ctx.cfg.n_clients, ch, hw, 10, child_seed(spec.seed, 0xC7));
    let model = ModelSpec::scaled(spec.arch, ch, hw, 10, child_seed(spec.seed, 0x90D));

    let mut algos: Vec<Box<dyn FedAlgorithm>> = vec![
        Box::new(FedAvg::new(model)),
        Box::new(FedDf::new(model, task.generate_unlabeled(spec.pool_samples(), 2))),
        Box::new(FedMd::new(
            clients.clone(),
            task.generate_unlabeled(spec.pool_samples(), 2),
            10,
        )),
        Box::new(FedKemf::new(FedKemfConfig::uniform(
            knowledge,
            clients.clone(),
            task.generate_unlabeled(spec.pool_samples(), 2),
        ))),
        Box::new(FedGems::new(
            clients,
            ModelSpec { width: model.width * 4, ..model },
            task.generate_unlabeled(spec.pool_samples(), 2),
            10,
            FedGemsConfig::default(),
        )),
    ];

    let mut table = Table::new(
        "Extension — distillation-family baselines under non-IID data",
        &["method", "best_acc", "converge_acc", "total_comm", "sim_comm_time_4g"],
    );
    for algo in algos.iter_mut() {
        let name = algo.name();
        let h = kemf_fl::engine::Engine::run(algo.as_mut(), &ctx, kemf_fl::engine::RunOptions::new())
            .expect("run failed")
            .history;
        table.row(&[
            name,
            fmt_pct(h.best_accuracy()),
            fmt_pct(h.converged_accuracy(3)),
            fmt_bytes(h.total_bytes() as f64),
            format!("{:.1}s", net.history_comm_time(&h)),
        ]);
    }
    table.emit("hetero_baselines");
}
