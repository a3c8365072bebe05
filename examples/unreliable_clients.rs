//! Federated learning with unreliable clients.
//!
//! Real edge fleets fail at every phase of a round: clients miss the
//! broadcast, crash after downloading, straggle past the server's
//! deadline, or lose upload after upload to a flaky link. This example
//! drives FedAvg and FedKEMF through three reliability regimes —
//! reliable, 40% post-download dropout, and a combined fault
//! storm with a round deadline and a reporting quorum — and reports what
//! the fault-aware executor records: the honest per-phase byte split
//! (downlink over the full broadcast set, accepted vs wasted uplink),
//! quorum aborts, simulated round wall-clock on a 4G link, and
//! per-client fairness of the deployed models.
//!
//! ```sh
//! cargo run --release --example unreliable_clients
//! ```

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::fl::engine::FedAlgorithm;
use fedkemf::fl::lifecycle::RoundPlan;
use fedkemf::fl::metrics::fairness_summary;
use fedkemf::prelude::*;

fn report(h: &History, plans: &[RoundPlan], payload: WirePayload, net: &NetworkModel, deadline: Option<f64>) {
    let down: u64 = h.records.iter().map(|r| r.down_bytes).sum();
    let up: u64 = h.records.iter().map(|r| r.up_bytes).sum();
    let wasted: u64 = h.records.iter().map(|r| r.wasted_up_bytes).sum();
    let aborts = h.records.iter().filter(|r| !r.quorum_met).count();
    let wall: f64 =
        plans.iter().map(|p| net.lifecycle_round_time(p, payload, deadline)).sum::<f64>()
            / plans.len() as f64;
    println!(
        "{:<8} best {:>5.1}%  final {:>5.1}%  down {:>7}  up {:>7}  wasted {:>6}  aborts {}  ~{:.1}s/round on 4G",
        h.algorithm,
        h.best_accuracy() * 100.0,
        h.final_accuracy() * 100.0,
        down,
        up,
        wasted,
        aborts,
        wall,
    );
}

fn main() {
    let task = SynthTask::new(SynthConfig::mnist_like(17));
    let train = task.generate(400, 0);
    let test = task.generate(120, 1);
    let n_clients = 8;
    let net = NetworkModel::cellular_4g();

    // The three reliability regimes. Post-download dropout is the
    // drop-after-download fault, so the executor charges its downlink
    // honestly.
    let scenarios: [(&str, FaultConfig); 3] = [
        ("reliable fleet", FaultConfig::reliable()),
        (
            "40% post-download dropout",
            FaultConfig { drop_after_download: 0.4, ..Default::default() },
        ),
        (
            "fault storm (deadline 12s, quorum 3)",
            FaultConfig {
                drop_before_download: 0.1,
                drop_after_download: 0.15,
                straggler_prob: 0.4,
                straggler_delay_s: 40.0,
                round_deadline_s: Some(12.0),
                upload_failure_prob: 0.3,
                upload_retries: 2,
                min_quorum: 3,
            },
        ),
    ];

    for (label, faults) in scenarios {
        println!("\n===== {label} =====");
        let cfg = FlConfig {
            n_clients,
            sample_ratio: 0.75,
            rounds: 8,
            local_epochs: 2,
            alpha: 0.3,
            min_per_client: 10,
            faults,
            seed: 17,
            ..Default::default()
        };
        let ctx = FlContext::new(cfg, &train, test.clone());

        // FedAvg under this regime.
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 5);
        let mut fedavg = FedAvg::new(spec);
        let ra = Engine::run(&mut fedavg, &ctx, RunOptions::new().faults(faults))
            .expect("fedavg run failed");
        report(&ra.history, &ra.plans, fedavg.client_plans(0, &[0])[0].payload, &net, faults.round_deadline_s);

        // FedKEMF under the same regime: only the knowledge network
        // crosses the (unreliable) wire.
        let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 999);
        let clients = uniform_specs(Arch::Cnn2, n_clients, 1, 12, 10, 5);
        let pool = task.generate_unlabeled(120, 2);
        let mut kemf = FedKemf::new(FedKemfConfig::uniform(knowledge, clients, pool));
        let rk = Engine::run(&mut kemf, &ctx, RunOptions::new().faults(faults))
            .expect("fedkemf run failed");
        report(&rk.history, &rk.plans, kemf.client_plans(0, &[0])[0].payload, &net, faults.round_deadline_s);

        // Fairness: per-client accuracy of each method's deployed model on
        // every client's own data distribution (a fresh sample per client).
        let client_tests: Vec<_> =
            (0..n_clients).map(|i| task.generate(40, 500 + i as u64)).collect();
        let (gspec, gstate) = fedavg.global_model().expect("fedavg global");
        let mut deployed = Model::new(gspec);
        deployed.set_state(&gstate);
        let fedavg_accs: Vec<f32> = client_tests
            .iter()
            .map(|t| deployed.evaluate(&t.images, &t.labels, 32))
            .collect();
        // FedKEMF deploys each client's own local model.
        let kemf_accs = kemf
            .evaluate_local_models_per_client(&client_tests, 32)
            .expect("one test set per client");
        let fa = fairness_summary(&fedavg_accs).expect("non-empty cohort");
        let fk = fairness_summary(&kemf_accs).expect("non-empty cohort");
        println!(
            "fairness FedAvg : mean {:.1}% std {:.3} min {:.1}% max {:.1}%",
            fa.mean * 100.0, fa.std, fa.min * 100.0, fa.max * 100.0
        );
        println!(
            "fairness FedKEMF: mean {:.1}% std {:.3} min {:.1}% max {:.1}%",
            fk.mean * 100.0, fk.std, fk.min * 100.0, fk.max * 100.0
        );
    }
}
