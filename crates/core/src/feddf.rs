//! FedDF (Lin et al. 2020) — *ensemble distillation for robust model
//! fusion* — the server-side fusion method FedKEMF builds on, included as
//! an additional baseline. Clients train **full models** locally (plain
//! SGD, homogeneous architecture); the server initializes a student at
//! the weighted average of the client models and refines it by distilling
//! their ensemble on public data. Unlike FedKEMF there is no knowledge
//! network: the full model crosses the wire every round.

use crate::distill::DistillConfig;
use crate::fusion::{FusionMode, StateFusion};
use kemf_fl::context::FlContext;
use kemf_fl::engine::{train_cohort_in_batches, EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::{ClientPlan, ModelView, WirePayload};
use kemf_fl::local::LocalCfg;
use kemf_fl::scheduler::PreparedUpdate;
use kemf_fl::state::{check_model_layout, AlgorithmState, RestoreError};
use kemf_fl::trace::RoundScope;
use kemf_fl::weight_common::{fan_out_clients, GlobalModel};
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use kemf_tensor::Tensor;

/// The FedDF baseline.
pub struct FedDf {
    global: GlobalModel,
    /// Server-side unlabeled pool.
    pool: Tensor,
    /// Server distillation settings.
    pub distill: DistillConfig,
}

impl FedDf {
    /// New FedDF server.
    pub fn new(spec: ModelSpec, pool: Tensor) -> Self {
        FedDf { global: GlobalModel::new(spec), pool, distill: DistillConfig::default() }
    }
}

impl FedAlgorithm for FedDf {
    fn name(&self) -> String {
        "FedDF".into()
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        ClientPlan::uniform(
            sampled,
            ModelView::Full,
            WirePayload::symmetric(self.global.payload_bytes()),
        )
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let local = LocalCfg::at(ctx, wave);
        train_cohort_in_batches(self, sampled, ctx, scope, |algo, batch| {
            Ok(fan_out_clients(&algo.global, wave, batch, ctx, &local, &|_k| None))
        })
    }

    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        let fusion = StateFusion {
            mode: FusionMode::EnsembleDistill,
            spec: self.global.spec,
            pool: &self.pool,
            distill: &self.distill,
            salt: 0xDF,
        };
        let (fused, outcome) =
            fusion.fuse(&self.name(), round, updates, ctx, scope, |_, _| Ok(()))?;
        if let Some(state) = fused {
            self.global.state = state;
        }
        Ok(outcome)
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.global.evaluate(ctx)
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        Ok(AlgorithmState::new(self.name(), 1).with_model("global", self.global.state.clone()))
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 1)?;
        let incoming = state.model("global")?;
        check_model_layout("global", incoming, &self.global.state)?;
        self.global.state = incoming.clone();
        Ok(())
    }

    fn global_model(&self) -> Option<(ModelSpec, ModelState)> {
        Some((self.global.spec, self.global.state.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_fl::config::FlConfig;
    use kemf_fl::engine::{Engine, RunOptions};
    use kemf_fl::metrics::History;
    use kemf_nn::model::Model;
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn world(seed: u64) -> (FlContext, SynthTask) {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(240, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds: 6,
            local_epochs: 2,
            batch_size: 16,
            alpha: 0.5,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        (FlContext::new(cfg, &train, test), task)
    }

    #[test]
    fn feddf_learns_above_chance() {
        let (ctx, task) = world(71);
        let pool = task.generate_unlabeled(100, 2);
        let mut algo = FedDf::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0), pool);
        let h = run(&mut algo, &ctx);
        assert!(h.best_accuracy() > 0.3, "got {}", h.best_accuracy());
    }

    #[test]
    fn feddf_pays_full_model_bytes() {
        let (ctx, task) = world(72);
        let pool = task.generate_unlabeled(60, 2);
        let spec = ModelSpec::scaled(Arch::ResNet20, 1, 12, 10, 0);
        let mut algo = FedDf::new(spec, pool);
        let per_dir = algo.global.payload_bytes();
        let h = run(&mut algo, &ctx);
        assert_eq!(h.total_bytes(), 6 * 4 * 2 * per_dir);
        assert_eq!(per_dir, Model::new(spec).state_bytes() as u64);
    }

    #[test]
    fn feddf_is_deterministic() {
        let run_once = || {
            let (ctx, task) = world(73);
            let pool = task.generate_unlabeled(60, 2);
            let mut algo = FedDf::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0), pool);
            run(&mut algo, &ctx).accuracies()
        };
        assert_eq!(run_once(), run_once());
    }
}
