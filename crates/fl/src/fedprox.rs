//! FedProx (Li et al. 2020): FedAvg plus a proximal term
//! `μ/2 · ‖w − w_global‖²` in every client's local objective, which damps
//! client drift under heterogeneous data.

use crate::context::FlContext;
use crate::engine::{train_cohort_in_batches, EngineError, FedAlgorithm, RoundOutcome};
use crate::lifecycle::{ClientPlan, ModelView, WirePayload};
use crate::local::{add_prox_to_grads, LocalCfg};
use crate::scheduler::PreparedUpdate;
use crate::state::{check_model_layout, AlgorithmState, RestoreError};
use crate::trace::RoundScope;
use crate::weight_common::{
    fan_out_clients, fold_buffer, state_payload, stream_round, BoxedGradHook, GlobalModel,
    StateAverage, StreamingFold,
};
use kemf_nn::layer::Layer;
use kemf_nn::models::ModelSpec;
use std::sync::Arc;

/// The FedProx baseline.
pub struct FedProx {
    global: GlobalModel,
    /// Proximal coefficient μ.
    pub mu: f32,
}

impl FedProx {
    /// New FedProx server; the paper's benchmark default is μ = 0.01–0.1.
    pub fn new(spec: ModelSpec, mu: f32) -> Self {
        assert!(mu >= 0.0, "mu must be non-negative");
        FedProx { global: GlobalModel::new(spec), mu }
    }
}

impl FedAlgorithm for FedProx {
    fn name(&self) -> String {
        "FedProx".into()
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        ClientPlan::uniform(
            sampled,
            ModelView::Full,
            WirePayload::symmetric(self.global.payload_bytes()),
        )
    }

    fn round(
        &mut self,
        round: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        stream_round(self, round, sampled, ctx, scope)
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        train_cohort_in_batches(self, sampled, ctx, scope, |a, batch| {
            a.train_batch(wave, batch, ctx)
        })
    }

    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        fold_buffer(self, round, updates, ctx, scope)
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.global.evaluate(ctx)
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        // μ is construction config, not evolving state; only the global
        // weights move between rounds.
        Ok(AlgorithmState::new(self.name(), 1).with_model("global", self.global.state.clone()))
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 1)?;
        let incoming = state.model("global")?;
        check_model_layout("global", incoming, &self.global.state)?;
        self.global.state = incoming.clone();
        Ok(())
    }

    fn global_model(&self) -> Option<(kemf_nn::models::ModelSpec, kemf_nn::serialize::ModelState)> {
        Some((self.global.spec, self.global.state.clone()))
    }
}

impl StreamingFold for FedProx {
    type Fold = StateAverage;

    fn train_batch(
        &mut self,
        wave: usize,
        batch: &[usize],
        ctx: &FlContext,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let local = LocalCfg::at(ctx, wave);
        // Every client's hook pulls toward the global weights it was
        // handed at dispatch time.
        let anchor = Arc::new(self.global.state.params.values.clone());
        let mu = self.mu;
        let hook_for = move |_k: usize| {
            let anchor = Arc::clone(&anchor);
            Some(Box::new(move |net: &mut dyn Layer| {
                add_prox_to_grads(net, &anchor, mu);
            }) as BoxedGradHook)
        };
        Ok(fan_out_clients(&self.global, wave, batch, ctx, &local, &hook_for))
    }

    fn begin_fold(&mut self, _round: usize, total: f32) -> StateAverage {
        StateAverage::new(&self.global.state, total)
    }

    fn fold(
        &mut self,
        acc: &mut StateAverage,
        update: PreparedUpdate,
        coeff: f32,
    ) -> Result<(), EngineError> {
        acc.add(state_payload("FedProx", &update)?, coeff);
        Ok(())
    }

    fn finish_fold(&mut self, acc: StateAverage, _reported: usize, _ctx: &FlContext) {
        self.global.state = acc.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::engine::{Engine, RunOptions};
    use crate::fedavg::FedAvg;
    use crate::metrics::History;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn ctx(seed: u64, alpha: f64) -> FlContext {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(240, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds: 5,
            local_epochs: 2,
            batch_size: 16,
            alpha,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    #[test]
    fn fedprox_learns_above_chance() {
        let c = ctx(21, 1.0);
        let mut algo = FedProx::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0), 0.01);
        let h = run(&mut algo, &c);
        assert!(h.best_accuracy() > 0.3, "got {}", h.best_accuracy());
    }

    #[test]
    fn mu_zero_matches_fedavg_exactly() {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0);
        let c = ctx(22, 0.5);
        let mut prox = FedProx::new(spec, 0.0);
        let hp = run(&mut prox, &c);
        let c = ctx(22, 0.5);
        let mut avg = FedAvg::new(spec);
        let ha = run(&mut avg, &c);
        assert_eq!(hp.accuracies(), ha.accuracies(), "μ=0 FedProx must equal FedAvg");
    }

    #[test]
    fn large_mu_restrains_drift() {
        // With a huge μ the clients barely move, so the global weights stay
        // close to initialization compared to μ=0.
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0);
        let init = kemf_nn::model::Model::new(spec).weights();
        let drift = |mu: f32| {
            let mut c = ctx(23, 0.5);
            // Plain SGD so a large μ contracts instead of oscillating
            // through the momentum buffer.
            c.cfg.momentum = 0.0;
            let mut algo = FedProx::new(spec, mu);
            let _ = run(&mut algo, &c);
            algo.global.state.params.delta(&init).norm()
        };
        let free = drift(0.0);
        let pinned = drift(2.0);
        // The anchor itself advances every round, so the proximal term only
        // damps (not eliminates) cumulative drift.
        assert!(pinned < free * 0.8, "pinned {pinned} vs free {free}");
    }
}
