//! FedNova (Wang et al. 2020): normalized averaging. Clients may take
//! different numbers of local steps τ_k (their shards differ in size);
//! naively averaging their weights biases the update toward clients that
//! stepped more. FedNova aggregates the *per-step normalized* directions:
//!
//! `w ← w − τ_eff · Σ_k p_k · d_k`, with `d_k = (w − w_k)/τ_k`,
//! `p_k = n_k / Σ n`, `τ_eff = Σ_k p_k τ_k`.
//!
//! We use the plain step count for τ (the momentum-corrected effective τ
//! of the paper is a scalar refinement documented in DESIGN.md). FedNova
//! ships normalization metadata alongside the weights, which the paper
//! accounts as a 2× per-round payload vs FedAvg.

use crate::context::FlContext;
use crate::engine::{train_cohort_in_batches, EngineError, FedAlgorithm, RoundOutcome};
use crate::lifecycle::{ClientPlan, ModelView, WirePayload};
use crate::local::LocalCfg;
use crate::scheduler::{PreparedUpdate, UpdatePayload};
use crate::state::{check_model_layout, AlgorithmState, RestoreError};
use crate::trace::RoundScope;
use crate::weight_common::{
    fan_out_clients, fold_buffer, state_payload, stream_round, GlobalModel,
    StreamingFold, WeightsAverage,
};
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::Weights;

/// The FedNova baseline.
pub struct FedNova {
    global: GlobalModel,
}

impl FedNova {
    /// New FedNova server.
    pub fn new(spec: ModelSpec) -> Self {
        FedNova { global: GlobalModel::new(spec) }
    }
}

impl FedAlgorithm for FedNova {
    fn name(&self) -> String {
        "FedNova".into()
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        // 2× payload: weights plus normalization metadata each way.
        ClientPlan::uniform(
            sampled,
            ModelView::Full,
            WirePayload::symmetric(2 * self.global.payload_bytes()),
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

/// FedNova's running aggregate: the normalized directions folded so
/// far, the effective step count, and the buffer average.
pub struct NovaFold {
    total: f32,
    combined: Weights,
    tau_eff: f32,
    buffers: WeightsAverage,
}

impl StreamingFold for FedNova {
    type Fold = NovaFold;

    fn train_batch(
        &mut self,
        wave: usize,
        batch: &[usize],
        ctx: &FlContext,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let local = LocalCfg::at(ctx, wave);
        let mut updates = fan_out_clients(&self.global, wave, batch, ctx, &local, &|_k| None);
        // The normalized direction d_k = w_global − w_k is anchored to the
        // global weights the client actually started from, so it is
        // computed here at dispatch time, not at fusion.
        for u in &mut updates {
            if let UpdatePayload::State(state) = &mut u.payload {
                state.params = self.global.state.params.delta(&state.params);
            }
        }
        Ok(updates)
    }

    fn begin_fold(&mut self, _round: usize, total: f32) -> NovaFold {
        NovaFold {
            total,
            combined: self.global.state.params.zeros_like(),
            tau_eff: 0.0,
            buffers: WeightsAverage::new(&self.global.state.buffers, total),
        }
    }

    fn fold(
        &mut self,
        acc: &mut NovaFold,
        update: PreparedUpdate,
        coeff: f32,
    ) -> Result<(), EngineError> {
        let delta = state_payload("FedNova", &update)?;
        let tau = update.steps.max(1) as f32;
        let p = coeff / acc.total;
        acc.tau_eff += p * tau;
        acc.combined.scale_add(1.0, &delta.params, p / tau);
        // Buffers: weighted average, as for FedAvg.
        acc.buffers.add(&delta.buffers, coeff);
        Ok(())
    }

    fn finish_fold(&mut self, acc: NovaFold, _reported: usize, _ctx: &FlContext) {
        // w ← w − τ_eff · Σ p_k d_k  (d already points from w to w_k).
        self.global.state.params.scale_add(1.0, &acc.combined, -acc.tau_eff);
        self.global.state.buffers = acc.buffers.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::engine::{Engine, RunOptions};
    use crate::metrics::History;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn ctx(seed: u64) -> FlContext {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(240, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds: 6,
            local_epochs: 2,
            batch_size: 16,
            // Skewed shards → heterogeneous τ_k, FedNova's raison d'être.
            alpha: 0.3,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    #[test]
    fn fednova_learns_above_chance() {
        let c = ctx(31);
        let mut algo = FedNova::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let h = run(&mut algo, &c);
        assert!(h.best_accuracy() > 0.25, "got {}", h.best_accuracy());
    }

    #[test]
    fn fednova_pays_double_communication() {
        let c = ctx(32);
        let mut nova = FedNova::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let per_dir = nova.global.payload_bytes();
        let h = run(&mut nova, &c);
        assert_eq!(h.total_bytes(), 6 * 4 * 2 * 2 * per_dir);
    }

    #[test]
    fn normalized_update_moves_global() {
        let c = ctx(33);
        let mut algo = FedNova::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let before = algo.global.state.params.clone();
        let _ = run(&mut algo, &c);
        let moved = algo.global.state.params.delta(&before).norm();
        assert!(moved > 1e-3, "global barely moved: {moved}");
    }
}
