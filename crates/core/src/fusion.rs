//! Multi-model knowledge fusion modes.
//!
//! The paper offers two server-side fusion methods for the collected
//! knowledge networks: classic weight averaging (FedAvg-style, possible
//! because every knowledge network shares one architecture) and ensemble
//! distillation (the paper's focus). The ablation harness compares them.
//! FedDF's ensemble distillation is the same server step over full
//! models, so both algorithms fuse through one `StateFusion`.

use crate::distill::{distill_ensemble, DistillConfig};
use kemf_fl::client_store::{ClientBlob, StoreError};
use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{EngineError, RoundOutcome};
use kemf_fl::scheduler::{PreparedUpdate, UpdatePayload};
use kemf_fl::trace::{Phase, RoundScope};
use kemf_fl::weight_common::StateAverage;
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use kemf_tensor::rng::child_seed;
use kemf_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Server fusion method for the uploaded knowledge networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FusionMode {
    /// Ensemble the knowledge networks and distill into the global one
    /// (Algorithm 2 — the paper's main method).
    EnsembleDistill,
    /// Sample-count-weighted averaging of the knowledge-network weights
    /// (the paper's "traditional fusion" alternative).
    WeightAverage,
}

/// Weight-average fusion of knowledge-network states with an extra
/// per-state multiplier (buffered-asynchronous staleness discounting):
/// coefficient `weights[i] × sample_counts[i]`. With every multiplier at
/// exactly `1.0` this is the plain sample-count-weighted average —
/// `1.0 × n` is `n` in f32. The states are folded where they lie
/// (bit-identical to [`ModelState::weighted_average`], without its
/// copy of every state).
pub fn weight_average_fusion_weighted(
    states: &[ModelState],
    sample_counts: &[usize],
    weights: &[f32],
) -> ModelState {
    assert_eq!(states.len(), sample_counts.len(), "state/count length mismatch");
    assert_eq!(states.len(), weights.len(), "state/weight length mismatch");
    assert!(!states.is_empty(), "average of zero states");
    let coeffs: Vec<f32> = sample_counts
        .iter()
        .zip(weights.iter())
        .map(|(&n, &w)| w * n as f32)
        .collect();
    let mut average = StateAverage::new(&states[0], coeffs.iter().sum());
    for (state, &c) in states.iter().zip(&coeffs) {
        average.add(state, c);
    }
    average.finish()
}

/// The server side of FedDF and FedKEMF: uploaded model states of one
/// architecture fuse into the next global state.
pub(crate) struct StateFusion<'a> {
    pub(crate) mode: FusionMode,
    pub(crate) spec: ModelSpec,
    /// Unlabeled pool the ensemble is distilled on.
    pub(crate) pool: &'a Tensor,
    pub(crate) distill: &'a DistillConfig,
    /// Salt of the distillation seed `child_seed(run seed, salt ^ round)`.
    pub(crate) salt: u64,
}

impl StateFusion<'_> {
    /// Fuse one round's updates, each carrying a model state; a deferred
    /// client commit goes to `commit`. The staleness-weighted average is
    /// the fused state ([`FusionMode::WeightAverage`]) or the warm start
    /// of a student that then distills the ensemble of every upload on
    /// the pool. Staleness shapes only the warm start; the distillation
    /// treats every teacher alike (MaxLogits has no weighted analogue —
    /// see DESIGN.md). `None` for an empty buffer.
    pub(crate) fn fuse(
        &self,
        algorithm: &str,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
        mut commit: impl FnMut(usize, ClientBlob) -> Result<(), StoreError>,
    ) -> Result<(Option<ModelState>, RoundOutcome), EngineError> {
        if updates.is_empty() {
            return Ok((None, RoundOutcome { train_loss: f32::NAN }));
        }
        let mut states: Vec<ModelState> = Vec::with_capacity(updates.len());
        let mut sample_counts: Vec<usize> = Vec::with_capacity(updates.len());
        let mut weights: Vec<f32> = Vec::with_capacity(updates.len());
        let mut loss_sum = 0.0f32;
        for (u, w) in updates {
            let UpdatePayload::State(state) = u.payload else {
                return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                    algorithm: algorithm.into(),
                    reason: format!("client {}: expected a model-state payload", u.client),
                }));
            };
            if let Some(blob) = u.commit {
                commit(u.client, blob)?;
            }
            states.push(state);
            sample_counts.push(u.n_samples);
            weights.push(w);
            loss_sum += u.loss;
        }
        let train_loss = loss_sum / states.len() as f32;
        let fused = scope.phase(Phase::Fusion, |c| {
            c.clients = states.len();
            let average = weight_average_fusion_weighted(&states, &sample_counts, &weights);
            if self.mode == FusionMode::WeightAverage {
                return average;
            }
            let model = |s: &ModelState| {
                let mut m = Model::new(self.spec);
                m.set_state(s);
                m
            };
            let mut student = model(&average);
            let mut teachers: Vec<Model> = states.iter().map(model).collect();
            let seed = child_seed(ctx.cfg.seed, self.salt ^ round as u64);
            let out = distill_ensemble(&mut student, &mut teachers, self.pool, self.distill, seed);
            c.steps = out.steps as u64;
            c.batches = out.batches as u64;
            student.state()
        });
        Ok((Some(fused), RoundOutcome { train_loss }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};

    #[test]
    fn average_of_identical_states_is_identity() {
        let m = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let s = m.state();
        let fused = weight_average_fusion_weighted(&[s.clone(), s.clone()], &[10, 30], &[1.0, 1.0]);
        kemf_tensor::assert_close(&fused.params.values, &s.params.values, 1e-6);
        kemf_tensor::assert_close(&fused.buffers.values, &s.buffers.values, 1e-6);
    }

    #[test]
    fn weighting_respects_sample_counts() {
        let a = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1)).state();
        let b = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 2)).state();
        let fused = weight_average_fusion_weighted(&[a.clone(), b.clone()], &[30, 10], &[1.0, 1.0]);
        let expect: Vec<f32> = a
            .params
            .values
            .iter()
            .zip(b.params.values.iter())
            .map(|(&x, &y)| 0.75 * x + 0.25 * y)
            .collect();
        kemf_tensor::assert_close(&fused.params.values, &expect, 1e-5);
    }
}
