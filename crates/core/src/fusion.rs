//! Multi-model knowledge fusion modes.
//!
//! The paper offers two server-side fusion methods for the collected
//! knowledge networks: classic weight averaging (FedAvg-style, possible
//! because every knowledge network shares one architecture) and ensemble
//! distillation (the paper's focus). The ablation harness compares them.

use kemf_nn::serialize::ModelState;
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
/// `1.0 × n` is `n` in f32.
pub fn weight_average_fusion_weighted(
    states: &[ModelState],
    sample_counts: &[usize],
    weights: &[f32],
) -> ModelState {
    assert_eq!(states.len(), sample_counts.len(), "state/count length mismatch");
    assert_eq!(states.len(), weights.len(), "state/weight length mismatch");
    let coeffs: Vec<f32> = sample_counts
        .iter()
        .zip(weights.iter())
        .map(|(&n, &w)| w * n as f32)
        .collect();
    ModelState::weighted_average(states, &coeffs)
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
