//! Shared plumbing for the weight-sharing baselines (FedAvg, FedProx,
//! FedNova, SCAFFOLD): a global model holder with evaluation, the
//! parallel client-update fan-out, and the one round path they share.
//! Each of them implements [`StreamingFold`] — one batch of local
//! training plus a streaming fold over client updates — and the drivers
//! here turn that into `fuse` and a synchronous `round` that folds each
//! cohort batch in as it arrives instead of holding every client state
//! until aggregation.

use crate::config::ConfigError;
use crate::context::FlContext;
use crate::engine::{train_in_batches, EngineError, FedAlgorithm, RoundOutcome};
use crate::local::{local_train, LocalCfg};
use crate::scheduler::{PreparedUpdate, UpdatePayload};
use crate::trace::{Phase, RoundScope};
use kemf_nn::layer::Layer;
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::{ModelState, Weights};
use kemf_tensor::rng::child_seed;
use rayon::prelude::*;

/// Server-side global model shared by the weight baselines.
pub struct GlobalModel {
    /// Architecture every client trains.
    pub spec: ModelSpec,
    /// Current global transmitted state.
    pub state: ModelState,
    eval_model: Model,
}

impl GlobalModel {
    /// Initialize from a spec (the server's round-0 model).
    pub fn new(spec: ModelSpec) -> Self {
        let eval_model = Model::new(spec);
        let state = eval_model.state();
        GlobalModel { spec, state, eval_model }
    }

    /// Transmitted payload size per direction, in bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.state.bytes() as u64
    }

    /// Test accuracy of the current global state.
    pub fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.eval_model.set_state(&self.state);
        self.eval_model
            .evaluate(&ctx.test.images, &ctx.test.labels, ctx.cfg.eval_batch)
    }
}

/// Owned per-client gradient hook built by `hook_for` in
/// [`fan_out_clients`] (boxed so it can cross the parallel fan-out).
pub type BoxedGradHook = Box<dyn Fn(&mut dyn Layer) + Send + Sync>;

/// Run local training on every client of `batch` in parallel, starting
/// each from the global state, and return one update per client in
/// batch order whose payload is the post-training model state.
/// `hook_for` builds the per-client gradient hook (None for
/// FedAvg/FedNova).
pub fn fan_out_clients(
    global: &GlobalModel,
    wave: usize,
    batch: &[usize],
    ctx: &FlContext,
    local: &LocalCfg,
    hook_for: &(dyn Fn(usize) -> Option<BoxedGradHook> + Sync),
) -> Vec<PreparedUpdate> {
    batch
        .par_iter()
        .map(|&k| {
            let mut model = Model::new(global.spec);
            model.set_state(&global.state);
            let hook = hook_for(k);
            let seed = child_seed(ctx.cfg.seed, (wave as u64) << 20 | k as u64);
            let shard = ctx.client_shard(k);
            let outcome = local_train(
                &mut model,
                &shard,
                local,
                seed,
                hook.as_deref().map(|h| h as &dyn Fn(&mut dyn Layer)),
            );
            PreparedUpdate {
                client: k,
                n_samples: shard.len(),
                steps: outcome.steps,
                loss: outcome.mean_loss,
                payload: UpdatePayload::State(model.state()),
                commit: None,
            }
        })
        .collect()
}

/// The model-state payload of an update, or a typed error naming the
/// client whose payload has the wrong kind.
pub fn state_payload<'a>(
    algorithm: &str,
    update: &'a PreparedUpdate,
) -> Result<&'a ModelState, EngineError> {
    match &update.payload {
        UpdatePayload::State(state) => Ok(state),
        _ => Err(EngineError::Config(ConfigError::AlgorithmSetup {
            algorithm: algorithm.into(),
            reason: format!("client {}: expected a model-state update payload", update.client),
        })),
    }
}

/// A weight-sharing algorithm whose server fusion is a streaming fold
/// over client updates. It supplies one batch of local training (which
/// `train_cohort` runs under [`crate::engine::train_cohort_in_batches`])
/// and the three fold steps, from which [`fold_buffer`] and
/// [`stream_round`] build `fuse` and `round`, so the buffered and the
/// synchronous path run the same arithmetic.
pub trait StreamingFold: FedAlgorithm {
    /// The running fusion accumulator.
    type Fold;

    /// Train one cohort batch against the current global model: one
    /// update per client, in batch order.
    fn train_batch(
        &mut self,
        wave: usize,
        batch: &[usize],
        ctx: &FlContext,
    ) -> Result<Vec<PreparedUpdate>, EngineError>;

    /// An update's fold coefficient from its sample count and staleness
    /// weight. The default weights by sample count; at weight `1.0` it
    /// is exactly the sample count.
    fn coeff(n_samples: usize, weight: f32) -> f32 {
        weight * n_samples as f32
    }

    /// Open the fold of `round` over updates whose coefficients sum to
    /// `total` (positive; computed over the whole buffer or cohort
    /// before any update folds in).
    fn begin_fold(&mut self, round: usize, total: f32) -> Self::Fold;

    /// Fold one update in at coefficient `coeff`, applying its deferred
    /// store commit.
    fn fold(
        &mut self,
        acc: &mut Self::Fold,
        update: PreparedUpdate,
        coeff: f32,
    ) -> Result<(), EngineError>;

    /// Apply the fold of `reported` updates to the global model (runs
    /// inside the [`Phase::Fusion`] span).
    fn finish_fold(&mut self, acc: Self::Fold, reported: usize, ctx: &FlContext);
}

/// `FedAlgorithm::fuse` of a [`StreamingFold`] algorithm: fold the
/// buffer in arrival order at coefficient `coeff(n_samples, weight)`.
/// With every weight at `1.0` the coefficients, their total and the
/// fold order equal the synchronous round's, so the fused state is
/// bit-identical.
pub fn fold_buffer<A: StreamingFold>(
    algo: &mut A,
    round: usize,
    updates: Vec<(PreparedUpdate, f32)>,
    ctx: &FlContext,
    scope: &mut RoundScope<'_>,
) -> Result<RoundOutcome, EngineError> {
    if updates.is_empty() {
        return Ok(RoundOutcome { train_loss: f32::NAN });
    }
    let total: f32 = updates.iter().map(|(u, w)| A::coeff(u.n_samples, *w)).sum();
    let mut acc = algo.begin_fold(round, total);
    let reported = updates.len();
    let mut loss_sum = 0.0f32;
    for (u, w) in updates {
        loss_sum += u.loss;
        let coeff = A::coeff(u.n_samples, w);
        algo.fold(&mut acc, u, coeff)?;
    }
    Ok(finish(algo, acc, reported, loss_sum, ctx, scope))
}

/// The streaming synchronous round of a [`StreamingFold`] algorithm:
/// the coefficient total comes from the cohort's shard sizes up front,
/// then each [`crate::config::FlConfig::cohort_batch`] of clients trains
/// and folds in (weight `1.0`, sampled order) before the next batch
/// starts. Only one batch of client states is alive at a time, and any
/// batch size gives the same bits.
pub fn stream_round<A: StreamingFold>(
    algo: &mut A,
    round: usize,
    sampled: &[usize],
    ctx: &FlContext,
    scope: &mut RoundScope<'_>,
) -> Result<RoundOutcome, EngineError> {
    if sampled.is_empty() {
        // Nothing reported: no loss exists and the global state must
        // not move (an average over zero clients has no value).
        return Ok(RoundOutcome { train_loss: f32::NAN });
    }
    let total: f32 = sampled.iter().map(|&k| A::coeff(ctx.client_shard_len(k), 1.0)).sum();
    let mut acc = algo.begin_fold(round, total);
    let mut loss_sum = 0.0f32;
    train_in_batches(
        algo,
        sampled,
        ctx,
        scope,
        |a, batch| a.train_batch(round, batch, ctx),
        |a, updates| {
            for u in updates {
                loss_sum += u.loss;
                let coeff = A::coeff(u.n_samples, 1.0);
                a.fold(&mut acc, u, coeff)?;
            }
            Ok(())
        },
    )?;
    Ok(finish(algo, acc, sampled.len(), loss_sum, ctx, scope))
}

fn finish<A: StreamingFold>(
    algo: &mut A,
    acc: A::Fold,
    reported: usize,
    loss_sum: f32,
    ctx: &FlContext,
    scope: &mut RoundScope<'_>,
) -> RoundOutcome {
    scope.phase(Phase::Fusion, |c| {
        c.clients = reported;
        algo.finish_fold(acc, reported, ctx);
    });
    RoundOutcome { train_loss: loss_sum / reported as f32 }
}

/// Streaming weighted average over [`Weights`] snapshots.
///
/// Bit-identical to [`Weights::weighted_average`] when fed the same
/// snapshots in the same order with the same coefficient total: the
/// accumulation is the identical `acc += (coeff / total) * value` inner
/// loop, just spread over `add` calls instead of one pass. This is what
/// lets the cohort stream through local update in bounded batches
/// without perturbing a single bit of the aggregate.
pub struct WeightsAverage {
    total: f32,
    acc: Weights,
}

impl WeightsAverage {
    /// Start an average with the layout of `layout` and a precomputed
    /// coefficient total (must be positive; callers compute it over the
    /// full cohort before streaming).
    pub fn new(layout: &Weights, total: f32) -> Self {
        assert!(total > 0.0, "coefficients must sum to a positive value");
        WeightsAverage { total, acc: layout.zeros_like() }
    }

    /// Fold one snapshot in with coefficient `coeff`.
    pub fn add(&mut self, snap: &Weights, coeff: f32) {
        assert_eq!(snap.values.len(), self.acc.values.len(), "layout mismatch");
        let w = coeff / self.total;
        for (o, &v) in self.acc.values.iter_mut().zip(snap.values.iter()) {
            *o += w * v;
        }
    }

    /// The accumulated average.
    pub fn finish(self) -> Weights {
        self.acc
    }
}

/// Streaming weighted average over full [`ModelState`]s (parameters and
/// buffers), matching [`ModelState::weighted_average`] bit-for-bit under
/// the same feeding order and coefficient total.
pub struct StateAverage {
    params: WeightsAverage,
    buffers: WeightsAverage,
}

impl StateAverage {
    /// Start an average with the layout of `layout` and a precomputed
    /// positive coefficient total.
    pub fn new(layout: &ModelState, total: f32) -> Self {
        StateAverage {
            params: WeightsAverage::new(&layout.params, total),
            buffers: WeightsAverage::new(&layout.buffers, total),
        }
    }

    /// Fold one client state in with coefficient `coeff`.
    pub fn add(&mut self, state: &ModelState, coeff: f32) {
        self.params.add(&state.params, coeff);
        self.buffers.add(&state.buffers, coeff);
    }

    /// The accumulated average.
    pub fn finish(self) -> ModelState {
        ModelState { params: self.params.finish(), buffers: self.buffers.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::models::Arch;

    #[test]
    fn streaming_average_is_bit_identical_to_batch_average() {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 4, 3);
        let states: Vec<ModelState> =
            (0u64..5).map(|s| Model::new(ModelSpec { seed: s, ..spec }).state()).collect();
        let coeffs = [3.0f32, 1.0, 7.0, 2.0, 5.0];
        let batch = ModelState::weighted_average(&states, &coeffs);
        let total: f32 = coeffs.iter().sum();
        let mut stream = StateAverage::new(&states[0], total);
        for (s, &c) in states.iter().zip(coeffs.iter()) {
            stream.add(s, c);
        }
        let streamed = stream.finish();
        // Bit equality, not approximate: f32 addition order is identical.
        assert_eq!(
            streamed.params.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            batch.params.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(
            streamed.buffers.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            batch.buffers.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
}
