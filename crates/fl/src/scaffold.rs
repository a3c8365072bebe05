//! SCAFFOLD (Karimireddy et al. 2020): stochastic controlled averaging.
//! The server keeps a control variate `c` and every client a local `c_k`;
//! each local SGD step is corrected with `(c − c_k)`, cancelling client
//! drift. After local training the client refreshes its variate with
//! option II of the paper:
//!
//! `c_k⁺ = c_k − c + (w_global − w_k) / (K·η)`
//!
//! and the server updates `w ← mean(w_k)` and
//! `c ← c + (|S|/N) · mean(c_k⁺ − c_k)`.
//!
//! Control variates double the per-round payload in both directions, which
//! the paper's cost tables account as 2× FedAvg.

use crate::client_store::{ClientBlob, ClientStateStore, SpillConfig, StoreError};
use crate::config::ConfigError;
use crate::context::FlContext;
use crate::engine::{train_cohort_in_batches, EngineError, FedAlgorithm, RoundOutcome};
use crate::lifecycle::{ClientPlan, ModelView, WirePayload};
use crate::local::{add_flat_to_grads, LocalCfg};
use crate::scheduler::{PreparedUpdate, UpdatePayload};
use crate::state::{check_model_layout, check_tensor_dims, AlgorithmState, RestoreError};
use crate::trace::RoundScope;
use crate::weight_common::{
    fan_out_clients, fold_buffer, state_payload, stream_round, BoxedGradHook,
    GlobalModel, StateAverage, StreamingFold,
};
use kemf_nn::layer::Layer;
use kemf_nn::models::ModelSpec;
use std::collections::HashMap;
use std::sync::Arc;

/// The SCAFFOLD baseline.
pub struct Scaffold {
    global: GlobalModel,
    /// Server control variate (flat, parameter layout).
    c: Vec<f32>,
    /// Per-client control variates, fetched and committed through the
    /// client-state store (resident for memory mode, spilled to disk for
    /// population-scale cohorts).
    store: ClientStateStore,
    spill: Option<SpillConfig>,
}

/// A fresh client's control variate: all zeros, as the paper initializes.
fn zero_variate(dim: usize) -> ClientBlob {
    ClientBlob::new().with_tensor("c", vec![dim], vec![0.0; dim])
}

/// Pull the flat variate out of a stored blob, validating its length.
fn variate_from_blob(blob: &ClientBlob, k: usize, dim: usize) -> Result<Vec<f32>, StoreError> {
    let t = blob
        .tensor("c")
        .ok_or_else(|| StoreError::Corrupt {
            client: k,
            detail: "missing control-variate tensor `c`".into(),
        })?;
    if t.values.len() != dim {
        return Err(StoreError::Corrupt {
            client: k,
            detail: format!("control variate has {} values, model has {dim}", t.values.len()),
        });
    }
    Ok(t.values.clone())
}

impl Scaffold {
    /// New SCAFFOLD server.
    pub fn new(spec: ModelSpec) -> Self {
        let global = GlobalModel::new(spec);
        let dim = global.state.params.numel();
        Scaffold { global, c: vec![0.0; dim], store: ClientStateStore::in_memory(0), spill: None }
    }

    /// Spill per-client control variates to `spill.dir` instead of
    /// holding `n_clients` of them resident.
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }
}

impl FedAlgorithm for Scaffold {
    fn name(&self) -> String {
        "SCAFFOLD".into()
    }

    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        let dim = self.global.state.params.numel();
        self.store = match &self.spill {
            Some(spill) => ClientStateStore::sharded(ctx.cfg.n_clients, spill.clone())
                .map_err(|e| ConfigError::AlgorithmSetup {
                    algorithm: self.name(),
                    reason: format!("opening spill store: {e}"),
                })?,
            None => {
                let mut store = ClientStateStore::in_memory(ctx.cfg.n_clients);
                store.seed_all(|_| zero_variate(dim));
                store
            }
        };
        Ok(())
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        // Weights + control variate both ways → ≈2× payload.
        let payload = WirePayload::symmetric(self.global.payload_bytes() + (self.c.len() * 4) as u64);
        ClientPlan::uniform(sampled, ModelView::Full, payload)
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
        self.store.begin_round(wave);
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
        let n = self.store.n_clients();
        let dim = self.c.len();
        let base = AlgorithmState::new(self.name(), 1)
            .with_model("global", self.global.state.clone())
            .with_tensor("c", vec![dim], self.c.clone());
        if self.store.is_sharded() {
            // Per-client variates already live in the spill directory
            // (write-through commits); the checkpoint carries only the
            // population size so restore can refuse a mismatched spill.
            Ok(base.with_scalar("sharded_clients", n as f64))
        } else {
            let mut flat = Vec::with_capacity(n * dim);
            for k in 0..n {
                let blob = self.store.read(k, |_| zero_variate(dim))?;
                let t = blob.tensor("c").ok_or(StoreError::Corrupt {
                    client: k,
                    detail: "missing control-variate tensor `c`".into(),
                })?;
                flat.extend_from_slice(&t.values);
            }
            Ok(base.with_tensor("c_clients", vec![n, dim], flat))
        }
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 1)?;
        let incoming = state.model("global")?;
        check_model_layout("global", incoming, &self.global.state)?;
        let dim = self.c.len();
        let c = state.tensor("c")?;
        check_tensor_dims("c", c, &[dim])?;
        // init() has already built the store for this context, so the
        // client count is known and enforceable here.
        let n = self.store.n_clients();
        if self.store.is_sharded() {
            let recorded = state.scalar("sharded_clients")?;
            if recorded != n as f64 {
                return Err(RestoreError::ShapeMismatch {
                    name: "sharded_clients".into(),
                    detail: format!("checkpoint covers {recorded} clients, store has {n}"),
                });
            }
        } else {
            let cc = state.tensor("c_clients")?;
            check_tensor_dims("c_clients", cc, &[n, dim])?;
            for k in 0..n {
                let ck = cc.values[k * dim..(k + 1) * dim].to_vec();
                self.store
                    .commit(k, ClientBlob::new().with_tensor("c", vec![dim], ck))
                    .map_err(|e| RestoreError::Store { detail: e.to_string() })?;
            }
        }
        self.global.state = incoming.clone();
        self.c = c.values.clone();
        Ok(())
    }

    fn global_model(&self) -> Option<(kemf_nn::models::ModelSpec, kemf_nn::serialize::ModelState)> {
        Some((self.global.spec, self.global.state.clone()))
    }
}

/// SCAFFOLD's running aggregate: the uniform mean of client states and
/// of their variate refreshes `c_k⁺ − c_k`.
pub struct ScaffoldFold {
    total: f32,
    states: StateAverage,
    delta_c_mean: Vec<f32>,
}

impl StreamingFold for Scaffold {
    type Fold = ScaffoldFold;

    fn train_batch(
        &mut self,
        wave: usize,
        batch: &[usize],
        ctx: &FlContext,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        // SCAFFOLD's control-variate refresh divides by K·η assuming plain
        // local SGD; momentum would inflate the effective step by
        // 1/(1−ρ) and blow the variates up, so it is disabled locally
        // (standard practice for SCAFFOLD implementations).
        let mut local = LocalCfg::at(ctx, wave);
        local.sgd.momentum = 0.0;
        local.sgd.nesterov = false;
        let eta = local.sgd.lr;
        let dim = self.c.len();
        // Sequential fetch: the store is `&mut self` and cannot cross the
        // parallel fan-out.
        let mut variates = Vec::with_capacity(batch.len());
        for &k in batch {
            let blob = self.store.fetch(k, |_| zero_variate(dim))?;
            variates.push(variate_from_blob(&blob, k, dim)?);
        }
        // Per-client corrections (c − c_k), shared with the fan-out.
        let corrections: Vec<Arc<Vec<f32>>> = variates
            .iter()
            .map(|ck| Arc::new(self.c.iter().zip(ck.iter()).map(|(&c, &ck)| c - ck).collect()))
            .collect();
        let index_of: HashMap<usize, usize> =
            batch.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let hook_for = |k: usize| {
            let corr = Arc::clone(&corrections[index_of[&k]]);
            Some(Box::new(move |net: &mut dyn Layer| {
                add_flat_to_grads(net, &corr, 1.0);
            }) as BoxedGradHook)
        };
        let mut updates = fan_out_clients(&self.global, wave, batch, ctx, &local, &hook_for);
        // The variate refresh (option II) is client-side work against the
        // global weights and server variate the client was handed; the
        // store commit is deferred into the update so an evicted (or
        // quorum-aborted) client keeps its previous variate.
        for (u, ck) in updates.iter_mut().zip(&variates) {
            let inv = 1.0 / (u.steps.max(1) as f32 * eta);
            let g = &self.global.state.params.values;
            let w = &state_payload("SCAFFOLD", u)?.params.values;
            let mut ck_new = vec![0.0f32; dim];
            let mut aux = vec![0.0f32; dim];
            for j in 0..dim {
                ck_new[j] = ck[j] - self.c[j] + (g[j] - w[j]) * inv;
                aux[j] = ck_new[j] - ck[j];
            }
            let payload = std::mem::replace(&mut u.payload, UpdatePayload::Empty);
            if let UpdatePayload::State(state) = payload {
                u.payload = UpdatePayload::StateAux { state, aux };
            }
            u.commit = Some(ClientBlob::new().with_tensor("c", vec![dim], ck_new));
        }
        Ok(updates)
    }

    /// Uniform mean of client states (SCAFFOLD aggregates with global
    /// learning rate 1): each update's coefficient is its staleness
    /// weight alone.
    fn coeff(_n_samples: usize, weight: f32) -> f32 {
        weight
    }

    fn begin_fold(&mut self, round: usize, total: f32) -> ScaffoldFold {
        self.store.begin_round(round);
        ScaffoldFold {
            total,
            states: StateAverage::new(&self.global.state, total),
            delta_c_mean: vec![0.0; self.c.len()],
        }
    }

    fn fold(
        &mut self,
        acc: &mut ScaffoldFold,
        update: PreparedUpdate,
        coeff: f32,
    ) -> Result<(), EngineError> {
        let dim = self.c.len();
        let UpdatePayload::StateAux { state, aux } = &update.payload else {
            return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                algorithm: self.name(),
                reason: format!("client {}: expected a state+variate payload", update.client),
            }));
        };
        if aux.len() != dim {
            return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                algorithm: self.name(),
                reason: format!(
                    "client {}: variate delta has {} values, model has {dim}",
                    update.client,
                    aux.len()
                ),
            }));
        }
        for (d, &a) in acc.delta_c_mean.iter_mut().zip(aux.iter()) {
            *d += (coeff * a) / acc.total;
        }
        acc.states.add(state, coeff);
        if let Some(blob) = update.commit {
            self.store.commit(update.client, blob)?;
        }
        Ok(())
    }

    fn finish_fold(&mut self, acc: ScaffoldFold, reported: usize, ctx: &FlContext) {
        let frac = reported as f32 / ctx.cfg.n_clients as f32;
        for (c, &d) in self.c.iter_mut().zip(acc.delta_c_mean.iter()) {
            *c += frac * d;
        }
        self.global.state = acc.states.finish();
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
            alpha: 0.3,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    #[test]
    fn scaffold_learns_above_chance() {
        let c = ctx(41);
        let mut algo = Scaffold::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let h = run(&mut algo, &c);
        assert!(h.best_accuracy() > 0.25, "got {}", h.best_accuracy());
    }

    #[test]
    fn control_variates_become_nonzero() {
        let c = ctx(42);
        let mut algo = Scaffold::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let _ = run(&mut algo, &c);
        let norm: f32 = algo.c.iter().map(|&v| v * v).sum::<f32>().sqrt();
        assert!(norm > 1e-4, "server control variate stayed zero");
        let dim = algo.c.len();
        let any_nonzero = (0..algo.store.n_clients()).any(|k| {
            let blob = algo.store.read(k, |_| zero_variate(dim)).unwrap();
            blob.tensor("c").unwrap().values.iter().any(|&v| v != 0.0)
        });
        assert!(any_nonzero, "no client variate ever moved");
    }

    #[test]
    fn scaffold_payload_includes_control_state() {
        let c = ctx(43);
        let mut algo = Scaffold::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let model_bytes = algo.global.payload_bytes();
        let control_bytes = (algo.c.len() * 4) as u64;
        let h = run(&mut algo, &c);
        assert_eq!(h.total_bytes(), 6 * 4 * 2 * (model_bytes + control_bytes));
        // Control variates are roughly the model size → ≈2× FedAvg payload.
        assert!(control_bytes * 10 > model_bytes * 9, "control ≈ model size");
    }

    #[test]
    fn sharded_spill_matches_in_memory_bit_for_bit() {
        // Partial sampling, so clients skip rounds and fetch must pick
        // the newest pre-round spill stamp across the gaps.
        let mk = || {
            let task = SynthTask::new(SynthConfig::mnist_like(45));
            let train = task.generate(240, 0);
            let test = task.generate(80, 1);
            let cfg = FlConfig {
                n_clients: 4,
                sample_ratio: 0.5,
                rounds: 6,
                local_epochs: 1,
                batch_size: 16,
                alpha: 0.5,
                min_per_client: 10,
                seed: 45,
                ..Default::default()
            };
            FlContext::new(cfg, &train, test)
        };
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0);
        let mut mem = Scaffold::new(spec);
        let hm = run(&mut mem, &mk());
        let mut dir = std::env::temp_dir();
        dir.push(format!("kemf_scaffold_spill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sharded = Scaffold::new(spec).with_spill(SpillConfig::new(&dir));
        let hs = run(&mut sharded, &mk());
        assert_eq!(hm.records, hs.records, "spilling variates must not change a bit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn variates_stay_zero_when_clients_identical_and_full_participation() {
        // With IID-ish data and identical steps, corrections stay small and
        // training still works — smoke test for stability of the update.
        let c = ctx(44);
        let mut algo = Scaffold::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let h = run(&mut algo, &c);
        assert!(h.accuracies().iter().all(|a| a.is_finite()));
    }
}
