//! FedKEMF — the paper's contribution, wired into the `kemf-fl` engine.
//!
//! Per round (Algorithms 1 and 2):
//! 1. sampled clients download the tiny global knowledge network θ_g;
//! 2. each client mutually trains (θ_local, θ_g) with deep mutual
//!    learning on its private shard and uploads only the updated θ_g^k;
//! 3. the server ensembles {θ_g^k} (max-logits by default) and distills
//!    the ensemble into the global θ_g on an unlabeled public pool —
//!    or, in the alternative fusion mode, weight-averages them;
//! 4. the local models never leave their devices, so clients may run
//!    heterogeneous architectures sized to their resources.

use crate::distill::DistillConfig;
use crate::dml::{dml_local_update, DmlConfig};
use crate::fusion::{FusionMode, StateFusion};
use crate::population::{mean, LocalModels};
use kemf_fl::client_store::SpillConfig;
use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{train_cohort_in_batches, EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::{ClientPlan, ModelView, WirePayload};
use kemf_fl::local::{local_train, LocalCfg};
use kemf_fl::scheduler::{PreparedUpdate, UpdatePayload};
use kemf_fl::state::{check_model_layout, AlgorithmState, RestoreError};
use kemf_fl::trace::RoundScope;
use kemf_data::dataset::Dataset;
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use kemf_tensor::rng::child_seed;
use kemf_tensor::Tensor;
use rayon::prelude::*;

/// Checkpoint layout version: 2 since the local models moved into the
/// client store's population section.
const STATE_VERSION: u32 = 2;

/// FedKEMF configuration beyond the generic `FlConfig`.
#[derive(Clone)]
pub struct FedKemfConfig {
    /// Architecture of the tiny knowledge network θ_g.
    pub knowledge_spec: ModelSpec,
    /// Per-client local-model specs (uniform or resource-heterogeneous);
    /// length must equal the client count.
    pub client_specs: Vec<ModelSpec>,
    /// Server-side unlabeled pool for ensemble distillation.
    pub public_pool: Tensor,
    /// Distillation settings (strategy, temperature, epochs).
    pub distill: DistillConfig,
    /// Server fusion mode.
    pub fusion: FusionMode,
    /// Weight of the mutual KL term in DML (1.0 = the paper).
    pub kl_weight: f32,
    /// Ablation switch: `false` decouples the networks (each trains on
    /// plain cross-entropy; no knowledge extraction).
    pub mutual: bool,
    /// Rounds over which the mutual-KL weight ramps linearly from 0 to
    /// `kl_weight`. Early local models are noise; distilling toward them
    /// from round 0 measurably drags the knowledge network (see the
    /// ablation harness). 0 = constant weight (paper-literal Algorithm 1).
    pub kl_warmup_rounds: usize,
    /// Spill per-client local models to disk instead of holding
    /// `n_clients` of them resident; `None` (the default) keeps the
    /// classic in-memory population.
    pub spill: Option<SpillConfig>,
}

impl FedKemfConfig {
    /// Paper-faithful defaults for a uniform single-model deployment.
    pub fn uniform(knowledge_spec: ModelSpec, client_specs: Vec<ModelSpec>, public_pool: Tensor) -> Self {
        FedKemfConfig {
            knowledge_spec,
            client_specs,
            public_pool,
            distill: DistillConfig::default(),
            fusion: FusionMode::EnsembleDistill,
            // Scaled-regime default (see EXPERIMENTS.md): at this
            // reproduction's short horizons the full paper weight of 1.0
            // lets noisy early local models drag the knowledge network.
            // `paper_literal()` restores Algorithm 1 exactly.
            kl_weight: 0.3,
            mutual: true,
            kl_warmup_rounds: 10,
            spill: None,
        }
    }

    /// Spill per-client local models to `spill.dir` (population-scale
    /// cohorts; resident memory becomes O(cohort), not O(population)).
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Paper-literal Algorithm 1 weighting: mutual KL weight 1.0 from
    /// round 0 (no warm-up).
    pub fn paper_literal(mut self) -> Self {
        self.kl_weight = 1.0;
        self.kl_warmup_rounds = 0;
        self
    }
}

/// The FedKEMF server + client population.
pub struct FedKemf {
    cfg: FedKemfConfig,
    global_knowledge: ModelState,
    eval_model: Model,
    /// Persistent per-client local models (deployed on-device; never
    /// communicated): resident for the classic in-memory mode, spilled
    /// to disk for population-scale cohorts.
    locals: LocalModels,
}

impl FedKemf {
    /// New FedKEMF instance.
    pub fn new(cfg: FedKemfConfig) -> Self {
        let eval_model = Model::new(cfg.knowledge_spec);
        let global_knowledge = eval_model.state();
        let locals = LocalModels::new(cfg.client_specs.clone());
        FedKemf { cfg, global_knowledge, eval_model, locals }
    }

    /// Current global knowledge-network state.
    pub fn global_knowledge(&self) -> &ModelState {
        &self.global_knowledge
    }

    /// Per-direction payload: only the tiny knowledge network crosses the
    /// wire — the communication headline of the paper.
    pub fn payload_bytes(&self) -> u64 {
        self.global_knowledge.bytes() as u64
    }

    /// Per-client accuracy of the *deployed local models* on per-client
    /// test sets. Clients that were never sampled evaluate at their
    /// current (possibly initial) weights. A test-set/population count
    /// mismatch or an unreadable stored model is a typed error, not a
    /// panic.
    pub fn evaluate_local_models_per_client(
        &self,
        client_tests: &[Dataset],
        eval_batch: usize,
    ) -> Result<Vec<f32>, EngineError> {
        self.locals.per_client_accuracies(self.name(), client_tests, eval_batch)
    }

    /// Average accuracy of the deployed local models on per-client test
    /// sets (the paper's multi-model metric, Table 3).
    pub fn evaluate_local_models(
        &self,
        client_tests: &[Dataset],
        eval_batch: usize,
    ) -> Result<f32, EngineError> {
        Ok(mean(&self.evaluate_local_models_per_client(client_tests, eval_batch)?))
    }
}

impl FedAlgorithm for FedKemf {
    fn name(&self) -> String {
        match self.cfg.fusion {
            FusionMode::EnsembleDistill => "FedKEMF".into(),
            FusionMode::WeightAverage => "FedKEMF-WA".into(),
        }
    }

    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        self.locals.open(self.name(), ctx.cfg.n_clients, self.cfg.spill.as_ref())
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        // Only the tiny knowledge network crosses the wire, each way.
        ClientPlan::uniform(sampled, ModelView::Full, WirePayload::symmetric(self.payload_bytes()))
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        self.locals.begin_round(wave);
        let ramp = if self.cfg.kl_warmup_rounds == 0 {
            1.0
        } else {
            ((wave + 1) as f32 / self.cfg.kl_warmup_rounds as f32).min(1.0)
        };
        let dml_cfg = DmlConfig {
            kl_weight: self.cfg.kl_weight * ramp,
            ..DmlConfig::new(ctx.cfg.local_epochs, ctx.cfg.batch_size, ctx.cfg.sgd_at(wave))
        };
        let global = &self.global_knowledge;
        let knowledge_spec = self.cfg.knowledge_spec;
        let mutual = self.cfg.mutual;
        // Only the tiny uploaded knowledge networks outlive a batch, so
        // local-update memory is O(batch · local + cohort · knet).
        train_cohort_in_batches(&mut self.locals, sampled, ctx, scope, |locals, batch| {
            Ok(locals
                .fetch_batch(batch)?
                .into_par_iter()
                .map(|(k, mut local)| {
                    let mut knowledge = Model::new(knowledge_spec);
                    knowledge.set_state(global);
                    let seed = child_seed(ctx.cfg.seed, 0xD31 ^ ((wave as u64) << 20 | k as u64));
                    let shard = ctx.client_shard(k);
                    let (loss, steps) = if mutual {
                        let out =
                            dml_local_update(&mut local, &mut knowledge, &shard, &dml_cfg, seed);
                        (out.mean_knowledge_loss, out.steps)
                    } else {
                        // Ablation: decoupled training (no knowledge extraction).
                        let plain = LocalCfg {
                            epochs: dml_cfg.epochs,
                            batch: dml_cfg.batch,
                            sgd: dml_cfg.sgd,
                        };
                        let a = local_train(&mut local, &shard, &plain, seed, None);
                        let out = local_train(&mut knowledge, &shard, &plain, seed ^ 1, None);
                        (out.mean_loss, a.steps + out.steps)
                    };
                    // The refreshed deployed model rides along as a
                    // deferred commit: an evicted or quorum-aborted update
                    // must not have touched the device.
                    PreparedUpdate {
                        client: k,
                        n_samples: ctx.client_shard_len(k),
                        steps,
                        loss,
                        payload: UpdatePayload::State(knowledge.state()),
                        commit: Some(LocalModels::blob(&local)),
                    }
                })
                .collect())
        })
    }

    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        self.locals.begin_round(round);
        let name = self.name();
        let fusion = StateFusion {
            mode: self.cfg.fusion,
            spec: self.cfg.knowledge_spec,
            pool: &self.cfg.public_pool,
            distill: &self.cfg.distill,
            salt: 0xD157,
        };
        let locals = &mut self.locals;
        let (fused, outcome) =
            fusion.fuse(&name, round, updates, ctx, scope, |k, blob| locals.commit(k, blob))?;
        if let Some(state) = fused {
            self.global_knowledge = state;
        }
        Ok(outcome)
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.eval_model.set_state(&self.global_knowledge);
        self.eval_model
            .evaluate(&ctx.test.images, &ctx.test.labels, ctx.cfg.eval_batch)
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        // The local models never leave their devices in the protocol, but
        // a checkpoint is the device: dropping them would silently reset
        // every client's deployed model on resume.
        let mut s = AlgorithmState::new(self.name(), STATE_VERSION)
            .with_model("knowledge", self.global_knowledge.clone());
        self.locals.write(&mut s);
        Ok(s)
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), STATE_VERSION)?;
        let knowledge = state.model("knowledge")?;
        check_model_layout("knowledge", knowledge, &self.global_knowledge)?;
        self.locals.restore(state)?;
        self.global_knowledge = knowledge.clone();
        Ok(())
    }

    fn global_model(&self) -> Option<(ModelSpec, ModelState)> {
        Some((self.cfg.knowledge_spec, self.global_knowledge.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{assign_tiers, heterogeneous_specs, uniform_specs};
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_fl::config::FlConfig;
    use kemf_fl::engine::{Engine, RunOptions};
    use kemf_fl::metrics::History;
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn mk(seed: u64, n_clients: usize) -> (FlContext, SynthTask) {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(60 * n_clients, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients,
            sample_ratio: 1.0,
            rounds: 5,
            local_epochs: 2,
            batch_size: 16,
            alpha: 0.5,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        (FlContext::new(cfg, &train, test), task)
    }

    fn knowledge_spec() -> ModelSpec {
        ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1000)
    }

    #[test]
    fn fedkemf_learns_above_chance() {
        let (ctx, task) = mk(61, 4);
        let specs = uniform_specs(Arch::Cnn2, 4, 1, 12, 10, 2);
        let pool = task.generate_unlabeled(120, 5);
        let mut algo = FedKemf::new(FedKemfConfig::uniform(knowledge_spec(), specs, pool));
        let h = run(&mut algo, &ctx);
        assert!(h.best_accuracy() > 0.3, "got {}", h.best_accuracy());
    }

    #[test]
    fn payload_is_knowledge_network_only() {
        let (ctx, task) = mk(62, 3);
        // Big local models, tiny knowledge network: bytes must follow the
        // knowledge network.
        let specs = uniform_specs(Arch::ResNet20, 3, 1, 12, 10, 2);
        let pool = task.generate_unlabeled(60, 5);
        let mut algo = FedKemf::new(FedKemfConfig::uniform(knowledge_spec(), specs, pool));
        let knet_bytes = algo.payload_bytes();
        let local_model_bytes = Model::new(ModelSpec::scaled(Arch::ResNet20, 1, 12, 10, 0)).state_bytes() as u64;
        assert!(local_model_bytes > knet_bytes / 2, "sanity: local models are not free");
        let h = run(&mut algo, &ctx);
        assert_eq!(h.total_bytes(), 5 * 3 * 2 * knet_bytes);
    }

    #[test]
    fn heterogeneous_zoo_trains_all_models() {
        let (ctx, task) = mk(63, 6);
        let tiers = assign_tiers(6, 7);
        let specs = heterogeneous_specs(&tiers, 1, 12, 10, 8);
        let pool = task.generate_unlabeled(60, 5);
        let mut algo = FedKemf::new(FedKemfConfig::uniform(knowledge_spec(), specs.clone(), pool));
        let h = run(&mut algo, &ctx);
        assert!(h.accuracies().iter().all(|a| a.is_finite()));
        // Stored local models kept their per-client architectures: each
        // checkpointed model's parameter layout matches the client's own
        // spec.
        let state = algo.state().unwrap();
        for (k, spec) in specs.iter().enumerate() {
            let stored = state.model(&format!("client.{k}.model")).unwrap();
            assert_eq!(stored.params.lens, Model::new(*spec).state().params.lens);
        }
        // Per-client local evaluation works and all models learned
        // something beyond chance on their own shard distribution.
        let client_tests: Vec<_> = (0..6).map(|i| task.generate(40, 100 + i as u64)).collect();
        let avg = algo.evaluate_local_models(&client_tests, 32).unwrap();
        assert!(avg > 0.15, "average local accuracy {avg}");
        // A test-set count that doesn't match the population is a typed
        // error, not the assert it used to be.
        let err = algo.evaluate_local_models(&client_tests[..2], 32).unwrap_err();
        assert!(
            matches!(err, EngineError::Config(ConfigError::AlgorithmSetup { .. })),
            "wrong error: {err}"
        );
    }

    #[test]
    fn weight_average_fusion_mode_runs() {
        let (ctx, task) = mk(64, 3);
        let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
        let pool = task.generate_unlabeled(40, 5);
        let mut cfg = FedKemfConfig::uniform(knowledge_spec(), specs, pool);
        cfg.fusion = FusionMode::WeightAverage;
        let mut algo = FedKemf::new(cfg);
        assert_eq!(algo.name(), "FedKEMF-WA");
        let h = run(&mut algo, &ctx);
        assert!(h.best_accuracy() > 0.2, "got {}", h.best_accuracy());
    }

    #[test]
    fn decoupled_ablation_runs() {
        let (ctx, task) = mk(65, 3);
        let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
        let pool = task.generate_unlabeled(40, 5);
        let mut cfg = FedKemfConfig::uniform(knowledge_spec(), specs, pool);
        cfg.mutual = false;
        let mut algo = FedKemf::new(cfg);
        let h = run(&mut algo, &ctx);
        assert!(h.accuracies().iter().all(|a| a.is_finite()));
    }

    #[test]
    fn int8_server_inference_matches_f32_final_accuracy() {
        // Acceptance bound for the quantized ensemble-inference path: run
        // a full FedKEMF training with the int8 teacher pass enabled, then
        // evaluate the final-round global knowledge network with exact f32
        // and with the int8 forward. Quantized server inference must move
        // final-round accuracy by less than 0.5% (absolute). The test set
        // is sized so 0.5% is resolvable (1 sample = 0.25%).
        let task = SynthTask::new(SynthConfig::mnist_like(67));
        let train = task.generate(60 * 4, 0);
        let test = task.generate(400, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds: 5,
            local_epochs: 2,
            batch_size: 16,
            alpha: 0.5,
            min_per_client: 10,
            seed: 67,
            ..Default::default()
        };
        let ctx = FlContext::new(cfg, &train, test.clone());
        let specs = uniform_specs(Arch::Cnn2, 4, 1, 12, 10, 2);
        let pool = task.generate_unlabeled(120, 5);
        let mut kemf_cfg = FedKemfConfig::uniform(knowledge_spec(), specs, pool);
        kemf_cfg.distill.precision = kemf_fl::compress::ComputePrecision::Int8;
        let mut algo = FedKemf::new(kemf_cfg);
        let h = run(&mut algo, &ctx);
        assert!(h.best_accuracy() > 0.2, "int8-distilled run should still learn: {}", h.best_accuracy());
        let mut final_model = Model::new(knowledge_spec());
        final_model.set_state(algo.global_knowledge());
        let exact = final_model.evaluate(&test.images, &test.labels, 32);
        final_model.set_precision(kemf_nn::layer::Precision::Int8);
        let quant = final_model.evaluate(&test.images, &test.labels, 32);
        assert!(
            (exact - quant).abs() < 0.005,
            "int8 server inference moved final accuracy too far: {exact} vs {quant}"
        );
    }

    #[test]
    fn fedkemf_is_deterministic() {
        let run_once = || {
            let (ctx, task) = mk(66, 3);
            let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
            let pool = task.generate_unlabeled(40, 5);
            let mut algo = FedKemf::new(FedKemfConfig::uniform(knowledge_spec(), specs, pool));
            run(&mut algo, &ctx).accuracies()
        };
        assert_eq!(run_once(), run_once());
    }
}
