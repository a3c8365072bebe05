//! FedMD (Li & Wang 2019) — *heterogeneous federated learning via model
//! distillation* — the classic logit-communication baseline from the
//! paper's related work. Clients never share weights at all; each round:
//!
//! 1. the server broadcasts **consensus logits** on a public dataset;
//! 2. every client *digests* the consensus (distills it into its own,
//!    arbitrary-architecture model), then *revisits* its private data
//!    (a few epochs of supervised training);
//! 3. clients upload their own logits on the public set;
//! 4. the server averages them into the next consensus.
//!
//! The per-round payload is `2 × |public set| × classes × 4` bytes per
//! client — independent of every model size, like FedKEMF's knowledge
//! network but with no transferable global *model*: the server owns only
//! logits, so `global_model()` is `None` and evaluation reports the mean
//! client-model accuracy.
//!
//! Steps 2 and 3 are the client side FedGEMS shares (`LogitClients`);
//! the two algorithms differ only in what the server broadcasts and how
//! it fuses the uploads.

use crate::distill::distill_toward;
use crate::population::{mean, LocalModels};
use kemf_data::dataset::Dataset;
use kemf_fl::client_store::SpillConfig;
use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{train_cohort_in_batches, EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::{ClientPlan, ModelView, WirePayload};
use kemf_fl::local::{local_train, LocalCfg};
use kemf_fl::scheduler::{PreparedUpdate, UpdatePayload};
use kemf_fl::state::{check_tensor_dims, AlgorithmState, RestoreError, TensorBlob};
use kemf_fl::trace::{Phase, RoundScope};
use kemf_nn::loss::soften;
use kemf_nn::models::ModelSpec;
use kemf_nn::optim::SgdConfig;
use kemf_tensor::rng::child_seed;
use kemf_tensor::Tensor;
use rayon::prelude::*;

/// Checkpoint layout version: 2 since the local models moved into the
/// client store's population section.
const STATE_VERSION: u32 = 2;

/// How a logit-exchange client digests the server's soft targets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Digest {
    /// Epochs over the public set per round.
    pub(crate) epochs: usize,
    /// Softening temperature of the targets.
    pub(crate) temperature: f32,
    /// Digestion learning rate (the supervised one stays the run's).
    pub(crate) lr: f32,
}

/// FedMD's digestion, as in its paper's reference setting.
const FEDMD_DIGEST: Digest = Digest { epochs: 1, temperature: 2.0, lr: 0.02 };

/// The client side of a logit exchange (FedMD, FedGEMS): per-client
/// models of any architecture, and the public set whose logits are all
/// that crosses the wire.
pub(crate) struct LogitClients {
    pub(crate) locals: LocalModels,
    /// Public reference set whose logits are communicated.
    pub(crate) public: Tensor,
    pub(crate) classes: usize,
    pub(crate) digest: Digest,
    /// Salt of the per-client seeds
    /// `child_seed(run seed, salt ^ (wave << 16 | k))`.
    salt: u64,
    spill: Option<SpillConfig>,
}

impl LogitClients {
    pub(crate) fn new(
        client_specs: Vec<ModelSpec>,
        public: Tensor,
        classes: usize,
        digest: Digest,
        salt: u64,
    ) -> Self {
        assert!(!client_specs.is_empty(), "need at least one client spec");
        let locals = LocalModels::new(client_specs);
        LogitClients { locals, public, classes, digest, salt, spill: None }
    }

    /// Spill the client models to `spill.dir`.
    pub(crate) fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Per-direction payload: the logit matrix on the public set.
    pub(crate) fn payload_bytes(&self) -> u64 {
        (self.public.dims()[0] * self.classes * 4) as u64
    }

    pub(crate) fn plans(&self, sampled: &[usize]) -> Vec<ClientPlan> {
        ClientPlan::uniform(sampled, ModelView::Logits, WirePayload::symmetric(self.payload_bytes()))
    }

    pub(crate) fn open(&mut self, algorithm: String, n_clients: usize) -> Result<(), ConfigError> {
        self.locals.open(algorithm, n_clients, self.spill.as_ref())
    }

    /// One cohort's local work: each client digests `targets` (when the
    /// server has any), revisits its private shard, publishes its logits
    /// on the public set with batch statistics (local models take few
    /// steps per round, the same rationale as FedKEMF's distillation
    /// targets), and defers its refreshed model as a commit. Only the
    /// logit matrices outlive a batch, so memory is
    /// O(batch · model + cohort · logits).
    pub(crate) fn train_cohort(
        &mut self,
        targets: Option<&Tensor>,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        self.locals.begin_round(wave);
        let local = LocalCfg::at(ctx, wave);
        let (public, digest, salt) = (&self.public, self.digest, self.salt);
        train_cohort_in_batches(&mut self.locals, sampled, ctx, scope, |locals, batch| {
            Ok(locals
                .fetch_batch(batch)?
                .into_par_iter()
                .map(|(k, mut model)| {
                    let seed = child_seed(ctx.cfg.seed, salt ^ ((wave as u64) << 16 | k as u64));
                    let sgd = SgdConfig { lr: digest.lr, ..local.sgd };
                    let digest_steps = targets.map_or(0, |t| {
                        let (epochs, temperature) = (digest.epochs, digest.temperature);
                        distill_toward(&mut model, public, t, epochs, temperature, sgd, seed)
                    });
                    let out = local_train(&mut model, &ctx.client_shard(k), &local, seed ^ 7, None);
                    let logits = model.predict_batch_stats(public);
                    PreparedUpdate {
                        client: k,
                        n_samples: ctx.client_shard_len(k),
                        steps: digest_steps + out.steps,
                        loss: out.mean_loss,
                        payload: UpdatePayload::Logits(TensorBlob {
                            dims: logits.dims().to_vec(),
                            values: logits.data().to_vec(),
                        }),
                        commit: Some(LocalModels::blob(&model)),
                    }
                })
                .collect())
        })
    }

    /// Unpack one round's uploads: each must be a `[public, classes]`
    /// logit matrix, and its deferred model commit is applied. Returns
    /// every matrix at coefficient `coeff(n_samples, weight)` plus the
    /// mean client loss (NaN for an empty buffer).
    pub(crate) fn collect(
        &mut self,
        algorithm: &str,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        coeff: impl Fn(usize, f32) -> f32,
    ) -> Result<(Vec<(Tensor, f32)>, f32), EngineError> {
        self.locals.begin_round(round);
        if updates.is_empty() {
            return Ok((Vec::new(), f32::NAN));
        }
        let dims = [self.public.dims()[0], self.classes];
        let setup = |reason| {
            EngineError::Config(ConfigError::AlgorithmSetup { algorithm: algorithm.into(), reason })
        };
        let mut members = Vec::with_capacity(updates.len());
        let mut loss_sum = 0.0f32;
        for (u, w) in updates {
            let logits = match u.payload {
                UpdatePayload::Logits(blob) if blob.dims == dims => {
                    Tensor::from_vec(blob.values, &dims)
                }
                UpdatePayload::Logits(blob) => {
                    return Err(setup(format!(
                        "client {}: logit payload is {:?}, public set needs {dims:?}",
                        u.client, blob.dims
                    )));
                }
                _ => return Err(setup(format!("client {}: expected a logit payload", u.client))),
            };
            if let Some(commit) = u.commit {
                self.locals.commit(u.client, commit)?;
            }
            members.push((logits, coeff(u.n_samples, w)));
            loss_sum += u.loss;
        }
        let train_loss = loss_sum / members.len() as f32;
        Ok((members, train_loss))
    }
}

/// The FedMD baseline (heterogeneous-capable).
pub struct FedMd {
    clients: LogitClients,
    /// Current consensus logits `[pool, classes]` (None before round 0).
    consensus: Option<Tensor>,
}

impl FedMd {
    /// New FedMD population over a public reference set.
    pub fn new(client_specs: Vec<ModelSpec>, public: Tensor, classes: usize) -> Self {
        let clients = LogitClients::new(client_specs, public, classes, FEDMD_DIGEST, 0x3D);
        FedMd { clients, consensus: None }
    }

    /// Spill per-client local models to `spill.dir` instead of holding
    /// `n_clients` of them resident.
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.clients = self.clients.with_spill(spill);
        self
    }

    /// Per-direction payload: the logit matrix on the public set.
    pub fn payload_bytes(&self) -> u64 {
        self.clients.payload_bytes()
    }

    /// Mean per-client accuracy of the local models on `tests`. A count
    /// mismatch or unreadable stored model is a typed error, not a panic.
    pub fn evaluate_local_models(
        &self,
        tests: &[Dataset],
        eval_batch: usize,
    ) -> Result<f32, EngineError> {
        Ok(mean(&self.clients.locals.per_client_accuracies(self.name(), tests, eval_batch)?))
    }
}

impl FedAlgorithm for FedMd {
    fn name(&self) -> String {
        "FedMD".into()
    }

    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        self.clients.open(self.name(), ctx.cfg.n_clients)
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        self.clients.plans(sampled)
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        // Clients digest the consensus that was current when they were
        // dispatched — a stale worker keeps learning from the snapshot it
        // downloaded, exactly as a real device would.
        let targets = self.consensus.as_ref().map(|c| soften(c, self.clients.digest.temperature));
        self.clients.train_cohort(targets.as_ref(), wave, sampled, ctx, scope)
    }

    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        let (logits, train_loss) = self.clients.collect(&self.name(), round, updates, |_, w| w)?;
        if logits.is_empty() {
            return Ok(RoundOutcome { train_loss });
        }
        scope.phase(Phase::Fusion, |c| {
            c.clients = logits.len();
            // Weighted elementwise mean with the same clone/axpy/scale
            // structure as `elementwise_mean`: with every weight at 1.0
            // the first scale is ×1.0 (a bitwise no-op), each axpy adds
            // 1.0·t, and Σw is the exact count — bit-identical.
            let mut acc = logits[0].0.clone();
            acc.scale_inplace(logits[0].1);
            for (t, w) in &logits[1..] {
                acc.axpy(*w, t);
            }
            let total: f32 = logits.iter().map(|(_, w)| w).sum();
            acc.scale_inplace(1.0 / total);
            self.consensus = Some(acc);
        });
        Ok(RoundOutcome { train_loss })
    }

    /// FedMD has no global model; report the mean client accuracy on the
    /// shared test set (the metric its paper uses). NaN when a client's
    /// stored model cannot be read: a silently lower mean would hide it.
    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        match self.clients.locals.accuracies(|_| &ctx.test, ctx.cfg.eval_batch) {
            Ok(accuracies) => mean(&accuracies),
            Err(_) => f32::NAN,
        }
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        let mut s = AlgorithmState::new(self.name(), STATE_VERSION);
        self.clients.locals.write(&mut s);
        // Presence of the entry encodes the Option: no consensus exists
        // before the first completed round.
        if let Some(c) = &self.consensus {
            s.push_tensor("consensus", c.dims().to_vec(), c.data().to_vec());
        }
        Ok(s)
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), STATE_VERSION)?;
        let consensus = match state.opt_tensor("consensus") {
            Some(blob) => {
                let dims = [self.clients.public.dims()[0], self.clients.classes];
                check_tensor_dims("consensus", blob, &dims)?;
                Some(Tensor::from_vec(blob.values.clone(), &dims))
            }
            None => None,
        };
        self.clients.locals.restore(state)?;
        self.consensus = consensus;
        Ok(())
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
    use kemf_nn::model::Model;
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn world(seed: u64, n: usize) -> (FlContext, SynthTask) {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(60 * n, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: n,
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
    fn fedmd_learns_above_chance() {
        let (ctx, task) = world(81, 4);
        let specs = uniform_specs(Arch::Cnn2, 4, 1, 12, 10, 2);
        let public = task.generate_unlabeled(100, 3);
        let mut algo = FedMd::new(specs, public, 10);
        let h = run(&mut algo, &ctx);
        assert!(h.best_accuracy() > 0.3, "got {}", h.best_accuracy());
    }

    #[test]
    fn fedmd_supports_heterogeneous_models() {
        let (ctx, task) = world(82, 6);
        let tiers = assign_tiers(6, 1);
        let specs = heterogeneous_specs(&tiers, 1, 12, 10, 2);
        let public = task.generate_unlabeled(80, 3);
        let mut algo = FedMd::new(specs, public, 10);
        let h = run(&mut algo, &ctx);
        assert!(h.accuracies().iter().all(|a| a.is_finite()));
        assert!(h.best_accuracy() > 0.15);
    }

    #[test]
    fn payload_is_logits_only() {
        let (ctx, task) = world(83, 3);
        let specs = uniform_specs(Arch::ResNet32, 3, 1, 12, 10, 2);
        let public = task.generate_unlabeled(50, 3);
        let mut algo = FedMd::new(specs, public, 10);
        assert_eq!(algo.payload_bytes(), 50 * 10 * 4);
        let model_bytes = Model::new(ModelSpec::scaled(Arch::ResNet32, 1, 12, 10, 0)).state_bytes() as u64;
        assert!(algo.payload_bytes() < model_bytes / 4, "logits ≪ model weights");
        let h = run(&mut algo, &ctx);
        assert_eq!(h.total_bytes(), 6 * 3 * 2 * algo.payload_bytes());
    }

    #[test]
    fn evaluate_is_nan_when_a_client_model_cannot_be_read() {
        let (ctx, task) = world(85, 3);
        let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
        let public = task.generate_unlabeled(40, 3);
        let dir = std::env::temp_dir().join(format!("kemf_fedmd_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut algo = FedMd::new(specs, public, 10).with_spill(SpillConfig::new(&dir));
        algo.init(&ctx).unwrap();
        let mut sink = kemf_fl::trace::NoopSink;
        let mut scope = RoundScope::new(&mut sink, 0);
        algo.round(0, &[0, 1, 2], &ctx, &mut scope).unwrap();
        assert!(algo.evaluate(&ctx).is_finite());
        // One corrupt spill file: the mean must not quietly drop client 1.
        std::fs::write(dir.join("shard_0000/c000000001_r000000.ckpt"), b"not a bundle").unwrap();
        let acc = algo.evaluate(&ctx);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(acc.is_nan(), "an unreadable client model must surface, got {acc}");
    }

    #[test]
    fn consensus_builds_after_first_round() {
        let (ctx, task) = world(84, 3);
        let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
        let public = task.generate_unlabeled(40, 3);
        let mut algo = FedMd::new(specs, public, 10);
        algo.init(&ctx).unwrap();
        assert!(algo.consensus.is_none());
        let mut sink = kemf_fl::trace::NoopSink;
        let mut scope = RoundScope::new(&mut sink, 0);
        algo.round(0, &[0, 1, 2], &ctx, &mut scope).unwrap();
        let c = algo.consensus.as_ref().expect("consensus after round 0");
        assert_eq!(c.dims(), &[40, 10]);
    }
}
