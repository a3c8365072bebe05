//! [`LocalModels`]: the on-device model population of the multi-model
//! algorithms (FedKEMF, FedMD, FedGEMS). Every client keeps a model of
//! its own architecture that never crosses the wire; this type owns the
//! per-client specs and the client-state store the models live in, and
//! is the one place that builds, fetches, evaluates and checkpoints them.

use kemf_data::dataset::Dataset;
use kemf_fl::client_store::{ClientBlob, ClientStateStore, SpillConfig, StoreError};
use kemf_fl::config::ConfigError;
use kemf_fl::engine::EngineError;
use kemf_fl::state::{AlgorithmState, RestoreError};
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;

/// Per-client models, resident or spilled to disk.
pub(crate) struct LocalModels {
    specs: Vec<ModelSpec>,
    store: ClientStateStore,
}

/// A never-sampled client's model: built from its spec, whose seed makes
/// it deterministic.
fn fresh(spec: ModelSpec) -> ClientBlob {
    ClientBlob::new().with_model("model", Model::new(spec).state())
}

impl LocalModels {
    /// A population over `specs`, empty until [`LocalModels::open`].
    pub(crate) fn new(specs: Vec<ModelSpec>) -> Self {
        LocalModels { specs, store: ClientStateStore::default() }
    }

    /// Per-client model specs.
    pub(crate) fn specs(&self) -> &[ModelSpec] {
        &self.specs
    }

    /// Open the store for `n_clients` (one spec each), spilled to disk
    /// when `spill` is set.
    pub(crate) fn open(
        &mut self,
        algorithm: String,
        n_clients: usize,
        spill: Option<&SpillConfig>,
    ) -> Result<(), ConfigError> {
        let setup = |reason| ConfigError::AlgorithmSetup { algorithm: algorithm.clone(), reason };
        if self.specs.len() != n_clients {
            let have = self.specs.len();
            let reason = format!("need one client spec per client: {have} specs for {n_clients} clients");
            return Err(setup(reason));
        }
        let specs = &self.specs;
        self.store = ClientStateStore::open(n_clients, spill, |k| fresh(specs[k]))
            .map_err(|e| setup(format!("opening client store: {e}")))?;
        Ok(())
    }

    /// Enter round `round` (see [`ClientStateStore::begin_round`]).
    pub(crate) fn begin_round(&mut self, round: usize) {
        self.store.begin_round(round);
    }

    /// The blob a trained model commits as.
    pub(crate) fn blob(model: &Model) -> ClientBlob {
        ClientBlob::new().with_model("model", model.state())
    }

    /// Commit client `k`'s post-round model blob.
    pub(crate) fn commit(&mut self, k: usize, blob: ClientBlob) -> Result<(), StoreError> {
        self.store.commit(k, blob)
    }

    /// The models the clients of `batch` start the round from, in batch
    /// order (sequential: the store is `&mut`).
    pub(crate) fn fetch_batch(&mut self, batch: &[usize]) -> Result<Vec<(usize, Model)>, StoreError> {
        let mut out = Vec::with_capacity(batch.len());
        for &k in batch {
            let spec = self.specs[k];
            let blob = self.store.fetch(k, |_| fresh(spec))?;
            out.push((k, self.model(&blob, k)?));
        }
        Ok(out)
    }

    /// Rebuild client `k`'s model from a stored blob. A layout that does
    /// not match the client's spec is a typed error: a blob from another
    /// population must not panic the process.
    fn model(&self, blob: &ClientBlob, k: usize) -> Result<Model, StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt { client: k, detail };
        let missing = || corrupt("missing local-model entry `model`".into());
        let st = blob.model("model").ok_or_else(missing)?;
        let mut model = Model::new(self.specs[k]);
        let layout = model.state();
        if st.params.lens != layout.params.lens || st.buffers.lens != layout.buffers.lens {
            return Err(corrupt(format!(
                "stored model layout ({} params) does not match the client spec ({} params)",
                st.params.numel(),
                layout.params.numel()
            )));
        }
        model.set_state(st);
        Ok(model)
    }

    /// Accuracy of every client's current model on `test(k)`. Clients
    /// never sampled evaluate at their initial weights.
    pub(crate) fn accuracies<'a>(
        &self,
        test: impl Fn(usize) -> &'a Dataset,
        eval_batch: usize,
    ) -> Result<Vec<f32>, StoreError> {
        (0..self.store.n_clients())
            .map(|k| {
                let blob = self.store.read(k, |_| fresh(self.specs[k]))?;
                let t = test(k);
                Ok(self.model(&blob, k)?.evaluate(&t.images, &t.labels, eval_batch))
            })
            .collect()
    }

    /// Accuracy of every client's model on its own test set; a set count
    /// that does not match the population is a typed error.
    pub(crate) fn per_client_accuracies(
        &self,
        algorithm: String,
        tests: &[Dataset],
        eval_batch: usize,
    ) -> Result<Vec<f32>, EngineError> {
        let n = self.store.n_clients();
        if tests.len() != n {
            return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                algorithm,
                reason: format!("need one test set per client: {} sets for {n} clients", tests.len()),
            }));
        }
        Ok(self.accuracies(|k| &tests[k], eval_batch)?)
    }

    /// Append the population to a checkpoint state.
    pub(crate) fn write(&self, state: &mut AlgorithmState) {
        self.store.write_population(state);
    }

    /// Restore the population; nothing commits unless every client's
    /// model matches its spec.
    pub(crate) fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        let specs = &self.specs;
        self.store.restore_population(state, |k| fresh(specs[k]))
    }
}

/// Mean of per-client accuracies (0 for an empty population).
pub(crate) fn mean(accuracies: &[f32]) -> f32 {
    accuracies.iter().sum::<f32>() / accuracies.len().max(1) as f32
}
