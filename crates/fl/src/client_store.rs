//! [`ClientStateStore`]: per-client algorithm state at population scale.
//!
//! The eager design — every algorithm owning a `Vec` sized by
//! `n_clients` (FedKEMF's `Vec<Option<Model>>`, SCAFFOLD's
//! `Vec<Vec<f32>>`) — caps simulated federations at the memory of the
//! full population. The paper's premise is the opposite regime:
//! millions of edge clients of which only a sampled cohort (1% or less)
//! participates per round. This store keeps exactly the cohort
//! resident.
//!
//! Two backends share one API:
//!
//! * **Memory** — the classic layout, a slot per client, seeded eagerly
//!   by [`ClientStateStore::open`]. `fetch` *clones* the slot instead of taking it, so a
//!   slot is never left vacant mid-round: the `take().expect("model
//!   present")` panic class is gone structurally, not by adding checks.
//! * **Sharded** — nothing resident. `commit` writes the client's blob
//!   straight through to disk as an atomic kemf-nn checkpoint bundle
//!   (`shard_XXXX/cNNNNNNNNN_rRRRRRR.ckpt`), `fetch` reads it back when
//!   the client is next sampled. Peak memory is O(cohort batch), not
//!   O(population).
//!
//! **One population section.** An algorithm opens its store with
//! [`ClientStateStore::open`] (spill config plus the fresh-client
//! function) and checkpoints it with
//! [`ClientStateStore::write_population`] /
//! [`ClientStateStore::restore_population`]: the marker alone in sharded
//! mode, every client's blob entries in memory mode.
//!
//! **Crash consistency without a journal.** Spill files are stamped
//! with the round that wrote them and are never pruned or rewritten in
//! place (writes go through [`kemf_nn::checkpoint::atomic_write`]'s
//! tmp+rename). Combined with the engine's deterministic sampling
//! stream, two stamp rules make resume bit-exact with no cleanup pass:
//!
//! * [`ClientStateStore::fetch`] (start of a client's local update in
//!   round *r*) uses the newest stamp **strictly before** *r*. A stale
//!   stamp-*r* file left by a crashed attempt of round *r* is
//!   post-training state; using it would apply round *r* twice. The
//!   replayed round re-commits and atomically overwrites it instead.
//! * [`ClientStateStore::read`] (evaluation, state export) uses the
//!   newest stamp **at or before** the current round: after round *r*'s
//!   commits land, the genuine stamp-*r* files have already replaced
//!   any stale ones (the replayed cohort equals the crashed cohort, by
//!   sampling determinism).
//!
//! The spill directory is tied to one run identity (config + seed),
//! exactly like a checkpoint directory; point different runs at
//! different directories.

use crate::state::{
    check_model_layout, check_tensor_dims, AlgorithmState, RestoreError, TensorBlob,
};
use kemf_nn::checkpoint::{atomic_write, encode_bundle_parts, load_bundle};
use kemf_nn::codec::{Reader, Writer};
use kemf_nn::serialize::ModelState;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one algorithm keeps per client: named model states and
/// named flat tensors. The per-client analogue of
/// [`crate::state::AlgorithmState`], minus the header.
#[derive(Clone, Debug, Default)]
pub struct ClientBlob {
    /// Named model states (e.g. `"model"` for a local network).
    pub models: Vec<(String, ModelState)>,
    /// Named flat tensors (e.g. `"c"` for a SCAFFOLD control variate).
    pub tensors: Vec<(String, TensorBlob)>,
}

/// Bit-exact equality — the store's round-trip contract. A NaN payload
/// compares equal to itself by bit pattern (IEEE `==` would reject it),
/// and `-0.0` differs from `+0.0`.
impl PartialEq for ClientBlob {
    fn eq(&self, other: &Self) -> bool {
        fn bits_eq(a: &[f32], b: &[f32]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        self.models.len() == other.models.len()
            && self.tensors.len() == other.tensors.len()
            && self.models.iter().zip(&other.models).all(|((an, am), (bn, bm))| {
                an == bn
                    && am.params.lens == bm.params.lens
                    && am.buffers.lens == bm.buffers.lens
                    && bits_eq(&am.params.values, &bm.params.values)
                    && bits_eq(&am.buffers.values, &bm.buffers.values)
            })
            && self.tensors.iter().zip(&other.tensors).all(|((an, at), (bn, bt))| {
                an == bn && at.dims == bt.dims && bits_eq(&at.values, &bt.values)
            })
    }
}

impl ClientBlob {
    /// Empty blob.
    pub fn new() -> Self {
        ClientBlob::default()
    }

    /// Append a named model (builder style).
    pub fn with_model(mut self, name: impl Into<String>, state: ModelState) -> Self {
        self.models.push((name.into(), state));
        self
    }

    /// Append a named tensor (builder style).
    pub fn with_tensor(mut self, name: impl Into<String>, dims: Vec<usize>, values: Vec<f32>) -> Self {
        self.tensors.push((name.into(), TensorBlob { dims, values }));
        self
    }

    /// Model entry by name.
    pub fn model(&self, name: &str) -> Option<&ModelState> {
        self.models.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Tensor entry by name.
    pub fn tensor(&self, name: &str) -> Option<&TensorBlob> {
        self.tensors.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// Why a store operation failed. Surfaced through
/// [`crate::engine::EngineError::State`] so a bad client slot fails the
/// run with a diagnosis instead of aborting the process.
#[derive(Debug)]
pub enum StoreError {
    /// A client index at or beyond the population size.
    UnknownClient {
        /// The offending index.
        client: usize,
        /// Population size the store was built for.
        n_clients: usize,
    },
    /// A spill file exists but its contents do not belong to this
    /// client/round (foreign file, truncation the bundle format cannot
    /// see, or a blob missing a required entry).
    Corrupt {
        /// The client concerned.
        client: usize,
        /// What was wrong.
        detail: String,
    },
    /// Reading or writing a spill file failed.
    Io {
        /// The file concerned.
        path: PathBuf,
        /// The underlying error.
        error: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownClient { client, n_clients } => {
                write!(f, "client {client} is outside the population of {n_clients}")
            }
            StoreError::Corrupt { client, detail } => {
                write!(f, "client {client} spill state is corrupt: {detail}")
            }
            StoreError::Io { path, error } => {
                write!(f, "client-store I/O at {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Where a sharded store spills cold client state.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Spill directory (created on demand; tied to one run identity).
    pub dir: PathBuf,
}

impl SpillConfig {
    /// Spill into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig { dir: dir.into() }
    }
}

/// Clients per `shard_XXXX` subdirectory, so a million-client spill
/// tree never puts more than a few thousand files per directory entry
/// scan.
const CLIENTS_PER_SHARD_DIR: usize = 4096;

/// The scalar a sharded population writes into checkpoint state.
const SHARDED_MARKER: &str = "sharded_clients";

/// Format version tag inside a spill bundle's meta section.
const BLOB_META_VERSION: u32 = 1;

enum Backend {
    /// One slot per client, all resident.
    Memory(Vec<ClientBlob>),
    /// Write-through disk spill; `stamps[k]` holds the rounds with a
    /// spill file for client `k`, ascending.
    Sharded { dir: PathBuf, stamps: HashMap<usize, Vec<usize>> },
}

/// Per-client state for one algorithm instance, memory- or disk-backed.
pub struct ClientStateStore {
    n_clients: usize,
    round: usize,
    backend: Backend,
}

/// The empty resident population an algorithm holds before `init` opens
/// its real store.
impl Default for ClientStateStore {
    fn default() -> Self {
        ClientStateStore { n_clients: 0, round: 0, backend: Backend::Memory(Vec::new()) }
    }
}

impl ClientStateStore {
    /// The store an algorithm keeps its per-client state in: spilled to
    /// `spill.dir` when `spill` is set, otherwise resident with every
    /// slot seeded from `fresh` (a never-sampled client's state).
    pub fn open(
        n_clients: usize,
        spill: Option<&SpillConfig>,
        fresh: impl Fn(usize) -> ClientBlob,
    ) -> Result<Self, StoreError> {
        match spill {
            Some(spill) => ClientStateStore::sharded(n_clients, spill.clone()),
            None => Ok(ClientStateStore {
                n_clients,
                round: 0,
                backend: Backend::Memory((0..n_clients).map(fresh).collect()),
            }),
        }
    }

    /// Disk-backed store spilling into `spill.dir`. Existing spill files
    /// (a resumed run) are indexed by a directory scan; nothing is
    /// loaded until a client is fetched.
    pub fn sharded(n_clients: usize, spill: SpillConfig) -> Result<Self, StoreError> {
        let dir = spill.dir;
        std::fs::create_dir_all(&dir)
            .map_err(|error| StoreError::Io { path: dir.clone(), error })?;
        let stamps = scan_spill_dir(&dir)?;
        Ok(ClientStateStore { n_clients, round: 0, backend: Backend::Sharded { dir, stamps } })
    }

    /// Population size this store was built for.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Enter round `round`: subsequent [`fetch`](Self::fetch) calls take
    /// the newest state committed strictly before it.
    pub fn begin_round(&mut self, round: usize) {
        self.round = round;
    }

    /// The state client `k` starts the current round from: the memory
    /// slot (cloned — the slot stays resident), or the newest spill file
    /// stamped strictly before the current round. A client never
    /// committed before materializes through `init`.
    pub fn fetch(
        &mut self,
        k: usize,
        init: impl FnOnce(usize) -> ClientBlob,
    ) -> Result<ClientBlob, StoreError> {
        self.check_client(k)?;
        match &self.backend {
            Backend::Memory(slots) => Ok(slots[k].clone()),
            Backend::Sharded { dir, stamps } => {
                let newest = newest_stamp(stamps, k, |r| r < self.round);
                match newest {
                    Some(r) => load_blob(dir, k, r),
                    None => Ok(init(k)),
                }
            }
        }
    }

    /// Client `k`'s state as of the current round (evaluation, state
    /// export): the memory slot, or the newest spill file stamped at or
    /// before the current round; `init` covers clients never committed.
    pub fn read(
        &self,
        k: usize,
        init: impl FnOnce(usize) -> ClientBlob,
    ) -> Result<ClientBlob, StoreError> {
        self.check_client(k)?;
        match &self.backend {
            Backend::Memory(slots) => Ok(slots[k].clone()),
            Backend::Sharded { dir, stamps } => {
                let newest = newest_stamp(stamps, k, |r| r <= self.round);
                match newest {
                    Some(r) => load_blob(dir, k, r),
                    None => Ok(init(k)),
                }
            }
        }
    }

    /// Commit client `k`'s post-round state: overwrite the memory slot,
    /// or write the blob through to disk atomically under the current
    /// round's stamp. Nothing stays resident in the sharded backend.
    pub fn commit(&mut self, k: usize, blob: ClientBlob) -> Result<(), StoreError> {
        self.check_client(k)?;
        match &mut self.backend {
            Backend::Memory(slots) => {
                slots[k] = blob;
                Ok(())
            }
            Backend::Sharded { dir, stamps } => {
                let round = self.round;
                save_blob(dir, k, round, &blob)?;
                let entry = stamps.entry(k).or_default();
                if entry.last() != Some(&round) {
                    match entry.binary_search(&round) {
                        Ok(_) => {}
                        Err(pos) => entry.insert(pos, round),
                    }
                }
                Ok(())
            }
        }
    }

    /// Append this population to an algorithm's checkpoint state. A
    /// sharded store writes only its population size under
    /// `"sharded_clients"`: client state already lives in the spill
    /// directory (write-through commits), and restore uses the size to
    /// refuse a mismatched spill. A resident store writes every client's
    /// blob entries as `client.{k}.{entry}` models and tensors.
    pub fn write_population(&self, state: &mut AlgorithmState) {
        match &self.backend {
            Backend::Sharded { .. } => {
                state.scalars.push((SHARDED_MARKER.into(), self.n_clients as f64));
            }
            Backend::Memory(slots) => {
                for (k, blob) in slots.iter().enumerate() {
                    for (name, model) in &blob.models {
                        state.push_model(format!("client.{k}.{name}"), model.clone());
                    }
                    for (name, t) in &blob.tensors {
                        let (dims, values) = (t.dims.clone(), t.values.clone());
                        state.push_tensor(format!("client.{k}.{name}"), dims, values);
                    }
                }
            }
        }
    }

    /// Restore the population [`write_population`](Self::write_population)
    /// wrote. A resident store checks every client's entries against the
    /// layout of `fresh(k)` (same entry names and shapes) before it
    /// commits anything, so a failed restore leaves the store untouched.
    pub fn restore_population(
        &mut self,
        state: &AlgorithmState,
        fresh: impl Fn(usize) -> ClientBlob,
    ) -> Result<(), RestoreError> {
        let n = self.n_clients;
        let Backend::Memory(slots) = &mut self.backend else {
            let recorded = state.scalar(SHARDED_MARKER)?;
            if recorded != n as f64 {
                return Err(RestoreError::ShapeMismatch {
                    name: SHARDED_MARKER.into(),
                    detail: format!("checkpoint covers {recorded} clients, store has {n}"),
                });
            }
            return Ok(());
        };
        let mut incoming = Vec::with_capacity(n);
        for k in 0..n {
            let layout = fresh(k);
            let mut blob = ClientBlob::new();
            for (name, live) in &layout.models {
                let entry = format!("client.{k}.{name}");
                let model = state.model(&entry)?;
                check_model_layout(&entry, model, live)?;
                blob.models.push((name.clone(), model.clone()));
            }
            for (name, live) in &layout.tensors {
                let entry = format!("client.{k}.{name}");
                let t = state.tensor(&entry)?;
                check_tensor_dims(&entry, t, &live.dims)?;
                blob.tensors.push((name.clone(), t.clone()));
            }
            incoming.push(blob);
        }
        // Entries beyond these clients mean a larger population wrote
        // the state.
        let expected: usize = incoming.iter().map(|b| b.models.len() + b.tensors.len()).sum();
        let names = state.models.iter().map(|(n, _)| n).chain(state.tensors.iter().map(|(n, _)| n));
        let found = names.filter(|n| n.starts_with("client.")).count();
        if found != expected {
            return Err(RestoreError::ShapeMismatch {
                name: "client.*".into(),
                detail: format!("checkpoint holds {found} client entries, {n} clients need {expected}"),
            });
        }
        *slots = incoming;
        Ok(())
    }

    fn check_client(&self, k: usize) -> Result<(), StoreError> {
        if k >= self.n_clients {
            return Err(StoreError::UnknownClient { client: k, n_clients: self.n_clients });
        }
        Ok(())
    }
}

/// Newest committed round for client `k` passing `admit`.
fn newest_stamp(
    stamps: &HashMap<usize, Vec<usize>>,
    k: usize,
    admit: impl Fn(usize) -> bool,
) -> Option<usize> {
    stamps.get(&k)?.iter().rev().copied().find(|&r| admit(r))
}

fn shard_dir(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard_{:04}", k / CLIENTS_PER_SHARD_DIR))
}

fn spill_file(dir: &Path, k: usize, round: usize) -> PathBuf {
    shard_dir(dir, k).join(format!("c{k:09}_r{round:06}.ckpt"))
}

/// Parse `cNNNNNNNNN_rRRRRRR.ckpt` back into `(client, round)`.
fn parse_spill_name(name: &str) -> Option<(usize, usize)> {
    let stem = name.strip_suffix(".ckpt")?;
    let rest = stem.strip_prefix('c')?;
    let (client, round) = rest.split_once("_r")?;
    Some((client.parse().ok()?, round.parse().ok()?))
}

/// Index every `shard_*/c*_r*.ckpt` under `dir` (stray `.tmp` leftovers
/// and foreign files are ignored, like the checkpoint directory scan).
fn scan_spill_dir(dir: &Path) -> Result<HashMap<usize, Vec<usize>>, StoreError> {
    let mut stamps: HashMap<usize, Vec<usize>> = HashMap::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|error| StoreError::Io { path: dir.to_path_buf(), error })?;
    for entry in entries {
        let entry = entry.map_err(|error| StoreError::Io { path: dir.to_path_buf(), error })?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if !path.is_dir() || !name.starts_with("shard_") {
            continue;
        }
        let files = std::fs::read_dir(&path)
            .map_err(|error| StoreError::Io { path: path.clone(), error })?;
        for file in files {
            let file = file.map_err(|error| StoreError::Io { path: path.clone(), error })?;
            let fname = file.file_name();
            let Some(fname) = fname.to_str() else { continue };
            if let Some((client, round)) = parse_spill_name(fname) {
                stamps.entry(client).or_default().push(round);
            }
        }
    }
    for rounds in stamps.values_mut() {
        rounds.sort_unstable();
        rounds.dedup();
    }
    Ok(stamps)
}

fn save_blob(dir: &Path, k: usize, round: usize, blob: &ClientBlob) -> Result<(), StoreError> {
    let shard = shard_dir(dir, k);
    std::fs::create_dir_all(&shard)
        .map_err(|error| StoreError::Io { path: shard.clone(), error })?;
    let mut meta = Writer::with_capacity(20);
    meta.u32(BLOB_META_VERSION).usize(k).usize(round);
    let tensors = blob.tensors.iter();
    let arrays = tensors.map(|(n, t)| (n.as_str(), t.dims.as_slice(), t.values.as_slice()));
    let bytes = encode_bundle_parts(&meta.into_bytes(), &blob.models, arrays, &[]);
    let path = spill_file(dir, k, round);
    atomic_write(&path, &bytes).map_err(|error| StoreError::Io { path, error })
}

/// Spill meta v1: version, client, round stamp — and nothing else.
fn read_spill_meta(meta: &[u8]) -> io::Result<(u32, usize, usize)> {
    let mut r = Reader::new(meta);
    let fields = (r.u32()?, r.usize()?, r.usize()?);
    r.finish()?;
    Ok(fields)
}

fn load_blob(dir: &Path, k: usize, round: usize) -> Result<ClientBlob, StoreError> {
    let path = spill_file(dir, k, round);
    let bundle = load_bundle(&path).map_err(|error| StoreError::Io { path: path.clone(), error })?;
    let corrupt = |detail: String| StoreError::Corrupt {
        client: k,
        detail: format!("{}: {detail}", path.display()),
    };
    let (version, client, stamp) =
        read_spill_meta(&bundle.meta).map_err(|e| corrupt(format!("spill meta: {e}")))?;
    if version != BLOB_META_VERSION {
        return Err(corrupt(format!("blob version {version}, expected {BLOB_META_VERSION}")));
    }
    if client != k || stamp != round {
        return Err(corrupt(format!(
            "names client {k} round {round} but holds client {client} round {stamp}"
        )));
    }
    Ok(ClientBlob {
        models: bundle.models,
        tensors: bundle
            .arrays
            .into_iter()
            .map(|(n, dims, values)| (n, TensorBlob { dims, values }))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kemf_clientstore_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn blob(tag: f32) -> ClientBlob {
        ClientBlob::new()
            .with_model("model", Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state())
            .with_tensor("c", vec![3], vec![tag, f32::NAN, -0.0])
    }

    #[test]
    fn memory_fetch_clones_and_commit_overwrites() {
        let mut store = ClientStateStore::open(3, None, |k| blob(k as f32)).unwrap();
        // Fetch twice: the slot is cloned, never vacated.
        let a = store.fetch(1, |_| unreachable!()).unwrap();
        let b = store.fetch(1, |_| unreachable!()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.tensor("c").unwrap().values[0], 1.0, "seeded from fresh");
        store.commit(1, blob(9.0)).unwrap();
        let c = store.read(1, |_| unreachable!()).unwrap();
        assert_eq!(c.tensor("c").unwrap().values[0], 9.0);
        assert!(matches!(
            store.fetch(7, |_| blob(0.0)),
            Err(StoreError::UnknownClient { client: 7, n_clients: 3 })
        ));
    }

    fn resident(store: &ClientStateStore) -> Vec<ClientBlob> {
        (0..store.n_clients()).map(|k| store.read(k, |_| unreachable!()).unwrap()).collect()
    }

    #[test]
    fn memory_population_round_trips_through_algorithm_state() {
        let mut store = ClientStateStore::open(3, None, |k| blob(k as f32)).unwrap();
        store.commit(2, blob(-4.0)).unwrap();
        let mut state = AlgorithmState::new("X", 2);
        store.write_population(&mut state);
        assert!(state.model("client.2.model").is_ok());
        assert_eq!(state.tensor("client.2.c").unwrap().values[0], -4.0);
        let mut restored = ClientStateStore::open(3, None, |_| blob(0.0)).unwrap();
        restored.restore_population(&state, |_| blob(0.0)).unwrap();
        assert_eq!(resident(&restored), resident(&store));
    }

    #[test]
    fn a_mismatch_in_any_one_client_leaves_the_population_untouched() {
        let source = ClientStateStore::open(3, None, |k| blob(k as f32)).unwrap();
        let mut state = AlgorithmState::new("X", 2);
        source.write_population(&mut state);
        let mut target = ClientStateStore::open(3, None, |_| blob(5.0)).unwrap();
        let before = resident(&target);
        // The last client's variate has the wrong length: clients 0 and 1
        // are valid, and still must not be committed.
        let mut bad = state.clone();
        bad.tensors.iter_mut().find(|(n, _)| n == "client.2.c").unwrap().1.dims = vec![4];
        assert!(matches!(
            target.restore_population(&bad, |_| blob(5.0)),
            Err(RestoreError::ShapeMismatch { name, .. }) if name == "client.2.c"
        ));
        assert_eq!(resident(&target), before);
        // So is a population larger than the store's.
        let mut larger = ClientStateStore::open(2, None, |_| blob(5.0)).unwrap();
        let before_larger = resident(&larger);
        assert!(matches!(
            larger.restore_population(&state, |_| blob(5.0)),
            Err(RestoreError::ShapeMismatch { name, .. }) if name == "client.*"
        ));
        assert_eq!(resident(&larger), before_larger);
        // A missing client entry is refused the same way.
        let mut short = state.clone();
        short.models.retain(|(n, _)| n != "client.1.model");
        assert!(matches!(
            target.restore_population(&short, |_| blob(5.0)),
            Err(RestoreError::MissingEntry { .. })
        ));
        assert_eq!(resident(&target), before);
    }

    #[test]
    fn sharded_population_writes_only_its_size() {
        let dir = tmpdir("marker");
        let spill = SpillConfig::new(&dir);
        let store = ClientStateStore::open(4, Some(&spill), |_| unreachable!()).unwrap();
        let mut state = AlgorithmState::new("X", 2);
        store.write_population(&mut state);
        assert!(state.models.is_empty() && state.tensors.is_empty());
        let mut same = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        same.restore_population(&state, |_| unreachable!()).unwrap();
        let mut other = ClientStateStore::sharded(5, SpillConfig::new(&dir)).unwrap();
        assert!(matches!(
            other.restore_population(&state, |_| unreachable!()),
            Err(RestoreError::ShapeMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_round_trips_bit_exactly_across_reopen() {
        let dir = tmpdir("rt");
        let mut store = ClientStateStore::sharded(10, SpillConfig::new(&dir)).unwrap();
        store.begin_round(0);
        let original = blob(1.5);
        store.commit(4, original.clone()).unwrap();

        // Same round: `read` sees the commit, `fetch` must not (a stale
        // same-round file is post-training state on a crash replay).
        let seen = store.read(4, |_| unreachable!()).unwrap();
        assert_eq!(seen.models, original.models);
        assert_eq!(
            seen.tensor("c").unwrap().values[1].to_bits(),
            f32::NAN.to_bits(),
            "NaN survives by bit pattern"
        );
        let mut fresh = false;
        let _ = store.fetch(4, |_| { fresh = true; blob(0.0) }).unwrap();
        assert!(fresh, "fetch in the committing round re-initializes");

        // Next round: fetch picks the committed state.
        store.begin_round(1);
        let fetched = store.fetch(4, |_| unreachable!()).unwrap();
        assert_eq!(fetched, seen);

        // Reopen (a resumed process): the scan re-indexes the files.
        let mut reopened = ClientStateStore::sharded(10, SpillConfig::new(&dir)).unwrap();
        reopened.begin_round(1);
        assert_eq!(reopened.fetch(4, |_| unreachable!()).unwrap(), seen);
        // A never-committed client still materializes through init.
        let init = reopened.fetch(5, |k| blob(k as f32)).unwrap();
        assert_eq!(init.tensor("c").unwrap().values[0], 5.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_commit_overwrites_stale_same_round_file() {
        let dir = tmpdir("stale");
        let mut store = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        // A "crashed" attempt of round 2 left post-training state...
        store.begin_round(2);
        store.commit(1, blob(666.0)).unwrap();
        // ...the replay of round 2 re-commits and the genuine state wins.
        let mut replay = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        replay.begin_round(2);
        let start = replay.fetch(1, |_| blob(0.0)).unwrap();
        assert_eq!(start.tensor("c").unwrap().values[0], 0.0, "stale stamp ignored");
        replay.commit(1, blob(7.0)).unwrap();
        assert_eq!(replay.read(1, |_| unreachable!()).unwrap().tensor("c").unwrap().values[0], 7.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_file_is_a_typed_error() {
        let dir = tmpdir("corrupt");
        let mut store = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        store.begin_round(0);
        store.commit(2, blob(1.0)).unwrap();
        // Garbage in place of the spill file: fetch must not panic.
        std::fs::write(spill_file(&dir, 2, 0), b"not a bundle").unwrap();
        let mut reopened = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        reopened.begin_round(1);
        assert!(matches!(
            reopened.fetch(2, |_| unreachable!()),
            Err(StoreError::Io { .. })
        ));
        // A bundle whose meta names another client is caught too.
        let mut other = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        other.begin_round(0);
        other.commit(3, blob(2.0)).unwrap();
        std::fs::copy(spill_file(&dir, 3, 0), spill_file(&dir, 2, 0)).unwrap();
        let mut reopened = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        reopened.begin_round(1);
        assert!(matches!(
            reopened.fetch(2, |_| unreachable!()),
            Err(StoreError::Corrupt { client: 2, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_names_parse_and_shard() {
        assert_eq!(parse_spill_name("c000000042_r000007.ckpt"), Some((42, 7)));
        assert_eq!(parse_spill_name("c1_r2.ckpt"), Some((1, 2)));
        assert_eq!(parse_spill_name("round_00004.ckpt"), None);
        assert_eq!(parse_spill_name("c1_r2.ckpt.tmp"), None);
        let dir = PathBuf::from("/s");
        assert_eq!(spill_file(&dir, 0, 0), PathBuf::from("/s/shard_0000/c000000000_r000000.ckpt"));
        assert_eq!(
            spill_file(&dir, 999_999, 12),
            PathBuf::from(format!("/s/shard_{:04}/c000999999_r000012.ckpt", 999_999 / 4096))
        );
    }
}
