//! Crash-consistent run checkpoints: everything the engine needs to
//! continue a federated run from round *k* such that the finished
//! [`History`] is **bit-identical** to an uninterrupted run.
//!
//! A [`RunCheckpoint`] rides inside a kemf-nn v2 bundle
//! ([`kemf_nn::checkpoint::CheckpointBundle`]): the algorithm's
//! [`AlgorithmState`] maps onto the bundle's model/array/scalar
//! sections, and the engine's own metadata — config fingerprint, next
//! round index, RNG verification probes, the history so far and, for
//! buffered-async runs, the scheduler's clock and in-flight updates — is
//! encoded with [`kemf_nn::codec`] into the bundle's opaque `meta`
//! section as run meta v4 ([`RUN_META_VERSION`]). Binary, not JSON, so
//! every `f32` bit pattern survives and the resumed history
//! re-serializes byte-for-byte.
//!
//! **Resume semantics.** The engine does not serialize raw RNG
//! internals (the vendored `StdRng` keeps its state private, matching
//! the real `rand` API). Instead it *replays* the sampler and fault
//! streams — re-drawing every completed round's client sample and
//! lifecycle plan, which also reconstructs the plans for the final
//! report — and then compares one probe draw per stream against the
//! values stored at save time. Any divergence (code drift, a foreign
//! checkpoint) refuses to resume rather than silently forking the run.
//!
//! **Fingerprint.** [`run_fingerprint`] hashes the run config (minus
//! `rounds`), the effective fault model, the algorithm name, and the
//! engine seed. `rounds` is deliberately excluded: the training horizon
//! is not part of a run's identity, so a checkpointed 5-round run may
//! be resumed with `rounds = 10` to extend it — the basis of both the
//! kill-and-resume tests and the CI smoke. Everything else mismatching
//! refuses resume with [`ResumeError::FingerprintMismatch`].

use crate::client_store::ClientBlob;
use crate::config::FlConfig;
use crate::lifecycle::FaultConfig;
use crate::metrics::RoundRecord;
use crate::scheduler::{PendingEvent, PreparedUpdate, SchedulerState, UpdatePayload};
use crate::state::{AlgorithmState, TensorBlob};
use kemf_nn::checkpoint::{atomic_write, encode_bundle_parts, load_bundle, CheckpointBundle};
use kemf_nn::codec::{invalid, Fnv1a, Reader, Writer};
use kemf_nn::optim::LrSchedule;
use std::fmt;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Format version of the engine metadata inside the bundle's `meta`
/// section. Synchronous and buffered-asynchronous runs write the same
/// layout; the async scheduler's virtual clock and in-flight event queue
/// sit behind a presence byte at the end. Earlier versions (1–3) are
/// refused with a message naming the expected and found versions.
pub const RUN_META_VERSION: u32 = 4;

/// File-name prefix/suffix of round checkpoints inside a checkpoint
/// directory: `round_00004.ckpt` holds the state *after* 4 completed
/// rounds (next round index 4).
const FILE_PREFIX: &str = "round_";
const FILE_SUFFIX: &str = ".ckpt";

/// A resumable snapshot of one run after `next_round` completed rounds.
#[derive(Clone, Debug, PartialEq)]
pub struct RunCheckpoint {
    /// [`run_fingerprint`] of the run that wrote this checkpoint.
    pub fingerprint: u64,
    /// Index of the first round still to execute.
    pub next_round: usize,
    /// Algorithm display name (engine-level duplicate of the state's
    /// header, so mismatches are reported before restore runs).
    pub algorithm: String,
    /// One probe draw of the sampler RNG at save time (the stream is
    /// replayed on resume and must land here).
    pub sampler_check: u64,
    /// One probe draw of the fault RNG at save time.
    pub fault_check: u64,
    /// History records of the completed rounds, bit-exact.
    pub records: Vec<RoundRecord>,
    /// The algorithm's full state after round `next_round - 1`.
    pub state: AlgorithmState,
    /// Async scheduler snapshot (virtual clock + in-flight updates);
    /// `None` for synchronous runs. The fusion buffer is transient
    /// within a cycle, so the queue is the only event state to persist.
    pub scheduler: Option<SchedulerState>,
}

/// When and where the engine writes checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory the `round_*.ckpt` files land in (created on demand).
    pub dir: PathBuf,
    /// Checkpoint after every `every` completed rounds (and always after
    /// the final round). Clamped to at least 1.
    pub every: usize,
    /// Keep at most this many checkpoint files, pruning the oldest;
    /// `0` keeps them all.
    pub keep: usize,
}

impl CheckpointPolicy {
    /// Checkpoint into `dir` every `every` rounds, keeping the last two
    /// files (one good checkpoint always survives a crash mid-write of
    /// the next).
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy { dir: dir.into(), every: every.max(1), keep: 2 }
    }

    /// Keep at most `keep` checkpoint files (builder style; 0 = all).
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }
}

/// Why a run identity could not be fingerprinted.
///
/// The old code path `expect`ed JSON serialization to succeed — but the
/// real hazard was never a serializer panic: the vendored `serde_json`
/// renders non-finite floats as `null`, so a config holding a NaN
/// (e.g. a corrupted learning rate) would silently fingerprint
/// *identically* to a different broken config and resume across them.
/// Non-finite identity fields are now refused up front with a typed
/// error.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// An identity-defining float is NaN or infinite.
    NonFinite {
        /// Which structure held it (`"config"` / `"faults"`).
        what: &'static str,
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// The identity structures failed to serialize.
    Serialize {
        /// Which structure failed.
        what: &'static str,
        /// The serializer's message.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NonFinite { what, field, value } => {
                write!(f, "cannot fingerprint the run: {what}.{field} is non-finite ({value})")
            }
            CheckpointError::Serialize { what, detail } => {
                write!(f, "cannot fingerprint the run: {what} failed to serialize: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// 64-bit FNV-1a over the run's identity: config JSON with `rounds`
/// zeroed (the horizon may change between checkpoint and resume), the
/// effective fault model, the algorithm name, and the engine seed.
///
/// Refuses configs whose identity-defining floats are non-finite — the
/// JSON rendering would collapse them all to `null`, making distinct
/// broken runs resume-compatible with each other.
pub fn run_fingerprint(
    cfg: &FlConfig,
    faults: &FaultConfig,
    algorithm: &str,
    seed: u64,
) -> Result<u64, CheckpointError> {
    let finite = |what: &'static str, field: &'static str, value: f64| {
        if value.is_finite() {
            Ok(())
        } else {
            Err(CheckpointError::NonFinite { what, field, value })
        }
    };
    finite("config", "sample_ratio", cfg.sample_ratio as f64)?;
    finite("config", "lr", cfg.lr as f64)?;
    finite("config", "momentum", cfg.momentum as f64)?;
    finite("config", "weight_decay", cfg.weight_decay as f64)?;
    finite("config", "alpha", cfg.alpha)?;
    match cfg.lr_schedule {
        LrSchedule::Constant => {}
        LrSchedule::Step { gamma, .. } => finite("config", "lr_schedule.gamma", gamma as f64)?,
        LrSchedule::Cosine { min_lr, .. } => {
            finite("config", "lr_schedule.min_lr", min_lr as f64)?
        }
    }
    finite("faults", "drop_before_download", faults.drop_before_download as f64)?;
    finite("faults", "drop_after_download", faults.drop_after_download as f64)?;
    finite("faults", "straggler_prob", faults.straggler_prob as f64)?;
    finite("faults", "straggler_delay_s", faults.straggler_delay_s)?;
    finite("faults", "upload_failure_prob", faults.upload_failure_prob as f64)?;
    if let Some(d) = faults.round_deadline_s {
        finite("faults", "round_deadline_s", d)?;
    }

    let cfg_id = FlConfig { rounds: 0, ..*cfg };
    let cfg_json = serde_json::to_string(&cfg_id)
        .map_err(|e| CheckpointError::Serialize { what: "config", detail: e.to_string() })?;
    let faults_json = serde_json::to_string(faults)
        .map_err(|e| CheckpointError::Serialize { what: "faults", detail: e.to_string() })?;
    Ok(Fnv1a::default()
        .bytes(cfg_json.as_bytes())
        .bytes(faults_json.as_bytes())
        .bytes(algorithm.as_bytes())
        .u64(seed)
        .finish())
}

// ---- meta encoding -----------------------------------------------------
//
// In-flight updates carry raw f32 values in the opaque meta section:
// little-endian bit patterns, so NaNs, -0.0, and every rounding artifact
// survive the round trip — the async kill-and-resume test compares the
// finished histories byte-for-byte.

fn write_tensor<'w>(w: &'w mut Writer, t: &TensorBlob) -> &'w mut Writer {
    w.usizes(&t.dims).f32s(&t.values)
}

fn read_tensor(r: &mut Reader<impl Read>) -> io::Result<TensorBlob> {
    Ok(TensorBlob { dims: r.usizes()?, values: r.f32s()? })
}

fn write_client_blob(w: &mut Writer, blob: &ClientBlob) {
    w.usize(blob.models.len());
    for (name, state) in &blob.models {
        w.str(name).model_state(state);
    }
    w.usize(blob.tensors.len());
    for (name, tensor) in &blob.tensors {
        w.str(name);
        write_tensor(w, tensor);
    }
}

fn read_client_blob(r: &mut Reader<impl Read>) -> io::Result<ClientBlob> {
    let mut blob = ClientBlob::new();
    for _ in 0..r.count()? {
        blob.models.push((r.str()?, r.model_state()?));
    }
    for _ in 0..r.count()? {
        blob.tensors.push((r.str()?, read_tensor(r)?));
    }
    Ok(blob)
}

const PAYLOAD_EMPTY: u8 = 0;
const PAYLOAD_STATE: u8 = 1;
const PAYLOAD_STATE_AUX: u8 = 2;
const PAYLOAD_LOGITS: u8 = 3;
const PAYLOAD_WINDOW: u8 = 4;

fn write_event(w: &mut Writer, ev: &PendingEvent) {
    let u = &ev.update;
    w.u64(ev.time_bits).usize(ev.wave).usize(ev.idx).u64(ev.up_bytes);
    w.usize(u.client).usize(u.n_samples).usize(u.steps).f32(u.loss);
    match &u.payload {
        UpdatePayload::Empty => w.u8(PAYLOAD_EMPTY),
        UpdatePayload::State(state) => w.u8(PAYLOAD_STATE).model_state(state),
        UpdatePayload::StateAux { state, aux } => {
            w.u8(PAYLOAD_STATE_AUX).model_state(state).f32s(aux)
        }
        UpdatePayload::Logits(t) => write_tensor(w.u8(PAYLOAD_LOGITS), t),
        UpdatePayload::Window { offset, state } => {
            w.u8(PAYLOAD_WINDOW).usize(*offset).model_state(state)
        }
    };
    w.u8(u.commit.is_some() as u8);
    if let Some(blob) = &u.commit {
        write_client_blob(w, blob);
    }
}

fn read_event(r: &mut Reader<impl Read>) -> io::Result<PendingEvent> {
    let time_bits = r.u64()?;
    let wave = r.usize()?;
    let idx = r.usize()?;
    let up_bytes = r.u64()?;
    let client = r.usize()?;
    let n_samples = r.usize()?;
    let steps = r.usize()?;
    let loss = r.f32()?;
    let payload = match r.u8()? {
        PAYLOAD_EMPTY => UpdatePayload::Empty,
        PAYLOAD_STATE => UpdatePayload::State(r.model_state()?),
        PAYLOAD_STATE_AUX => UpdatePayload::StateAux { state: r.model_state()?, aux: r.f32s()? },
        PAYLOAD_LOGITS => UpdatePayload::Logits(read_tensor(r)?),
        PAYLOAD_WINDOW => UpdatePayload::Window { offset: r.usize()?, state: r.model_state()? },
        other => return Err(invalid(format!("unknown update payload tag {other}"))),
    };
    let commit = match r.u8()? {
        0 => None,
        1 => Some(read_client_blob(r)?),
        other => return Err(invalid(format!("unknown commit flag {other}"))),
    };
    Ok(PendingEvent {
        time_bits,
        wave,
        idx,
        up_bytes,
        update: PreparedUpdate { client, n_samples, steps, loss, payload, commit },
    })
}

pub(crate) fn encode_meta(ckpt: &RunCheckpoint) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(RUN_META_VERSION).u64(ckpt.fingerprint).usize(ckpt.next_round).str(&ckpt.algorithm);
    w.u64(ckpt.sampler_check).u64(ckpt.fault_check);
    w.str(&ckpt.state.algorithm).u32(ckpt.state.version);
    w.usize(ckpt.records.len());
    for r in &ckpt.records {
        w.usize(r.round).f32(r.test_acc).f32(r.train_loss).u64(r.cum_bytes);
        w.u64(r.down_bytes).u64(r.up_bytes).u64(r.wasted_up_bytes);
        w.usize(r.down_clients).usize(r.up_clients).u8(r.quorum_met as u8);
    }
    w.u8(ckpt.scheduler.is_some() as u8);
    if let Some(sched) = &ckpt.scheduler {
        w.u64(sched.now_bits).usize(sched.events.len());
        for ev in &sched.events {
            write_event(&mut w, ev);
        }
    }
    w.into_bytes()
}

/// Decode run meta v4 into a checkpoint whose algorithm state carries
/// only its header; the bundle's sections fill in the rest.
pub(crate) fn decode_meta(r: &mut Reader<impl Read>) -> io::Result<RunCheckpoint> {
    let version = r.u32()?;
    if version != RUN_META_VERSION {
        return Err(invalid(format!(
            "run-checkpoint meta version mismatch: expected {RUN_META_VERSION}, found {version}; \
             checkpoints from older builds cannot resume, re-run from scratch"
        )));
    }
    let (fingerprint, next_round, algorithm) = (r.u64()?, r.usize()?, r.str()?);
    let (sampler_check, fault_check) = (r.u64()?, r.u64()?);
    let state = AlgorithmState::new(r.str()?, r.u32()?);
    let mut records = Vec::new();
    for _ in 0..r.count()? {
        records.push(RoundRecord {
            round: r.usize()?,
            test_acc: r.f32()?,
            train_loss: r.f32()?,
            cum_bytes: r.u64()?,
            down_bytes: r.u64()?,
            up_bytes: r.u64()?,
            wasted_up_bytes: r.u64()?,
            down_clients: r.usize()?,
            up_clients: r.usize()?,
            quorum_met: r.u8()? != 0,
        });
    }
    let scheduler = match r.u8()? {
        0 => None,
        1 => {
            let now_bits = r.u64()?;
            let mut events = Vec::new();
            for _ in 0..r.count()? {
                events.push(read_event(r)?);
            }
            Some(SchedulerState { now_bits, events })
        }
        other => return Err(invalid(format!("unknown scheduler flag {other}"))),
    };
    r.finish()?;
    Ok(RunCheckpoint {
        fingerprint,
        next_round,
        algorithm,
        sampler_check,
        fault_check,
        records,
        state,
        scheduler,
    })
}

// ---- save / load -------------------------------------------------------

fn from_bundle(bundle: CheckpointBundle) -> io::Result<RunCheckpoint> {
    let meta = &bundle.meta[..];
    let mut ckpt = decode_meta(&mut Reader::with_len(meta, meta.len() as u64))?;
    ckpt.state.models = bundle.models;
    let arrays = bundle.arrays.into_iter();
    ckpt.state.tensors = arrays.map(|(n, dims, values)| (n, TensorBlob { dims, values })).collect();
    ckpt.state.scalars = bundle.scalars;
    Ok(ckpt)
}

/// File name of the checkpoint taken after `next_round` completed
/// rounds.
pub fn checkpoint_file(dir: &Path, next_round: usize) -> PathBuf {
    dir.join(format!("{FILE_PREFIX}{next_round:05}{FILE_SUFFIX}"))
}

/// Atomically write `ckpt` into `dir` (created on demand) and return the
/// file path.
pub fn save_run(ckpt: &RunCheckpoint, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = checkpoint_file(dir, ckpt.next_round);
    let tensors = ckpt.state.tensors.iter();
    let arrays = tensors.map(|(n, t)| (n.as_str(), t.dims.as_slice(), t.values.as_slice()));
    let bytes =
        encode_bundle_parts(&encode_meta(ckpt), &ckpt.state.models, arrays, &ckpt.state.scalars);
    atomic_write(&path, &bytes)?;
    Ok(path)
}

/// Why [`load_run`] could not produce a checkpoint. The directory cases
/// are distinguished so a resume caller can tell "nothing was ever
/// checkpointed here" from "checkpoints exist but every one is
/// unreadable" — the former is typically a wrong path, the latter real
/// corruption.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the path (or a single checkpoint file) failed.
    Io(io::Error),
    /// The directory exists but holds no `round_*.ckpt` files at all.
    NoCheckpoints {
        /// The directory scanned.
        dir: PathBuf,
    },
    /// Every `round_*.ckpt` candidate in the directory failed to load.
    AllCorrupt {
        /// The directory scanned.
        dir: PathBuf,
        /// Number of candidates tried (newest first).
        tried: usize,
        /// The error from the last (oldest) candidate.
        last: io::Error,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "{e}"),
            LoadError::NoCheckpoints { dir } => {
                write!(f, "no round_*.ckpt checkpoints in {}", dir.display())
            }
            LoadError::AllCorrupt { dir, tried, last } => write!(
                f,
                "all {tried} checkpoint(s) in {} failed to load; last error: {last}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Load a run checkpoint. `path` may be a checkpoint file or a
/// checkpoint directory; a directory resolves to its newest loadable
/// `round_*.ckpt` (stray `.tmp` leftovers from an interrupted save and
/// corrupt files are skipped, so a crash mid-write never blocks resume
/// from the previous good checkpoint). An empty directory and a
/// directory of only unreadable files are distinct typed errors, not
/// panics.
pub fn load_run(path: &Path) -> Result<RunCheckpoint, LoadError> {
    if path.is_dir() {
        let mut rounds = checkpoint_rounds(path).map_err(LoadError::Io)?;
        if rounds.is_empty() {
            return Err(LoadError::NoCheckpoints { dir: path.to_path_buf() });
        }
        // Newest first; fall back past corrupt files to the last good one.
        rounds.reverse();
        let tried = rounds.len();
        let mut last_err = None;
        for r in rounds {
            match load_bundle(checkpoint_file(path, r)).and_then(from_bundle) {
                Ok(ckpt) => return Ok(ckpt),
                Err(e) => last_err = Some(e),
            }
        }
        Err(LoadError::AllCorrupt {
            dir: path.to_path_buf(),
            tried,
            // `rounds` was non-empty, so the loop ran at least once and
            // recorded an error before falling through to here.
            last: last_err.unwrap_or_else(|| io::Error::other("no load attempted")),
        })
    } else {
        from_bundle(load_bundle(path).map_err(LoadError::Io)?).map_err(LoadError::Io)
    }
}

/// Completed-round indices of the `round_*.ckpt` files in `dir`,
/// ascending. Non-checkpoint files (including `.tmp` leftovers) are
/// ignored.
pub fn checkpoint_rounds(dir: &Path) -> io::Result<Vec<usize>> {
    let mut rounds = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name.strip_prefix(FILE_PREFIX).and_then(|s| s.strip_suffix(FILE_SUFFIX))
        {
            if let Ok(r) = stem.parse::<usize>() {
                rounds.push(r);
            }
        }
    }
    rounds.sort_unstable();
    Ok(rounds)
}

/// Path of the newest checkpoint in `dir`, if any (no load attempted).
pub fn latest_checkpoint(dir: &Path) -> io::Result<Option<PathBuf>> {
    if !dir.is_dir() {
        return Ok(None);
    }
    Ok(checkpoint_rounds(dir)?.last().map(|&r| checkpoint_file(dir, r)))
}

/// Delete all but the newest `keep` checkpoints in `dir` (`keep == 0`
/// keeps everything).
pub fn prune_checkpoints(dir: &Path, keep: usize) -> io::Result<()> {
    if keep == 0 {
        return Ok(());
    }
    let rounds = checkpoint_rounds(dir)?;
    for &r in rounds.iter().rev().skip(keep) {
        std::fs::remove_file(checkpoint_file(dir, r))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kemf_runckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn sample_ckpt(next_round: usize) -> RunCheckpoint {
        let state = AlgorithmState::new("FedAvg", 1)
            .with_model("global", Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state())
            .with_tensor("c", vec![3], vec![1.0, f32::NAN, -0.0])
            .with_scalar("mu", 0.01);
        RunCheckpoint {
            fingerprint: 0xDEAD_BEEF,
            next_round,
            algorithm: "FedAvg".into(),
            sampler_check: 17,
            fault_check: 23,
            records: vec![
                RoundRecord { round: 0, test_acc: 0.5, train_loss: f32::NAN, ..Default::default() },
                RoundRecord { round: 1, test_acc: 0.625, train_loss: 1.5, ..Default::default() },
            ],
            state,
            scheduler: None,
        }
    }

    #[test]
    fn run_checkpoint_roundtrips_bit_exactly() {
        let dir = tmpdir("rt");
        let ckpt = sample_ckpt(2);
        let path = save_run(&ckpt, &dir).unwrap();
        let loaded = load_run(&path).unwrap();
        assert_eq!(loaded.fingerprint, ckpt.fingerprint);
        assert_eq!(loaded.next_round, 2);
        assert_eq!(loaded.algorithm, "FedAvg");
        assert_eq!((loaded.sampler_check, loaded.fault_check), (17, 23));
        assert_eq!(loaded.state.models, ckpt.state.models);
        assert_eq!(loaded.state.scalars, ckpt.state.scalars);
        // NaNs round-trip by bit pattern.
        assert_eq!(
            loaded.state.tensors[0].1.values[1].to_bits(),
            ckpt.state.tensors[0].1.values[1].to_bits()
        );
        assert_eq!(loaded.records[0].train_loss.to_bits(), f32::NAN.to_bits());
        assert_eq!(loaded.records[1].test_acc.to_bits(), 0.625f32.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_checkpoint_with_in_flight_events_roundtrips_bit_exactly() {
        use crate::client_store::ClientBlob;
        use crate::scheduler::{PendingEvent, PreparedUpdate, SchedulerState, UpdatePayload};
        let dir = tmpdir("async_rt");
        let model = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state();
        // One event per payload variant, with awkward bit patterns.
        let events = vec![
            PendingEvent {
                time_bits: 3.5f64.to_bits(),
                wave: 0,
                idx: 1,
                up_bytes: 4096,
                update: PreparedUpdate {
                    client: 7,
                    n_samples: 12,
                    steps: 30,
                    loss: f32::NAN,
                    payload: UpdatePayload::Empty,
                    commit: None,
                },
            },
            PendingEvent {
                time_bits: 4.25f64.to_bits(),
                wave: 1,
                idx: 0,
                up_bytes: u64::MAX,
                update: PreparedUpdate {
                    client: 2,
                    n_samples: 9,
                    steps: 18,
                    loss: 0.75,
                    payload: UpdatePayload::StateAux {
                        state: model.clone(),
                        aux: vec![1.0, -0.0, f32::NAN],
                    },
                    commit: Some(
                        ClientBlob::new()
                            .with_model("model", model.clone())
                            .with_tensor("c", vec![2], vec![0.5, -1.5]),
                    ),
                },
            },
            PendingEvent {
                time_bits: 9.0f64.to_bits(),
                wave: 1,
                idx: 2,
                up_bytes: 0,
                update: PreparedUpdate {
                    client: 4,
                    n_samples: 3,
                    steps: 6,
                    loss: 2.0,
                    payload: UpdatePayload::Logits(TensorBlob {
                        dims: vec![2, 3],
                        values: vec![0.1, 0.2, 0.3, -0.4, 0.5, -0.0],
                    }),
                    commit: None,
                },
            },
            PendingEvent {
                time_bits: 10.75f64.to_bits(),
                wave: 2,
                idx: 0,
                up_bytes: 1313,
                update: PreparedUpdate {
                    client: 5,
                    n_samples: 4,
                    steps: 8,
                    loss: 0.25,
                    payload: UpdatePayload::Window { offset: 3, state: model.clone() },
                    commit: None,
                },
            },
        ];
        let mut ckpt = sample_ckpt(2);
        ckpt.scheduler = Some(SchedulerState { now_bits: 1.125f64.to_bits(), events });
        let path = save_run(&ckpt, &dir).unwrap();
        let loaded = load_run(&path).unwrap();
        let sched = loaded.scheduler.expect("async checkpoint carries the scheduler");
        let want = ckpt.scheduler.as_ref().unwrap();
        assert_eq!(sched.now_bits, want.now_bits);
        assert_eq!(sched.events.len(), want.events.len());
        for (got, want) in sched.events.iter().zip(&want.events) {
            assert_eq!((got.time_bits, got.wave, got.idx), (want.time_bits, want.wave, want.idx));
            assert_eq!(got.up_bytes, want.up_bytes, "frozen uplink bytes survive the round trip");
            assert_eq!(
                (got.update.client, got.update.n_samples, got.update.steps),
                (want.update.client, want.update.n_samples, want.update.steps)
            );
            // NaN losses round-trip by bit pattern (PartialEq would
            // reject NaN == NaN, so compare bits).
            assert_eq!(got.update.loss.to_bits(), want.update.loss.to_bits());
            assert_eq!(got.update.commit, want.update.commit, "blob equality is bit-exact");
        }
        match &sched.events[1].update.payload {
            UpdatePayload::StateAux { state, aux } => {
                assert_eq!(state, &model);
                assert_eq!(aux[0].to_bits(), 1.0f32.to_bits());
                assert_eq!(aux[1].to_bits(), (-0.0f32).to_bits());
                assert_eq!(aux[2].to_bits(), f32::NAN.to_bits());
            }
            other => panic!("wrong payload variant: {other:?}"),
        }
        match &sched.events[2].update.payload {
            UpdatePayload::Logits(t) => assert_eq!(t.dims, vec![2, 3]),
            other => panic!("wrong payload variant: {other:?}"),
        }
        match &sched.events[3].update.payload {
            UpdatePayload::Window { offset, state } => {
                assert_eq!(*offset, 3);
                assert_eq!(state, &model);
            }
            other => panic!("wrong payload variant: {other:?}"),
        }
        assert!(matches!(sched.events[0].update.payload, UpdatePayload::Empty));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_versions_before_four_are_refused_with_expected_and_found() {
        // Sync and async runs share meta v4; the retired sync v1, the
        // unbilled async v2 and the async-only v3 envelopes are refused,
        // naming both versions, instead of resuming a different layout.
        let dir = tmpdir("old_versions");
        let path = save_run(&sample_ckpt(2), &dir).unwrap();
        let mut bundle = load_bundle(&path).unwrap();
        assert_eq!(bundle.meta[0..4], RUN_META_VERSION.to_le_bytes());
        for old in [1u32, 2, 3] {
            bundle.meta[0..4].copy_from_slice(&old.to_le_bytes());
            kemf_nn::checkpoint::save_bundle(&bundle, &path).unwrap();
            let err = match load_run(&path) {
                Ok(_) => panic!("a v{old} checkpoint must be refused"),
                Err(e) => e.to_string(),
            };
            assert!(
                err.contains("expected 4") && err.contains(&format!("found {old}")),
                "bad message: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_resume_picks_newest_and_skips_tmp_and_corrupt() {
        let dir = tmpdir("latest");
        save_run(&sample_ckpt(2), &dir).unwrap();
        save_run(&sample_ckpt(4), &dir).unwrap();
        // A crash mid-write of round 6 leaves a truncated tmp file...
        std::fs::write(dir.join("round_00006.ckpt.tmp"), b"KEMFCK").unwrap();
        // ...and even a corrupt *named* checkpoint must fall back.
        std::fs::write(checkpoint_file(&dir, 8), b"KEMFCKPT garbage").unwrap();
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(checkpoint_file(&dir, 8)));
        let loaded = load_run(&dir).unwrap();
        assert_eq!(loaded.next_round, 4, "corrupt newest falls back to last good");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmpdir("prune");
        for r in [1, 2, 3, 4] {
            save_run(&sample_ckpt(r), &dir).unwrap();
        }
        prune_checkpoints(&dir, 2).unwrap();
        assert_eq!(checkpoint_rounds(&dir).unwrap(), vec![3, 4]);
        prune_checkpoints(&dir, 0).unwrap();
        assert_eq!(checkpoint_rounds(&dir).unwrap(), vec![3, 4], "keep=0 keeps all");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_ignores_rounds_but_sees_everything_else() {
        let cfg = FlConfig::default();
        let faults = FaultConfig::reliable();
        let base = run_fingerprint(&cfg, &faults, "FedAvg", 7).unwrap();
        let longer = FlConfig { rounds: 100, ..cfg };
        assert_eq!(
            run_fingerprint(&longer, &faults, "FedAvg", 7).unwrap(),
            base,
            "horizon is not identity"
        );
        let other_seed = run_fingerprint(&cfg, &faults, "FedAvg", 8).unwrap();
        assert_ne!(other_seed, base);
        let other_algo = run_fingerprint(&cfg, &faults, "FedProx", 7).unwrap();
        assert_ne!(other_algo, base);
        let other_cfg = FlConfig { n_clients: 11, ..cfg };
        assert_ne!(run_fingerprint(&other_cfg, &faults, "FedAvg", 7).unwrap(), base);
        let other_faults = FaultConfig { drop_after_download: 0.1, ..faults };
        assert_ne!(run_fingerprint(&cfg, &other_faults, "FedAvg", 7).unwrap(), base);
    }

    #[test]
    fn fingerprint_refuses_non_finite_identity_fields() {
        // The vendored serde_json writes NaN as `null`, so without the
        // explicit guard two *different* broken configs would share one
        // fingerprint. The guard must catch every float that defines
        // run identity, in both the config and the fault model.
        let faults = FaultConfig::reliable();
        let bad_cfg = FlConfig { momentum: f32::NAN, ..FlConfig::default() };
        let err = run_fingerprint(&bad_cfg, &faults, "FedAvg", 7).unwrap_err();
        assert!(
            matches!(err, CheckpointError::NonFinite { what: "config", field: "momentum", .. }),
            "got: {err}"
        );
        let bad_lr = FlConfig { lr: f32::INFINITY, ..FlConfig::default() };
        assert!(run_fingerprint(&bad_lr, &faults, "FedAvg", 7).is_err());
        let bad_faults =
            FaultConfig { straggler_delay_s: f64::NAN, ..FaultConfig::reliable() };
        let err = run_fingerprint(&FlConfig::default(), &bad_faults, "FedAvg", 7).unwrap_err();
        assert!(
            matches!(err, CheckpointError::NonFinite { what: "faults", .. }),
            "got: {err}"
        );
        let bad_deadline = FaultConfig {
            round_deadline_s: Some(f64::INFINITY),
            ..FaultConfig::reliable()
        };
        assert!(run_fingerprint(&FlConfig::default(), &bad_deadline, "FedAvg", 7).is_err());
    }

    #[test]
    fn empty_dir_is_clean_error() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_run(&dir).unwrap_err();
        assert!(matches!(err, LoadError::NoCheckpoints { .. }), "got: {err}");
        assert!(err.to_string().contains("no round_*.ckpt"), "bad message: {err}");
        assert!(latest_checkpoint(&dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_only_dir_is_a_typed_error_not_a_panic() {
        let dir = tmpdir("corrupt_only");
        std::fs::create_dir_all(&dir).unwrap();
        // Two named checkpoints, both garbage: the fallback scan used to
        // end in `last_err.expect(..)`; now it reports what it tried.
        std::fs::write(checkpoint_file(&dir, 2), b"KEMFCKPT nope").unwrap();
        std::fs::write(checkpoint_file(&dir, 4), b"still nope").unwrap();
        let err = load_run(&dir).unwrap_err();
        match err {
            LoadError::AllCorrupt { dir: ref d, tried, .. } => {
                assert_eq!(tried, 2);
                assert_eq!(d, &dir);
            }
            other => panic!("expected AllCorrupt, got: {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
