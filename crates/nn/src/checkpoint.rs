//! Binary checkpointing: a tiny self-describing format (magic, version,
//! section lengths, little-endian payload, all through [`crate::codec`])
//! so long federated runs can persist and resume without a
//! serialization framework.
//!
//! A **bundle** (`KEMFCKPT` magic, version 2; [`save_bundle`]/
//! [`load_bundle`]) is a [`CheckpointBundle`]: opaque metadata bytes plus
//! named models, named dimension-tagged f32 arrays, and named f64
//! scalars. It is the container for a single saved model (one model
//! section), the federated engine's resumable-run checkpoints (one file
//! holds a whole algorithm's state — knowledge network, per-client local
//! models, control variates, consensus logits — next to the engine's own
//! round/RNG/history metadata) and the client store's spill files.
//!
//! All writes are **crash-consistent**: the bytes land in a `*.tmp`
//! sibling first, are fsynced, and are renamed over the destination only
//! then ([`atomic_write`]), so an interrupted save can never corrupt the
//! previous good checkpoint — at worst it leaves a stray `.tmp` file
//! that loaders ignore.
//!
//! Load errors always name the offending file and, for version
//! mismatches, the expected-vs-found version.

use crate::codec::{invalid, Reader, Writer};
use crate::serialize::ModelState;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"KEMFCKPT";
/// Format version of a multi-model bundle ([`save_bundle`]).
pub const BUNDLE_VERSION: u32 = 2;

/// A multi-model checkpoint: opaque caller metadata plus named sections.
/// Section order is preserved exactly, so serialization round-trips
/// bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointBundle {
    /// Opaque caller-owned metadata (the federated engine stores its
    /// round index, RNG probes, and history here).
    pub meta: Vec<u8>,
    /// Named model states, e.g. `"global"`, `"local.3"`.
    pub models: Vec<(String, ModelState)>,
    /// Named dimension-tagged f32 arrays, e.g. control variates.
    pub arrays: Vec<(String, Vec<usize>, Vec<f32>)>,
    /// Named f64 scalars.
    pub scalars: Vec<(String, f64)>,
}

/// Attach the offending path to an I/O error so callers always see which
/// file failed, not just the bare reason.
fn with_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("checkpoint {}: {e}", path.display()))
}

/// The path a partially-written checkpoint occupies until the atomic
/// rename: the destination file name with `.tmp` appended. Loaders that
/// scan directories must skip these.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Crash-consistent write: the bytes go to a `.tmp` sibling, are flushed
/// and fsynced, and only then renamed over `path`. A crash at any point
/// leaves either the old file intact or the complete new one — never a
/// truncated checkpoint under the real name.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    let mut out = File::create(&tmp).map_err(|e| with_path(&tmp, e))?;
    out.write_all(bytes).map_err(|e| with_path(&tmp, e))?;
    out.sync_all().map_err(|e| with_path(&tmp, e))?;
    drop(out);
    std::fs::rename(&tmp, path).map_err(|e| with_path(path, e))?;
    // Persist the rename itself (directory entry) where the platform
    // allows opening directories; best-effort elsewhere.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

// ---- bundle ------------------------------------------------------------

/// Serialize a bundle from borrowed sections, so callers whose state
/// lives in other shapes (run checkpoints, spill blobs) write without
/// cloning a single model or tensor.
pub fn encode_bundle_parts<'a>(
    meta: &[u8],
    models: &[(String, ModelState)],
    arrays: impl ExactSizeIterator<Item = (&'a str, &'a [usize], &'a [f32])>,
    scalars: &[(String, f64)],
) -> Vec<u8> {
    let mut w = Writer::default();
    w.raw(MAGIC).u32(BUNDLE_VERSION).bytes(meta).usize(models.len());
    for (name, state) in models {
        w.str(name).model_state(state);
    }
    w.usize(arrays.len());
    for (name, dims, values) in arrays {
        w.str(name).usizes(dims).f32s(values);
    }
    w.usize(scalars.len());
    for (name, v) in scalars {
        w.str(name).f64(*v);
    }
    w.into_bytes()
}

/// Serialize a bundle to its on-disk byte layout (without writing).
pub fn encode_bundle(bundle: &CheckpointBundle) -> Vec<u8> {
    let arrays = bundle.arrays.iter().map(|(n, d, v)| (n.as_str(), d.as_slice(), v.as_slice()));
    encode_bundle_parts(&bundle.meta, &bundle.models, arrays, &bundle.scalars)
}

/// Write a multi-model bundle to `path` crash-consistently.
pub fn save_bundle(bundle: &CheckpointBundle, path: impl AsRef<Path>) -> io::Result<()> {
    atomic_write(path, &encode_bundle(bundle))
}

/// Decode a whole bundle from `r`: magic, version, sections, and nothing
/// after the last section. A version mismatch names the expected and
/// found versions.
pub fn read_bundle(r: &mut Reader<impl Read>) -> io::Result<CheckpointBundle> {
    if &r.array::<8>()? != MAGIC {
        return Err(invalid("not a kemf checkpoint (bad magic)"));
    }
    let version = r.u32()?;
    if version != BUNDLE_VERSION {
        return Err(invalid(format!(
            "version mismatch: expected {BUNDLE_VERSION}, found {version}"
        )));
    }
    let meta = r.bytes()?;
    let mut models = Vec::new();
    for _ in 0..r.count()? {
        models.push((r.str()?, r.model_state()?));
    }
    let mut arrays = Vec::new();
    for _ in 0..r.count()? {
        let (name, dims, values) = (r.str()?, r.usizes()?, r.f32s()?);
        if dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)) != Some(values.len()) {
            let n = values.len();
            return Err(invalid(format!("array `{name}`: {n} values do not fill dims {dims:?}")));
        }
        arrays.push((name, dims, values));
    }
    let mut scalars = Vec::new();
    for _ in 0..r.count()? {
        scalars.push((r.str()?, r.f64()?));
    }
    r.finish()?;
    Ok(CheckpointBundle { meta, models, arrays, scalars })
}

/// Read a multi-model bundle from `path`. Errors name the file; every
/// malformed file is [`io::ErrorKind::InvalidData`].
pub fn load_bundle(path: impl AsRef<Path>) -> io::Result<CheckpointBundle> {
    let path = path.as_ref();
    let file = File::open(path).map_err(|e| with_path(path, e))?;
    let len = file.metadata().map_err(|e| with_path(path, e))?.len();
    let mut r = Reader::with_len(io::BufReader::new(file), len);
    read_bundle(&mut r).map_err(|e| with_path(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::models::{Arch, ModelSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kemf_ckpt_test_{name}_{}", std::process::id()));
        p
    }

    fn one_model(state: ModelState) -> CheckpointBundle {
        CheckpointBundle { models: vec![("model".into(), state)], ..Default::default() }
    }

    #[test]
    fn roundtrip_is_exact() {
        let spec = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 7);
        let m = Model::new(spec);
        let state = m.state();
        let path = tmp("roundtrip");
        save_bundle(&one_model(state.clone()), &path).unwrap();
        let loaded = load_bundle(&path).unwrap().models.remove(0).1;
        assert_eq!(loaded, state);
        let mut m2 = Model::new(ModelSpec { seed: 99, ..spec });
        m2.set_state(&loaded);
        assert_eq!(m2.state(), state);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage_and_truncated_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let err = load_bundle(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let state = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1)).state();
        save_bundle(&one_model(state), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(load_bundle(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_errors_name_the_file() {
        let path = tmp("named_err");
        std::fs::write(&path, b"garbage garbage garbage").unwrap();
        let err = load_bundle(&path).unwrap_err().to_string();
        assert!(err.contains(path.to_str().unwrap()), "error lacks path: {err}");
        let err = load_bundle("/nonexistent/kemf.ckpt").unwrap_err().to_string();
        assert!(err.contains("/nonexistent/kemf.ckpt"), "error lacks path: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_mismatch_reports_expected_and_found() {
        // A file from the retired single-model format (version 1) names
        // both versions, so operators can tell stale files from
        // corruption.
        let path = tmp("vers");
        let mut bytes = encode_bundle(&CheckpointBundle::default());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_bundle(&path).unwrap_err().to_string();
        assert!(err.contains("expected 2") && err.contains("found 1"), "bad message: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bundle_roundtrip_is_exact() {
        let spec_a = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1);
        let spec_b = ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 2);
        let bundle = CheckpointBundle {
            meta: vec![1, 2, 3, 255, 0, 42],
            models: vec![
                ("global".into(), Model::new(spec_a).state()),
                ("local.0".into(), Model::new(spec_b).state()),
            ],
            arrays: vec![
                ("c".into(), vec![4], vec![0.5, -0.25, f32::MIN_POSITIVE, 3.0]),
                ("empty".into(), vec![0, 7], vec![]),
            ],
            scalars: vec![("round".into(), 17.0), ("nan".into(), f64::NAN)],
        };
        let path = tmp("bundle_rt");
        save_bundle(&bundle, &path).unwrap();
        let loaded = load_bundle(&path).unwrap();
        assert_eq!(loaded.meta, bundle.meta);
        assert_eq!(loaded.models, bundle.models);
        assert_eq!(loaded.arrays, bundle.arrays);
        assert_eq!(loaded.scalars.len(), 2);
        assert_eq!(loaded.scalars[0], bundle.scalars[0]);
        // NaN round-trips by bit pattern, not equality.
        assert_eq!(loaded.scalars[1].1.to_bits(), bundle.scalars[1].1.to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bundle_rejects_truncation_and_trailing_garbage() {
        let bundle = CheckpointBundle {
            meta: b"meta".to_vec(),
            models: vec![("m".into(), Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state())],
            arrays: vec![("a".into(), vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])],
            scalars: vec![("s".into(), 1.5)],
        };
        let path = tmp("bundle_bad");
        save_bundle(&bundle, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load_bundle(&path).is_err(), "truncated bundle must not parse");
        let mut extended = bytes.clone();
        extended.extend_from_slice(b"xx");
        std::fs::write(&path, &extended).unwrap();
        assert!(load_bundle(&path).is_err(), "trailing garbage must not parse");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_write_leaves_previous_checkpoint_intact() {
        // Crash-consistency: a half-written tmp file (simulating a crash
        // mid-save) must never affect the good checkpoint under the real
        // name.
        let bundle = CheckpointBundle { meta: b"good".to_vec(), ..Default::default() };
        let path = tmp("atomic");
        save_bundle(&bundle, &path).unwrap();
        std::fs::write(tmp_path(&path), b"KEMFCKPT\x02\x00\x00").unwrap();
        let loaded = load_bundle(&path).unwrap();
        assert_eq!(loaded.meta, b"good");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tmp_path(&path));
    }
}
