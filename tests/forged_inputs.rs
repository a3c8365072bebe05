//! Regression: a 28-byte file claiming 2^33 models — `KEMFCKPT`, bundle
//! version 2, an empty meta section and a model count of `1 << 33` —
//! must be a typed `InvalidData` error on every path that reads a bundle
//! (plain load, run-checkpoint load, directory resume, client-store
//! fetch). A decoder that sized its model vector from the count would ask
//! the allocator for about a terabyte and abort the process instead.

use fedkemf::fl::checkpoint::{checkpoint_file, load_run, save_run, LoadError, RunCheckpoint};
use fedkemf::fl::client_store::{ClientBlob, ClientStateStore, SpillConfig, StoreError};
use fedkemf::fl::state::AlgorithmState;
use fedkemf::nn::checkpoint::load_bundle;
use std::io;
use std::path::PathBuf;

fn forged_bundle() -> Vec<u8> {
    let mut bytes = b"KEMFCKPT".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&(1u64 << 33).to_le_bytes());
    assert_eq!(bytes.len(), 28);
    bytes
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_forged_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn good_checkpoint(next_round: usize) -> RunCheckpoint {
    RunCheckpoint {
        fingerprint: 7,
        next_round,
        algorithm: "FedAvg".into(),
        sampler_check: 1,
        fault_check: 2,
        records: Vec::new(),
        state: AlgorithmState::new("FedAvg", 1).with_scalar("mu", 0.5),
        scheduler: None,
    }
}

#[test]
fn forged_model_count_is_invalid_data_on_every_load_path() {
    let dir = tmpdir("paths");
    let file = dir.join("forged.ckpt");
    std::fs::write(&file, forged_bundle()).unwrap();

    let err = load_bundle(&file).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "load_bundle: {err}");

    match load_run(&file) {
        Err(LoadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "load_run: {e}"),
        other => panic!("load_run of the forged file: {other:?}"),
    }

    // Directory resume: the forged file is the newest checkpoint, so the
    // scan must fall back to the older good one.
    let ckpts = dir.join("ckpts");
    save_run(&good_checkpoint(2), &ckpts).unwrap();
    std::fs::write(checkpoint_file(&ckpts, 4), forged_bundle()).unwrap();
    assert_eq!(load_run(&ckpts).unwrap().next_round, 2);
    std::fs::remove_file(checkpoint_file(&ckpts, 2)).unwrap();
    match load_run(&ckpts) {
        Err(LoadError::AllCorrupt { tried: 1, last, .. }) => {
            assert_eq!(last.kind(), io::ErrorKind::InvalidData, "directory scan: {last}")
        }
        other => panic!("forged-only directory: {other:?}"),
    }

    // Client-store fetch of a spill file overwritten with the forgery.
    let spill = dir.join("spill");
    let mut store = ClientStateStore::sharded(4, SpillConfig::new(&spill)).unwrap();
    store.begin_round(0);
    store.commit(1, ClientBlob::new().with_tensor("c", vec![1], vec![1.0])).unwrap();
    std::fs::write(spill.join("shard_0000/c000000001_r000000.ckpt"), forged_bundle()).unwrap();
    store.begin_round(1);
    match store.fetch(1, |_| unreachable!("client 1 has a spill file")) {
        Err(StoreError::Io { .. } | StoreError::Corrupt { .. }) => {}
        other => panic!("fetch of the forged spill file: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
