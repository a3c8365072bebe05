//! Every binary format the workspace stores or sends, tested in one
//! place: golden bytes and hash values that must never move, and one
//! hostile-input suite run over every decoder.
//!
//! The goldens were captured from the hand-written codecs these formats
//! used before they moved onto [`kemf_nn::codec`]; only run meta (v4) is
//! free to change layout. KMFT frame and payload-envelope goldens live
//! with the transport's own tests.

use crate::checkpoint::{decode_meta, encode_meta, run_fingerprint, RunCheckpoint};
use crate::client_store::{ClientBlob, ClientStateStore, SpillConfig, StoreError};
use crate::compress::{quantize, QuantizedWeights};
use crate::config::FlConfig;
use crate::lifecycle::FaultConfig;
use crate::metrics::RoundRecord;
use crate::network::{NetworkModel, NetworkProfiles};
use crate::scheduler::{AsyncConfig, PendingEvent, PreparedUpdate, SchedulerState, UpdatePayload};
use crate::state::{AlgorithmState, TensorBlob};
use crate::transport::{build_payload, read_frame, validate_payload, write_frame};
use kemf_nn::checkpoint::{encode_bundle, read_bundle, CheckpointBundle};
use kemf_nn::codec::Reader;
use kemf_nn::serialize::{ModelState, Weights};
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Lower-case hex of `bytes`.
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A three-parameter model state with awkward bit patterns.
fn tiny_state() -> ModelState {
    ModelState {
        params: Weights { values: vec![1.5, -0.0, f32::NAN], lens: vec![2, 1] },
        buffers: Weights { values: vec![0.25], lens: vec![1] },
    }
}

/// The weights whose quantized wire encoding is pinned.
pub(crate) fn tiny_quantized() -> QuantizedWeights {
    let w = Weights { values: (0..10).map(|i| i as f32 * 0.3 - 1.0).collect(), lens: vec![4, 6] };
    quantize(&w, 4).unwrap()
}

fn tiny_bundle() -> CheckpointBundle {
    CheckpointBundle {
        meta: vec![1, 2, 3],
        models: vec![("m".into(), tiny_state())],
        arrays: vec![("c".into(), vec![2], vec![3.0, -4.5])],
        scalars: vec![("s".into(), 2.5)],
    }
}

fn tiny_blob() -> ClientBlob {
    ClientBlob::new().with_model("model", tiny_state()).with_tensor("c", vec![2], vec![0.5, -1.5])
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_codec_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store with client 5's blob committed in round 3; returns the store
/// (positioned at round 4) and the spill file's path.
fn spilled_store(dir: &Path) -> (ClientStateStore, PathBuf) {
    let mut store = ClientStateStore::sharded(8, SpillConfig::new(dir)).unwrap();
    store.begin_round(3);
    store.commit(5, tiny_blob()).unwrap();
    store.begin_round(4);
    (store, dir.join("shard_0000/c000000005_r000003.ckpt"))
}

const BUNDLE_HEX: &str = "4b454d46434b505402000000030000000000000001020301000000000000000100000000\
    0000006d02000000000000000200000000000000010000000000000003000000000000000000c03f000000800000\
    c07f0100000000000000010000000000000001000000000000000000803e01000000000000000100000000000000\
    6301000000000000000200000000000000020000000000000000004040000090c001000000000000000100000000\
    000000730000000000000440";

const SPILL_HEX: &str = "4b454d46434b50540200000014000000000000000100000005000000000000000300000000\
    000000010000000000000005000000000000006d6f64656c020000000000000002000000000000000100000000000000\
    03000000000000000000c03f000000800000c07f0100000000000000010000000000000001000000000000000000803e\
    01000000000000000100000000000000630100000000000000020000000000000002000000000000000000003f0000c0\
    bf0000000000000000";

pub(crate) const QWIRE_HEX: &str = "0a0000000000000080d52a7f80d52a7f807f0300000000000000b54d673bb64d\
    673bcc339a3a0300000000000000000080bfd0cc4c3e3433b33f04000000000000000200000000000000040000000000\
    00000600000000000000";

#[test]
fn bundle_spill_and_quantized_layouts_are_pinned() {
    assert_eq!(hex(&encode_bundle(&tiny_bundle())), BUNDLE_HEX);
    let dir = tmpdir("golden_spill");
    let (mut store, spill) = spilled_store(&dir);
    assert_eq!(hex(&std::fs::read(&spill).unwrap()), SPILL_HEX);
    assert_eq!(store.fetch(5, |_| unreachable!()).unwrap(), tiny_blob());
    let _ = std::fs::remove_dir_all(&dir);
    let q = tiny_quantized();
    assert_eq!(hex(&q.to_wire()), QWIRE_HEX);
    assert_eq!(QuantizedWeights::from_wire(&q.to_wire()).unwrap(), q);
}

#[test]
fn fingerprints_are_pinned() {
    let base = run_fingerprint(&FlConfig::default(), &FaultConfig::reliable(), "FedAvg", 7).unwrap();
    assert_eq!(base, 0xa8cd_d395_c17f_9266);
    let faults = FaultConfig {
        drop_after_download: 0.1,
        round_deadline_s: Some(30.0),
        ..FaultConfig::reliable()
    };
    let cfg = FlConfig { n_clients: 11, ..FlConfig::default() };
    assert_eq!(run_fingerprint(&cfg, &faults, "FedKEMF", 3).unwrap(), 0xbeab_f11f_89c7_46e0);
    assert_eq!(AsyncConfig::new(2).mix_fingerprint(base), 0x9723_f83c_5f4b_5030);
    let knobs = AsyncConfig::new(3)
        .max_staleness(4)
        .staleness_decay(0.5)
        .network(NetworkModel::iot())
        .profiles(NetworkProfiles::wifi_4g_3g())
        .aggregate_after(2.5);
    assert_eq!(knobs.mix_fingerprint(base), 0xdfdd_9f12_31a7_a797);
}

/// A run checkpoint carrying two history records and one in-flight event
/// of every [`UpdatePayload`] variant, one with a committed client blob.
fn run_checkpoint_with_events() -> RunCheckpoint {
    let event = |idx: usize, payload: UpdatePayload, commit: Option<ClientBlob>| PendingEvent {
        time_bits: (idx as f64 + 0.5).to_bits(),
        wave: idx / 2,
        idx,
        up_bytes: 64 * idx as u64,
        update: PreparedUpdate { client: idx, n_samples: 3, steps: 6, loss: 0.5, payload, commit },
    };
    let logits = TensorBlob { dims: vec![2, 2], values: vec![0.1, -0.0, f32::NAN, 4.0] };
    let events = vec![
        event(0, UpdatePayload::Empty, None),
        event(1, UpdatePayload::State(tiny_state()), None),
        event(2, UpdatePayload::StateAux { state: tiny_state(), aux: vec![1.0] }, Some(tiny_blob())),
        event(3, UpdatePayload::Logits(logits), None),
        event(4, UpdatePayload::Window { offset: 3, state: tiny_state() }, None),
    ];
    RunCheckpoint {
        fingerprint: 0xDEAD_BEEF,
        next_round: 2,
        algorithm: "SCAFFOLD".into(),
        sampler_check: 17,
        fault_check: 23,
        records: vec![
            RoundRecord { round: 0, test_acc: 0.5, train_loss: f32::NAN, ..Default::default() },
            RoundRecord { round: 1, test_acc: 0.625, quorum_met: true, ..Default::default() },
        ],
        state: AlgorithmState::new("SCAFFOLD", 1).with_model("global", tiny_state()),
        scheduler: Some(SchedulerState { now_bits: 1.125f64.to_bits(), events }),
    }
}

/// Decode hostile bytes; `true` on success.
type Decode = Box<dyn Fn(&[u8]) -> bool>;

/// One decoder under attack.
struct Target {
    name: &'static str,
    /// A valid encoding.
    bytes: Vec<u8>,
    /// Offsets and widths of its length and count fields.
    counts: Vec<(usize, usize)>,
    /// Whether a checksum covers every byte.
    checksummed: bool,
    decode: Decode,
}

/// Offsets of the `u64` count fields a whole-input decode reads.
fn count_fields<'a, T>(
    bytes: &'a [u8],
    decode: impl Fn(&mut Reader<&'a [u8]>) -> std::io::Result<T>,
) -> Vec<(usize, usize)> {
    let mut r = Reader::logging_counts(bytes);
    assert!(decode(&mut r).is_ok(), "fixture must decode");
    r.count_offsets().iter().map(|&at| (at as usize, 8)).collect()
}

fn targets(spill_dir: &Path) -> Vec<Target> {
    let bundle = encode_bundle(&CheckpointBundle {
        // A real-sized model section pushes this input past 4 KiB, so the
        // sampled bit-flip path runs too.
        models: vec![(
            "global".into(),
            ModelState {
                params: Weights {
                    values: (0..1200).map(|i| i as f32 * 0.01).collect(),
                    lens: vec![1000, 200],
                },
                buffers: Weights { values: vec![1.0; 8], lens: vec![8] },
            },
        )],
        ..tiny_bundle()
    });
    let meta = encode_meta(&run_checkpoint_with_events());
    let (store, spill_path) = spilled_store(spill_dir);
    let spill = std::fs::read(&spill_path).unwrap();
    let store = std::cell::RefCell::new(store);
    let qwire = tiny_quantized().to_wire();
    let mut frame = Vec::new();
    write_frame(&mut frame, 2, &build_payload(48, 9, None)).unwrap();
    let envelope = build_payload(1 + 8 + qwire.len() as u64 + 4 + 7, 9, Some(&qwire));

    vec![
        Target {
            name: "kemf-nn bundle",
            counts: count_fields(&bundle, read_bundle),
            bytes: bundle,
            checksummed: false,
            decode: Box::new(|b| read_bundle(&mut Reader::new(b)).is_ok()),
        },
        Target {
            name: "run meta v4",
            counts: count_fields(&meta, decode_meta),
            bytes: meta,
            checksummed: false,
            decode: Box::new(|b| decode_meta(&mut Reader::with_len(b, b.len() as u64)).is_ok()),
        },
        Target {
            name: "spill blob",
            counts: count_fields(&spill, read_bundle),
            bytes: spill,
            checksummed: false,
            decode: Box::new(move |b| {
                std::fs::write(&spill_path, b).unwrap();
                match store.borrow_mut().fetch(5, |_| unreachable!("client 5 has a spill file")) {
                    Ok(_) => true,
                    Err(StoreError::Io { .. } | StoreError::Corrupt { .. }) => false,
                    Err(other) => panic!("spill decode gave {other}"),
                }
            }),
        },
        Target {
            name: "QuantizedWeights wire",
            counts: count_fields(&qwire, QuantizedWeights::read_wire),
            bytes: qwire,
            checksummed: false,
            decode: Box::new(|b| QuantizedWeights::from_wire(b).is_ok()),
        },
        Target {
            name: "KMFT frame",
            counts: vec![(5, 4)],
            bytes: frame,
            checksummed: true,
            decode: Box::new(|mut b| read_frame(&mut b).is_ok()),
        },
        Target {
            name: "payload envelope",
            counts: vec![(1, 8)],
            decode: {
                let declared = envelope.len() as u64;
                Box::new(move |b| validate_payload(b, declared).is_ok())
            },
            bytes: envelope,
            checksummed: true,
        },
    ]
}

/// Decode without letting a panic escape: `Err` names the case.
fn attempt(t: &Target, bytes: &[u8], case: &str) -> bool {
    match catch_unwind(AssertUnwindSafe(|| (t.decode)(bytes))) {
        Ok(ok) => ok,
        Err(_) => panic!("{}: decoder panicked on {case}", t.name),
    }
}

#[test]
fn every_decoder_survives_hostile_input() {
    let dir = tmpdir("hostile");
    let mut rng = kemf_tensor::rng::seeded_rng(0x4b45_4d46);
    for t in targets(&dir) {
        let n = t.bytes.len();
        assert!(attempt(&t, &t.bytes, "its own encoding"), "{}: fixture must decode", t.name);

        for cut in 0..n {
            let ok = attempt(&t, &t.bytes[..cut], "truncation");
            assert!(!ok, "{}: {cut}/{n}-byte prefix decoded", t.name);
        }

        assert!(!t.counts.is_empty(), "{}: no count fields found", t.name);
        for &(at, width) in &t.counts {
            for forged in [u64::MAX, 1 << 33, u32::MAX as u64, 1 << 28] {
                let mut b = t.bytes.clone();
                b[at..at + width].copy_from_slice(&forged.to_le_bytes()[..width]);
                if b == t.bytes {
                    continue;
                }
                let ok = attempt(&t, &b, "a forged count");
                assert!(!ok, "{}: count {forged} at {at} decoded", t.name);
            }
        }

        let bits: Vec<usize> = if n < 4096 {
            (0..8 * n).collect()
        } else {
            (0..4096).map(|_| rng.gen_range(0..8 * n)).collect()
        };
        for bit in bits {
            let mut b = t.bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            let ok = attempt(&t, &b, &format!("bit flip {bit}"));
            assert!(!(t.checksummed && ok), "{}: checksum missed bit flip {bit}", t.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
