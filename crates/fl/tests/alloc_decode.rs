//! Bounded allocation under hostile input, for every decoder.
//!
//! A tracking global allocator records the largest single allocation
//! made while a decode runs. Each decoder gets every truncation of a
//! valid encoding, plus `u64::MAX`, `1 << 33`, `u32::MAX` and `1 << 28`
//! written over every byte offset (a superset of its length and count
//! fields). Whenever such a decode fails, no single allocation it made
//! may exceed 2 × the input length + 64 KiB: a length prefix never sizes
//! an allocation (see `kemf_nn::codec`).
//!
//! This file holds exactly one test: the tracker is process-global, and a
//! concurrent test in the same binary would pollute it.

use kemf_fl::checkpoint::{load_run, save_run, RunCheckpoint};
use kemf_fl::client_store::{ClientBlob, ClientStateStore, SpillConfig};
use kemf_fl::compress::{quantize, QuantizedWeights};
use kemf_fl::metrics::RoundRecord;
use kemf_fl::scheduler::{PendingEvent, PreparedUpdate, SchedulerState, UpdatePayload};
use kemf_fl::state::{AlgorithmState, TensorBlob};
use kemf_fl::transport::{read_frame, write_frame};
use kemf_nn::checkpoint::{encode_bundle, read_bundle, CheckpointBundle};
use kemf_nn::codec::Reader;
use kemf_nn::serialize::{ModelState, Weights};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct TrackingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn track(size: usize) {
    if TRACKING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// A reader with no size hint, like a socket.
struct Opaque<'a>(&'a [u8]);

impl Read for Opaque<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

fn state() -> ModelState {
    ModelState {
        params: Weights { values: (0..40).map(|i| i as f32 - 20.0).collect(), lens: vec![30, 10] },
        buffers: Weights { values: vec![0.25, -0.0], lens: vec![2] },
    }
}

fn blob() -> ClientBlob {
    ClientBlob::new().with_model("model", state()).with_tensor("c", vec![2], vec![0.5, -1.5])
}

fn run_checkpoint() -> RunCheckpoint {
    let event = |idx: usize, payload: UpdatePayload, commit: Option<ClientBlob>| PendingEvent {
        time_bits: (idx as f64).to_bits(),
        wave: 0,
        idx,
        up_bytes: 64,
        update: PreparedUpdate { client: idx, n_samples: 3, steps: 6, loss: 0.5, payload, commit },
    };
    let logits = TensorBlob { dims: vec![2, 2], values: vec![0.1, 0.2, 0.3, 0.4] };
    RunCheckpoint {
        fingerprint: 1,
        next_round: 2,
        algorithm: "SCAFFOLD".into(),
        sampler_check: 3,
        fault_check: 4,
        records: vec![RoundRecord { round: 1, test_acc: 0.5, ..Default::default() }],
        state: AlgorithmState::new("SCAFFOLD", 1)
            .with_model("global", state())
            .with_tensor("c", vec![4], vec![1.0; 4])
            .with_scalar("mu", 0.1),
        scheduler: Some(SchedulerState {
            now_bits: 0,
            events: vec![
                event(0, UpdatePayload::Empty, None),
                event(1, UpdatePayload::State(state()), None),
                event(2, UpdatePayload::StateAux { state: state(), aux: vec![1.0] }, Some(blob())),
                event(3, UpdatePayload::Logits(logits), None),
                event(4, UpdatePayload::Window { offset: 1, state: state() }, None),
            ],
        }),
    }
}

/// Decode hostile bytes (or the file they were written to); `true` on
/// success.
type Decode<'a> = Box<dyn Fn(&[u8]) -> bool + 'a>;

/// One decoder. File-backed decoders read `file`, which each hostile
/// input is written to before tracking starts.
struct Target<'a> {
    name: &'static str,
    bytes: Vec<u8>,
    file: Option<PathBuf>,
    decode: Decode<'a>,
}

fn in_memory<'a>(
    name: &'static str,
    bytes: Vec<u8>,
    decode: impl Fn(&[u8]) -> bool + 'a,
) -> Target<'a> {
    Target { name, bytes, file: None, decode: Box::new(decode) }
}

fn hostile_variants(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for at in 0..bytes.len() {
        for forged in [u64::MAX, 1 << 33] {
            if at + 8 <= bytes.len() {
                let mut b = bytes.to_vec();
                b[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                out.push(b);
            }
        }
        for forged in [u32::MAX, 1 << 28] {
            if at + 4 <= bytes.len() {
                let mut b = bytes.to_vec();
                b[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                out.push(b);
            }
        }
    }
    out
}

#[test]
fn failing_decodes_allocate_at_most_twice_their_input() {
    let dir = std::env::temp_dir().join(format!("kemf_alloc_decode_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let ckpt_path = save_run(&run_checkpoint(), &dir.join("ckpts")).unwrap();
    let ckpt_bytes = std::fs::read(&ckpt_path).unwrap();

    let spill_dir = dir.join("spill");
    let mut store = ClientStateStore::sharded(4, SpillConfig::new(&spill_dir)).unwrap();
    store.begin_round(0);
    store.commit(1, blob()).unwrap();
    store.begin_round(1);
    let spill_path = spill_dir.join("shard_0000/c000000001_r000000.ckpt");
    let spill_bytes = std::fs::read(&spill_path).unwrap();
    let store = std::cell::RefCell::new(store);

    let bundle = encode_bundle(&CheckpointBundle {
        meta: vec![9; 16],
        models: vec![("m".into(), state())],
        arrays: vec![("a".into(), vec![2, 3], vec![1.0; 6])],
        scalars: vec![("s".into(), 1.5)],
    });
    let w = Weights { values: (0..300).map(|i| i as f32 * 0.01).collect(), lens: vec![300] };
    let qwire = quantize(&w, 64).unwrap().to_wire();
    let mut frame = Vec::new();
    write_frame(&mut frame, 3, &[7u8; 200]).unwrap();

    let targets = vec![
        in_memory("kemf-nn bundle", bundle, |b| read_bundle(&mut Reader::new(Opaque(b))).is_ok()),
        Target {
            name: "run checkpoint (bundle + meta v4)",
            bytes: ckpt_bytes,
            file: Some(ckpt_path.clone()),
            decode: Box::new(|_| load_run(&ckpt_path).is_ok()),
        },
        Target {
            name: "spill blob",
            bytes: spill_bytes,
            file: Some(spill_path.clone()),
            decode: Box::new(|_| store.borrow_mut().fetch(1, |_| ClientBlob::new()).is_ok()),
        },
        in_memory("QuantizedWeights wire", qwire, |b| QuantizedWeights::from_wire(b).is_ok()),
        in_memory("KMFT frame", frame, |b| read_frame(&mut Opaque(b)).is_ok()),
    ];

    for t in &targets {
        let stage = |b: &[u8]| {
            if let Some(file) = &t.file {
                std::fs::write(file, b).unwrap();
            }
        };
        stage(&t.bytes);
        assert!((t.decode)(&t.bytes), "{}: fixture must decode", t.name);
        let mut failures = 0usize;
        for hostile in hostile_variants(&t.bytes) {
            stage(&hostile);
            LARGEST.store(0, Ordering::SeqCst);
            TRACKING.store(true, Ordering::SeqCst);
            let ok = (t.decode)(&hostile);
            TRACKING.store(false, Ordering::SeqCst);
            if ok {
                continue;
            }
            failures += 1;
            let largest = LARGEST.load(Ordering::SeqCst);
            let bound = 2 * hostile.len() + 64 * 1024;
            assert!(
                largest <= bound,
                "{}: a failing decode of {} bytes allocated {largest} bytes (bound {bound})",
                t.name,
                hostile.len()
            );
        }
        assert!(failures > t.bytes.len(), "{}: only {failures} hostile inputs failed", t.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
