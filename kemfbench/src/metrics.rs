//! The metric catalogue. `BENCHMARK.json` at the repository root lists
//! the same names and units (checked by this crate's tests).

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("time_to_target_s", "s"),
    ("round_s.p50", "s"),
    ("train_samples_per_s", "samples/s"),
    ("comm_mb_to_target", "MB"),
    ("best_acc", "fraction"),
    ("update_fold_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// metric whose layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 63] = [
    // kemf-fl engine/lifecycle/scheduler, from the spans of the traced
    // run: summed seconds per phase, span FLOPs over span seconds, run
    // wall minus the round spans, and the async buffer's counters.
    ("engine.sample_s", "s"),
    ("engine.broadcast_s", "s"),
    ("engine.local_update_s", "s"),
    ("engine.buffer_s", "s"),
    ("engine.fusion_s", "s"),
    ("engine.eval_s", "s"),
    ("engine.local_update_gflops", "GFLOP/s"),
    ("engine.fusion_gflops", "GFLOP/s"),
    ("engine.eval_gflops", "GFLOP/s"),
    ("engine.outside_rounds_s", "s"),
    ("engine.stale_updates", "count"),
    ("engine.evicted_updates", "count"),
    // The FedAlgorithm layer, from the forwarding decorator. `state` is
    // the checkpoint export.
    ("algo.round_s", "s"),
    ("algo.round_calls", "count"),
    ("algo.train_cohort_s", "s"),
    ("algo.train_cohort_calls", "count"),
    ("algo.fuse_s", "s"),
    ("algo.fuse_calls", "count"),
    ("algo.evaluate_s", "s"),
    ("algo.evaluate_calls", "count"),
    ("algo.client_plans_s", "s"),
    ("algo.client_plans_calls", "count"),
    ("algo.state_s", "s"),
    ("algo.state_calls", "count"),
    // kemf-core on kemf_multimodel's pool and a cohort of its clients.
    ("core.teacher_forward_s", "s"),
    ("core.distill_s", "s"),
    ("core.distill_student_s", "s"),
    ("core.dml_s.resnet20", "s/sample"),
    ("core.dml_s.resnet32", "s/sample"),
    ("core.dml_s.resnet44", "s/sample"),
    // kemf-nn forward+backward and predict on one training batch.
    ("nn.train_gflops.resnet20", "GFLOP/s"),
    ("nn.train_gflops.resnet32", "GFLOP/s"),
    ("nn.train_gflops.resnet44", "GFLOP/s"),
    ("nn.train_gflops.vgg11", "GFLOP/s"),
    ("nn.train_gflops.cnn2", "GFLOP/s"),
    ("nn.infer_gflops.resnet20", "GFLOP/s"),
    ("nn.infer_gflops.resnet32", "GFLOP/s"),
    ("nn.infer_gflops.resnet44", "GFLOP/s"),
    ("nn.infer_gflops.vgg11", "GFLOP/s"),
    ("nn.infer_gflops.cnn2", "GFLOP/s"),
    // kemf-tensor `matmul_into` at each arch's largest conv GEMM.
    ("tensor.gemm_gflops.resnet20", "GFLOP/s"),
    ("tensor.gemm_gflops.resnet32", "GFLOP/s"),
    ("tensor.gemm_gflops.resnet44", "GFLOP/s"),
    ("tensor.gemm_gflops.vgg11", "GFLOP/s"),
    ("tensor.gemm_gflops.cnn2", "GFLOP/s"),
    // kemf-data, kemf-fl client store, checkpoint and compress.
    ("data.shard_gen_s", "s"),
    ("store.fetch_s", "s"),
    ("store.commit_s", "s"),
    ("store.spill_mb", "MB"),
    ("ckpt.mb", "MB"),
    ("ckpt.load_s", "s"),
    ("compress.quantize_s", "s"),
    ("compress.to_wire_s", "s"),
    ("compress.from_wire_s", "s"),
    ("compress.dequantize_s", "s"),
    ("compress.ratio", "ratio"),
    // The socket transport (fedavg_vgg_socket only).
    ("transport.wire_mb", "MB"),
    ("transport.frames", "count"),
    ("transport.framing_share", "ratio"),
    ("transport.wire_mb_per_s", "MB/s"),
    ("transport.inproc_round_s_p50", "s"),
    ("transport.overhead_share", "ratio"),
    // Traced minus untraced round_s.p50.
    ("trace.overhead_s", "s"),
];
