//! The FedKEMF repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path kemfbench/Cargo.toml -- \
//!     --workload <kemf_multimodel|fleet_async|fedavg_vgg_socket> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` repeats the workload's
//! federation, each repetition in its own child process, for about
//! `--seconds` and prints the end-to-end metrics. `--trace 1` runs one
//! untraced and one traced federation (each in its own child) plus
//! timed calls into every layer, and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed correctness check makes the command exit with code 1.
//!
//! End-to-end metrics (tracing off), each the median over the run's
//! repetitions of one seed:
//!
//! * `setup_s`: seed to ready-to-run (data synthesis, partition, model
//!   and algorithm construction), set up several times per repetition;
//! * `time_to_target_s`: `Engine::run` start to the end of the first
//!   round whose accuracy reaches the workload's fixed target;
//! * `round_s.p50`: wall time of a round, from its first algorithm call
//!   to the return of `evaluate`, pooled over every round;
//! * `train_samples_per_s`: samples the training clients consumed per
//!   second of `Engine::run`, time between rounds included;
//! * `comm_mb_to_target`: `History::bytes_to_target`, in 10^6 bytes;
//! * `best_acc`: `History::best_accuracy`;
//! * `update_fold_share`: client updates folded into a global model over
//!   updates dispatched (1 − the share that failed, were evicted or were
//!   still in flight at the end);
//! * `peak_rss_mb`: `VmHWM` of the repetition's own process.
//!
//! Per-layer metrics (`--trace 1`) are listed in [`metrics::PER_LAYER`].

mod layers;
mod metrics;
mod run;
mod sink;
#[cfg(test)]
mod tests;
mod timed;
mod workload;

use layers::{median, Metrics};
use run::Federation;
use sink::SpanSink;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Workload, World};

/// Set-ups timed per child; the child reports each, the parent the
/// median.
const SETUPS_PER_CHILD: usize = 7;
/// Scratch space for spill stores and checkpoints, under the directory
/// the benchmark runs from.
const WORK_ROOT: &str = ".kemfbench_work";

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `run` or `trace`: this process is a child measuring one federation.
    child: Option<String>,
    /// The child's scratch directory.
    work: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("`--{key}` needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing `--{k}`"));
    let name = get("workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = match flags.get("seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None => 40.0,
    };
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    for key in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "child", "work"].contains(&key.as_str()) {
            return Err(format!("unknown flag `--{key}`"));
        }
    }
    Ok(Cli {
        workload,
        seed,
        seconds,
        trace,
        child: flags.get("child").cloned(),
        work: flags.get("work").map(PathBuf::from),
    })
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!(
                "kemfbench: {e}\nusage: kemfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let code = match cli.child.as_deref() {
        Some(kind) => {
            let work = cli.work.clone().expect("children get a --work directory");
            let out = match kind {
                "run" => child_run(&cli, &work),
                "trace" => child_trace(&cli, &work),
                other => {
                    eprintln!("kemfbench: unknown child kind `{other}`");
                    std::process::exit(2);
                }
            };
            let _ = std::fs::remove_dir_all(&work);
            out.emit();
            0
        }
        None => parent(&cli),
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------------
// Child processes: one federation each, results as `M`/`F`/`I` lines.
// ---------------------------------------------------------------------------

/// What a child reports: measurements (`M name value`), failed checks
/// (`F message`) and labels (`I key value`).
#[derive(Default)]
struct ChildOut {
    values: Vec<(String, f64)>,
    fails: Vec<String>,
    info: Vec<(String, String)>,
}

impl ChildOut {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    fn emit(&self) {
        let mut s = String::new();
        for (k, v) in &self.values {
            s.push_str(&format!("M {k} {v}\n"));
        }
        for (k, v) in &self.info {
            s.push_str(&format!("I {k} {v}\n"));
        }
        for f in &self.fails {
            s.push_str(&format!("F {}\n", f.replace('\n', " ")));
        }
        print!("{s}");
    }

    fn parse(stdout: &str) -> ChildOut {
        let mut out = ChildOut::default();
        for line in stdout.lines() {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("M"), Some(k), Some(v)) => match v.parse::<f64>() {
                    Ok(x) => out.put(k, x),
                    Err(_) => out.fails.push(format!("unparsable measurement `{line}`")),
                },
                (Some("I"), Some(k), Some(v)) => out.info.push((k.into(), v.into())),
                (Some("F"), Some(first), rest) => out
                    .fails
                    .push(format!("{first} {}", rest.unwrap_or("")).trim().to_string()),
                _ => {}
            }
        }
        out
    }

    fn all(&self, name: &str) -> Vec<f64> {
        self.values
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .collect()
    }

    fn one(&self, name: &str) -> Option<f64> {
        self.all(name).first().copied()
    }

    fn info(&self, key: &str) -> Option<&str> {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Build the workload's world several times, reporting each set-up's
/// seconds, and keep the last.
fn timed_setup(cli: &Cli, work: &Path, out: &mut ChildOut) -> World {
    let mut world = None;
    for _ in 0..SETUPS_PER_CHILD {
        let t0 = Instant::now();
        let w = World::build(cli.workload, cli.seed, work);
        out.put("setup_s", t0.elapsed().as_secs_f64());
        world = Some(w);
    }
    world.expect("at least one set-up")
}

/// The untraced measurements of one federation.
fn report_federation(fed: &Federation, out: &mut ChildOut) {
    for secs in fed.stats.round_secs() {
        out.put("round_s", secs);
    }
    out.put("wall_s", fed.wall_s);
    out.put("train_samples", fed.stats.train_samples as f64);
    out.put("dispatched", fed.stats.dispatched as f64);
    out.put("failed_updates", fed.failed_updates() as f64);
    if let Some(t) = fed.time_to_target_s() {
        out.put("time_to_target_s", t);
    }
    if let Some(h) = fed.history() {
        if let Some(b) = h.bytes_to_target(fed.workload.target_acc()) {
            out.put("comm_bytes_to_target", b as f64);
        }
        out.put("best_acc", f64::from(h.best_accuracy()));
        out.put("total_bytes", h.total_bytes() as f64);
        let accs: Vec<String> = h.accuracies().iter().map(|a| format!("{a:.3}")).collect();
        out.info.push(("accuracy_per_round".into(), accs.join(",")));
        if let Some(r) = fed.rounds_to_target() {
            out.put("rounds_to_target", r as f64);
        }
    }
    out.info.push(("fingerprint".into(), fed.fingerprint()));
    out.fails.extend(fed.failures.iter().cloned());
}

fn child_run(cli: &Cli, work: &Path) -> ChildOut {
    let mut out = ChildOut::default();
    let mut world = timed_setup(cli, work, &mut out);
    let fed = Federation::run(&mut world, None, true);
    report_federation(&fed, &mut out);
    out.put("peak_rss_mb", peak_rss_bytes() as f64 / 1e6);
    out
}

fn child_trace(cli: &Cli, work: &Path) -> ChildOut {
    let mut out = ChildOut::default();
    let mut world = World::build(cli.workload, cli.seed, work);
    let mut sink = SpanSink::default();
    let fed = Federation::run(&mut world, Some(&mut sink), true);
    report_federation(&fed, &mut out);

    // The trace must reconcile exactly with the FLOP counter and with
    // the history's byte accounting, and carry the phases the round
    // mode emits.
    if sink.total_flops() != fed.flops {
        out.fails.push(format!(
            "span FLOPs {} != FLOP-counter delta {} across Engine::run",
            sink.total_flops(),
            fed.flops
        ));
    }
    if let Some(h) = fed.history() {
        if sink.charged_bytes() != h.total_bytes() {
            out.fails.push(format!(
                "broadcast+upload span bytes {} != History::total_bytes {}",
                sink.charged_bytes(),
                h.total_bytes()
            ));
        }
        if let Err(e) = sink.check_phases(h.rounds(), cli.workload.is_async()) {
            out.fails.push(format!("trace phases: {e}"));
        }
    }

    let mut m: Metrics = layers::engine_and_algo(&fed, &sink);
    m.extend(layers::spill_and_checkpoints(&world, &fed));
    m.extend(layers::nn(cli.seed));
    m.extend(layers::tensor(cli.seed));
    m.extend(layers::data(&world));
    m.extend(layers::store(&world, &work.join("store_probe")));
    m.extend(layers::compress(&world));
    if cli.workload == Workload::KemfMultimodel {
        m.extend(layers::core(&world));
    }
    if let Some(stats) = fed.report.as_ref().ok().and_then(|r| r.transport) {
        let wire_mb = stats.wire_bytes as f64 / 1e6;
        m.push(("transport.wire_mb".into(), wire_mb));
        m.push((
            "transport.frames".into(),
            (stats.frames_sent + stats.frames_received) as f64,
        ));
        m.push((
            "transport.framing_share".into(),
            stats.framing_overhead_bytes() as f64 / stats.wire_bytes.max(1) as f64,
        ));
        let broadcast_s = sink.secs(kemf_fl::trace::Phase::Broadcast);
        m.push((
            "transport.wire_mb_per_s".into(),
            wire_mb / broadcast_s.max(1e-12),
        ));
        // The same workload and seed in-process: the single-worker
        // baseline the wire is compared with.
        let mut inproc_world = World::build(cli.workload, cli.seed, &work.join("inproc"));
        let inproc = Federation::run(&mut inproc_world, None, false);
        out.put("inproc_round_s_p50", median(&inproc.stats.round_secs()));
        out.fails.extend(
            inproc
                .failures
                .iter()
                .map(|f| format!("in-process baseline: {f}")),
        );
    }
    for (k, v) in m {
        out.put(k, v);
    }
    out
}

/// Peak resident set size of this process (`VmHWM`).
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

// ---------------------------------------------------------------------------
// Parent: spawn children, aggregate, print.
// ---------------------------------------------------------------------------

fn spawn_child(cli: &Cli, kind: &str, work: &Path) -> ChildOut {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed_child(format!("cannot locate own executable: {e}")),
    };
    let result = Command::new(exe)
        .args(["--workload", cli.workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--child", kind])
        .arg("--work")
        .arg(work)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let _ = std::fs::remove_dir_all(work);
    match result {
        Ok(o) if o.status.success() => ChildOut::parse(&String::from_utf8_lossy(&o.stdout)),
        Ok(o) => {
            let mut out = ChildOut::parse(&String::from_utf8_lossy(&o.stdout));
            out.fails
                .push(format!("{kind} child exited with {}", o.status));
            out
        }
        Err(e) => failed_child(format!("cannot spawn {kind} child: {e}")),
    }
}

fn failed_child(msg: String) -> ChildOut {
    ChildOut {
        fails: vec![msg],
        ..ChildOut::default()
    }
}

fn parent(cli: &Cli) -> i32 {
    let root = PathBuf::from(WORK_ROOT).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("kemfbench: cannot create {}: {e}", root.display());
        return 2;
    }
    println!(
        "kemfbench workload={} seed={} trace={}",
        cli.workload.name(),
        cli.seed,
        u8::from(cli.trace)
    );
    for line in system_info() {
        println!("  {line}");
    }
    let (mut fails, attempted, failed, metrics) = if cli.trace {
        parent_trace(cli, &root)
    } else {
        parent_run(cli, &root)
    };
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(WORK_ROOT);
    for (name, _, v) in &metrics {
        if !v.is_finite() {
            fails.push(format!("{name} is {v}; printed as 0"));
        }
    }
    report_failures(&fails);
    let correct = fails.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

type Rows = Vec<(&'static str, &'static str, f64)>;

/// Failed checks, federations attempted, federations failed, metrics.
type Outcome = (Vec<String>, usize, usize, Rows);

/// Untraced: repeat the federation, one child each, until the next
/// repetition would overrun `--seconds` (at least one repetition).
fn parent_run(cli: &Cli, root: &Path) -> Outcome {
    let start = Instant::now();
    let mut reps: Vec<ChildOut> = Vec::new();
    loop {
        let t0 = Instant::now();
        reps.push(spawn_child(
            cli,
            "run",
            &root.join(format!("rep{}", reps.len())),
        ));
        let last = t0.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > cli.seconds {
            break;
        }
    }
    let mut fails: Vec<String> = Vec::new();
    let failed = reps.iter().filter(|r| !r.fails.is_empty()).count();
    for (i, r) in reps.iter().enumerate() {
        fails.extend(r.fails.iter().map(|f| format!("repetition {i}: {f}")));
    }
    // Every repetition runs the same seed: their histories must agree
    // bit for bit.
    let prints: Vec<&str> = reps.iter().filter_map(|r| r.info("fingerprint")).collect();
    if prints.windows(2).any(|w| w[0] != w[1]) {
        fails.push(format!(
            "repetitions of one seed diverged: fingerprints {prints:?}"
        ));
    }

    let pooled = |name: &str| -> Vec<f64> { reps.iter().flat_map(|r| r.all(name)).collect() };
    let per_rep = |name: &str| -> Vec<f64> { reps.iter().filter_map(|r| r.one(name)).collect() };
    let setup = pooled("setup_s");
    let rounds = pooled("round_s");
    let ttt = per_rep("time_to_target_s");
    let rates: Vec<f64> = reps
        .iter()
        .filter_map(|r| Some(r.one("train_samples")? / r.one("wall_s")?))
        .collect();
    let dispatched: f64 = per_rep("dispatched").iter().sum();
    let failed_updates: f64 = per_rep("failed_updates").iter().sum();
    let fold_share = if dispatched > 0.0 {
        1.0 - failed_updates / dispatched
    } else {
        0.0
    };
    // A repetition that missed the target reports its whole run as a
    // lower bound, and has already been counted as failed.
    let ttt_value = if ttt.len() == reps.len() {
        median(&ttt)
    } else {
        median(&per_rep("wall_s"))
    };

    let rows: Rows = vec![
        ("setup_s", "s", median(&setup)),
        ("time_to_target_s", "s", ttt_value),
        ("round_s.p50", "s", median(&rounds)),
        ("train_samples_per_s", "samples/s", median(&rates)),
        (
            "comm_mb_to_target",
            "MB",
            median(&per_rep("comm_bytes_to_target")) / 1e6,
        ),
        ("best_acc", "fraction", median(&per_rep("best_acc"))),
        ("update_fold_share", "ratio", fold_share),
        ("peak_rss_mb", "MB", median(&per_rep("peak_rss_mb"))),
    ];
    debug_assert!(rows
        .iter()
        .map(|r| r.0)
        .eq(metrics::END_TO_END.iter().map(|m| m.0)));

    let target_rounds = per_rep("rounds_to_target");
    let notes = [
        format!("{} set-ups", setup.len()),
        format!(
            "{} of {} repetitions reached acc {} (in {} rounds)",
            ttt.len(),
            reps.len(),
            cli.workload.target_acc(),
            target_rounds.first().map_or("-".into(), |r| format!("{r}"))
        ),
        format!("{} rounds over {} repetitions", rounds.len(), reps.len()),
        format!("{} repetitions", rates.len()),
        "exact count of History::bytes_to_target".into(),
        "History::best_accuracy".into(),
        format!(
            "update_fail_share {:.4}: {} of {} dispatched updates never folded",
            1.0 - fold_share,
            failed_updates,
            dispatched
        ),
        "VmHWM of each repetition's child".into(),
    ];
    println!(
        "end-to-end metrics ({} repetitions of one seed, {:.1} s):",
        reps.len(),
        start.elapsed().as_secs_f64()
    );
    for ((name, unit, v), note) in rows.iter().zip(notes) {
        println!("  {name:<22} {v:>14.6} {unit:<10} {note}");
    }
    println!(
        "  history fingerprint {}",
        prints.first().copied().unwrap_or("none")
    );
    if let Some(accs) = reps.first().and_then(|r| r.info("accuracy_per_round")) {
        println!("  accuracy per round {accs}");
    }
    (fails, reps.len(), failed, rows)
}

/// Traced: one untraced federation (the tracing-overhead baseline) and
/// one traced federation with the layer probes, each in its own child.
fn parent_trace(cli: &Cli, root: &Path) -> Outcome {
    let base = spawn_child(cli, "run", &root.join("untraced"));
    let traced = spawn_child(cli, "trace", &root.join("traced"));
    let mut fails: Vec<String> = Vec::new();
    fails.extend(base.fails.iter().map(|f| format!("untraced: {f}")));
    fails.extend(traced.fails.iter().map(|f| format!("traced: {f}")));
    if base.info("fingerprint") != traced.info("fingerprint") {
        fails.push(format!(
            "tracing changed the history: fingerprints {:?} vs {:?}",
            base.info("fingerprint"),
            traced.info("fingerprint")
        ));
    }
    let base_p50 = median(&base.all("round_s"));
    let traced_p50 = median(&traced.all("round_s"));
    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    derived.insert("trace.overhead_s", traced_p50 - base_p50);
    if let Some(inproc) = traced.one("inproc_round_s_p50") {
        derived.insert("transport.inproc_round_s_p50", inproc);
        derived.insert("transport.overhead_share", (base_p50 - inproc) / base_p50);
    }
    let mut rows = Rows::new();
    let mut absent = Vec::new();
    for (name, unit) in metrics::PER_LAYER {
        let value = derived.get(name).copied().or_else(|| traced.one(name));
        if value.is_none() {
            absent.push(name);
        }
        rows.push((name, unit, value.unwrap_or(0.0)));
    }
    println!(
        "per-layer metrics (traced round p50 {traced_p50:.6} s vs untraced {base_p50:.6} s, {} rounds):",
        traced.all("round_s").len()
    );
    for (name, unit, v) in &rows {
        let note = if absent.contains(name) {
            "  (layer not exercised by this workload)"
        } else {
            ""
        };
        println!("  {name:<32} {v:>16.6} {unit}{note}");
    }
    let failed = usize::from(!base.fails.is_empty()) + usize::from(!traced.fails.is_empty());
    (fails, 2, failed, rows)
}

fn report_failures(fails: &[String]) {
    if fails.is_empty() {
        println!("correctness checks: all passed");
    } else {
        println!("correctness checks: {} FAILED", fails.len());
        for f in fails {
            println!("  FAIL {f}");
        }
    }
}

/// CPU features, thread counts and source revision printed with every
/// result.
fn system_info() -> Vec<String> {
    let mut feats = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! detect {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    feats.push($f);
                }
            )*};
        }
        detect!(
            "sse4.2",
            "avx",
            "avx2",
            "fma",
            "avx512f",
            "avx512vnni",
            "avxvnni"
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = kemf_fl::engine::init_thread_pool();
    vec![
        format!(
            "cpu features: {}",
            if feats.is_empty() {
                "none detected".into()
            } else {
                feats.join(" ")
            }
        ),
        format!(
            "threads: {cores} available, compute pool configured for {pool} (KEMF_THREADS); \
             the vendored rayon executes parallel iterators sequentially, so compute runs on 1"
        ),
        format!(
            "source revision: {}",
            git_rev().unwrap_or_else(|| "unknown (not a git checkout)".into())
        ),
    ]
}

/// The checked-out commit, read from `.git` without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
