//! Round-lifecycle observability: phase-timed spans with pluggable sinks.
//!
//! The engine drives an [`EventSink`] through every phase of every
//! communication round — `sample → broadcast → local_update → fusion →
//! upload → eval`, closed by a whole-`round` span — emitting one [`Span`]
//! per phase with wall-clock timing plus counters: SGD steps, batch
//! visits, GEMM FLOPs (from the [`kemf_tensor::flops`] accounting hook),
//! per-phase bytes (reusing the lifecycle plan's honest
//! [`crate::lifecycle::RoundComm`] accounting), and quorum outcomes.
//!
//! Two sinks ship with the engine:
//!
//! * [`NoopSink`] — the default. Disabled sinks short-circuit every
//!   timing call ([`RoundScope::phase`] runs the closure and nothing
//!   else), so untraced runs pay one branch per phase and produce
//!   bit-identical [`crate::metrics::History`] output.
//! * [`TraceSink`] — records every span into a [`RunTrace`], which
//!   exports JSONL ([`RunTrace::to_jsonl`]) and a human-readable
//!   per-phase summary table ([`RunTrace::summary_table`]).
//!
//! **Determinism.** For a fixed seed the span *structure* — phases,
//! rounds, clients, steps, batches, bytes, quorum flags — is
//! bit-reproducible; [`RunTrace::canonical_jsonl`] serializes exactly
//! that subset (wall-clock and FLOP fields zeroed) for golden tests.
//! Wall times vary run to run by nature; FLOP deltas are exact for a
//! lone engine but, being read from a process-global counter, can be
//! inflated by concurrent engines in the same process (parallel tests),
//! so they are excluded from the canonical form too.
//!
//! **File ordering.** Spans are recorded in execution order: `sample`,
//! `broadcast`, then the algorithm's interior `local_update` and
//! `fusion` spans, then `upload`, `eval`, and the enclosing `round`
//! span. The `upload` span appears after `fusion` because its byte
//! accounting is derived from the round's pre-drawn lifecycle plan, not
//! from a simulated clock; semantically uploads complete before server
//! fusion begins.

use serde::{DeError, Deserialize, Serialize, Value};
use std::ops::RangeInclusive;
use std::time::Instant;

/// A round-lifecycle phase. One span is emitted per phase per round
/// (quorum-aborted rounds skip `local_update`/`fusion`: the algorithm
/// never runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Client sampling + lifecycle fault-plan draw.
    Sample,
    /// Server → client broadcast of the transmitted state (simulated;
    /// carries the downlink byte accounting).
    Broadcast,
    /// The client-side local-update fan-out (DML for FedKEMF, local SGD
    /// for the weight baselines). Real compute: nonzero wall and FLOPs.
    LocalUpdate,
    /// Async-mode buffer drain: completed client updates are popped from
    /// the simulated event queue into the aggregation buffer, evicting
    /// updates staler than the cap. Carries the staleness counters.
    /// Never emitted by synchronous rounds.
    Buffer,
    /// Server-side fusion: ensemble distillation, weight averaging, or
    /// consensus aggregation. Real compute: nonzero wall and FLOPs.
    Fusion,
    /// Client → server reports (simulated; carries accepted + wasted
    /// uplink byte accounting).
    Upload,
    /// Global-model evaluation on the held-out test set.
    Eval,
    /// The enclosing whole-round span; its wall time bounds the sum of
    /// the phase spans, and it carries the round's quorum outcome.
    Round,
}

impl Phase {
    /// All phases of a full (quorum-met) round, in emission order
    /// (`buffer` appears only in async-mode rounds).
    pub const ALL: [Phase; 8] = [
        Phase::Sample,
        Phase::Broadcast,
        Phase::LocalUpdate,
        Phase::Buffer,
        Phase::Fusion,
        Phase::Upload,
        Phase::Eval,
        Phase::Round,
    ];

    /// The snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sample => "sample",
            Phase::Broadcast => "broadcast",
            Phase::LocalUpdate => "local_update",
            Phase::Buffer => "buffer",
            Phase::Fusion => "fusion",
            Phase::Upload => "upload",
            Phase::Eval => "eval",
            Phase::Round => "round",
        }
    }

    /// How many spans of each phase one round emits, as an inclusive
    /// range per entry of [`Phase::ALL`]: exactly one each of sample,
    /// broadcast, upload, eval and round; `buffer` only in async mode;
    /// `fusion` only when the round met its quorum; `local_update` only
    /// when quorum was met in sync mode, and at most once in async mode
    /// (a cycle trains its wave whether or not its buffer reached
    /// quorum, and an empty wave trains nothing).
    pub fn expected(is_async: bool, quorum_met: bool) -> [(Phase, RangeInclusive<usize>); 8] {
        let exactly = |present: bool| usize::from(present)..=usize::from(present);
        Phase::ALL.map(|phase| {
            let range = match phase {
                Phase::Buffer => exactly(is_async),
                Phase::Fusion => exactly(quorum_met),
                Phase::LocalUpdate if is_async => 0..=1,
                Phase::LocalUpdate => exactly(quorum_met),
                _ => exactly(true),
            };
            (phase, range)
        })
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }
}

impl Serialize for Phase {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for Phase {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Phase::from_name(s)
                .ok_or_else(|| DeError::custom(&format!("unknown phase `{s}`"))),
            _ => Err(DeError::custom("expected phase name string")),
        }
    }
}

/// Counters attached to a span. Units: `steps` are optimizer steps
/// (one synchronized DML step updates both networks and counts once),
/// `batches` are mini-batch visits, `flops` are GEMM multiply-add FLOPs
/// (2·m·n·k per product), byte fields follow the lifecycle accounting
/// (`down` = full broadcast set, `up` = accepted reports, `wasted_up` =
/// failed upload attempts).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Clients participating in the phase (sampled / broadcast-reached /
    /// trained / accepted, per phase).
    pub clients: usize,
    /// Optimizer steps taken in the phase.
    pub steps: u64,
    /// Mini-batch visits in the phase.
    pub batches: u64,
    /// GEMM FLOPs spent in the phase (filled automatically by
    /// [`RoundScope::phase`] from the [`kemf_tensor::flops`] counter).
    pub flops: u64,
    /// Downlink bytes charged in the phase.
    pub down_bytes: u64,
    /// Accepted uplink bytes charged in the phase.
    pub up_bytes: u64,
    /// Wasted uplink bytes (failed upload attempts) in the phase.
    pub wasted_up_bytes: u64,
    /// Async mode: updates folded this aggregation whose dispatch wave
    /// is older than the aggregating cycle (staleness > 0). Always zero
    /// in synchronous rounds.
    pub stale_updates: u64,
    /// Async mode: buffered updates evicted for exceeding the staleness
    /// cap (their uplink bytes count as wasted). Always zero in
    /// synchronous rounds.
    pub evicted_updates: u64,
    /// Whether the round met its reporting quorum (meaningful on the
    /// `round` span; `true` elsewhere).
    pub quorum_met: bool,
    /// What the byte counters price on the wire — `"weights"`,
    /// `"window"`, `"logits"`, or `"mixed"` (clients of this round got
    /// different view kinds). `None` on spans that carry no payload
    /// bytes and on traces recorded before per-client plans; the JSONL
    /// field is omitted rather than null so old traces stay
    /// byte-identical.
    pub payload_label: Option<&'static str>,
}

impl Counters {
    fn quorum_default() -> Self {
        Counters { quorum_met: true, ..Default::default() }
    }
}

/// One timed phase of one round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Round index (0-based).
    pub round: usize,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Wall-clock duration in seconds.
    pub wall_s: f64,
    /// Phase counters (flattened into the JSONL object).
    pub counters: Counters,
}

impl Serialize for Span {
    fn to_value(&self) -> Value {
        // Counters are flattened into the span object so each JSONL line
        // is one flat record.
        let c = &self.counters;
        let mut entries = vec![
            ("round".to_string(), self.round.to_value()),
            ("phase".to_string(), self.phase.to_value()),
            ("wall_s".to_string(), self.wall_s.to_value()),
            ("clients".to_string(), c.clients.to_value()),
            ("steps".to_string(), c.steps.to_value()),
            ("batches".to_string(), c.batches.to_value()),
            ("flops".to_string(), c.flops.to_value()),
            ("down_bytes".to_string(), c.down_bytes.to_value()),
            ("up_bytes".to_string(), c.up_bytes.to_value()),
            ("wasted_up_bytes".to_string(), c.wasted_up_bytes.to_value()),
            ("stale_updates".to_string(), c.stale_updates.to_value()),
            ("evicted_updates".to_string(), c.evicted_updates.to_value()),
            ("quorum_met".to_string(), c.quorum_met.to_value()),
        ];
        if let Some(label) = c.payload_label {
            entries.push(("payload".to_string(), Value::Str(label.to_string())));
        }
        Value::Map(entries)
    }
}

impl Deserialize for Span {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map().ok_or_else(|| DeError::custom("expected map for Span"))?;
        let field = |key: &str| serde::get_field(m, key);
        // The staleness counters postdate the format: traces recorded
        // before async rounds existed simply omit them, so they default
        // to zero on read instead of failing the whole line.
        let opt_u64 = |key: &str| -> Result<u64, DeError> {
            match m.iter().find(|(k, _)| k == key) {
                Some((_, v)) => u64::from_value(v),
                None => Ok(0),
            }
        };
        // The payload label also postdates the format (absent → None).
        // It parses back to the same interned label the writer used, so
        // round-tripping a trace is still exact equality.
        let payload_label = match m.iter().find(|(k, _)| k == "payload") {
            None => None,
            Some((_, v)) => match String::from_value(v)?.as_str() {
                "weights" => Some("weights"),
                "window" => Some("window"),
                "logits" => Some("logits"),
                "mixed" => Some("mixed"),
                other => {
                    return Err(DeError::custom(&format!("unknown payload label `{other}`")))
                }
            },
        };
        Ok(Span {
            round: usize::from_value(field("round")?)?,
            phase: Phase::from_value(field("phase")?)?,
            wall_s: f64::from_value(field("wall_s")?)?,
            counters: Counters {
                clients: usize::from_value(field("clients")?)?,
                steps: u64::from_value(field("steps")?)?,
                batches: u64::from_value(field("batches")?)?,
                flops: u64::from_value(field("flops")?)?,
                down_bytes: u64::from_value(field("down_bytes")?)?,
                up_bytes: u64::from_value(field("up_bytes")?)?,
                wasted_up_bytes: u64::from_value(field("wasted_up_bytes")?)?,
                stale_updates: opt_u64("stale_updates")?,
                evicted_updates: opt_u64("evicted_updates")?,
                quorum_met: bool::from_value(field("quorum_met")?)?,
                payload_label,
            },
        })
    }
}

/// Receives spans as the engine emits them. Implementations must be
/// cheap to query: the engine checks [`EventSink::enabled`] once per
/// phase and skips all timing work when it returns `false`.
pub trait EventSink {
    /// Should the engine pay for timing and counter collection?
    fn enabled(&self) -> bool;

    /// Record one completed span.
    fn record(&mut self, span: Span);
}

/// The zero-cost default: records nothing, disables all timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _span: Span) {}
}

/// Records every span into a [`RunTrace`].
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    trace: RunTrace,
}

impl TraceSink {
    /// Empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.trace.spans
    }

    /// Consume the sink, yielding the recorded trace.
    pub fn into_trace(self) -> RunTrace {
        self.trace
    }
}

impl EventSink for TraceSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, span: Span) {
        self.trace.spans.push(span);
    }
}

/// The engine's per-round handle into the active sink. Created by the
/// engine for each round and threaded through
/// [`crate::engine::FedAlgorithm::round`], so algorithms can time their
/// interior phases (the local fan-out, server fusion) without knowing
/// which sink — if any — is listening.
pub struct RoundScope<'a> {
    sink: &'a mut dyn EventSink,
    round: usize,
    enabled: bool,
}

impl<'a> RoundScope<'a> {
    /// Scope for one round over a sink.
    pub fn new(sink: &'a mut dyn EventSink, round: usize) -> Self {
        let enabled = sink.enabled();
        RoundScope { sink, round, enabled }
    }

    /// The round this scope instruments.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Is a recording sink attached? Lets callers skip counter
    /// bookkeeping that exists only to be recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` as one phase: times it, measures its GEMM FLOP delta, and
    /// records a span carrying whatever counters `f` filled in. With a
    /// disabled sink this is exactly `f(&mut scratch)` — no clock reads,
    /// no atomics, no allocation.
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Counters) -> T) -> T {
        let mut counters = Counters::quorum_default();
        if !self.enabled {
            return f(&mut counters);
        }
        let flops_before = kemf_tensor::flops::total();
        let t0 = Instant::now();
        let out = f(&mut counters);
        let wall_s = t0.elapsed().as_secs_f64();
        counters.flops += kemf_tensor::flops::total() - flops_before;
        self.sink.record(Span { round: self.round, phase, wall_s, counters });
        out
    }

    /// Record a pre-timed span (the engine uses this for the enclosing
    /// `round` span, whose interval brackets nested `phase` calls).
    pub fn record_raw(&mut self, phase: Phase, wall_s: f64, counters: Counters) {
        if self.enabled {
            self.sink.record(Span { round: self.round, phase, wall_s, counters });
        }
    }
}

/// A full recorded run: every span of every round, in emission order.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl RunTrace {
    /// Spans belonging to one round, in emission order.
    pub fn round_spans(&self, round: usize) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.round == round).collect()
    }

    /// Number of distinct rounds recorded.
    pub fn rounds(&self) -> usize {
        self.spans.iter().map(|s| s.round + 1).max().unwrap_or(0)
    }

    /// Check every recorded round's span counts against
    /// [`Phase::expected`], reading each round's quorum outcome from its
    /// `round` span. Returns the first violation.
    pub fn check_phases(&self, is_async: bool) -> Result<(), String> {
        for round in 0..self.rounds() {
            let spans = self.round_spans(round);
            let quorum_met = spans
                .iter()
                .find(|s| s.phase == Phase::Round)
                .map(|s| s.counters.quorum_met)
                .ok_or_else(|| format!("round {round} has no round span"))?;
            for (phase, range) in Phase::expected(is_async, quorum_met) {
                let n = spans.iter().filter(|s| s.phase == phase).count();
                if !range.contains(&n) {
                    return Err(format!(
                        "round {round}: {n} {} span(s), expected {range:?}",
                        phase.name()
                    ));
                }
            }
        }
        Ok(())
    }

    /// One JSON object per line, one line per span — the export format
    /// plotting pipelines and the CI smoke test consume.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&serde_json::to_string(span).expect("span serializes"));
            out.push('\n');
        }
        out
    }

    /// JSONL with the nondeterministic fields (`wall_s`, and `flops`,
    /// which a process-global counter can inflate across concurrent
    /// engines) zeroed. Two same-seed runs produce identical canonical
    /// JSONL — the golden-test form.
    pub fn canonical_jsonl(&self) -> String {
        let canon = RunTrace {
            spans: self
                .spans
                .iter()
                .map(|s| {
                    let mut c = *s;
                    c.wall_s = 0.0;
                    c.counters.flops = 0;
                    c
                })
                .collect(),
        };
        canon.to_jsonl()
    }

    /// Parse a trace back from [`RunTrace::to_jsonl`] output. Blank
    /// lines are ignored; any malformed line is an error.
    pub fn from_jsonl(s: &str) -> Result<RunTrace, serde_json::Error> {
        let mut spans = Vec::new();
        for line in s.lines() {
            if line.trim().is_empty() {
                continue;
            }
            spans.push(serde_json::from_str(line)?);
        }
        Ok(RunTrace { spans })
    }

    /// Aggregate the trace per phase (summed over rounds).
    pub fn phase_summary(&self) -> Vec<PhaseSummary> {
        Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let mut sum = PhaseSummary { phase, ..Default::default() };
                for s in self.spans.iter().filter(|s| s.phase == phase) {
                    sum.spans += 1;
                    sum.wall_s += s.wall_s;
                    sum.steps += s.counters.steps;
                    sum.batches += s.counters.batches;
                    sum.flops += s.counters.flops;
                    sum.bytes += s.counters.down_bytes
                        + s.counters.up_bytes
                        + s.counters.wasted_up_bytes;
                }
                (sum.spans > 0).then_some(sum)
            })
            .collect()
    }

    /// Human-readable per-phase summary table: where the run spent its
    /// wall clock, compute, and bytes. Shares in the `wall%` column are
    /// relative to the summed `round` spans.
    pub fn summary_table(&self) -> String {
        let summaries = self.phase_summary();
        let total_wall: f64 = summaries
            .iter()
            .find(|s| s.phase == Phase::Round)
            .map_or(0.0, |s| s.wall_s);
        let header = ["phase", "spans", "wall_s", "wall%", "steps", "batches", "gflops", "bytes"];
        let mut rows: Vec<[String; 8]> = Vec::with_capacity(summaries.len());
        for s in &summaries {
            let share = if total_wall > 0.0 && s.phase != Phase::Round {
                format!("{:.1}%", 100.0 * s.wall_s / total_wall)
            } else {
                "-".into()
            };
            rows.push([
                s.phase.name().to_string(),
                s.spans.to_string(),
                format!("{:.4}", s.wall_s),
                share,
                s.steps.to_string(),
                s.batches.to_string(),
                format!("{:.3}", s.flops as f64 / 1e9),
                s.bytes.to_string(),
            ]);
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
        let mut out = fmt(&head);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in rows {
            out.push_str(&fmt(&row));
            out.push('\n');
        }
        out
    }
}

/// Per-phase aggregate over a whole run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSummary {
    /// Phase.
    pub phase: Phase,
    /// Spans recorded (≈ rounds the phase ran in).
    pub spans: usize,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Total optimizer steps.
    pub steps: u64,
    /// Total batch visits.
    pub batches: u64,
    /// Total GEMM FLOPs.
    pub flops: u64,
    /// Total bytes (down + accepted up + wasted up).
    pub bytes: u64,
}

impl Default for PhaseSummary {
    fn default() -> Self {
        PhaseSummary {
            phase: Phase::Round,
            spans: 0,
            wall_s: 0.0,
            steps: 0,
            batches: 0,
            flops: 0,
            bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(round: usize, phase: Phase, wall_s: f64, steps: u64) -> Span {
        Span {
            round,
            phase,
            wall_s,
            counters: Counters { steps, batches: steps, quorum_met: true, ..Default::default() },
        }
    }

    #[test]
    fn check_phases_follows_the_round_mode_and_quorum() {
        let spans_of = |phases: &[Phase], quorum_met: bool| {
            phases
                .iter()
                .map(|&p| Span {
                    round: 0,
                    phase: p,
                    wall_s: 0.0,
                    counters: Counters { quorum_met, ..Default::default() },
                })
                .collect::<Vec<_>>()
        };
        let sync_full = RunTrace { spans: spans_of(&Phase::ALL, true) };
        assert!(sync_full.check_phases(true).is_ok());
        let err = sync_full.check_phases(false).unwrap_err();
        assert!(err.contains("buffer"), "{err}");
        let engine_only =
            [Phase::Sample, Phase::Broadcast, Phase::Upload, Phase::Eval, Phase::Round];
        let aborted = RunTrace { spans: spans_of(&engine_only, false) };
        assert!(aborted.check_phases(false).is_ok());
        // An async cycle may train its wave even when its buffer aborts.
        let mut trained = engine_only.to_vec();
        trained.extend([Phase::LocalUpdate, Phase::Buffer]);
        assert!(RunTrace { spans: spans_of(&trained, false) }.check_phases(true).is_ok());
        let err = RunTrace { spans: spans_of(&engine_only, true) }.check_phases(false).unwrap_err();
        assert!(err.contains("local_update"), "{err}");
    }

    #[test]
    fn jsonl_roundtrip_preserves_spans() {
        let trace = RunTrace {
            spans: vec![span(0, Phase::Sample, 1e-6, 0), span(0, Phase::LocalUpdate, 0.5, 20)],
        };
        let parsed = RunTrace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(parsed, trace);
        // Each line is one standalone JSON object with flattened counters.
        let first = trace.to_jsonl().lines().next().unwrap().to_string();
        assert!(first.starts_with('{') && first.ends_with('}'), "{first}");
        for needle in ["\"round\":0", "\"phase\":\"sample\"", "\"wall_s\":", "\"steps\":0"] {
            assert!(first.contains(needle), "missing {needle} in {first}");
        }
    }

    #[test]
    fn legacy_spans_without_staleness_counters_still_parse() {
        // A line recorded before async rounds existed: no
        // `stale_updates` / `evicted_updates` fields.
        let legacy = r#"{"round":2,"phase":"fusion","wall_s":0.5,"clients":3,"steps":9,"batches":9,"flops":0,"down_bytes":10,"up_bytes":20,"wasted_up_bytes":0,"quorum_met":true}"#;
        let trace = RunTrace::from_jsonl(legacy).unwrap();
        assert_eq!(trace.spans[0].counters.stale_updates, 0);
        assert_eq!(trace.spans[0].counters.evicted_updates, 0);
        assert_eq!(trace.spans[0].counters.steps, 9);
        // New spans round-trip the counters.
        let mut s = span(0, Phase::Buffer, 0.0, 0);
        s.counters.stale_updates = 4;
        s.counters.evicted_updates = 1;
        let t = RunTrace { spans: vec![s] };
        let parsed = RunTrace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(Phase::from_name("buffer"), Some(Phase::Buffer));
    }

    #[test]
    fn payload_label_is_omitted_when_absent_and_roundtrips_when_set() {
        let unlabeled = RunTrace { spans: vec![span(0, Phase::Broadcast, 0.0, 0)] };
        assert!(!unlabeled.to_jsonl().contains("payload"), "{}", unlabeled.to_jsonl());
        let mut s = span(1, Phase::Broadcast, 0.0, 0);
        s.counters.payload_label = Some("window");
        let labeled = RunTrace { spans: vec![s] };
        let line = labeled.to_jsonl();
        assert!(line.contains("\"payload\":\"window\""), "{line}");
        let parsed = RunTrace::from_jsonl(&line).unwrap();
        assert_eq!(parsed, labeled);
        assert!(RunTrace::from_jsonl(&line.replace("window", "telepathy")).is_err());
    }

    #[test]
    fn canonical_form_zeroes_nondeterministic_fields() {
        let mut a = RunTrace { spans: vec![span(0, Phase::Fusion, 0.123, 5)] };
        a.spans[0].counters.flops = 999;
        let mut b = a.clone();
        b.spans[0].wall_s = 0.456;
        b.spans[0].counters.flops = 111;
        assert_ne!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.canonical_jsonl(), b.canonical_jsonl());
    }

    #[test]
    fn noop_sink_disables_scope_phases() {
        let mut sink = NoopSink;
        let mut scope = RoundScope::new(&mut sink, 3);
        assert!(!scope.enabled());
        let out = scope.phase(Phase::Eval, |c| {
            c.steps = 7;
            42
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn trace_sink_records_phases_with_counters() {
        let mut sink = TraceSink::new();
        {
            let mut scope = RoundScope::new(&mut sink, 1);
            assert!(scope.enabled());
            scope.phase(Phase::LocalUpdate, |c| {
                c.steps = 12;
                c.clients = 3;
            });
            scope.record_raw(Phase::Round, 1.0, Counters::quorum_default());
        }
        let trace = sink.into_trace();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].phase, Phase::LocalUpdate);
        assert_eq!(trace.spans[0].counters.steps, 12);
        assert_eq!(trace.spans[0].counters.clients, 3);
        assert!(trace.spans[0].wall_s >= 0.0);
        assert_eq!(trace.rounds(), 2);
        assert_eq!(trace.round_spans(1).len(), 2);
    }

    #[test]
    fn summary_aggregates_per_phase() {
        let trace = RunTrace {
            spans: vec![
                span(0, Phase::LocalUpdate, 0.25, 10),
                span(1, Phase::LocalUpdate, 0.25, 10),
                span(0, Phase::Round, 0.5, 0),
                span(1, Phase::Round, 0.5, 0),
            ],
        };
        let summary = trace.phase_summary();
        let local = summary.iter().find(|s| s.phase == Phase::LocalUpdate).unwrap();
        assert_eq!(local.spans, 2);
        assert_eq!(local.steps, 20);
        assert!((local.wall_s - 0.5).abs() < 1e-12);
        let table = trace.summary_table();
        assert!(table.contains("local_update"), "{table}");
        assert!(table.contains("50.0%"), "{table}");
    }
}
