//! The benchmark's own [`EventSink`]: keeps every span the engine emits
//! so the traced run can sum them per phase and reconcile them against
//! the FLOP counter and the history's byte accounting.

use kemf_fl::trace::{EventSink, Phase, Span};

#[derive(Default)]
pub struct SpanSink {
    pub spans: Vec<Span>,
}

impl EventSink for SpanSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, span: Span) {
        self.spans.push(span);
    }
}

impl SpanSink {
    fn of(&self, phase: Phase) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.phase == phase)
    }

    /// Summed wall seconds of one phase (`0.0` when it never ran).
    pub fn secs(&self, phase: Phase) -> f64 {
        self.of(phase).fold(0.0, |acc, s| acc + s.wall_s)
    }

    /// Summed GEMM FLOPs of one phase.
    pub fn flops(&self, phase: Phase) -> u64 {
        self.of(phase).map(|s| s.counters.flops).sum()
    }

    /// FLOPs of every phase span. The enclosing `round` span carries
    /// none of its own, so this is the run's metered GEMM work.
    pub fn total_flops(&self) -> u64 {
        self.spans.iter().map(|s| s.counters.flops).sum()
    }

    /// Bytes the spans charge: downlink on `broadcast`, accepted and
    /// wasted uplink on `upload`.
    pub fn charged_bytes(&self) -> u64 {
        let down: u64 = self
            .of(Phase::Broadcast)
            .map(|s| s.counters.down_bytes)
            .sum();
        let up: u64 = self
            .of(Phase::Upload)
            .map(|s| s.counters.up_bytes + s.counters.wasted_up_bytes)
            .sum();
        down + up
    }

    pub fn stale_updates(&self) -> u64 {
        self.of(Phase::Buffer)
            .map(|s| s.counters.stale_updates)
            .sum()
    }

    pub fn evicted_updates(&self) -> u64 {
        self.of(Phase::Buffer)
            .map(|s| s.counters.evicted_updates)
            .sum()
    }

    /// Spans of each phase per round, checked against what the round
    /// mode emits rather than against every phase there is. Every round
    /// has one `sample`, `broadcast`, `upload`, `eval` and `round` span;
    /// `buffer` appears once per round in async mode and never in sync
    /// mode; `fusion` appears exactly when the round met its quorum. A
    /// sync round trains (`local_update`) exactly when it fuses; an
    /// async cycle trains its wave (at most once) independently of
    /// whether its buffer reached quorum. Returns the first violation.
    pub fn check_phases(&self, rounds: usize, is_async: bool) -> Result<(), String> {
        for r in 0..rounds {
            let count = |p: Phase| {
                self.spans
                    .iter()
                    .filter(|s| s.round == r && s.phase == p)
                    .count()
            };
            let quorum_met = self
                .spans
                .iter()
                .find(|s| s.round == r && s.phase == Phase::Round)
                .map(|s| s.counters.quorum_met)
                .ok_or_else(|| format!("round {r} has no round span"))?;
            let expected = [
                (Phase::Sample, 1..=1),
                (Phase::Broadcast, 1..=1),
                (Phase::Upload, 1..=1),
                (Phase::Eval, 1..=1),
                (Phase::Round, 1..=1),
                (Phase::Buffer, usize::from(is_async)..=usize::from(is_async)),
                (
                    Phase::Fusion,
                    usize::from(quorum_met)..=usize::from(quorum_met),
                ),
                if is_async {
                    (Phase::LocalUpdate, 0..=1)
                } else {
                    (
                        Phase::LocalUpdate,
                        usize::from(quorum_met)..=usize::from(quorum_met),
                    )
                },
            ];
            for (phase, range) in expected {
                let n = count(phase);
                if !range.contains(&n) {
                    return Err(format!(
                        "round {r}: {n} {} span(s), expected {range:?}",
                        phase.name()
                    ));
                }
            }
        }
        Ok(())
    }
}
