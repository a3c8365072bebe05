//! One measured federation: `Engine::run` on a built [`World`] through
//! the [`Timed`] decorator, plus the correctness checks every run must
//! pass.

use crate::sink::SpanSink;
use crate::timed::{AlgoStats, Timed};
use crate::workload::{Workload, World};
use kemf_fl::engine::{Engine, RunOptions, RunReport};
use kemf_fl::metrics::History;
use std::time::Instant;

/// What one federation run produced.
pub struct Federation {
    pub workload: Workload,
    /// `Ok` with the engine's report, or the engine's error message.
    pub report: Result<RunReport, String>,
    pub stats: AlgoStats,
    /// Wall seconds of `Engine::run`.
    pub wall_s: f64,
    /// `kemf_tensor::flops::total()` delta across `Engine::run`.
    pub flops: u64,
    /// Correctness-check failures (empty when the run is correct).
    pub failures: Vec<String>,
}

impl Federation {
    /// Run the world's federation. `sink` attaches a tracing sink;
    /// `socket == false` runs the socket workload in-process.
    pub fn run(world: &mut World, sink: Option<&mut SpanSink>, socket: bool) -> Federation {
        let mut opts: RunOptions<'_> = world.options(socket);
        if let Some(sink) = sink {
            opts = opts.sink(sink);
        }
        let mut timed = Timed::new(world.algo.as_mut());
        let flops0 = kemf_tensor::flops::total();
        let t0 = Instant::now();
        timed.start();
        let report = Engine::run(&mut timed, &world.ctx, opts).map_err(|e| e.to_string());
        let wall_s = t0.elapsed().as_secs_f64();
        let flops = kemf_tensor::flops::total() - flops0;
        let stats = timed.into_stats();
        let mut fed = Federation {
            workload: world.workload,
            report,
            stats,
            wall_s,
            flops,
            failures: Vec::new(),
        };
        fed.failures = fed.check();
        fed
    }

    pub fn history(&self) -> Option<&History> {
        self.report.as_ref().ok().map(|r| &r.history)
    }

    /// Rounds run until the accuracy first reached the workload's
    /// target (1-based, as the paper counts).
    pub fn rounds_to_target(&self) -> Option<usize> {
        self.history()?.rounds_to_target(self.workload.target_acc())
    }

    /// Wall seconds from `Engine::run` start to the end of the first
    /// round that reached the target.
    pub fn time_to_target_s(&self) -> Option<f64> {
        self.stats.secs_through(self.rounds_to_target()? - 1)
    }

    /// Updates dispatched but never folded into a global model. An
    /// engine error fails every update of the run.
    pub fn failed_updates(&self) -> u64 {
        match self.report {
            Ok(_) => self.stats.dispatched - self.stats.folded,
            Err(_) => self.stats.dispatched,
        }
    }

    /// FNV-1a of the history JSON: equal fingerprints mean bit-identical
    /// trajectories.
    pub fn fingerprint(&self) -> String {
        match self.history() {
            Some(h) => format!("{:016x}", fnv1a(h.to_json().as_bytes())),
            None => "none".into(),
        }
    }

    fn check(&self) -> Vec<String> {
        let w = self.workload;
        let report = match &self.report {
            Ok(r) => r,
            Err(e) => return vec![format!("Engine::run failed: {e}")],
        };
        let h = &report.history;
        let mut fail = Vec::new();
        if h.rounds() != w.rounds() {
            fail.push(format!(
                "{} rounds recorded, expected {}",
                h.rounds(),
                w.rounds()
            ));
        }
        if self.stats.round_ends.len() != h.rounds() || self.stats.round_starts.len() != h.rounds()
        {
            fail.push("decorator saw a different number of rounds than the history".into());
        }
        // A quorum-aborted round records NaN loss by design (nobody
        // reported); every round that fused must have a finite loss.
        for r in &h.records {
            if r.quorum_met && !r.train_loss.is_finite() {
                fail.push(format!(
                    "round {}: non-finite training loss {}",
                    r.round, r.train_loss
                ));
            }
            if !r.test_acc.is_finite() {
                fail.push(format!("round {}: non-finite accuracy", r.round));
            }
        }
        let best = h.best_accuracy();
        if best < w.acc_floor() {
            fail.push(format!(
                "best accuracy {best} is below the floor {}",
                w.acc_floor()
            ));
        }
        if self.rounds_to_target().is_none() {
            fail.push(format!("target accuracy {} never reached", w.target_acc()));
        }
        // History::total_bytes is the last cumulative count; it must be
        // the running sum of the per-round downlink, accepted uplink and
        // wasted uplink bytes.
        let mut running = 0u64;
        for r in &h.records {
            running += r.down_bytes + r.up_bytes + r.wasted_up_bytes;
            if r.cum_bytes != running {
                fail.push(format!(
                    "round {}: cum_bytes {} != running per-round sum {running}",
                    r.round, r.cum_bytes
                ));
                break;
            }
        }
        if h.total_bytes() != running {
            fail.push(format!(
                "total_bytes {} != per-round sum {running}",
                h.total_bytes()
            ));
        }
        if let Some(stats) = &report.transport {
            if stats.payload_total() != h.total_bytes() {
                fail.push(format!(
                    "wire payload bytes {} != history bytes {}",
                    stats.payload_total(),
                    h.total_bytes()
                ));
            }
        }
        if self.stats.folded > self.stats.dispatched {
            fail.push("more updates folded than dispatched".into());
        }
        fail
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
