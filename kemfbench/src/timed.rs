//! A forwarding [`FedAlgorithm`] decorator that times every call into
//! the algorithm layer and counts the client updates dispatched and
//! folded.
//!
//! It forwards **every** trait method, defaulted ones included: a
//! decorator relying on a trait default would reject asynchronous rounds
//! (`train_cohort`/`fuse`) or write empty checkpoint state (`state`)
//! without any error. The clock reads happen outside the forwarded
//! calls, so the decorated run's arithmetic is the undecorated run's.

use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::ClientPlan;
use kemf_fl::scheduler::PreparedUpdate;
use kemf_fl::state::{AlgorithmState, RestoreError};
use kemf_fl::trace::RoundScope;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use std::cell::RefCell;
use std::time::Instant;

/// Accumulated time and call count of one trait method.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStat {
    pub calls: u64,
    pub secs: f64,
}

impl CallStat {
    fn add(&mut self, t0: Instant) {
        self.calls += 1;
        self.secs += t0.elapsed().as_secs_f64();
    }
}

/// Per-method timings plus the round bookkeeping the end-to-end metrics
/// need.
#[derive(Clone, Debug)]
pub struct AlgoStats {
    pub round: CallStat,
    pub train_cohort: CallStat,
    pub fuse: CallStat,
    pub evaluate: CallStat,
    pub client_plans: CallStat,
    pub state: CallStat,
    /// Instant the run was handed to the engine.
    pub run_start: Instant,
    /// Per round: when its first algorithm call began (`client_plans`).
    pub round_starts: Vec<Instant>,
    /// Per round: when `evaluate` returned.
    pub round_ends: Vec<Instant>,
    /// Clients sampled per round (the updates dispatched).
    pub dispatched: u64,
    /// Updates folded into a global model.
    pub folded: u64,
    /// Training samples consumed by clients that trained.
    pub train_samples: u64,
}

impl AlgoStats {
    fn new() -> Self {
        AlgoStats {
            round: CallStat::default(),
            train_cohort: CallStat::default(),
            fuse: CallStat::default(),
            evaluate: CallStat::default(),
            client_plans: CallStat::default(),
            state: CallStat::default(),
            run_start: Instant::now(),
            round_starts: Vec::new(),
            round_ends: Vec::new(),
            dispatched: 0,
            folded: 0,
            train_samples: 0,
        }
    }

    /// Wall seconds of each round: first algorithm call to the return of
    /// `evaluate`. Time between rounds (checkpoint writes) is excluded.
    pub fn round_secs(&self) -> Vec<f64> {
        self.round_starts
            .iter()
            .zip(&self.round_ends)
            .map(|(s, e)| e.duration_since(*s).as_secs_f64())
            .collect()
    }

    /// Seconds from the run start to the end of round `r`.
    pub fn secs_through(&self, r: usize) -> Option<f64> {
        self.round_ends
            .get(r)
            .map(|e| e.duration_since(self.run_start).as_secs_f64())
    }
}

/// The decorator: wraps any algorithm and records [`AlgoStats`]. The
/// stats sit in a `RefCell` because `client_plans` and `state` take
/// `&self`.
pub struct Timed<'a> {
    inner: &'a mut dyn FedAlgorithm,
    stats: RefCell<AlgoStats>,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn FedAlgorithm) -> Self {
        Timed {
            inner,
            stats: RefCell::new(AlgoStats::new()),
        }
    }

    /// Mark the start of `Engine::run`.
    pub fn start(&mut self) {
        self.stats.get_mut().run_start = Instant::now();
    }

    pub fn into_stats(self) -> AlgoStats {
        self.stats.into_inner()
    }

    fn samples_of(ctx: &FlContext, clients: &[usize]) -> u64 {
        let per_epoch: usize = clients.iter().map(|&k| ctx.client_shard_len(k)).sum();
        (per_epoch * ctx.cfg.local_epochs) as u64
    }
}

impl FedAlgorithm for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        self.inner.init(ctx)
    }

    fn client_plans(&self, round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        let t0 = Instant::now();
        let plans = self.inner.client_plans(round, sampled);
        let mut stats = self.stats.borrow_mut();
        stats.client_plans.add(t0);
        // The engine asks for plans once per round, before any other
        // algorithm call of that round.
        stats.round_starts.push(t0);
        stats.dispatched += sampled.len() as u64;
        plans
    }

    fn round(
        &mut self,
        round: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        let t0 = Instant::now();
        let out = self.inner.round(round, sampled, ctx, scope);
        let stats = self.stats.get_mut();
        stats.round.add(t0);
        if out.is_ok() {
            stats.folded += sampled.len() as u64;
            stats.train_samples += Self::samples_of(ctx, sampled);
        }
        out
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let t0 = Instant::now();
        let out = self.inner.train_cohort(wave, sampled, ctx, scope);
        let stats = self.stats.get_mut();
        stats.train_cohort.add(t0);
        if out.is_ok() {
            stats.train_samples += Self::samples_of(ctx, sampled);
        }
        out
    }

    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        let n = updates.len() as u64;
        let t0 = Instant::now();
        let out = self.inner.fuse(round, updates, ctx, scope);
        let stats = self.stats.get_mut();
        stats.fuse.add(t0);
        if out.is_ok() {
            stats.folded += n;
        }
        out
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        let t0 = Instant::now();
        let acc = self.inner.evaluate(ctx);
        let stats = self.stats.get_mut();
        stats.evaluate.add(t0);
        stats.round_ends.push(Instant::now());
        acc
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        let t0 = Instant::now();
        let out = self.inner.state();
        self.stats.borrow_mut().state.add(t0);
        out
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        self.inner.restore(state)
    }

    fn global_model(&self) -> Option<(ModelSpec, ModelState)> {
        self.inner.global_model()
    }
}
