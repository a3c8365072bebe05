//! Fault-aware client-round lifecycle.
//!
//! Each sampled client's round is modeled as three phases —
//! **download** (server → client broadcast of the transmitted state),
//! **local train**, and **upload** (client → server report) — and a
//! client can fail at any phase boundary. The executor in [`crate::engine`]
//! draws one [`RoundPlan`] per round from a [`FaultConfig`] and charges
//! communication honestly against it:
//!
//! * downlink bytes are charged to **every client that received the
//!   broadcast**, including clients that crash afterwards (the regime
//!   ensemble-distillation methods are designed to tolerate — a crashed
//!   client still cost the server a full model transmission);
//! * uplink bytes are charged only to clients whose upload **completed**;
//!   failed upload attempts are tracked separately as wasted traffic;
//! * a round with fewer than [`FaultConfig::min_quorum`] completed
//!   clients is aborted: the algorithm never sees it and the global
//!   state rolls forward unchanged (fail-over to the previous state).
//!
//! All randomness is drawn from the engine's dedicated fault RNG in a
//! fixed per-client order, so runs are bit-reproducible per seed, and a
//! fully reliable configuration draws **nothing** — reliable fleets are
//! bit-identical to an engine without fault injection at all.

use crate::comm::CostError;
use serde::{Deserialize, Serialize};
use rand::rngs::StdRng;
use rand::Rng;

/// Fault-injection configuration for one federated run.
///
/// All probabilities are per-client per-round and independent. The
/// default is a fully reliable fleet (every probability zero).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a sampled client is unreachable before the broadcast
    /// (dead battery, lost connectivity). Costs no bytes in either
    /// direction.
    pub drop_before_download: f32,
    /// Probability a client crashes after downloading the global state
    /// but before reporting. Costs full downlink, zero uplink.
    pub drop_after_download: f32,
    /// Probability a client is a straggler this round.
    pub straggler_prob: f32,
    /// Maximum extra delay (seconds) a straggler adds; the actual delay
    /// is drawn uniformly from `[0, straggler_delay_s)`.
    pub straggler_delay_s: f64,
    /// Round deadline (seconds of injected delay the server tolerates).
    /// A straggler whose drawn delay exceeds the deadline is cut from
    /// the round after training: full downlink charged, upload dropped.
    /// `None` = the server waits out every straggler.
    pub round_deadline_s: Option<f64>,
    /// Probability a single upload attempt fails in transit.
    pub upload_failure_prob: f32,
    /// Transient upload failures are retried (with backoff) up to this
    /// many extra attempts before the client gives up for the round.
    pub upload_retries: u32,
    /// Minimum number of completed client reports for the server to
    /// aggregate; below it the round is aborted and the previous global
    /// state is kept.
    pub min_quorum: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_before_download: 0.0,
            drop_after_download: 0.0,
            straggler_prob: 0.0,
            straggler_delay_s: 30.0,
            round_deadline_s: None,
            upload_failure_prob: 0.0,
            upload_retries: 2,
            min_quorum: 1,
        }
    }
}

impl FaultConfig {
    /// A fully reliable fleet (no fault ever fires).
    pub fn reliable() -> Self {
        Self::default()
    }

    /// True when at least one fault mode can fire.
    pub fn any_faults(&self) -> bool {
        self.drop_before_download > 0.0
            || self.drop_after_download > 0.0
            || self.straggler_prob > 0.0
            || self.upload_failure_prob > 0.0
    }

    /// Check the fault model for inconsistencies (typed error, no panic).
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        use crate::config::ConfigError;
        for (p, field) in [
            (self.drop_before_download, "drop_before_download"),
            (self.drop_after_download, "drop_after_download"),
            (self.straggler_prob, "straggler_prob"),
            (self.upload_failure_prob, "upload_failure_prob"),
        ] {
            if !(0.0..1.0).contains(&p) {
                return Err(ConfigError::OutOfRange { field, value: p as f64, bounds: "[0, 1)" });
            }
        }
        if self.straggler_delay_s.is_nan() || self.straggler_delay_s < 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "straggler_delay_s",
                value: self.straggler_delay_s,
                bounds: "[0, inf)",
            });
        }
        if let Some(d) = self.round_deadline_s {
            if d.is_nan() || d < 0.0 {
                return Err(ConfigError::OutOfRange {
                    field: "round_deadline_s",
                    value: d,
                    bounds: "[0, inf)",
                });
            }
        }
        Ok(())
    }
}

/// How one sampled client's round ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClientOutcome {
    /// Unreachable before the broadcast: no bytes either way.
    DroppedBeforeDownload,
    /// Downloaded the global state, then crashed: downlink charged,
    /// no report.
    DroppedAfterDownload,
    /// Trained, but its injected delay exceeded the round deadline and
    /// the server cut it: downlink charged, upload discarded.
    StragglerTimedOut {
        /// Injected delay that broke the deadline (seconds).
        delay_s: f64,
    },
    /// Every upload attempt failed in transit: downlink charged, the
    /// failed attempts count as wasted uplink traffic.
    UploadFailed {
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// Full lifecycle: download → train → upload accepted.
    Completed {
        /// Upload attempts until success (1 = first try).
        attempts: u32,
        /// Injected straggler delay, 0 for punctual clients (seconds).
        delay_s: f64,
    },
}

impl ClientOutcome {
    /// Did the client receive the broadcast (i.e. cost downlink bytes)?
    pub fn downloaded(&self) -> bool {
        !matches!(self, ClientOutcome::DroppedBeforeDownload)
    }

    /// Did the server accept this client's upload?
    pub fn uploaded(&self) -> bool {
        matches!(self, ClientOutcome::Completed { .. })
    }

    /// Upload attempts that failed in transit (wasted uplink transfers).
    pub fn wasted_upload_attempts(&self) -> u32 {
        match self {
            ClientOutcome::UploadFailed { attempts } => *attempts,
            ClientOutcome::Completed { attempts, .. } => attempts - 1,
            _ => 0,
        }
    }
}

/// One client's slot in a round plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientRound {
    /// Client index.
    pub client: usize,
    /// Lifecycle outcome drawn for this round.
    pub outcome: ClientOutcome,
}

/// Per-round communication totals derived from a lifecycle plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundComm {
    /// Downlink bytes actually transmitted (full broadcast set).
    pub down_bytes: u64,
    /// Uplink bytes of accepted reports.
    pub up_bytes: u64,
    /// Uplink bytes of failed upload attempts (transmitted but useless).
    pub wasted_up_bytes: u64,
    /// Clients that received the broadcast.
    pub down_clients: usize,
    /// Clients whose report the server accepted.
    pub up_clients: usize,
}

/// Per-client per-direction wire payload of one round. The bytes are
/// whatever the algorithm actually transmits — full model weights, a
/// rolling sub-model window, or logits on a public pool — so neither
/// direction is assumed to carry "model weights"; the accompanying
/// [`ModelView`] names the content.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WirePayload {
    /// Bytes one client downloads.
    pub down_bytes: u64,
    /// Bytes one client uploads.
    pub up_bytes: u64,
}

impl WirePayload {
    /// Identical payload both ways (the common case: the transmitted
    /// state, whatever its view).
    pub fn symmetric(bytes: u64) -> Self {
        WirePayload { down_bytes: bytes, up_bytes: bytes }
    }
}

/// What part of the server's knowledge one client receives (and
/// reports against) this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelView {
    /// The full transmitted model state.
    Full,
    /// An index-windowed sub-model of a server net larger than the
    /// client: the client holds the parameter window at `offset` within
    /// a rolling cycle of `cycle` disjoint windows (FedRolex-style
    /// rolling extraction).
    Window {
        /// Window offset within the rolling cycle.
        offset: usize,
        /// Number of disjoint windows covering the server model.
        cycle: usize,
    },
    /// Logits on a shared public pool — no weights cross the wire.
    Logits,
}

impl ModelView {
    /// Short label naming what actually crosses the wire; surfaces in
    /// trace spans and the history's CSV `payload` column.
    pub fn label(&self) -> &'static str {
        match self {
            ModelView::Full => "weights",
            ModelView::Window { .. } => "window",
            ModelView::Logits => "logits",
        }
    }
}

/// What one (client, round) pair transfers: the client index, the view
/// of the server model it receives, and the priced wire payload. The
/// engine asks the algorithm for one `ClientPlan` per sampled client
/// per round, so heterogeneous payloads (sub-model windows of varying
/// size, per-client compression) are billed at their true cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientPlan {
    /// Client index this plan belongs to.
    pub client: usize,
    /// What the payload contains.
    pub view: ModelView,
    /// Bytes this client moves in each direction.
    pub payload: WirePayload,
}

impl ClientPlan {
    /// The uniform adapter: every sampled client gets the same view and
    /// payload — exactly the pre-redesign "one payload per algorithm"
    /// contract. Summing `n` identical payloads equals the old
    /// `payload × n` products, so algorithms migrating through this
    /// constructor keep bit-identical byte accounting.
    pub fn uniform(sampled: &[usize], view: ModelView, payload: WirePayload) -> Vec<ClientPlan> {
        sampled.iter().map(|&client| ClientPlan { client, view, payload }).collect()
    }
}

/// The drawn lifecycle of every sampled client for one round.
#[derive(Clone, Debug)]
pub struct RoundPlan {
    /// Per-client outcomes, in sampled order.
    pub clients: Vec<ClientRound>,
    /// Quorum the round must meet to aggregate.
    pub min_quorum: usize,
}

impl RoundPlan {
    /// Clients whose report the server accepted, in index order (the set
    /// the algorithm aggregates over).
    pub fn reporters(&self) -> Vec<usize> {
        self.clients.iter().filter(|c| c.outcome.uploaded()).map(|c| c.client).collect()
    }

    /// Number of clients that received the broadcast.
    pub fn broadcast_count(&self) -> usize {
        self.clients.iter().filter(|c| c.outcome.downloaded()).count()
    }

    /// Did enough clients report for the server to aggregate?
    pub fn quorum_met(&self) -> bool {
        self.reporters().len() >= self.min_quorum.max(1)
    }

    /// Honest byte accounting of this plan at per-client payloads.
    /// `plans` aligns one-to-one with `self.clients` in sampled order
    /// (the engine validates the algorithm's plans before any billing).
    /// Checked: per-client sums refuse to wrap instead of silently
    /// producing garbage totals at foundation-model payloads.
    pub fn comm(&self, plans: &[ClientPlan]) -> Result<RoundComm, CostError> {
        debug_assert_eq!(plans.len(), self.clients.len(), "plans must align with sampled clients");
        let add = |acc: u64, b: u64| {
            acc.checked_add(b).ok_or(CostError::ByteTotalOverflow { acc, add: b })
        };
        let mut comm = RoundComm::default();
        for (c, p) in self.clients.iter().zip(plans) {
            if c.outcome.downloaded() {
                comm.down_clients += 1;
                comm.down_bytes = add(comm.down_bytes, p.payload.down_bytes)?;
            }
            if c.outcome.uploaded() {
                comm.up_clients += 1;
                comm.up_bytes = add(comm.up_bytes, p.payload.up_bytes)?;
            }
            let attempts = c.outcome.wasted_upload_attempts() as u64;
            if attempts > 0 {
                let waste = p.payload.up_bytes.checked_mul(attempts).ok_or(
                    CostError::UplinkOverflow { count: attempts, bytes: p.payload.up_bytes },
                )?;
                comm.wasted_up_bytes = add(comm.wasted_up_bytes, waste)?;
            }
        }
        Ok(comm)
    }
}

/// Draw one round's lifecycle for the sampled clients.
///
/// RNG draws happen in client order, and each fault mode draws only when
/// its probability is positive — a reliable config consumes no
/// randomness, so enabling one fault never perturbs another's stream
/// less than necessary and the no-fault path is exactly the legacy
/// engine.
pub fn plan_round(sampled: &[usize], faults: &FaultConfig, rng: &mut StdRng) -> RoundPlan {
    let clients = sampled
        .iter()
        .map(|&client| ClientRound { client, outcome: draw_outcome(faults, rng) })
        .collect();
    RoundPlan { clients, min_quorum: faults.min_quorum }
}

fn draw_outcome(faults: &FaultConfig, rng: &mut StdRng) -> ClientOutcome {
    if faults.drop_before_download > 0.0 && rng.gen::<f32>() < faults.drop_before_download {
        return ClientOutcome::DroppedBeforeDownload;
    }
    if faults.drop_after_download > 0.0 && rng.gen::<f32>() < faults.drop_after_download {
        return ClientOutcome::DroppedAfterDownload;
    }
    let mut delay_s = 0.0f64;
    if faults.straggler_prob > 0.0 && rng.gen::<f32>() < faults.straggler_prob {
        // Drawn directly in f64: the old `rng.gen::<f32>() as f64`
        // quantized the uniform variate to ~2^24 lattice points, so
        // delays clustered and deadline comparisons near the cut could
        // only ever see f32-representable delays.
        delay_s = rng.gen::<f64>() * faults.straggler_delay_s;
        if let Some(deadline) = faults.round_deadline_s {
            if delay_s > deadline {
                return ClientOutcome::StragglerTimedOut { delay_s };
            }
        }
    }
    let max_attempts = 1 + faults.upload_retries;
    let mut attempts = 0u32;
    while attempts < max_attempts {
        attempts += 1;
        let failed = faults.upload_failure_prob > 0.0
            && rng.gen::<f32>() < faults.upload_failure_prob;
        if !failed {
            return ClientOutcome::Completed { attempts, delay_s };
        }
    }
    ClientOutcome::UploadFailed { attempts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_tensor::rng::seeded_rng;

    fn plan_with(faults: &FaultConfig, seed: u64, n: usize) -> RoundPlan {
        let sampled: Vec<usize> = (0..n).collect();
        let mut rng = seeded_rng(seed);
        plan_round(&sampled, faults, &mut rng)
    }

    fn uniform_for(plan: &RoundPlan, payload: WirePayload) -> Vec<ClientPlan> {
        let ids: Vec<usize> = plan.clients.iter().map(|c| c.client).collect();
        ClientPlan::uniform(&ids, ModelView::Full, payload)
    }

    #[test]
    fn reliable_plan_completes_everyone_without_randomness() {
        let plan = plan_with(&FaultConfig::reliable(), 7, 10);
        assert!(plan
            .clients
            .iter()
            .all(|c| c.outcome == ClientOutcome::Completed { attempts: 1, delay_s: 0.0 }));
        assert_eq!(plan.reporters(), (0..10).collect::<Vec<_>>());
        assert!(plan.quorum_met());
        // No fault probability fires → no RNG draws: the stream is
        // untouched and two plans from one RNG agree.
        let mut rng = seeded_rng(3);
        let before: f32 = rng.gen();
        let mut rng2 = seeded_rng(3);
        let _ = plan_round(&[0, 1, 2], &FaultConfig::reliable(), &mut rng2);
        assert_eq!(before, rng2.gen::<f32>(), "reliable plan must not consume randomness");
    }

    #[test]
    fn drop_before_download_costs_nothing() {
        let faults = FaultConfig { drop_before_download: 0.99, ..Default::default() };
        let plan = plan_with(&faults, 11, 50);
        let comm = plan.comm(&uniform_for(&plan, WirePayload::symmetric(100))).unwrap();
        assert!(plan.broadcast_count() < 50);
        assert_eq!(comm.down_bytes, plan.broadcast_count() as u64 * 100);
        assert_eq!(comm.up_bytes, plan.reporters().len() as u64 * 100);
    }

    #[test]
    fn drop_after_download_charges_downlink_only() {
        let faults = FaultConfig { drop_after_download: 0.5, ..Default::default() };
        let plan = plan_with(&faults, 13, 40);
        let comm = plan.comm(&uniform_for(&plan, WirePayload::symmetric(10))).unwrap();
        // Every client received the broadcast...
        assert_eq!(comm.down_clients, 40);
        assert_eq!(comm.down_bytes, 400);
        // ...but only survivors are charged uplink.
        assert!(comm.up_clients < 40 && comm.up_clients > 0);
        assert_eq!(comm.up_bytes, comm.up_clients as u64 * 10);
        assert!(comm.down_bytes > comm.up_bytes);
    }

    #[test]
    fn straggler_past_deadline_is_cut() {
        let faults = FaultConfig {
            straggler_prob: 0.9,
            straggler_delay_s: 100.0,
            round_deadline_s: Some(10.0),
            ..Default::default()
        };
        let plan = plan_with(&faults, 17, 60);
        let cut: Vec<_> = plan
            .clients
            .iter()
            .filter_map(|c| match c.outcome {
                ClientOutcome::StragglerTimedOut { delay_s } => Some(delay_s),
                _ => None,
            })
            .collect();
        assert!(!cut.is_empty(), "with 90% stragglers up to 100s, some break a 10s deadline");
        assert!(cut.iter().all(|&d| d > 10.0));
        // Cut stragglers still cost downlink.
        let comm = plan.comm(&uniform_for(&plan, WirePayload::symmetric(1))).unwrap();
        assert_eq!(comm.down_clients, 60);
        assert_eq!(comm.up_clients, plan.reporters().len());
    }

    #[test]
    fn upload_retries_bound_attempts_and_count_waste() {
        let faults = FaultConfig {
            upload_failure_prob: 0.6,
            upload_retries: 2,
            ..Default::default()
        };
        let plan = plan_with(&faults, 19, 200);
        let mut saw_retry = false;
        let mut saw_exhausted = false;
        for c in &plan.clients {
            match c.outcome {
                ClientOutcome::Completed { attempts, .. } => {
                    assert!((1..=3).contains(&attempts));
                    saw_retry |= attempts > 1;
                }
                ClientOutcome::UploadFailed { attempts } => {
                    assert_eq!(attempts, 3, "gives up after 1 + retries attempts");
                    saw_exhausted = true;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(saw_retry && saw_exhausted);
        let comm = plan.comm(&uniform_for(&plan, WirePayload::symmetric(7))).unwrap();
        let expected_waste: u64 = plan
            .clients
            .iter()
            .map(|c| c.outcome.wasted_upload_attempts() as u64 * 7)
            .sum();
        assert_eq!(comm.wasted_up_bytes, expected_waste);
        assert!(comm.wasted_up_bytes > 0);
    }

    #[test]
    fn straggler_delays_are_sampled_in_full_f64_precision() {
        // Regression: delays used to be drawn as `rng.gen::<f32>() as
        // f64`, collapsing the uniform variate onto the f32 lattice. A
        // full-precision draw must produce delays that are *not* exactly
        // representable as f32 once scaled.
        let faults = FaultConfig {
            straggler_prob: 1.0 - f32::EPSILON, // always a straggler, still draws
            straggler_delay_s: 1.0,             // delay == the raw uniform variate
            ..Default::default()
        };
        let plan = plan_with(&faults, 37, 256);
        let delays: Vec<f64> = plan
            .clients
            .iter()
            .filter_map(|c| match c.outcome {
                ClientOutcome::Completed { delay_s, .. } => Some(delay_s),
                ClientOutcome::StragglerTimedOut { delay_s } => Some(delay_s),
                _ => None,
            })
            .collect();
        assert_eq!(delays.len(), 256);
        let off_lattice = delays.iter().filter(|&&d| (d as f32) as f64 != d).count();
        assert!(
            off_lattice > 200,
            "f64 draws should almost never land on the f32 lattice, got {off_lattice}/256"
        );
    }

    #[test]
    fn deadline_comparisons_match_the_drawn_delay_exactly() {
        // Regression companion to the f64 fix: for seeded runs, the
        // cut-vs-survive classification must be exactly `delay_s >
        // deadline` on the delay actually recorded in the outcome — no
        // hidden re-rounding between the draw and the comparison.
        let faults = FaultConfig {
            straggler_prob: 0.8,
            straggler_delay_s: 40.0,
            round_deadline_s: Some(20.0),
            ..Default::default()
        };
        for seed in [41u64, 42, 43] {
            let plan = plan_with(&faults, seed, 128);
            for c in &plan.clients {
                match c.outcome {
                    ClientOutcome::StragglerTimedOut { delay_s } => {
                        assert!(delay_s > 20.0, "cut straggler below deadline: {delay_s}")
                    }
                    ClientOutcome::Completed { delay_s, .. } => {
                        assert!(delay_s <= 20.0, "surviving delay past deadline: {delay_s}")
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
    }

    #[test]
    fn quorum_detection() {
        let faults = FaultConfig {
            drop_before_download: 0.97,
            min_quorum: 3,
            ..Default::default()
        };
        let plan = plan_with(&faults, 23, 4);
        assert!(!plan.quorum_met(), "3-of-4 quorum under 97% dropout should fail");
        let reliable = plan_with(&FaultConfig { min_quorum: 3, ..Default::default() }, 23, 4);
        assert!(reliable.quorum_met());
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let faults = FaultConfig {
            drop_before_download: 0.1,
            drop_after_download: 0.2,
            straggler_prob: 0.3,
            straggler_delay_s: 50.0,
            round_deadline_s: Some(20.0),
            upload_failure_prob: 0.3,
            ..Default::default()
        };
        let a = plan_with(&faults, 31, 64);
        let b = plan_with(&faults, 31, 64);
        assert_eq!(a.clients, b.clients);
        let c = plan_with(&faults, 32, 64);
        assert_ne!(a.clients, c.clients, "different seed draws a different plan");
    }

    #[test]
    fn per_client_payloads_bill_each_client_at_its_own_bytes() {
        // Three clients with genuinely different payloads (a rolling
        // window of varying width): the totals are per-client sums, not
        // a payload × n product.
        let plan = plan_with(&FaultConfig::reliable(), 3, 3);
        let plans: Vec<ClientPlan> = [(0usize, 100u64), (1, 70), (2, 30)]
            .iter()
            .map(|&(client, b)| ClientPlan {
                client,
                view: ModelView::Window { offset: client, cycle: 3 },
                payload: WirePayload::symmetric(b),
            })
            .collect();
        let comm = plan.comm(&plans).unwrap();
        assert_eq!(comm.down_bytes, 200);
        assert_eq!(comm.up_bytes, 200);
        assert_eq!((comm.down_clients, comm.up_clients), (3, 3));
    }

    #[test]
    fn uniform_plans_match_the_old_multiplication_exactly() {
        let faults = FaultConfig {
            drop_after_download: 0.3,
            upload_failure_prob: 0.4,
            upload_retries: 2,
            ..Default::default()
        };
        let plan = plan_with(&faults, 29, 80);
        let payload = WirePayload { down_bytes: 1013, up_bytes: 307 };
        let comm = plan.comm(&uniform_for(&plan, payload)).unwrap();
        let wasted: u64 =
            plan.clients.iter().map(|c| c.outcome.wasted_upload_attempts() as u64).sum();
        assert_eq!(comm.down_bytes, plan.broadcast_count() as u64 * 1013);
        assert_eq!(comm.up_bytes, plan.reporters().len() as u64 * 307);
        assert_eq!(comm.wasted_up_bytes, wasted * 307);
    }

    #[test]
    fn per_client_comm_refuses_overflow_with_a_typed_error() {
        let plan = plan_with(&FaultConfig::reliable(), 7, 2);
        let plans = uniform_for(&plan, WirePayload::symmetric(u64::MAX / 2 + 1));
        assert!(matches!(plan.comm(&plans), Err(CostError::ByteTotalOverflow { .. })));
    }

    #[test]
    fn model_views_label_what_crosses_the_wire() {
        assert_eq!(ModelView::Full.label(), "weights");
        assert_eq!(ModelView::Window { offset: 2, cycle: 5 }.label(), "window");
        assert_eq!(ModelView::Logits.label(), "logits");
    }

    #[test]
    fn validate_rejects_probability_of_one() {
        let err = FaultConfig { drop_after_download: 1.0, ..Default::default() }
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("drop_after_download"), "bad message: {err}");
        FaultConfig::reliable().validate().unwrap();
    }
}
