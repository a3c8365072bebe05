//! Federated-learning run configuration.

use crate::lifecycle::FaultConfig;
use kemf_nn::optim::{LrSchedule, SgdConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a run configuration (or an algorithm's setup against it) is
/// inconsistent. Validation used to panic; every check now surfaces as a
/// typed error so embedding servers can reject a bad run without dying.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A count that must be at least one (clients, rounds, epochs, ...)
    /// is zero.
    ZeroCount {
        /// The offending field.
        field: &'static str,
    },
    /// A field that must lie in a half-open interval is outside it.
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// The value supplied.
        value: f64,
        /// Human-readable bound, e.g. `(0, 1]`.
        bounds: &'static str,
    },
    /// `min_quorum` exceeds the per-round sample size: no round could
    /// ever aggregate.
    UnreachableQuorum {
        /// Configured quorum.
        min_quorum: usize,
        /// Clients sampled per round.
        sampled_per_round: usize,
    },
    /// An algorithm's own setup is inconsistent with the run config
    /// (e.g. a per-client spec list whose length is not the client
    /// count).
    AlgorithmSetup {
        /// The algorithm reporting the problem.
        algorithm: String,
        /// What is wrong.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCount { field } => write!(f, "{field} must be at least 1"),
            ConfigError::OutOfRange { field, value, bounds } => {
                write!(f, "{field} must be in {bounds}, got {value}")
            }
            ConfigError::UnreachableQuorum { min_quorum, sampled_per_round } => write!(
                f,
                "min_quorum {min_quorum} can never be met with {sampled_per_round} sampled clients per round"
            ),
            ConfigError::AlgorithmSetup { algorithm, reason } => {
                write!(f, "{algorithm} setup: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of one federated training run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FlConfig {
    /// Total number of clients `N`.
    pub n_clients: usize,
    /// Fraction of clients sampled each round (paper: 0.4–1.0).
    pub sample_ratio: f32,
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Local epochs `E` per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Base local learning rate.
    pub lr: f32,
    /// Local SGD momentum.
    pub momentum: f32,
    /// Local weight decay.
    pub weight_decay: f32,
    /// Learning-rate schedule over rounds.
    pub lr_schedule: LrSchedule,
    /// Dirichlet concentration α of the non-IID split.
    pub alpha: f64,
    /// Minimum samples per client the partitioner must guarantee.
    pub min_per_client: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Lifecycle fault model (per-phase drops, stragglers, upload
    /// retries, quorum). Defaults to a fully reliable fleet.
    pub faults: FaultConfig,
    /// Stream each round's cohort through local update in batches of at
    /// most this many clients, bounding resident models by the batch
    /// instead of the cohort. `None` runs the whole cohort at once.
    /// Purely a memory knob: all per-result arithmetic is sequential in
    /// sampled order, so histories are bit-identical across batch sizes.
    pub cohort_batch: Option<usize>,
    /// Master seed for sampling, partitioning, and initialization.
    pub seed: u64,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            n_clients: 10,
            sample_ratio: 0.4,
            rounds: 20,
            local_epochs: 1,
            batch_size: 32,
            lr: 0.08,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_schedule: LrSchedule::Constant,
            alpha: 0.1,
            min_per_client: 8,
            eval_batch: 64,
            faults: FaultConfig::default(),
            cohort_batch: None,
            seed: 0,
        }
    }
}

impl FlConfig {
    /// Number of clients sampled per round (at least one).
    pub fn sampled_per_round(&self) -> usize {
        (((self.n_clients as f32) * self.sample_ratio).round() as usize)
            .clamp(1, self.n_clients)
    }

    /// How many of a `cohort`-client round to hold resident at once
    /// during local update: `cohort_batch` clamped to the cohort.
    pub fn cohort_chunk(&self, cohort: usize) -> usize {
        self.cohort_batch.unwrap_or(cohort).clamp(1, cohort.max(1))
    }

    /// SGD config at a given round (learning rate follows the schedule).
    pub fn sgd_at(&self, round: usize) -> SgdConfig {
        SgdConfig {
            lr: self.lr_schedule.lr_at(self.lr, round),
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            nesterov: false,
        }
    }

    /// Check the configuration for inconsistencies. Construction sites
    /// that cannot recover ([`crate::context::FlContext::new`]) `expect`
    /// the result; the engine propagates it as a typed error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_clients == 0 {
            return Err(ConfigError::ZeroCount { field: "n_clients" });
        }
        if !(self.sample_ratio > 0.0 && self.sample_ratio <= 1.0) {
            return Err(ConfigError::OutOfRange {
                field: "sample_ratio",
                value: self.sample_ratio as f64,
                bounds: "(0, 1]",
            });
        }
        if self.rounds == 0 {
            return Err(ConfigError::ZeroCount { field: "rounds" });
        }
        if self.local_epochs == 0 {
            return Err(ConfigError::ZeroCount { field: "local_epochs" });
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroCount { field: "batch_size" });
        }
        if self.lr.is_nan() || self.lr <= 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "lr",
                value: self.lr as f64,
                bounds: "(0, inf)",
            });
        }
        // Optimizer hyperparameters feed the resume fingerprint and
        // every local step: non-finite or negative values would train
        // garbage and collide checkpoint identities.
        if !self.momentum.is_finite() || self.momentum < 0.0 || self.momentum >= 1.0 {
            return Err(ConfigError::OutOfRange {
                field: "momentum",
                value: self.momentum as f64,
                bounds: "[0, 1)",
            });
        }
        if !self.weight_decay.is_finite() || self.weight_decay < 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "weight_decay",
                value: self.weight_decay as f64,
                bounds: "[0, inf)",
            });
        }
        if self.alpha.is_nan() || self.alpha <= 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "alpha",
                value: self.alpha,
                bounds: "(0, inf)",
            });
        }
        if self.cohort_batch == Some(0) {
            return Err(ConfigError::ZeroCount { field: "cohort_batch" });
        }
        self.faults.validate()?;
        if self.faults.min_quorum > self.sampled_per_round() {
            return Err(ConfigError::UnreachableQuorum {
                min_quorum: self.faults.min_quorum,
                sampled_per_round: self.sampled_per_round(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_per_round_rounds_and_clamps() {
        let mut cfg = FlConfig { n_clients: 30, sample_ratio: 0.4, ..Default::default() };
        assert_eq!(cfg.sampled_per_round(), 12);
        cfg.sample_ratio = 0.01;
        assert_eq!(cfg.sampled_per_round(), 1);
        cfg.sample_ratio = 1.0;
        assert_eq!(cfg.sampled_per_round(), 30);
    }

    #[test]
    fn sgd_follows_schedule() {
        let cfg = FlConfig {
            lr: 1.0,
            lr_schedule: LrSchedule::Step { every: 5, gamma: 0.1 },
            ..Default::default()
        };
        assert!((cfg.sgd_at(0).lr - 1.0).abs() < 1e-6);
        assert!((cfg.sgd_at(5).lr - 0.1).abs() < 1e-6);
    }

    #[test]
    fn validate_rejects_zero_clients() {
        let err = FlConfig { n_clients: 0, ..Default::default() }.validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroCount { field: "n_clients" });
    }

    #[test]
    fn default_is_valid() {
        FlConfig::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_non_finite_optimizer_hyperparameters() {
        for cfg in [
            FlConfig { momentum: f32::NAN, ..Default::default() },
            FlConfig { momentum: -0.1, ..Default::default() },
            FlConfig { momentum: 1.0, ..Default::default() },
            FlConfig { weight_decay: f32::INFINITY, ..Default::default() },
            FlConfig { weight_decay: -1e-4, ..Default::default() },
        ] {
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::OutOfRange { field: "momentum" | "weight_decay", .. }),
                "got: {err:?}"
            );
        }
    }

    #[test]
    fn cohort_batch_rejects_zero_and_clamps_to_cohort() {
        let err = FlConfig { cohort_batch: Some(0), ..Default::default() }.validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroCount { field: "cohort_batch" });
        let cfg = FlConfig { cohort_batch: Some(64), ..Default::default() };
        cfg.validate().unwrap();
        assert_eq!(cfg.cohort_chunk(10), 10);
        assert_eq!(cfg.cohort_chunk(1000), 64);
        assert_eq!(FlConfig::default().cohort_chunk(1000), 1000);
    }

    #[test]
    fn validate_rejects_unreachable_quorum() {
        let err = FlConfig {
            n_clients: 10,
            sample_ratio: 0.4,
            faults: FaultConfig { min_quorum: 5, ..Default::default() },
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::UnreachableQuorum { min_quorum: 5, sampled_per_round: 4 });
        // The error renders both numbers, so a log line alone explains it.
        let msg = err.to_string();
        assert!(msg.contains('5') && msg.contains('4'), "bad message: {msg}");
    }
}
