//! # kemf-nn
//!
//! Neural-network substrate for the FedKEMF stack: layers with explicit
//! forward/backward passes, losses (cross-entropy and KL-distillation),
//! SGD with momentum, learning-rate schedules, weight snapshots for
//! federated aggregation, and the paper's model zoo (ResNet-20/32/44,
//! VGG-11, LEAF-style 2-layer CNN).
//!
//! There is intentionally no autograd tape: each layer caches what its own
//! backward needs, which keeps the substrate auditable and lets every
//! gradient be validated with finite differences (see `testutil`).
//!
//! ```
//! use kemf_nn::models::{Arch, ModelSpec};
//! use kemf_nn::model::Model;
//!
//! let spec = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 0);
//! let model = Model::new(spec);
//! assert!(model.param_count() > 0);
//! ```

pub mod activation;
pub mod checkpoint;
pub mod cnn_util;
pub mod groupnorm;
pub mod conv2d;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod model;
pub mod models;
pub mod norm;
pub mod optim;
pub mod param;
pub mod pool;
pub mod sequential;
pub mod serialize;
pub mod testutil;

pub mod prelude {
    //! Common imports for downstream crates.
    pub use crate::layer::Layer;
    pub use crate::loss::{accuracy, cross_entropy, kl_to_target, soften};
    pub use crate::model::Model;
    pub use crate::models::{Arch, ModelSpec};
    pub use crate::sequential::NormKind;
    pub use crate::optim::{LrSchedule, Sgd, SgdConfig};
    pub use crate::serialize::{ModelState, Weights};
}
