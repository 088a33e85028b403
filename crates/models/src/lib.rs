//! The three training tasks of the paper: logistic regression (LR), linear
//! SVM, and fully-connected multi-layer perceptrons (MLP).
//!
//! Every task exposes batch loss/gradient computation generically over a
//! [`sgd_linalg::Exec`], so the *same* task code runs on the sequential
//! CPU, the rayon-parallel CPU, and the simulated GPU — the paper's
//! "identical implementations, different device" property. The linear
//! tasks additionally expose their pointwise loss ([`LinearLoss`]) for the
//! example-at-a-time asynchronous (Hogwild) optimizers in `sgd-core`.

mod batch;
mod gradcheck;
mod linear;
mod mlp;
mod task;

pub use batch::{Batch, Examples};
pub use gradcheck::check_gradient;
pub use linear::{lr, svm, HingeLoss, LinearLoss, LinearTask, LogisticLoss, PointwiseLoss};
pub use mlp::{MlpForward, MlpTask};
pub use task::Task;
