//! Reproduction harness: one module per table/figure of the paper and per
//! sweep, plus shared CLI/dataset-preparation plumbing. The `sgd-bench`
//! binary (`src/main.rs`) runs any of them by name.
//!
//! Every experiment accepts an [`ExperimentConfig`] whose `scale` shrinks
//! the published dataset sizes so the full study runs on a laptop. GPU
//! numbers are simulated kernel time (see `sgd-gpusim`); CPU numbers are
//! wall-clock. Absolute values therefore differ from the paper, but each
//! experiment's *shape* — who wins, by what factor, where crossovers fall
//! — reproduces the published finding; `EXPERIMENTS.md` records both.

pub mod ablation;
pub mod cli;
pub mod faults;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod kernels;
pub mod pool;
pub mod prep;
pub mod ps;
mod render;
pub mod router;
pub mod serve;
pub mod soak;
pub mod table1;
pub mod table2;
pub mod table3;

pub use cli::ExperimentConfig;
