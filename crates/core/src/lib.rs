//! The parallel-SGD study harness — the paper's primary contribution.
//!
//! Implements all eight corners of the paper's exploratory cube (Fig. 1):
//!
//! | axis | values |
//! |---|---|
//! | architecture | sequential CPU, thread-parallel CPU, simulated GPU |
//! | update strategy | synchronous (batch GD) / asynchronous (Hogwild, Hogbatch) |
//! | sparsity | dense / CSR |
//!
//! and measures the three performance axes (Fig. 2): **hardware
//! efficiency** (time per epoch), **statistical efficiency** (epochs to a
//! loss threshold) and **time to convergence**, under the paper's
//! methodology: identical initial models, step size gridded in powers of
//! ten, loss-evaluation time excluded, convergence measured at 10/5/2/1 %
//! above the optimal loss.
//!
//! Every corner is named by a [`Configuration`] (device × [`Strategy`] ×
//! [`Sparsity`] × [`Timing`]) and executed through [`Engine::run`], which
//! owns the whole dispatch fan-out. Every optimizer is an [`EpochStep`]
//! driven by the one [`EpochLoop`], which streams per-epoch hardware
//! counters ([`EpochMetrics`]) to an [`EpochObserver`] and into each
//! [`RunReport`]:
//!
//! ```
//! use sgd_core::{Configuration, DeviceKind, Engine, RunOptions, Strategy, Timing};
//! use sgd_core::CpuModelConfig;
//! use sgd_models::{lr, Batch, Examples};
//! use sgd_linalg::Matrix;
//!
//! let x = Matrix::from_fn(32, 4, |i, j| (((i + j) % 3) as f64 - 1.0));
//! let y: Vec<f64> = (0..32).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
//! let batch = Batch::new(Examples::Dense(&x), &y);
//!
//! // Modeled 56-thread Hogwild on the paper's Xeon, dense data.
//! let cfg = Configuration::new(sgd_core::DeviceKind::CpuPar, Strategy::Hogwild)
//!     .with_timing(Timing::Modeled(CpuModelConfig::paper_machine(56)));
//! let opts = RunOptions { max_epochs: 2, ..Default::default() };
//! let report = Engine::run(&cfg, &lr(4), &batch, 0.1, &opts);
//! assert!(report.metrics.total_coherency_conflicts() > 0.0);
//! # let _ = DeviceKind::CpuSeq;
//! ```
//!
//! [`Engine`] is the only way to start a run: [`Engine::run`] /
//! [`Engine::try_run`] for one step size, [`Engine::run_observed`] to
//! stream the per-epoch counters, [`Engine::grid_search`] with the
//! convergence utilities on top.

mod backend;
mod config;
mod convergence;
mod engine;
mod epoch_loop;
mod faults;
mod gpu_async;
mod hogbatch;
mod hogwild;
mod metrics;
mod modeled;
mod replication;
mod report;
mod shared_model;
mod supervisor;
mod sync;

pub use backend::{
    BackendSession, ComputeBackend, CostModel, Dispatch, ExecTask, GpuDispatch, Workload,
    CPU_FLOPS_PER_CORE, CPU_PAR_DISPATCH_SECS, CPU_PAR_EFFICIENCY, CPU_SEQ_DISPATCH_SECS,
    CPU_SIMD_FLOPS_PER_CORE, CPU_SIMD_GEMV_SPEEDUP,
};
pub use config::{DeviceKind, RunOptions};
pub use convergence::{reference_optimum, ConvergenceSummary, LossTrace, THRESHOLDS};
pub use engine::{Configuration, Engine, EngineError, Sparsity, Strategy, Timing, TimingMode};
pub use epoch_loop::{EpochLoop, EpochStep, Halt};
pub use faults::{FaultCounters, FaultPlan, Straggler, WorkerDeath, WorkerRejoin};
pub use gpu_async::GpuAsyncOptions;
pub use hogbatch::make_batches;
pub use metrics::{EpochMetrics, EpochObserver, NullObserver, RunMetrics};
pub use modeled::CpuModelConfig;
pub use replication::Replication;
pub use report::{grid_search, step_size_grid, RunOutcome, RunReport};
pub use shared_model::SharedModel;
