//! The unified execution engine: one dispatch point for every corner of
//! the paper's exploratory cube.
//!
//! A [`Configuration`] names a corner — device × update strategy ×
//! sparsity × timing source — and [`Engine::run`] routes it to the right
//! optimizer, so benches and tools never hand-match on devices or timing
//! modes. [`Engine::run_observed`] additionally streams per-epoch
//! hardware counters to an [`crate::EpochObserver`] while the run is in
//! flight.
//!
//! ```
//! use sgd_core::{Configuration, DeviceKind, Engine, RunOptions, Strategy};
//! use sgd_models::{lr, Batch, Examples};
//! use sgd_linalg::Matrix;
//!
//! let x = Matrix::from_fn(64, 4, |i, j| (((i + j) % 3) as f64 - 1.0));
//! let y: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
//! let batch = Batch::new(Examples::Dense(&x), &y);
//! let task = lr(4);
//!
//! let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild);
//! let opts = RunOptions { max_epochs: 3, ..Default::default() };
//! let report = Engine::run(&cfg, &task, &batch, 0.1, &opts);
//! assert_eq!(report.metrics.epochs.len(), report.trace.epochs());
//! ```

use sgd_models::{Batch, Examples, Task};

use crate::config::{DeviceKind, RunOptions};
use crate::gpu_async::{gpu_hogbatch_observed, gpu_hogwild_observed, GpuAsyncOptions};
use crate::hogbatch::{hogbatch_observed, make_batches};
use crate::metrics::{EpochObserver, NullObserver};
use crate::modeled::{
    hogbatch_modeled_observed, hogwild_modeled_observed, sync_modeled_observed, CpuModelConfig,
};
use crate::replication::{replicated_observed, Replication};
use crate::report::RunReport;
use crate::sync::sync_observed;

/// Wall-clock vs modeled time, as selected on a bench command line.
///
/// This is the user-facing flag; [`TimingMode::timing`] resolves it to a
/// concrete [`Timing`] so callers never match on the mode themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingMode {
    /// Report modeled seconds for CPU runs (the default: reproduces the
    /// paper's machine regardless of the host).
    Model,
    /// Report the host's wall-clock seconds.
    Wall,
}

impl TimingMode {
    /// Resolves the mode to a [`Timing`], building the CPU model
    /// configuration lazily (only the `Model` arm evaluates `model`).
    pub fn timing(self, model: impl FnOnce() -> CpuModelConfig) -> Timing {
        match self {
            TimingMode::Model => Timing::Modeled(model()),
            TimingMode::Wall => Timing::Wall,
        }
    }
}

/// Where a run's reported seconds come from.
#[derive(Clone, Debug)]
pub enum Timing {
    /// The host's wall clock (GPU runs always use the simulator clock).
    Wall,
    /// The analytical CPU model of the given machine.
    Modeled(CpuModelConfig),
}

/// The update-strategy axis of the cube.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Synchronous (full-batch) gradient descent.
    Sync,
    /// Asynchronous incremental SGD (Hogwild on CPU, warp-Hogwild on the
    /// GPU; one CPU thread is exactly sequential incremental SGD).
    Hogwild,
    /// Hogwild over replicated models (DimmWitted's replication axis);
    /// CPU wall-clock only.
    ReplicatedHogwild {
        /// Model-replication strategy.
        replication: Replication,
    },
    /// Asynchronous mini-batch SGD over a shared model; requires dense
    /// examples (the MLP path).
    Hogbatch {
        /// Rows per mini-batch (clamped to the dataset size).
        batch_size: usize,
    },
}

/// The sparsity axis: what representation the configuration expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sparsity {
    /// Accept whatever representation the batch carries.
    Auto,
    /// Require dense examples.
    Dense,
    /// Require CSR examples.
    Sparse,
}

/// One corner of the paper's 2×2×2 cube, ready to dispatch.
#[derive(Clone, Debug)]
pub struct Configuration {
    /// Architecture axis.
    pub device: DeviceKind,
    /// Update-strategy axis.
    pub strategy: Strategy,
    /// Sparsity axis (validated against the batch at dispatch).
    pub sparsity: Sparsity,
    /// Timing source for the reported seconds.
    pub timing: Timing,
    /// Knobs for the GPU asynchronous kernels (ignored on CPU devices).
    pub gpu_async: GpuAsyncOptions,
}

impl Configuration {
    /// A wall-clock configuration with automatic sparsity.
    pub fn new(device: DeviceKind, strategy: Strategy) -> Self {
        Configuration {
            device,
            strategy,
            sparsity: Sparsity::Auto,
            timing: Timing::Wall,
            gpu_async: GpuAsyncOptions::default(),
        }
    }

    /// Sets the timing source.
    pub fn with_timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the expected sparsity.
    pub fn with_sparsity(mut self, sparsity: Sparsity) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Sets the GPU asynchronous-kernel options.
    pub fn with_gpu_async(mut self, gpu_async: GpuAsyncOptions) -> Self {
        self.gpu_async = gpu_async;
        self
    }
}

/// Why a [`Configuration`] cannot run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Hogwild-family strategies update one example at a time and need the
    /// task's pointwise loss; the task does not expose one (MLPs).
    StrategyRequiresPointwiseLoss,
    /// The configuration's [`Sparsity`] does not match the batch.
    SparsityMismatch,
    /// The corner is outside the cube (e.g. modeled GPU timing).
    UnsupportedConfiguration {
        /// What made the configuration invalid.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::StrategyRequiresPointwiseLoss => {
                write!(f, "strategy requires a task with a pointwise loss (linear tasks only)")
            }
            EngineError::SparsityMismatch => {
                write!(f, "configured sparsity does not match the batch representation")
            }
            EngineError::UnsupportedConfiguration { detail } => {
                write!(f, "unsupported configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The dispatcher: routes a [`Configuration`] to the optimizer that
/// implements it.
pub struct Engine;

impl Engine {
    /// Runs the configuration, panicking on an invalid one (the bench
    /// harness treats an invalid corner as a programming error).
    pub fn run<T: Task>(
        cfg: &Configuration,
        task: &T,
        batch: &Batch<'_>,
        alpha: f64,
        opts: &RunOptions,
    ) -> RunReport {
        Self::try_run(cfg, task, batch, alpha, opts)
            // analyzer: allow(panic-freedom) -- documented panicking API; try_run is the Result form
            .unwrap_or_else(|e| panic!("invalid SGD configuration: {e}"))
    }

    /// Runs the configuration, reporting invalid corners as errors.
    pub fn try_run<T: Task>(
        cfg: &Configuration,
        task: &T,
        batch: &Batch<'_>,
        alpha: f64,
        opts: &RunOptions,
    ) -> Result<RunReport, EngineError> {
        Self::try_run_observed(cfg, task, batch, alpha, opts, &mut NullObserver)
    }

    /// Like [`Engine::run`], streaming per-epoch metrics to `obs`.
    pub fn run_observed<T: Task>(
        cfg: &Configuration,
        task: &T,
        batch: &Batch<'_>,
        alpha: f64,
        opts: &RunOptions,
        obs: &mut dyn EpochObserver,
    ) -> RunReport {
        Self::try_run_observed(cfg, task, batch, alpha, opts, obs)
            // analyzer: allow(panic-freedom) -- documented panicking API; try_run_observed is the Result form
            .unwrap_or_else(|e| panic!("invalid SGD configuration: {e}"))
    }

    /// Like [`Engine::try_run`], streaming per-epoch metrics to `obs`.
    pub fn try_run_observed<T: Task>(
        cfg: &Configuration,
        task: &T,
        batch: &Batch<'_>,
        alpha: f64,
        opts: &RunOptions,
        obs: &mut dyn EpochObserver,
    ) -> Result<RunReport, EngineError> {
        validate(cfg, task, batch)?;
        // The whole run executes under the configured kernel tier: seq
        // kernels read the ambient tier directly, and every pooled
        // dispatch installs it on the workers alongside the width.
        sgd_linalg::pool::with_tier(opts.tier, || dispatch(cfg, task, batch, alpha, opts, obs))
    }

    /// Grid-searches the step size for one configuration: runs every value
    /// in `grid` and keeps the report that reaches 1 % above `optimum`
    /// fastest (see [`crate::grid_search`]). Panics on an invalid
    /// configuration.
    pub fn grid_search<T: Task>(
        cfg: &Configuration,
        task: &T,
        batch: &Batch<'_>,
        optimum: f64,
        grid: &[f64],
        opts: &RunOptions,
    ) -> RunReport {
        crate::report::grid_search(optimum, grid, |alpha| {
            Engine::run(cfg, task, batch, alpha, opts)
        })
    }
}

fn validate<T: Task>(cfg: &Configuration, task: &T, batch: &Batch<'_>) -> Result<(), EngineError> {
    let dense = matches!(batch.x, Examples::Dense(_));
    match cfg.sparsity {
        Sparsity::Auto => {}
        Sparsity::Dense if dense => {}
        Sparsity::Sparse if !dense => {}
        _ => return Err(EngineError::SparsityMismatch),
    }

    if let Timing::Modeled(mc) = &cfg.timing {
        if cfg.device == DeviceKind::Gpu {
            return Err(EngineError::UnsupportedConfiguration {
                detail: "modeled timing covers CPU devices; GPU time is always simulated".into(),
            });
        }
        if mc.device() != cfg.device {
            return Err(EngineError::UnsupportedConfiguration {
                detail: format!(
                    "CPU model describes {} but the configuration names {}",
                    mc.device().label(),
                    cfg.device.label()
                ),
            });
        }
    }

    match &cfg.strategy {
        Strategy::Sync => {}
        Strategy::Hogwild => {
            if task.pointwise_loss().is_none() {
                return Err(EngineError::StrategyRequiresPointwiseLoss);
            }
        }
        Strategy::ReplicatedHogwild { .. } => {
            if task.pointwise_loss().is_none() {
                return Err(EngineError::StrategyRequiresPointwiseLoss);
            }
            if cfg.device == DeviceKind::Gpu {
                return Err(EngineError::UnsupportedConfiguration {
                    detail: "model replication is a NUMA CPU technique".into(),
                });
            }
            if matches!(cfg.timing, Timing::Modeled(_)) {
                return Err(EngineError::UnsupportedConfiguration {
                    detail: "replicated Hogwild has no modeled-time implementation".into(),
                });
            }
        }
        Strategy::Hogbatch { .. } => {
            if !dense {
                return Err(EngineError::UnsupportedConfiguration {
                    detail: "Hogbatch mini-batches require dense examples".into(),
                });
            }
            if batch.n() == 0 {
                return Err(EngineError::UnsupportedConfiguration {
                    detail: "Hogbatch needs at least one example".into(),
                });
            }
        }
    }
    Ok(())
}

fn dispatch<T: Task>(
    cfg: &Configuration,
    task: &T,
    batch: &Batch<'_>,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> Result<RunReport, EngineError> {
    // `validate` runs first, so the error arms below are unreachable in
    // practice — but they stay typed errors, not panics, so a future
    // validate/dispatch drift degrades to an Err instead of poisoning a
    // run mid-grid-search.
    let cpu_threads = |device: DeviceKind| match device {
        DeviceKind::CpuSeq => 1,
        _ => opts.threads.max(2),
    };
    let report = match &cfg.strategy {
        Strategy::Sync => match &cfg.timing {
            Timing::Wall => sync_observed(task, batch, cfg.device, alpha, opts, obs),
            Timing::Modeled(mc) => sync_modeled_observed(task, batch, mc, alpha, opts, obs),
        },
        Strategy::Hogwild => {
            let Some(loss) = task.pointwise_loss() else {
                return Err(EngineError::StrategyRequiresPointwiseLoss);
            };
            match (&cfg.timing, cfg.device) {
                (Timing::Wall, DeviceKind::Gpu) => {
                    gpu_hogwild_observed(task, loss, batch, alpha, opts, &cfg.gpu_async, obs)
                }
                (Timing::Wall, dev) => {
                    replicated_observed(task, loss, batch, cpu_threads(dev), alpha, None, opts, obs)
                }
                (Timing::Modeled(mc), _) => {
                    hogwild_modeled_observed(task, loss, batch, mc, alpha, opts, obs)
                }
            }
        }
        Strategy::ReplicatedHogwild { replication } => {
            let Some(loss) = task.pointwise_loss() else {
                return Err(EngineError::StrategyRequiresPointwiseLoss);
            };
            replicated_observed(
                task,
                loss,
                batch,
                cpu_threads(cfg.device),
                alpha,
                Some(*replication),
                opts,
                obs,
            )
        }
        Strategy::Hogbatch { batch_size } => {
            let Examples::Dense(x) = batch.x else {
                return Err(EngineError::UnsupportedConfiguration {
                    detail: "Hogbatch mini-batches require dense examples".into(),
                });
            };
            let size = (*batch_size).min(batch.n()).max(1);
            let owned = make_batches(x, batch.y, size);
            let batches: Vec<Batch<'_>> =
                owned.iter().map(|(m, l)| Batch::new(Examples::Dense(m), l)).collect();
            match (&cfg.timing, cfg.device) {
                (Timing::Wall, DeviceKind::Gpu) => {
                    gpu_hogbatch_observed(task, batch, &batches, alpha, opts, &cfg.gpu_async, obs)
                }
                (Timing::Wall, dev) => {
                    hogbatch_observed(task, batch, &batches, cpu_threads(dev), alpha, opts, obs)
                }
                (Timing::Modeled(mc), _) => {
                    hogbatch_modeled_observed(task, batch, &batches, mc, alpha, opts, obs)
                }
            }
        }
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EpochMetrics;
    use sgd_linalg::{CsrMatrix, Matrix, Scalar};
    use sgd_models::{lr, MlpTask};

    fn dense() -> (Matrix, Vec<Scalar>) {
        let x = Matrix::from_fn(64, 6, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 3 + j) % 5) as Scalar + 1.0) / 5.0
        });
        let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    fn sparse() -> (CsrMatrix, Vec<Scalar>) {
        let entries: Vec<Vec<(u32, Scalar)>> =
            (0..64).map(|i| vec![((i % 16) as u32, if i % 2 == 0 { 1.0 } else { -1.0 })]).collect();
        let y = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (CsrMatrix::from_row_entries(64, 16, &entries), y)
    }

    #[test]
    fn timing_mode_resolves_lazily() {
        let t = TimingMode::Wall.timing(|| unreachable!("Wall must not build a model"));
        assert!(matches!(t, Timing::Wall));
        let t = TimingMode::Model.timing(|| CpuModelConfig::paper_machine(4));
        assert!(matches!(t, Timing::Modeled(mc) if mc.threads == 4));
    }

    #[test]
    fn modeled_gpu_is_rejected() {
        let (x, y) = dense();
        let b = Batch::new(Examples::Dense(&x), &y);
        let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Sync)
            .with_timing(Timing::Modeled(CpuModelConfig::paper_machine(4)));
        let err = Engine::try_run(&cfg, &lr(6), &b, 0.1, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedConfiguration { .. }), "{err}");
    }

    #[test]
    fn model_thread_count_must_match_device() {
        let (x, y) = dense();
        let b = Batch::new(Examples::Dense(&x), &y);
        // A 4-thread model is CpuPar; naming CpuSeq is a contradiction.
        let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Sync)
            .with_timing(Timing::Modeled(CpuModelConfig::paper_machine(4)));
        let err = Engine::try_run(&cfg, &lr(6), &b, 0.1, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedConfiguration { .. }));
    }

    #[test]
    fn hogwild_needs_a_pointwise_loss() {
        let (x, y) = dense();
        let b = Batch::new(Examples::Dense(&x), &y);
        let mlp = MlpTask::new(vec![6, 4, 2], 1);
        let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogwild);
        let err = Engine::try_run(&cfg, &mlp, &b, 0.1, &RunOptions::default()).unwrap_err();
        assert_eq!(err, EngineError::StrategyRequiresPointwiseLoss);
    }

    #[test]
    fn sparsity_contract_is_enforced() {
        let (x, y) = dense();
        let b = Batch::new(Examples::Dense(&x), &y);
        let cfg =
            Configuration::new(DeviceKind::CpuSeq, Strategy::Sync).with_sparsity(Sparsity::Sparse);
        let err = Engine::try_run(&cfg, &lr(6), &b, 0.1, &RunOptions::default()).unwrap_err();
        assert_eq!(err, EngineError::SparsityMismatch);
        let ok =
            Configuration::new(DeviceKind::CpuSeq, Strategy::Sync).with_sparsity(Sparsity::Dense);
        assert!(Engine::try_run(&ok, &lr(6), &b, 0.1, &RunOptions::default()).is_ok());
    }

    #[test]
    fn hogbatch_rejects_sparse_examples() {
        let (xs, y) = sparse();
        let b = Batch::new(Examples::Sparse(&xs), &y);
        let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogbatch { batch_size: 8 });
        let err = Engine::try_run(&cfg, &lr(16), &b, 0.1, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedConfiguration { .. }));
    }

    #[test]
    fn replication_is_cpu_wall_only() {
        let (xs, y) = sparse();
        let b = Batch::new(Examples::Sparse(&xs), &y);
        let strat = || Strategy::ReplicatedHogwild { replication: Replication::PerCore };
        let gpu = Configuration::new(DeviceKind::Gpu, strat());
        assert!(Engine::try_run(&gpu, &lr(16), &b, 0.1, &RunOptions::default()).is_err());
        let modeled = Configuration::new(DeviceKind::CpuPar, strat())
            .with_timing(Timing::Modeled(CpuModelConfig::paper_machine(4)));
        assert!(Engine::try_run(&modeled, &lr(16), &b, 0.1, &RunOptions::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid SGD configuration")]
    fn run_panics_on_invalid_corner() {
        let (x, y) = dense();
        let b = Batch::new(Examples::Dense(&x), &y);
        let mlp = MlpTask::new(vec![6, 4, 2], 1);
        let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogwild);
        let _ = Engine::run(&cfg, &mlp, &b, 0.1, &RunOptions::default());
    }

    #[test]
    fn observer_sees_every_epoch() {
        struct Count(Vec<usize>);
        impl crate::metrics::EpochObserver for Count {
            fn on_epoch(&mut self, m: &EpochMetrics) {
                self.0.push(m.epoch);
            }
        }
        let (xs, y) = sparse();
        let b = Batch::new(Examples::Sparse(&xs), &y);
        let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogwild);
        let opts = RunOptions { max_epochs: 4, ..Default::default() };
        let mut obs = Count(Vec::new());
        let rep = Engine::run_observed(&cfg, &lr(16), &b, 0.3, &opts, &mut obs);
        assert_eq!(obs.0.len(), rep.trace.epochs());
        assert_eq!(obs.0, (1..=rep.trace.epochs()).collect::<Vec<_>>());
    }

    #[test]
    fn grid_search_accepts_a_configuration() {
        let (xs, y) = sparse();
        let b = Batch::new(Examples::Sparse(&xs), &y);
        let cfg = Configuration::new(DeviceKind::CpuSeq, Strategy::Hogwild);
        let opts = RunOptions { max_epochs: 10, ..Default::default() };
        let rep = Engine::grid_search(&cfg, &lr(16), &b, 0.0, &[0.1, 0.5], &opts);
        assert!(rep.step_size == 0.1 || rep.step_size == 0.5);
        assert!(rep.best_loss().is_finite());
    }

    #[test]
    fn workers_inherit_the_runner_width() {
        use std::sync::Mutex;
        let widths = Mutex::new(Vec::new());
        sgd_linalg::pool::with_threads(2, || {
            sgd_linalg::pool::run(3, |_| {
                widths.lock().unwrap().push(sgd_linalg::pool::current_num_threads());
            });
        });
        let widths = widths.into_inner().unwrap();
        assert_eq!(widths.len(), 3);
        assert!(widths.iter().all(|&w| w == 2), "{widths:?}");
    }

    #[test]
    fn engine_runs_never_execute_kernels_beyond_the_requested_width() {
        use sgd_linalg::MIN_PARALLEL_LEN;

        // Enough rows that the eval/gradient kernels actually cross the
        // parallel threshold: an un-inherited width would show up as a
        // machine-width submission.
        let n = MIN_PARALLEL_LEN + 101;
        let x = Matrix::from_fn(n, 4, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (((i * 7 + j * 3) % 5 + 1) as Scalar) / 5.0
        });
        let y: Vec<Scalar> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 2, threads: 2, ..Default::default() };

        let stats = sgd_linalg::pool::PoolStats::new();
        sgd_linalg::pool::with_stats(&stats, || {
            for strategy in [Strategy::Sync, Strategy::Hogwild] {
                let cfg = Configuration::new(DeviceKind::CpuPar, strategy);
                let rep = Engine::run(&cfg, &task, &b, 0.5, &opts);
                assert!(rep.best_loss().is_finite());
            }
        });
        assert!(stats.submissions() > 0, "large kernels must dispatch to the pool");
        assert!(
            stats.max_width() <= 2,
            "kernel ran at width {} under threads = 2 (ambient width leak)",
            stats.max_width()
        );
    }

    #[test]
    fn gpu_hogbatch_corner_dispatches() {
        let (x, y) = dense();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = MlpTask::new(vec![6, 4, 2], 1);
        let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogbatch { batch_size: 16 });
        let opts = RunOptions { max_epochs: 2, ..Default::default() };
        let rep = Engine::run(&cfg, &task, &b, 0.5, &opts);
        assert_eq!(rep.device, DeviceKind::Gpu);
        assert_eq!(rep.update_conflicts(), Some(0));
        assert!(rep.metrics.total_simulated_cycles().unwrap_or(0.0) > 0.0);
    }
}
