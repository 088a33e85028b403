//! Run configuration shared by all optimizers.

/// The computing-architecture axis of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// Single CPU thread.
    CpuSeq,
    /// Rayon-parallel CPU with the configured thread count.
    CpuPar,
    /// The simulated GPU.
    Gpu,
}

impl DeviceKind {
    /// Short label used in reports (`gpu`, `cpu-seq`, `cpu-par`).
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::CpuSeq => "cpu-seq",
            DeviceKind::CpuPar => "cpu-par",
            DeviceKind::Gpu => "gpu",
        }
    }
}

/// Options shared by every optimizer run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Hard cap on epochs.
    pub max_epochs: usize,
    /// Hard cap on (wall-clock or simulated) optimization seconds; a run
    /// that exceeds it without reaching the 1 % threshold reports `∞`,
    /// like the paper's Table III.
    pub max_secs: f64,
    /// Stop early once the loss is within 1 % of `target_loss` (set from
    /// the reference optimum); `None` disables early stopping.
    pub target_loss: Option<f64>,
    /// CPU threads for the parallel configurations.
    pub threads: usize,
    /// RNG seed (example shuffling).
    pub seed: u64,
    /// GPU to simulate; `None` = a full Tesla K80. The reproduction
    /// harness passes a spec with launch overheads scaled to the dataset
    /// scale.
    pub gpu_spec: Option<sgd_gpusim::DeviceSpec>,
    /// Stop a run whose loss improved by less than `rel_tol` over the last
    /// `window` epochs (`(window, rel_tol)`); `None` disables. A plateaued
    /// run that had a convergence target counts as not converged (∞).
    pub plateau: Option<(usize, f64)>,
    /// Deterministic fault schedule injected by every runner; the default
    /// (empty) plan leaves all code paths bit-identical to a fault-free
    /// run.
    pub faults: crate::faults::FaultPlan,
    /// Kernel tier the run's linalg primitives dispatch to (the PR-9 SIMD
    /// axis, now selectable per training run): the engine installs it as
    /// the ambient tier around the whole dispatch, and backend dispatches
    /// propagate it to pool workers. The default `Scalar` keeps every
    /// existing trajectory bit-identical.
    pub tier: sgd_linalg::KernelTier,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_epochs: 200,
            max_secs: 30.0,
            target_loss: None,
            threads: num_threads(),
            seed: 42,
            gpu_spec: None,
            plateau: Some((50, 1e-4)),
            faults: crate::faults::FaultPlan::default(),
            tier: sgd_linalg::KernelTier::Scalar,
        }
    }
}

impl RunOptions {
    /// The loss value at which a run may stop early (1 % above target).
    pub fn stop_loss(&self) -> Option<f64> {
        self.target_loss.map(crate::convergence::threshold_loss_1pct)
    }

    /// `true` when the trace satisfies the configured plateau criterion.
    pub fn plateaued(&self, trace: &crate::convergence::LossTrace) -> bool {
        self.plateau.is_some_and(|(w, tol)| trace.plateaued(w, tol))
    }

    /// The GPU to simulate (one construction path: the backend session).
    pub fn gpu_device(&self) -> sgd_gpusim::GpuDevice {
        crate::backend::BackendSession::with_gpu_spec(self.gpu_spec.clone()).into_gpu_device()
    }
}

/// Default degree of parallelism: all logical CPUs.
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(DeviceKind::Gpu.label(), "gpu");
        assert_eq!(DeviceKind::CpuSeq.label(), "cpu-seq");
        assert_eq!(DeviceKind::CpuPar.label(), "cpu-par");
    }

    #[test]
    fn defaults_are_sane() {
        let o = RunOptions::default();
        assert!(o.max_epochs > 0);
        assert!(o.threads >= 1);
        assert_eq!(o.stop_loss(), None);
    }

    #[test]
    fn stop_loss_is_one_percent_above_target() {
        let o = RunOptions { target_loss: Some(2.0), ..Default::default() };
        assert!((o.stop_loss().expect("target set") - 2.02).abs() < 1e-12);
    }
}
