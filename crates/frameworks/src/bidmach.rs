//! BIDMach-like synchronous GLM training (the paper's Fig. 8 comparator).
//!
//! BIDMach's kernels are optimized for dense data; on sparse inputs its
//! GPU path does not use the coalescing-friendly warp-per-row CSR layout.
//! We reproduce that by running the sparse matrix-vector products through
//! the naive thread-per-row kernel on the GPU, which pays warp divergence
//! and non-coalesced value/index loads on skewed sparse data — exactly why
//! the paper's own implementation achieves an equal or better GPU speedup
//! (Fig. 8). Dense data behaves identically to ours.

use sgd_core::{Configuration, RunOptions, RunReport, Strategy};
use sgd_linalg::{Exec, Scalar};
use sgd_models::{Batch, LinearLoss, LinearTask, Task};

use crate::step::{self, SyncUpdate};

/// Runs the BIDMach comparator for one engine [`Configuration`] corner.
///
/// BIDMach's driver in the paper's experiments runs synchronous
/// (full-batch) GD only, so the configuration's strategy must be
/// [`Strategy::Sync`]; the timing source and device follow the
/// configuration like [`sgd_core::Engine::run`]. It runs on the engine's
/// epoch loop: the same sentinel, plateau stop and best model. It ignores
/// `opts.faults`.
pub fn run_bidmach<L: LinearLoss>(
    cfg: &Configuration,
    task: &LinearTask<L>,
    batch: &Batch<'_>,
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    assert!(
        matches!(cfg.strategy, Strategy::Sync),
        "the BIDMach comparator implements synchronous GD only"
    );
    let update = Gd { task, batch, w: task.init_model(), g: vec![0.0; task.dim()] };
    step::run(cfg, &format!("BIDMach {}", task.name()), update, alpha, opts)
}

/// Gradient descent on a linear task with BIDMach's kernels.
struct Gd<'a, L: LinearLoss> {
    task: &'a LinearTask<L>,
    batch: &'a Batch<'a>,
    w: Vec<Scalar>,
    g: Vec<Scalar>,
}

impl<L: LinearLoss> SyncUpdate for Gd<'_, L> {
    // Dense-optimized kernels: sparse ops take the naive thread-per-row
    // layout.
    const THREAD_PER_ROW: bool = true;
    const LAUNCH_SECS: f64 = 0.0;
    const PARALLEL_EVERY_GEMM: bool = false;

    fn update<E: Exec>(&mut self, e: &mut E, alpha: f64) {
        self.task.gradient(e, self.batch, &self.w, &mut self.g);
        e.axpy(-alpha, &self.g, &mut self.w);
    }

    fn loss<E: Exec>(&self, e: &mut E) -> f64 {
        self.task.loss(e, self.batch, &self.w)
    }

    fn model(&self) -> &[Scalar] {
        &self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgd_core::{DeviceKind, Engine};
    use sgd_datagen::{generate, DatasetProfile, GenOptions};
    use sgd_models::{lr, Examples};

    fn corner(device: DeviceKind) -> Configuration {
        Configuration::new(device, Strategy::Sync)
    }

    #[test]
    fn bidmach_statistics_match_ours() {
        // Same synchronous math: only the GPU kernel layout differs, so
        // the loss trajectory equals our implementation's.
        let ds = generate(&DatasetProfile::w8a().scaled(0.005), &GenOptions::default());
        let task = lr(ds.d());
        let b = Batch::new(Examples::Sparse(&ds.x), &ds.y);
        let opts = RunOptions { max_epochs: 6, ..Default::default() };
        let bid = run_bidmach(&corner(DeviceKind::Gpu), &task, &b, 1.0, &opts);
        let ours = Engine::run(&corner(DeviceKind::Gpu), &task, &b, 1.0, &opts);
        for (p, q) in bid.trace.points().iter().zip(ours.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-12);
        }
    }

    #[test]
    fn bidmach_gpu_is_slower_than_ours_on_skewed_sparse_data() {
        // The Fig. 8 mechanism: thread-per-row pays divergence on skewed
        // nnz distributions, so BIDMach's simulated GPU epoch costs more.
        let ds = generate(&DatasetProfile::real_sim().scaled(0.002), &GenOptions::default());
        let task = lr(ds.d());
        let b = Batch::new(Examples::Sparse(&ds.x), &ds.y);
        let opts = RunOptions { max_epochs: 4, ..Default::default() };
        let bid = run_bidmach(&corner(DeviceKind::Gpu), &task, &b, 1.0, &opts);
        let ours = Engine::run(&corner(DeviceKind::Gpu), &task, &b, 1.0, &opts);
        assert!(
            bid.time_per_epoch() > ours.time_per_epoch(),
            "bidmach {} vs ours {}",
            bid.time_per_epoch(),
            ours.time_per_epoch()
        );
    }

    #[test]
    fn cpu_paths_run() {
        let ds = generate(&DatasetProfile::w8a().scaled(0.003), &GenOptions::default());
        let task = lr(ds.d());
        let b = Batch::new(Examples::Sparse(&ds.x), &ds.y);
        let opts = RunOptions { max_epochs: 3, threads: 2, ..Default::default() };
        let seq = run_bidmach(&corner(DeviceKind::CpuSeq), &task, &b, 1.0, &opts);
        let par = run_bidmach(&corner(DeviceKind::CpuPar), &task, &b, 1.0, &opts);
        assert_eq!(seq.trace.points().len(), par.trace.points().len());
        for (p, q) in seq.trace.points().iter().zip(par.trace.points()) {
            assert!((p.1 - q.1).abs() < 1e-9);
        }
        assert_eq!(seq.metrics.epochs.len(), seq.trace.epochs());
    }

    #[test]
    #[should_panic(expected = "synchronous GD only")]
    fn asynchronous_corners_are_rejected() {
        let ds = generate(&DatasetProfile::w8a().scaled(0.003), &GenOptions::default());
        let task = lr(ds.d());
        let b = Batch::new(Examples::Sparse(&ds.x), &ds.y);
        let cfg = Configuration::new(DeviceKind::Gpu, Strategy::Hogwild);
        let _ = run_bidmach(&cfg, &task, &b, 1.0, &RunOptions::default());
    }
}
