//! BIDMach-like synchronous GLM training (the paper's Fig. 8 comparator).
//!
//! BIDMach's kernels are optimized for dense data; on sparse inputs its
//! GPU path does not use the coalescing-friendly warp-per-row CSR layout.
//! We reproduce that by running the sparse matrix-vector products through
//! the naive thread-per-row kernel on the GPU, which pays warp divergence
//! and non-coalesced value/index loads on skewed sparse data — exactly why
//! the paper's own implementation achieves an equal or better GPU speedup
//! (Fig. 8). Dense data behaves identically to ours.

use std::time::Instant;

use sgd_core::{
    Configuration, DeviceKind, EpochMetrics, LossTrace, RunMetrics, RunOptions, RunOutcome,
    RunReport, Strategy, Timing,
};
use sgd_gpusim::kernels::GpuExec;
use sgd_linalg::CpuExec;
use sgd_models::{Batch, LinearLoss, LinearTask, Task};

/// Runs the BIDMach comparator for one engine [`Configuration`] corner.
///
/// BIDMach's driver in the paper's experiments runs synchronous
/// (full-batch) GD only, so the configuration's strategy must be
/// [`Strategy::Sync`]; the timing source and device follow the
/// configuration like [`sgd_core::Engine::run`].
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
    match &cfg.timing {
        Timing::Wall => sync_wall(task, batch, cfg.device, alpha, opts),
        Timing::Modeled(mc) => {
            assert_ne!(cfg.device, DeviceKind::Gpu, "modeled timing covers CPU devices");
            sync_modeled(task, batch, mc, alpha, opts)
        }
    }
}

/// Runs BIDMach-style synchronous (full-batch) GD for a linear task.
fn sync_wall<L: LinearLoss>(
    task: &LinearTask<L>,
    batch: &Batch<'_>,
    device: DeviceKind,
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    let label = format!("BIDMach {} sync {}", task.name(), device.label());
    match device {
        DeviceKind::CpuSeq => cpu_loop(task, batch, CpuExec::seq(), device, alpha, opts, label),
        DeviceKind::CpuPar => sgd_linalg::pool::with_threads(opts.threads, || {
            cpu_loop(task, batch, CpuExec::par(), device, alpha, opts, label)
        }),
        DeviceKind::Gpu => gpu_loop(task, batch, alpha, opts, label),
    }
}

#[allow(clippy::too_many_arguments)]
fn cpu_loop<L: LinearLoss>(
    task: &LinearTask<L>,
    batch: &Batch<'_>,
    mut e: CpuExec,
    device: DeviceKind,
    alpha: f64,
    opts: &RunOptions,
    label: String,
) -> RunReport {
    let mut w = task.init_model();
    let mut g = vec![0.0; task.dim()];
    let mut trace = LossTrace::new();
    trace.push(0.0, task.loss(&mut e, batch, &w));
    let stop = opts.stop_loss();
    let mut opt_seconds = 0.0;
    let mut timed_out = stop.is_some();
    let mut diverged_at = None;
    let mut metrics = RunMetrics::default();
    for epoch in 0..opts.max_epochs {
        let t0 = Instant::now();
        task.gradient(&mut e, batch, &w, &mut g);
        sgd_linalg::Exec::axpy(&mut e, -alpha, &g, &mut w);
        opt_seconds += t0.elapsed().as_secs_f64();
        let loss = task.loss(&mut e, batch, &w);
        trace.push(opt_seconds, loss);
        metrics.epochs.push(EpochMetrics::new(epoch + 1, opt_seconds, loss));
        if !loss.is_finite() {
            diverged_at = Some(epoch + 1);
            break;
        }
        if stop.is_some_and(|s| loss <= s) {
            timed_out = false;
            break;
        }
        if opt_seconds > opts.max_secs {
            break;
        }
    }
    let outcome = RunOutcome::classify(diverged_at, stop.is_some() && !timed_out);
    RunReport {
        label,
        device,
        step_size: alpha,
        trace,
        opt_seconds,
        timed_out,
        metrics,
        outcome,
        best_model: None,
    }
}

fn gpu_loop<L: LinearLoss>(
    task: &LinearTask<L>,
    batch: &Batch<'_>,
    alpha: f64,
    opts: &RunOptions,
    label: String,
) -> RunReport {
    let mut dev = opts.gpu_device();
    let mut eval = CpuExec::seq();
    let mut w = task.init_model();
    let mut g = vec![0.0; task.dim()];
    let mut trace = LossTrace::new();
    trace.push(0.0, task.loss(&mut eval, batch, &w));
    let stop = opts.stop_loss();
    let mut warm_cost = 0.0;
    let mut timed_out = stop.is_some();
    let mut diverged_at = None;
    let mut metrics = RunMetrics::default();
    for epoch in 0..opts.max_epochs {
        let cycles0 = dev.elapsed_cycles();
        if epoch < 2 {
            let t0 = dev.elapsed_secs();
            // Dense-optimized kernels: sparse ops take the naive
            // thread-per-row layout.
            let mut e = GpuExec { dev: &mut dev, thread_per_row: true };
            task.gradient(&mut e, batch, &w, &mut g);
            sgd_linalg::Exec::axpy(&mut e, -alpha, &g, &mut w);
            warm_cost = dev.elapsed_secs() - t0;
        } else {
            task.gradient(&mut eval, batch, &w, &mut g);
            sgd_linalg::Exec::axpy(&mut eval, -alpha, &g, &mut w);
            dev.advance_secs(warm_cost);
        }
        let loss = task.loss(&mut eval, batch, &w);
        trace.push(dev.elapsed_secs(), loss);
        metrics.epochs.push(EpochMetrics {
            simulated_cycles: dev.elapsed_cycles() - cycles0,
            ..EpochMetrics::new(epoch + 1, dev.elapsed_secs(), loss)
        });
        if !loss.is_finite() {
            diverged_at = Some(epoch + 1);
            break;
        }
        if stop.is_some_and(|s| loss <= s) {
            timed_out = false;
            break;
        }
        if dev.elapsed_secs() > opts.max_secs {
            break;
        }
    }
    let outcome = RunOutcome::classify(diverged_at, stop.is_some() && !timed_out);
    RunReport {
        label,
        device: DeviceKind::Gpu,
        step_size: alpha,
        trace,
        opt_seconds: dev.elapsed_secs(),
        timed_out,
        metrics,
        outcome,
        best_model: None,
    }
}

/// BIDMach-style synchronous GD with *modeled* CPU time (the paper's
/// machine; same primitive parallelization rules as our implementation).
fn sync_modeled<L: LinearLoss>(
    task: &LinearTask<L>,
    batch: &Batch<'_>,
    mc: &sgd_core::CpuModelConfig,
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    let mut e = sgd_cpusim::CpuModelExec::new(mc.spec.clone(), mc.threads);
    e.gemm_parallel_threshold = mc.gemm_parallel_threshold;
    let mut eval = CpuExec::seq();
    let mut w = task.init_model();
    let mut g = vec![0.0; task.dim()];
    let mut trace = LossTrace::new();
    trace.push(0.0, task.loss(&mut eval, batch, &w));
    let stop = opts.stop_loss();
    let mut timed_out = stop.is_some();
    let mut diverged_at = None;
    let mut metrics = RunMetrics::default();
    for epoch in 0..opts.max_epochs {
        task.gradient(&mut e, batch, &w, &mut g);
        sgd_linalg::Exec::axpy(&mut e, -alpha, &g, &mut w);
        let loss = task.loss(&mut eval, batch, &w);
        trace.push(e.elapsed_secs(), loss);
        metrics.epochs.push(EpochMetrics::new(epoch + 1, e.elapsed_secs(), loss));
        if !loss.is_finite() {
            diverged_at = Some(epoch + 1);
            break;
        }
        if stop.is_some_and(|s| loss <= s) {
            timed_out = false;
            break;
        }
        if e.elapsed_secs() > opts.max_secs {
            break;
        }
    }
    let outcome = RunOutcome::classify(diverged_at, stop.is_some() && !timed_out);
    RunReport {
        label: format!("BIDMach {} sync {} (modeled)", task.name(), mc.device().label()),
        device: mc.device(),
        step_size: alpha,
        trace,
        opt_seconds: e.elapsed_secs(),
        timed_out,
        metrics,
        outcome,
        best_model: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgd_core::Engine;
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
