//! Synchronous SGD (full-batch gradient descent per epoch).
//!
//! The paper's synchronous configuration: the optimization epoch is a
//! sequence of blocking linear-algebra primitives (Algorithm 2), so the
//! model is updated once per pass and statistical efficiency is identical
//! across devices — only hardware efficiency differs. The identical task
//! code runs on all three devices through the `Exec` abstraction.

use sgd_gpusim::kernels::GpuExec;
use sgd_linalg::{CpuExec, Exec};
use sgd_models::{Batch, Task};

use crate::backend::{BackendSession, ComputeBackend, ExecTask};
use crate::config::{DeviceKind, RunOptions};
use crate::convergence::LossTrace;
use crate::faults::{sync_epoch_faults, FaultCounters, FaultPlan, SyncFaultDecision};
use crate::metrics::{EpochMetrics, EpochObserver, GpuEpochProbe, Recorder};
use crate::report::RunReport;
use crate::supervisor::Supervisor;

/// Runs synchronous (batch) gradient descent for `task` over `batch` on
/// the given device with step size `alpha`.
///
/// GPU time is simulated kernel time; because the synchronous access
/// pattern is identical every epoch, the GPU run traces the first two
/// epochs (cold and warm cache) and replays the warm epoch cost for the
/// remainder while still computing functionally exact updates.
pub(crate) fn sync_observed<T: Task>(
    task: &T,
    batch: &Batch<'_>,
    device: DeviceKind,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    match ComputeBackend::from_device(device, opts.threads) {
        ComputeBackend::GpuSim => gpu_run(task, batch, alpha, opts, obs),
        // Both CPU corners collapse into one arm: the backend owns the
        // seq-vs-pooled-par distinction (including installing the kernel
        // width on the persistent pool around every dispatch, so kernels
        // running on pool workers honor `opts.threads`).
        backend => cpu_run(task, batch, backend, alpha, opts, obs),
    }
}

fn label<T: Task>(task: &T, device: DeviceKind) -> String {
    format!("{} sync {}", task.name(), device.label())
}

/// Full-batch loss evaluation as a backend job: the loss is read off the
/// forward pass in `fwd`, which `forward_of` first computes when it is
/// given (the initial model, before any epoch job has left its pass
/// there).
struct LossJob<'a, T: Task> {
    task: &'a T,
    batch: &'a Batch<'a>,
    forward_of: Option<&'a [f64]>,
    fwd: &'a mut T::Forward,
}

impl<T: Task> ExecTask for LossJob<'_, T> {
    type Out = f64;
    fn run<E: Exec>(&mut self, e: &mut E) -> f64 {
        if let Some(w) = self.forward_of {
            self.task.forward(e, self.batch, w, self.fwd);
        }
        self.task.loss_from(e, self.batch, self.fwd)
    }
}

/// One synchronous epoch as a backend job: the gradient read off the
/// forward pass the previous job left in `fwd`, the fault-adjusted
/// update, and the forward pass of the updated model, which both the
/// epoch's loss and the next epoch's gradient read. The kernel stream is
/// identical on every backend, which is what makes the loss trajectory
/// device-independent.
struct SyncEpochJob<'a, T: Task> {
    task: &'a T,
    batch: &'a Batch<'a>,
    alpha: f64,
    epoch: usize,
    faults: Option<&'a FaultPlan>,
    w: &'a mut Vec<f64>,
    g: &'a mut Vec<f64>,
    prev_g: &'a mut Vec<f64>,
    fwd: &'a mut T::Forward,
    fc: &'a mut FaultCounters,
}

impl<T: Task> ExecTask for SyncEpochJob<'_, T> {
    type Out = ();
    fn run<E: Exec>(&mut self, e: &mut E) {
        self.task.gradient_from(e, self.batch, self.w, self.fwd, self.g);
        let d = match self.faults {
            Some(plan) => sync_epoch_faults(plan, self.epoch, self.fc),
            None => SyncFaultDecision::none(),
        };
        if !d.dropped {
            let step = if d.stale { &*self.prev_g } else { &*self.g };
            e.axpy(-self.alpha * d.alpha_factor, step, self.w);
        }
        if !d.stale {
            std::mem::swap(self.g, self.prev_g);
        }
        self.task.forward(e, self.batch, self.w, self.fwd);
    }
}

fn cpu_run<T: Task>(
    task: &T,
    batch: &Batch<'_>,
    backend: ComputeBackend,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let device = backend.device_kind();
    let mut sess = BackendSession::new();
    let mut w = task.init_model();
    let mut g = vec![0.0; task.dim()];
    // Last applied gradient, kept for stale-gradient-replay faults.
    let mut prev_g = vec![0.0; task.dim()];
    // The forward pass of the current model, reused across epochs.
    let mut fwd = T::Forward::default();
    let mut trace = LossTrace::new();
    let mut initial = LossJob { task, batch, forward_of: Some(&w), fwd: &mut fwd };
    let initial_loss = backend.dispatch(&mut sess, &mut initial).out;
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let workers = opts.threads.max(1);
    let mut opt_seconds = 0.0;
    for epoch in 0..opts.max_epochs {
        if let Some(plan) = faults {
            if plan.barrier_stalled(workers, epoch) {
                // A dead worker never reaches the barrier: the epoch can
                // never complete.
                sup.abort(epoch + 1);
                break;
            }
        }
        let mut fc = FaultCounters::default();
        let mut job = SyncEpochJob {
            task,
            batch,
            alpha,
            epoch,
            faults,
            w: &mut w,
            g: &mut g,
            prev_g: &mut prev_g,
            fwd: &mut fwd,
            fc: &mut fc,
        };
        let mut epoch_secs = backend.dispatch(&mut sess, &mut job).wall_secs;
        if let Some(plan) = faults {
            // The barrier waits for the slowest straggler.
            let dil = plan.sync_dilation(workers);
            fc.straggler_delay_secs = epoch_secs * (dil - 1.0);
            epoch_secs *= dil;
        }
        opt_seconds += epoch_secs;
        // Loss evaluation is excluded from timing; it reads the forward
        // pass the epoch job ended with.
        let mut read = LossJob { task, batch, forward_of: None, fwd: &mut fwd };
        let loss = backend.dispatch(&mut sess, &mut read).out;
        trace.push(opt_seconds, loss);
        rec.record(EpochMetrics { faults: fc, ..EpochMetrics::new(epoch + 1, opt_seconds, loss) });
        if sup.observe(epoch + 1, opt_seconds, loss, &w, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    RunReport {
        label: label(task, device),
        device,
        step_size: alpha,
        trace,
        opt_seconds,
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

fn gpu_run<T: Task>(
    task: &T,
    batch: &Batch<'_>,
    alpha: f64,
    opts: &RunOptions,
    obs: &mut dyn EpochObserver,
) -> RunReport {
    let mut dev = opts.gpu_device();
    let mut eval = CpuExec::seq();
    let mut w = task.init_model();
    let mut g = vec![0.0; task.dim()];
    // Last applied gradient, kept for stale-gradient-replay faults.
    let mut prev_g = vec![0.0; task.dim()];
    let mut trace = LossTrace::new();
    let initial_loss = task.loss(&mut eval, batch, &w);
    trace.push(0.0, initial_loss);
    let mut rec = Recorder::new(obs);
    let mut probe = GpuEpochProbe::new();
    let mut sup = Supervisor::new(opts, initial_loss);
    let faults = opts.faults.active();
    let workers = opts.threads.max(1);
    let mut warm_epoch_cost = 0.0;
    for epoch in 0..opts.max_epochs {
        if let Some(plan) = faults {
            if plan.barrier_stalled(workers, epoch) {
                sup.abort(epoch + 1);
                break;
            }
        }
        let mut fc = FaultCounters::default();
        let d = match faults {
            Some(plan) => sync_epoch_faults(plan, epoch, &mut fc),
            None => SyncFaultDecision::none(),
        };
        probe.begin(&dev);
        let epoch_start = dev.elapsed_secs();
        if epoch < 2 {
            // Trace the real kernel stream (epoch 0 cold, epoch 1 warm L2).
            let t0 = dev.elapsed_secs();
            let mut e = GpuExec::new(&mut dev);
            task.gradient(&mut e, batch, &w, &mut g);
            if !d.dropped {
                let step = if d.stale { &prev_g } else { &g };
                e.axpy(-alpha * d.alpha_factor, step, &mut w);
            }
            warm_epoch_cost = dev.elapsed_secs() - t0;
        } else {
            // Identical access pattern: replay the warm-epoch cost while
            // computing the numerically identical update on the host.
            task.gradient(&mut eval, batch, &w, &mut g);
            if !d.dropped {
                let step = if d.stale { &prev_g } else { &g };
                eval.axpy(-alpha * d.alpha_factor, step, &mut w);
            }
            dev.advance_secs(warm_epoch_cost);
        }
        if !d.stale {
            std::mem::swap(&mut g, &mut prev_g);
        }
        if let Some(plan) = faults {
            // The device stream stalls until the slowest participant of
            // the synchronous step has finished.
            let dil = plan.sync_dilation(workers);
            fc.straggler_delay_secs = (dev.elapsed_secs() - epoch_start) * (dil - 1.0);
            dev.advance_secs(fc.straggler_delay_secs);
        }
        let (cycles, l2) = probe.end(&dev);
        let loss = task.loss(&mut eval, batch, &w);
        trace.push(dev.elapsed_secs(), loss);
        rec.record(EpochMetrics {
            simulated_cycles: cycles,
            l2_hit_ratio: l2,
            faults: fc,
            ..EpochMetrics::new(epoch + 1, dev.elapsed_secs(), loss)
        });
        if sup.observe(epoch + 1, dev.elapsed_secs(), loss, &w, &trace, &mut rec) {
            break;
        }
    }
    let verdict = sup.finish();
    RunReport {
        label: label(task, DeviceKind::Gpu),
        device: DeviceKind::Gpu,
        step_size: alpha,
        trace,
        opt_seconds: dev.elapsed_secs(),
        timed_out: verdict.timed_out,
        metrics: rec.finish(),
        outcome: verdict.outcome,
        best_model: verdict.best_model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NullObserver;
    use sgd_linalg::{CsrMatrix, Matrix};
    use sgd_models::{lr, svm, Examples};

    fn separable() -> (Matrix, Vec<f64>) {
        let x = Matrix::from_fn(64, 4, |i, j| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * ((i * 7 + j * 3) % 5 + 1) as f64 / 5.0
        });
        let y: Vec<f64> = (0..64).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (x, y)
    }

    #[test]
    fn all_devices_produce_identical_statistics() {
        // Synchronous updates are deterministic: the loss trajectory must
        // be numerically identical across devices (paper: "the statistical
        // efficiency is identical in synchronous SGD").
        let (x, y) = separable();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 12, threads: 2, ..Default::default() };
        let seq = sync_observed(&task, &b, DeviceKind::CpuSeq, 1.0, &opts, &mut NullObserver);
        let par = sync_observed(&task, &b, DeviceKind::CpuPar, 1.0, &opts, &mut NullObserver);
        let gpu = sync_observed(&task, &b, DeviceKind::Gpu, 1.0, &opts, &mut NullObserver);
        let ls: Vec<f64> = seq.trace.points().iter().map(|&(_, l)| l).collect();
        let lp: Vec<f64> = par.trace.points().iter().map(|&(_, l)| l).collect();
        let lg: Vec<f64> = gpu.trace.points().iter().map(|&(_, l)| l).collect();
        assert_eq!(ls.len(), lp.len());
        assert_eq!(ls.len(), lg.len());
        for i in 0..ls.len() {
            assert!((ls[i] - lp[i]).abs() < 1e-9, "epoch {i}: {} vs {}", ls[i], lp[i]);
            assert!((ls[i] - lg[i]).abs() < 1e-12, "epoch {i}: {} vs {}", ls[i], lg[i]);
        }
    }

    #[test]
    fn loss_decreases_on_separable_data() {
        let (x, y) = separable();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = svm(4);
        let opts = RunOptions { max_epochs: 40, ..Default::default() };
        let rep = sync_observed(&task, &b, DeviceKind::CpuSeq, 1.0, &opts, &mut NullObserver);
        assert!(rep.best_loss() < 0.5, "loss {}", rep.best_loss());
        assert!(rep.time_per_epoch() > 0.0);
    }

    #[test]
    fn sparse_path_matches_dense_path() {
        let (x, y) = separable();
        let sparse = CsrMatrix::from_dense(&x);
        let bd = Batch::new(Examples::Dense(&x), &y);
        let bs = Batch::new(Examples::Sparse(&sparse), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 8, ..Default::default() };
        let rd = sync_observed(&task, &bd, DeviceKind::CpuSeq, 0.5, &opts, &mut NullObserver);
        let rs = sync_observed(&task, &bs, DeviceKind::CpuSeq, 0.5, &opts, &mut NullObserver);
        for (a, b) in rd.trace.points().iter().zip(rs.trace.points()) {
            assert!((a.1 - b.1).abs() < 1e-12);
        }
    }

    #[test]
    fn early_stop_at_target_loss() {
        let (x, y) = separable();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 500, target_loss: Some(0.2), ..Default::default() };
        let rep = sync_observed(&task, &b, DeviceKind::CpuSeq, 1.0, &opts, &mut NullObserver);
        assert!(!rep.timed_out);
        assert!(rep.trace.epochs() < 500, "stopped early");
        let last = rep.trace.points().last().expect("nonempty").1;
        assert!(last <= 0.2 * 1.01 + 1e-12);
    }

    #[test]
    fn divergent_step_size_terminates() {
        // Non-separable data (conflicting labels on identical examples):
        // a huge step size can never reach a near-zero loss.
        let (x, mut y) = separable();
        for i in (0..y.len()).step_by(4) {
            y[i] = -y[i];
        }
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 50, target_loss: Some(1e-6), ..Default::default() };
        let rep = sync_observed(&task, &b, DeviceKind::CpuSeq, 1e6, &opts, &mut NullObserver);
        // The run must terminate without reporting convergence to ~0 loss.
        assert!(rep.summarize(0.0).time_to_1pct().is_none());
        assert!(rep.trace.epochs() <= 50);
        // Divergence is no longer a silent break: it is classified.
        assert!(rep.diverged(), "outcome: {:?}", rep.outcome);
    }

    #[test]
    fn straggler_stalls_the_sync_barrier_by_its_full_slowdown() {
        // Simulated GPU time is deterministic, so the dilation is exact:
        // a 3x straggler stretches every synchronous epoch by 3x.
        let (x, y) = separable();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let clean = RunOptions { max_epochs: 6, plateau: None, ..Default::default() };
        let faulty = RunOptions {
            faults: crate::FaultPlan::default().with_straggler(0, 3.0),
            ..clean.clone()
        };
        let rc = sync_observed(&task, &b, DeviceKind::Gpu, 0.5, &clean, &mut NullObserver);
        let rf = sync_observed(&task, &b, DeviceKind::Gpu, 0.5, &faulty, &mut NullObserver);
        assert_eq!(rc.trace.epochs(), rf.trace.epochs(), "statistics unchanged");
        assert!(
            (rf.opt_seconds - 3.0 * rc.opt_seconds).abs() < 1e-9 * rc.opt_seconds.max(1.0),
            "{} vs 3 x {}",
            rf.opt_seconds,
            rc.opt_seconds
        );
        let delay = rf.metrics.total_faults().straggler_delay_secs;
        assert!((delay - 2.0 * rc.opt_seconds).abs() < 1e-9 * rc.opt_seconds.max(1.0));
    }

    #[test]
    fn worker_death_aborts_the_sync_barrier() {
        let (x, y) = separable();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions {
            max_epochs: 10,
            faults: crate::FaultPlan::default().with_worker_death(0, 2),
            ..Default::default()
        };
        let rep = sync_observed(&task, &b, DeviceKind::CpuSeq, 0.5, &opts, &mut NullObserver);
        assert_eq!(rep.outcome, crate::RunOutcome::FaultAborted { epoch: 3 });
        assert_eq!(rep.trace.epochs(), 2, "epochs 0 and 1 completed before the death");
    }

    #[test]
    fn dropped_and_stale_updates_are_counted() {
        let (x, y) = separable();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions {
            max_epochs: 40,
            plateau: None,
            faults: crate::FaultPlan::default().with_seed(3).with_drops(0.3).with_stale_reads(0.3),
            ..Default::default()
        };
        let rep = sync_observed(&task, &b, DeviceKind::CpuSeq, 0.5, &opts, &mut NullObserver);
        let total = rep.metrics.total_faults();
        assert!(total.dropped_updates > 0, "40 epochs at 30% drop rate");
        assert!(total.stale_reads > 0, "40 epochs at 30% stale rate");
    }

    #[test]
    fn gpu_epochs_have_consistent_cost() {
        let (x, y) = separable();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 10, ..Default::default() };
        let rep = sync_observed(&task, &b, DeviceKind::Gpu, 0.5, &opts, &mut NullObserver);
        let pts = rep.trace.points();
        // Epoch costs after the warm-up are exactly equal (replayed).
        let d3 = pts[3].0 - pts[2].0;
        let d9 = pts[9].0 - pts[8].0;
        assert!((d3 - d9).abs() < 1e-15, "{d3} vs {d9}");
        assert!(rep.opt_seconds > 0.0);
    }

    #[test]
    fn gpu_metrics_record_cycles_and_l2_every_epoch() {
        // Sparse data: the SpMV kernels are warp-traced, so the L2
        // counters move (the dense GEMM path is analytic and reports no
        // cache behaviour — its ratio stays NaN by design).
        let n = 64;
        let entries: Vec<Vec<(u32, f64)>> =
            (0..n).map(|i| vec![((i % 4) as u32, if i % 2 == 0 { 1.0 } else { -1.0 })]).collect();
        let y: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let xs = CsrMatrix::from_row_entries(n, 4, &entries);
        let b = Batch::new(Examples::Sparse(&xs), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 6, ..Default::default() };
        let rep = sync_observed(&task, &b, DeviceKind::Gpu, 0.5, &opts, &mut NullObserver);
        let m = &rep.metrics;
        assert_eq!(m.epochs.len(), rep.trace.epochs());
        for e in &m.epochs {
            assert!(e.simulated_cycles > 0.0, "epoch {}", e.epoch);
            assert!(e.l2_hit_ratio.is_finite(), "epoch {}", e.epoch);
            assert_eq!(e.update_conflicts, 0, "sync runs have no racy updates");
        }
        // Replayed epochs carry the traced warm-epoch ratio forward.
        assert_eq!(m.epochs[2].l2_hit_ratio, m.epochs[1].l2_hit_ratio);
        // Replay advances the clock, so cycle deltas match the warm epoch.
        assert!((m.epochs[2].simulated_cycles - m.epochs[1].simulated_cycles).abs() < 1e-6);
    }

    #[test]
    fn cpu_metrics_match_trace() {
        let (x, y) = separable();
        let b = Batch::new(Examples::Dense(&x), &y);
        let task = lr(4);
        let opts = RunOptions { max_epochs: 5, ..Default::default() };
        let rep = sync_observed(&task, &b, DeviceKind::CpuSeq, 0.5, &opts, &mut NullObserver);
        assert_eq!(rep.metrics.epochs.len(), rep.trace.epochs());
        for (e, p) in rep.metrics.epochs.iter().zip(&rep.trace.points()[1..]) {
            assert_eq!(e.loss, p.1);
            assert_eq!(e.elapsed_secs, p.0);
            assert!(e.simulated_cycles.is_nan(), "wall runs have no cycle model");
        }
    }
}
