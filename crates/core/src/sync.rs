//! Synchronous SGD (full-batch gradient descent per epoch).
//!
//! The paper's synchronous configuration: the optimization epoch is a
//! sequence of blocking linear-algebra primitives (Algorithm 2), so the
//! model is updated once per pass and statistical efficiency is identical
//! across devices — only hardware efficiency differs. The identical task
//! code runs on all three devices through the `Exec` abstraction.

use sgd_gpusim::kernels::GpuExec;
use sgd_linalg::{CpuExec, Exec, Scalar};
use sgd_models::{Batch, Task};

use crate::backend::{BackendSession, ComputeBackend, ExecTask};
use crate::config::{DeviceKind, RunOptions};
use crate::epoch_loop::{EpochLoop, EpochStep, Halt, ModelStep};
use crate::faults::{sync_epoch_faults, FaultCounters, FaultPlan};
use crate::metrics::{EpochMetrics, EpochObserver, GpuEpochProbe};
use crate::report::RunReport;

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
    let id = EpochLoop {
        label: format!("{} sync {}", task.name(), device.label()),
        device,
        step_size: alpha,
    };
    let mut s = SyncState::new(task, batch, alpha, opts, opts.threads);
    match ComputeBackend::from_device(device, opts.threads) {
        ComputeBackend::GpuSim => {
            let (mut dev, mut probe, mut host) =
                (opts.gpu_device(), GpuEpochProbe::new(), CpuExec::seq());
            let mut warm_epoch_cost = 0.0;
            let run = |w: &mut [Scalar], epoch, m: &mut EpochMetrics| {
                if s.barrier_stalled(epoch) {
                    return Err(Halt::FaultAborted { clock: dev.elapsed_secs() });
                }
                probe.begin(&dev);
                let epoch_start = dev.elapsed_secs();
                if epoch < 2 {
                    // Trace the real kernel stream (epoch 0 cold, epoch 1
                    // warm L2).
                    let mut e = GpuExec::new(&mut dev);
                    s.task.gradient(&mut e, batch, w, &mut s.g);
                    s.update(&mut e, w, epoch, &mut m.faults);
                    warm_epoch_cost = dev.elapsed_secs() - epoch_start;
                } else {
                    // Identical access pattern: replay the warm-epoch cost
                    // while computing the numerically identical update on
                    // the host.
                    s.task.gradient(&mut host, batch, w, &mut s.g);
                    s.update(&mut host, w, epoch, &mut m.faults);
                    dev.advance_secs(warm_epoch_cost);
                }
                // The device stream stalls until the slowest participant of
                // the synchronous step has finished.
                let dil = s.faults.sync_dilation(s.workers);
                m.faults.straggler_delay_secs = (dev.elapsed_secs() - epoch_start) * (dil - 1.0);
                dev.advance_secs(m.faults.straggler_delay_secs);
                (m.simulated_cycles, m.l2_hit_ratio) = probe.end(&dev);
                Ok(dev.elapsed_secs())
            };
            id.run(
                &mut ModelStep::new(task, batch, CpuExec::seq(), task.init_model(), run),
                opts,
                obs,
            )
        }
        // Both CPU corners collapse into one arm: the backend owns the
        // seq-vs-pooled-par distinction (including installing the kernel
        // width on the persistent pool around every dispatch, so kernels
        // running on pool workers honor `opts.threads`).
        backend => {
            let mut step = CpuSyncStep {
                sync: s,
                backend,
                sess: BackendSession::new(),
                w: task.init_model(),
                fwd: T::Forward::default(),
                fwd_is_current: false,
                opt_seconds: 0.0,
            };
            id.run(&mut step, opts, obs)
        }
    }
}

/// What every sync step carries besides the model: the gradient and the
/// last applied gradient (kept for stale-gradient-replay faults).
pub(crate) struct SyncState<'a, T: Task> {
    pub(crate) task: &'a T,
    pub(crate) batch: &'a Batch<'a>,
    pub(crate) alpha: f64,
    pub(crate) faults: &'a FaultPlan,
    /// Participants of the barrier (dead or straggling workers stall it).
    pub(crate) workers: usize,
    pub(crate) g: Vec<Scalar>,
    pub(crate) prev_g: Vec<Scalar>,
}

impl<'a, T: Task> SyncState<'a, T> {
    pub(crate) fn new(
        task: &'a T,
        batch: &'a Batch<'a>,
        alpha: f64,
        opts: &'a RunOptions,
        workers: usize,
    ) -> Self {
        SyncState {
            task,
            batch,
            alpha,
            faults: &opts.faults,
            workers: workers.max(1),
            g: vec![0.0; task.dim()],
            prev_g: vec![0.0; task.dim()],
        }
    }

    /// Applies the gradient in `g` to `w`, as the fault plan decides for
    /// `epoch`: dropped, replaced by the last applied gradient, or scaled.
    pub(crate) fn update<E: Exec>(
        &mut self,
        e: &mut E,
        w: &mut [Scalar],
        epoch: usize,
        fc: &mut FaultCounters,
    ) {
        let d = sync_epoch_faults(self.faults, epoch, fc);
        if !d.dropped {
            let step = if d.stale { &self.prev_g } else { &self.g };
            e.axpy(-self.alpha * d.alpha_factor, step, w);
        }
        if !d.stale {
            std::mem::swap(&mut self.g, &mut self.prev_g);
        }
    }

    /// `true` when a dead worker never reaches this epoch's barrier: the
    /// epoch can never complete.
    pub(crate) fn barrier_stalled(&self, epoch: usize) -> bool {
        self.faults.barrier_stalled(self.workers, epoch)
    }
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
struct SyncEpochJob<'s, 'a, T: Task> {
    sync: &'s mut SyncState<'a, T>,
    epoch: usize,
    w: &'s mut [Scalar],
    fwd: &'s mut T::Forward,
    fc: &'s mut FaultCounters,
}

impl<T: Task> ExecTask for SyncEpochJob<'_, '_, T> {
    type Out = ();
    fn run<E: Exec>(&mut self, e: &mut E) {
        let s = &mut *self.sync;
        s.task.gradient_from(e, s.batch, self.w, self.fwd, &mut s.g);
        s.update(e, self.w, self.epoch, self.fc);
        s.task.forward(e, s.batch, self.w, self.fwd);
    }
}

/// The CPU sync step: one timed backend dispatch per epoch, the loss
/// read off the forward pass it ends with in a second, untimed one.
struct CpuSyncStep<'a, T: Task> {
    sync: SyncState<'a, T>,
    backend: ComputeBackend,
    sess: BackendSession,
    w: Vec<Scalar>,
    /// The forward pass of the current model, reused across epochs.
    fwd: T::Forward,
    /// `false` until a dispatch has left the current model's pass in `fwd`.
    fwd_is_current: bool,
    opt_seconds: f64,
}

impl<T: Task> EpochStep for CpuSyncStep<'_, T> {
    fn loss(&mut self) -> f64 {
        let s = &self.sync;
        let forward_of = if self.fwd_is_current { None } else { Some(&self.w[..]) };
        let mut job = LossJob { task: s.task, batch: s.batch, forward_of, fwd: &mut self.fwd };
        self.fwd_is_current = true;
        self.backend.dispatch(&mut self.sess, &mut job).out
    }

    fn epoch(&mut self, epoch: usize, m: &mut EpochMetrics) -> Result<f64, Halt> {
        let s = &mut self.sync;
        if s.barrier_stalled(epoch) {
            return Err(Halt::FaultAborted { clock: self.opt_seconds });
        }
        let (w, fwd, fc) = (&mut self.w[..], &mut self.fwd, &mut m.faults);
        let mut job = SyncEpochJob { sync: s, epoch, w, fwd, fc };
        let mut epoch_secs = self.backend.dispatch(&mut self.sess, &mut job).wall_secs;
        // The barrier waits for the slowest straggler.
        let dil = s.faults.sync_dilation(s.workers);
        m.faults.straggler_delay_secs = epoch_secs * (dil - 1.0);
        epoch_secs *= dil;
        self.opt_seconds += epoch_secs;
        Ok(self.opt_seconds)
    }

    fn model(&self) -> &[Scalar] {
        &self.w
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
