//! The one step both comparators run.
//!
//! A comparator is a [`SyncUpdate`]: one full-batch update, the loss and
//! the model. [`run`] puts it on the [`Clock`] its configuration names and
//! hands it to the engine's [`EpochLoop`], which owns the loss trace, the
//! stop decision (divergence and explosion sentinel, convergence target,
//! time budget, plateau), the best model and the report.

use std::time::Instant;

use sgd_core::{
    Configuration, DeviceKind, EpochLoop, EpochMetrics, EpochStep, Halt, NullObserver, RunOptions,
    RunReport, Timing,
};
use sgd_cpusim::CpuModelExec;
use sgd_gpusim::kernels::GpuExec;
use sgd_gpusim::GpuDevice;
use sgd_linalg::{Backend, CpuExec, Exec, Scalar};

/// What one framework does in a synchronous (full-batch) epoch.
pub(crate) trait SyncUpdate {
    /// Sparse GPU kernels take the naive thread-per-row layout instead of
    /// the coalescing-friendly warp-per-row one.
    const THREAD_PER_ROW: bool;
    /// Host-side seconds the framework spends per GPU kernel launch.
    const LAUNCH_SECS: f64;
    /// The CPU backend parallelizes every matrix product: no ViennaCL-style
    /// minimum size, on the wall and the modeled clock alike.
    const PARALLEL_EVERY_GEMM: bool;

    /// One full-batch gradient step of size `alpha` on `e`.
    fn update<E: Exec>(&mut self, e: &mut E, alpha: f64);

    /// Full-batch loss of the current model on `e`.
    fn loss<E: Exec>(&self, e: &mut E) -> f64;

    /// Brings [`SyncUpdate::model`] up to date; called once per epoch,
    /// after the clock has stopped.
    fn sync_model(&mut self) {}

    /// The current model as one slice.
    fn model(&self) -> &[Scalar];
}

/// Who owns a run's seconds.
enum Clock {
    /// Wall seconds of the update on `exec`, which also evaluates the loss.
    Wall { exec: CpuExec, secs: f64 },
    /// Simulated GPU seconds: epochs 0 and 1 trace the kernel stream (cold
    /// and warm cache); later epochs compute the identical update on the
    /// host and replay the warm epoch's cost.
    Gpu { dev: Box<GpuDevice>, host: CpuExec, warm: f64 },
    /// Modeled CPU seconds of the paper's machine.
    Modeled { exec: CpuModelExec, host: CpuExec },
}

impl Clock {
    /// The executor the loss is evaluated on, untimed.
    fn loss_exec(&mut self) -> &mut CpuExec {
        match self {
            Clock::Wall { exec, .. } => exec,
            Clock::Gpu { host, .. } | Clock::Modeled { host, .. } => host,
        }
    }

    /// Runs epoch `epoch` of `u` and returns the clock after it.
    fn epoch<U: SyncUpdate>(
        &mut self,
        u: &mut U,
        alpha: f64,
        epoch: usize,
        m: &mut EpochMetrics,
    ) -> f64 {
        match self {
            Clock::Wall { exec, secs } => {
                let t0 = Instant::now();
                u.update(exec, alpha);
                *secs += t0.elapsed().as_secs_f64();
                *secs
            }
            Clock::Gpu { dev, host, warm } => {
                let cycles0 = dev.elapsed_cycles();
                if epoch < 2 {
                    let (t0, k0) = (dev.elapsed_secs(), dev.stats().kernels_launched);
                    u.update(&mut GpuExec { dev, thread_per_row: U::THREAD_PER_ROW }, alpha);
                    let launches = dev.stats().kernels_launched - k0;
                    dev.advance_secs(U::LAUNCH_SECS * launches as f64);
                    *warm = dev.elapsed_secs() - t0;
                } else {
                    u.update(host, alpha);
                    dev.advance_secs(*warm);
                }
                m.simulated_cycles = dev.elapsed_cycles() - cycles0;
                dev.elapsed_secs()
            }
            Clock::Modeled { exec, .. } => {
                u.update(exec, alpha);
                exec.elapsed_secs()
            }
        }
    }
}

struct Step<U> {
    update: U,
    clock: Clock,
    alpha: f64,
}

impl<U: SyncUpdate> EpochStep for Step<U> {
    fn loss(&mut self) -> f64 {
        self.update.loss(self.clock.loss_exec())
    }

    fn epoch(&mut self, epoch: usize, m: &mut EpochMetrics) -> Result<f64, Halt> {
        let t = self.clock.epoch(&mut self.update, self.alpha, epoch, m);
        self.update.sync_model();
        Ok(t)
    }

    fn model(&self) -> &[Scalar] {
        self.update.model()
    }
}

/// Runs `update` on the corner `cfg` names, reporting as `name`
/// (`BIDMach LR`, `TF MLP`).
pub(crate) fn run<U: SyncUpdate>(
    cfg: &Configuration,
    name: &str,
    update: U,
    alpha: f64,
    opts: &RunOptions,
) -> RunReport {
    let (device, clock, suffix) = match &cfg.timing {
        Timing::Wall => {
            let clock = match cfg.device {
                DeviceKind::CpuSeq => Clock::Wall { exec: CpuExec::seq(), secs: 0.0 },
                DeviceKind::CpuPar if U::PARALLEL_EVERY_GEMM => {
                    Clock::Wall { exec: CpuExec(Backend::par_unconditional()), secs: 0.0 }
                }
                DeviceKind::CpuPar => Clock::Wall { exec: CpuExec::par(), secs: 0.0 },
                DeviceKind::Gpu => {
                    Clock::Gpu { dev: Box::new(opts.gpu_device()), host: CpuExec::seq(), warm: 0.0 }
                }
            };
            (cfg.device, clock, "")
        }
        Timing::Modeled(mc) => {
            assert_ne!(cfg.device, DeviceKind::Gpu, "modeled timing covers CPU devices");
            let mut exec = CpuModelExec::new(mc.spec.clone(), mc.threads);
            exec.gemm_parallel_threshold =
                if U::PARALLEL_EVERY_GEMM { 0 } else { mc.gemm_parallel_threshold };
            (mc.device(), Clock::Modeled { exec, host: CpuExec::seq() }, " (modeled)")
        }
    };
    let id = EpochLoop {
        label: format!("{name} sync {}{suffix}", device.label()),
        device,
        step_size: alpha,
    };
    let wall_par = matches!(cfg.timing, Timing::Wall) && device == DeviceKind::CpuPar;
    let mut step = Step { update, clock, alpha };
    // The whole run is at the kernel tier, as in `Engine::run`.
    let drive =
        || sgd_linalg::pool::with_tier(opts.tier, || id.run(&mut step, opts, &mut NullObserver));
    if wall_par {
        sgd_linalg::pool::with_threads(opts.threads, drive)
    } else {
        drive()
    }
}
