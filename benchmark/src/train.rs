//! The training path: `Engine` runs to a loss target, back to back, for
//! the length of the window.
//!
//! An operation is one epoch (a `RunReport::trace` delta — the paper's
//! hardware efficiency), a target is the loss within 1 % of the
//! reference optimum (epochs to it — statistical efficiency; wall seconds
//! of the whole `Engine::run` call to it — time to convergence, which
//! includes the per-epoch loss evaluation the trace leaves out, so work
//! moved out of the timed region still counts).

use std::time::Duration;

use sgd_core::{
    reference_optimum, BackendSession, ComputeBackend, Configuration, CpuModelConfig, DeviceKind,
    Engine, EpochMetrics, EpochObserver, ExecTask, RunOptions, Strategy, Timing,
};
use sgd_datagen::DatasetProfile;
use sgd_linalg::pool::{with_stats, PoolStats};
use sgd_linalg::{Exec, Scalar};
use sgd_models::{lr, Batch, Examples, Task};

use crate::inputs::LinearData;
use crate::json::Json;
use crate::measure::{path_residual, per_call_secs, repeat_setup, timed, Ctx};
use crate::report::Outcome;
use crate::runs::Runs;
use crate::trace::{Lane, Tracer};

/// Threads of the parallel configurations: the host has two cores, and
/// every workload is sized to them.
const THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    DenseSync,
    SparseHogwild,
}

pub struct TrainSpec {
    kind: Kind,
    profile: fn() -> DatasetProfile,
    scale: f64,
    alpha: f64,
    /// Epochs of the full-batch reference run per step size that the
    /// target is derived from.
    ref_epochs: usize,
    max_epochs: usize,
}

pub const DENSE_SYNC: TrainSpec = TrainSpec {
    kind: Kind::DenseSync,
    profile: DatasetProfile::covtype,
    scale: 0.1,
    alpha: 100.0,
    ref_epochs: 50,
    max_epochs: 500,
};

/// α = 0.1 reaches the target in 8 epochs here, and a count that small
/// moves by an eighth when one seed needs 9; α = 0.01 takes ~74, so the
/// same one-epoch wobble is 1.4 %.
pub const SPARSE_HOGWILD: TrainSpec = TrainSpec {
    kind: Kind::SparseHogwild,
    profile: DatasetProfile::rcv1,
    scale: 0.02,
    alpha: 0.01,
    ref_epochs: 100,
    max_epochs: 400,
};

impl TrainSpec {
    fn strategy(&self) -> Strategy {
        match self.kind {
            Kind::DenseSync => Strategy::Sync,
            Kind::SparseHogwild => Strategy::Hogwild,
        }
    }
}

struct Inputs {
    data: LinearData,
    target: f64,
    generate_s: f64,
    reference_s: f64,
}

fn setup(spec: &TrainSpec, seed: u64) -> Inputs {
    let (data, generate_s) = timed(|| LinearData::generate(&(spec.profile)(), spec.scale, seed));
    let task = lr(data.d());
    let (target, reference_s) = timed(|| reference_optimum(&task, &data.batch(), spec.ref_epochs));
    Inputs { data, target, generate_s, reference_s }
}

fn options(spec: &TrainSpec, inputs: &Inputs, seed: u64, threads: usize) -> RunOptions {
    RunOptions {
        max_epochs: spec.max_epochs,
        max_secs: 120.0,
        target_loss: Some(inputs.target),
        threads,
        seed,
        plateau: None,
        ..Default::default()
    }
}

/// Turns the engine's per-epoch callbacks into spans under the run span
/// open on the lane.
struct EpochSpans<'l, 't> {
    lane: &'l mut Lane<'t>,
    last_ns: u64,
}

impl EpochObserver for EpochSpans<'_, '_> {
    fn on_epoch(&mut self, m: &EpochMetrics) {
        let now = self.lane.now_ns();
        self.lane.record("core.engine.epoch", m.epoch as u64, self.last_ns, now);
        self.last_ns = now;
    }
}

/// Runs to target back to back for `window`, each under a run span with
/// one child span per epoch.
fn run_window(
    spec: &TrainSpec,
    inputs: &Inputs,
    (device, threads): (DeviceKind, usize),
    seed: u64,
    window: Duration,
    lane: &mut Lane<'_>,
) -> Runs {
    let task = lr(inputs.data.d());
    let batch = inputs.data.batch();
    let cfg = Configuration::new(device, spec.strategy());
    let opts = options(spec, inputs, seed, threads);
    Runs::back_to_back(window, |run| {
        Ok(lane.span("core.engine.run", run, |lane| {
            let last_ns = lane.now_ns();
            let mut obs = EpochSpans { lane, last_ns };
            Engine::run_observed(&cfg, &task, &batch, spec.alpha, &opts, &mut obs)
        }))
    })
}

/// The configuration the workload measures.
const PARALLEL: (DeviceKind, usize) = (DeviceKind::CpuPar, THREADS);

pub fn run(spec: &TrainSpec, ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeat_setup(|| setup(spec, ctx.seed));
    out.set("setup_s", setup_s);
    out.note("rows", Json::Num(inputs.data.n() as f64));
    out.note("features", Json::Num(inputs.data.d() as f64));
    out.note("target_loss", Json::Num(inputs.target));

    // With tracing off the lane reads no clock and the observer records
    // nothing, so the untraced leg is `Engine::run` plus one empty
    // callback per epoch.
    let off = Tracer::new(false);
    let untraced_window = if ctx.traced() { ctx.untraced_leg() } else { ctx.window() };
    let base = run_window(spec, &inputs, PARALLEL, ctx.seed, untraced_window, &mut off.lane());
    let traced = ctx.traced().then(|| {
        run_window(spec, &inputs, PARALLEL, ctx.seed, ctx.traced_leg(), &mut ctx.tracer.lane())
    });
    match &traced {
        Some(traced) => per_layer(spec, ctx, &inputs, &base, traced, &mut out),
        None => base.set_end_to_end(&mut out),
    }
    for w in std::iter::once(&base).chain(&traced) {
        w.check(&mut out);
        if spec.kind == Kind::DenseSync {
            out.check(
                "loss traces are bitwise identical across repeats",
                w.losses_repeat,
                format!("{} runs of a deterministic configuration", w.runs),
            );
        }
    }
    out
}

/// One layer call as a backend job, so the replays run on exactly the
/// executor (pool width, kernel tier) the engine's sync corner uses.
enum Kernel<'a, T: Task> {
    Gradient {
        task: &'a T,
        batch: &'a Batch<'a>,
        w: &'a [Scalar],
        g: &'a mut [Scalar],
    },
    Loss {
        task: &'a T,
        batch: &'a Batch<'a>,
        w: &'a [Scalar],
    },
    /// `y = A x`, dense or CSR by the batch's representation.
    MatVec {
        x: &'a Examples<'a>,
        v: &'a [Scalar],
        y: &'a mut [Scalar],
    },
    /// `y = A^T x`.
    MatVecT {
        x: &'a Examples<'a>,
        v: &'a [Scalar],
        y: &'a mut [Scalar],
    },
}

impl<T: Task> ExecTask for Kernel<'_, T> {
    type Out = Scalar;
    fn run<E: Exec>(&mut self, e: &mut E) -> Scalar {
        match self {
            Kernel::Gradient { task, batch, w, g } => {
                task.gradient(e, batch, w, g);
                0.0
            }
            Kernel::Loss { task, batch, w } => task.loss(e, batch, w),
            Kernel::MatVec { x, v, y } => {
                match x {
                    Examples::Dense(a) => e.gemv(a, v, y),
                    Examples::Sparse(a) => e.spmv(a, v, y),
                }
                0.0
            }
            Kernel::MatVecT { x, v, y } => {
                match x {
                    Examples::Dense(a) => e.gemv_t(a, v, y),
                    Examples::Sparse(a) => e.spmv_t(a, v, y),
                }
                0.0
            }
        }
    }
}

fn per_layer(
    spec: &TrainSpec,
    ctx: &Ctx<'_>,
    inputs: &Inputs,
    base: &Runs,
    traced: &Runs,
    out: &mut Outcome,
) {
    let task = lr(inputs.data.d());
    let batch = inputs.data.batch();
    let (n, d) = (inputs.data.n(), inputs.data.d());
    traced.set_traced(base, out);
    out.set("datagen.generate_s", inputs.generate_s);
    out.set("core.reference_optimum_s", inputs.reference_s);
    out.set("core.engine.staleness_rounds", traced.staleness_rounds as f64 / traced.runs as f64);
    out.set("core.engine.update_conflicts", traced.update_conflicts as f64 / traced.runs as f64);

    // The path: wall of Engine::run = the seconds its trace times + the
    // untimed residual (loss evaluation, observer, start and join).
    let layers = [("core.engine.timed_s", traced.timed_s)];
    if let Some(untimed) =
        path_residual(out, "train path", traced.wall_s, &layers, "core.engine.untimed_s")
    {
        out.set("core.engine.untimed_frac", untimed / traced.wall_s);
    }

    // Isolated replays on the sync corner's executor.
    let backend = ComputeBackend::from_device(DeviceKind::CpuPar, THREADS);
    let mut session = BackendSession::new();
    let budget = ctx.replay_budget(4);
    let w = task.init_model();
    let mut g = vec![0.0; d];
    let mut rows = vec![0.0; n];
    let ones_d = vec![1.0; d];
    let ones_n = vec![1.0; n];
    let mut replay = |job: &mut Kernel<'_, _>| {
        per_call_secs(budget, || {
            std::hint::black_box(backend.dispatch(&mut session, job).out);
        })
    };
    let gradient_s = replay(&mut Kernel::Gradient { task: &task, batch: &batch, w: &w, g: &mut g });
    let loss_s = replay(&mut Kernel::Loss { task: &task, batch: &batch, w: &w });
    let matvec_s = replay(&mut Kernel::MatVec { x: &batch.x, v: &ones_d, y: &mut rows });
    let matvec_t_s = replay(&mut Kernel::MatVecT { x: &batch.x, v: &ones_n, y: &mut g });
    out.set("models.gradient_ms", gradient_s * 1.0e3);
    out.set("models.loss_ms", loss_s * 1.0e3);
    let nnz = inputs.data.ds.x.nnz() as f64;
    let (nf, df) = (n as f64, d as f64);
    match spec.kind {
        Kind::DenseSync => {
            out.set("linalg.gemv_ms", matvec_s * 1.0e3);
            out.set("linalg.gemv_t_ms", matvec_t_s * 1.0e3);
            out.set("linalg.gemv_gflops", 2.0 * nf * df / matvec_s / 1.0e9);
            // Computed, not measured: one sync epoch streams the matrix
            // twice (gemv, gemv_t), the n-vector of margins four times
            // and the d-vectors three times (x, gradient, axpy).
            out.set("linalg.dense_bytes_per_epoch", 8.0 * (2.0 * nf * df + 4.0 * nf + 3.0 * df));
        }
        Kind::SparseHogwild => {
            out.set("linalg.spmv_ms", matvec_s * 1.0e3);
            out.set("linalg.spmv_t_ms", matvec_t_s * 1.0e3);
            // Computed: one Hogwild epoch reads each stored entry twice
            // (dot, then axpy: 12 B of value + index each time), gathers
            // the model once (8 B) and updates it once (16 B).
            out.set("linalg.sparse_bytes_per_epoch", 48.0 * nnz + 8.0 * nf);
        }
    }

    // One run each for the figures that need their own configuration.
    let off = Tracer::new(false);
    let one_run = Duration::ZERO;
    let pool = PoolStats::new();
    let pooled = with_stats(&pool, || {
        run_window(spec, inputs, PARALLEL, ctx.seed, one_run, &mut off.lane())
    });
    out.set(
        "linalg.pool.submissions_per_epoch",
        pool.submissions() as f64 / pooled.epochs.max(1) as f64,
    );
    out.set("linalg.pool.max_width", pool.max_width() as f64);

    let single =
        run_window(spec, inputs, (DeviceKind::CpuSeq, 1), ctx.seed, one_run, &mut off.lane());
    let scaling = single.median_epoch_us() / base.median_epoch_us();
    out.set(
        match spec.kind {
            Kind::DenseSync => "core.sync.scaling_t2",
            Kind::SparseHogwild => "core.hogwild.scaling_t2",
        },
        scaling,
    );

    // The CPU model on trial: the same cell on the modeled clock (the
    // paper's Xeon at this thread count), beside the measurement.
    let modeled_cfg = Configuration::new(DeviceKind::CpuPar, spec.strategy())
        .with_timing(Timing::Modeled(CpuModelConfig::paper_machine(THREADS)));
    let modeled_opts =
        RunOptions { max_epochs: 3, target_loss: None, ..options(spec, inputs, ctx.seed, THREADS) };
    let modeled = Engine::run(&modeled_cfg, &task, &batch, spec.alpha, &modeled_opts);
    let modeled_ms = modeled.time_per_epoch() * 1.0e3;
    out.set("cpusim.train_epoch_ms", modeled_ms);
    out.set("cpusim.residual", base.median_epoch_us() / 1.0e3 / modeled_ms);
}
